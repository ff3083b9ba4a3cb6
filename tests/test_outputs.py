"""The cell comparison of ``tools/outputs.py`` on synthetic CSV text (no git
worktree, no CLI run)."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

_TOOLS = Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(_TOOLS))     # outputs.py imports pairs.py beside it
_spec = importlib.util.spec_from_file_location("outputs", _TOOLS / "outputs.py")
outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(outputs)

PARENT = "a,b,warmup\n1,0.5,1\n2,,0\n"


def test_identical_text_has_no_difference():
    assert outputs.diff_cells("f", PARENT, PARENT) == []


def test_each_differing_cell_is_named_by_line_and_column():
    change = "a,b,warmup\n1,0.500001,1\n2,,0\n"
    assert outputs.diff_cells("f", PARENT, change) == [
        "f: line 2, column 2: '0.5' -> '0.500001'"]


def test_bytes_not_values_are_compared():
    # the same number written differently, and an empty cell filled
    change = "a,b,warmup\n1.0,0.5,1\n2,3,0\n"
    assert outputs.diff_cells("f", PARENT, change) == [
        "f: line 2, column 1: '1' -> '1.0'",
        "f: line 3, column 2: '' -> '3'"]


def test_cells_only_one_side_has_differ():
    change = "a,b,warmup\n1,0.5\n2,,0\n4,5,0\n"
    assert outputs.diff_cells("f", PARENT, change) == [
        "f: line 2, column 3: '1' -> None",
        "f: line 4, column 1: None -> '4'",
        "f: line 4, column 2: None -> '5'",
        "f: line 4, column 3: None -> '0'"]
    assert len(outputs.diff_cells("f", PARENT, "")) == 9


def test_inputs_are_written_as_the_benchmark_writes_them():
    text = outputs.format_csv(["x", "y"], np.array([[0.1 + 0.2, np.nan], [1e-7, 2.0]]))
    assert text == "x,y\n0.3,\n1e-07,2\n"


def test_flags_after_the_separator_go_to_the_cli():
    args = outputs.parse_args(["HEAD", "--workload", "mcar_mixed", "--seed", "1",
                               "--", "--ci", "quantile", "--seed", "4"])
    assert (args.parent, args.seed, args.inputs) == ("HEAD", 1, 3)
    assert args.extra == ["--ci", "quantile", "--seed", "4"]
    assert outputs.parse_args(["HEAD", "--workload", "w", "--seed", "2"]).extra == []

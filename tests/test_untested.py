"""The line tracer of ``tools/untested.py`` on a small module (no pytest run
under the tracer)."""

import importlib.util
import sys
from pathlib import Path

_TOOLS = Path(__file__).resolve().parent.parent / "tools"
_spec = importlib.util.spec_from_file_location("untested", _TOOLS / "untested.py")
untested = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(untested)

SOURCE = '''"""A module."""


def f(x):
    """A docstring is no instruction."""
    if x > 0:
        return x
    raise ValueError(
        "not positive")
'''


def test_executable_lines_are_those_with_instructions():
    # the docstring, the def, the test, both returns and the raise's two lines
    assert untested.executable_lines(SOURCE) == {1, 4, 6, 7, 8, 9}


def test_the_recorder_sees_only_run_lines_of_its_files(tmp_path, monkeypatch):
    path = tmp_path / "pkg" / "mod.py"
    path.parent.mkdir()
    path.write_text(SOURCE, encoding="utf-8")
    monkeypatch.syspath_prepend(str(path.parent))
    monkeypatch.delitem(sys.modules, "mod", raising=False)
    previous = sys.gettrace()
    try:
        with untested.LineRecorder(str(path.parent) + "/") as recorder:
            import mod
            mod.f(1)
    finally:
        sys.settrace(previous)
    ran = {line for name, line in recorder.seen if name == str(path)}
    assert untested.executable_lines(SOURCE) - ran == {8, 9}
    assert all(name == str(path) for name, _ in recorder.seen)

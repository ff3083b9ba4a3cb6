"""Lines of ``src/copulafill`` that no test runs.

Usage, from anywhere inside the repository:

    python3 tools/untested.py                 # the whole suite under tests/
    python3 tools/untested.py tests/test_marginals.py -k Fit

The script runs pytest in this interpreter with a ``sys.settrace`` hook that
records each line of ``src/copulafill`` a test executes, then prints every
executable line that none did, as ``path:line: source``, and a summary line.
Pytest's arguments follow the script's; without any it runs ``tests/``. A
line is executable when the compiled module has an instruction on it. A CLI
started as a subprocess is not traced, so its lines count as unrun unless
an in-process test runs them too. Tracing slows the suite several times
over. Standard library, plus pytest.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "copulafill"


def executable_lines(source: str, filename: str = "<source>") -> set[int]:
    """The lines on which the compiled ``source`` has an instruction."""
    lines, codes = set(), [compile(source, filename, "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)   # 0: a module start
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


class LineRecorder:
    """A trace function that records the (file, line) pairs executed in
    the files under ``prefix``, and traces no other frame line by line."""

    def __init__(self, prefix: str):
        self.prefix, self.seen = prefix, set()

    def __call__(self, frame, event, arg):
        if not frame.f_code.co_filename.startswith(self.prefix):
            return None
        return self._line

    def _line(self, frame, event, arg):
        if event == "line":
            self.seen.add((frame.f_code.co_filename, frame.f_lineno))
        return self._line

    def __enter__(self):
        threading.settrace(self)
        sys.settrace(self)
        return self

    def __exit__(self, *exc):
        sys.settrace(None)
        threading.settrace(None)


def unrun(files, seen) -> list[str]:
    """``path:line: source`` for each executable line of ``files`` that is
    not in ``seen``, paths relative to the repository root."""
    out = []
    for path in files:
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        ran = {line for name, line in seen if name == str(path)}
        for line in sorted(executable_lines(source, str(path)) - ran):
            out.append(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
    return out


def main(argv=None) -> int:
    import pytest

    args = sys.argv[1:] if argv is None else list(argv)
    sys.path.insert(0, str(ROOT / "src"))
    with LineRecorder(str(PACKAGE) + "/") as recorder:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *(args or [str(ROOT / "tests")])])
    files = sorted(PACKAGE.glob("*.py"))
    lines = unrun(files, recorder.seen)
    total = sum(len(executable_lines(p.read_text(encoding="utf-8"))) for p in files)
    print("\n".join(lines))
    print(f"{len(lines)} of {total} executable lines in src/copulafill ran in no test "
          f"(pytest exit status {int(status)})")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())

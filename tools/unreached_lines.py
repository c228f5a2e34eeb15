"""Print, as ``file:line``, each function-body line of ``src/bilarx`` that a
pytest run in this process never executes; every argument goes to pytest."""
import dis
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = str(ROOT / "src" / "bilarx")
ran = set()


def on_line(frame, event, arg):
    if event == "line":
        ran.add((frame.f_code.co_filename, frame.f_lineno))
    return on_line


def on_call(frame, event, arg):
    return on_line if frame.f_code.co_filename.startswith(PACKAGE) else None


def body_lines(code):
    """``(file, line)`` of each line with code in the functions under ``code``."""
    for inner in code.co_consts:
        if isinstance(inner, type(code)):
            yield from ((inner.co_filename, line) for _, line in dis.findlinestarts(inner)
                        if line is not None and line != inner.co_firstlineno)
            yield from body_lines(inner)


sys.settrace(on_call)
status = pytest.main(sys.argv[1:])
sys.settrace(None)
for path in sorted(Path(PACKAGE).glob("*.py")):
    for _, line in sorted(set(body_lines(compile(path.read_text(), str(path), "exec"))) - ran):
        print(f"{path.relative_to(ROOT)}:{line}")
sys.exit(status)

"""Opt-in pytest plugin: print the src/grundy statements no test runs.

    PYTHONPATH=src python -m pytest -q -p tests.untested_lines tests

A statement is a line that holds bytecode. Only the main thread is traced,
so lines run only in sweep worker processes read as unrun, and tracing
slows every test, so timing gates fail under it. Without -p nothing here
is imported.
"""
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "grundy"
_seen: set[tuple[str, int]] = set()


def _trace(frame, event, arg):
    if not frame.f_code.co_filename.startswith(str(SRC)):
        return None
    _seen.add((frame.f_code.co_filename, frame.f_lineno))
    return _trace


def _statements(code):
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _statements(const)
    return lines


def pytest_load_initial_conftests(early_config, parser, args):
    # before the conftest files import the library
    sys.settrace(_trace)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    terminalreporter.section("src/grundy statements no test ran")
    for path in sorted(SRC.glob("*.py")):
        code = compile(path.read_text(), str(path), "exec")
        unrun = sorted(line for line in _statements(code) if (str(path), line) not in _seen)
        if unrun:
            terminalreporter.write_line(f"{path.name}: {' '.join(map(str, unrun))}")

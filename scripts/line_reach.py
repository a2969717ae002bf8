"""List the executable lines of src/lethargy that a test run never runs.

    PYTHONPATH=src:scripts python3 -m pytest -q -p line_reach

A pytest plugin that uses the standard library only.  Before pytest loads
conftest.py, which imports lethargy, it starts a line tracer
(`sys.settrace`, and `threading.settrace` for threads started later) that
records lines only in frames whose code lies under src/lethargy, so
module-level lines count too.  At the end of the session it prints the
number of executable lines, which are the line starts `dis.findlinestarts`
gives for every code object compiled from each module, the number reached,
and each unreached line as `file:line  source`, except the lines of ALLOWED.

Keep it out of the plain test run: traced, the suite takes about one and a
half times as long.
"""

import dis
import os
import sys
import threading
import types
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lethargy"

# (module file, stripped source line) -> why no test runs the line
ALLOWED = {
    ("cli.py", "sys.exit(main())"):
        "the __main__ guard; tests call cli.main in process, and a subprocess is not traced",
}

_hits = set()
_ours = {}  # co_filename -> its path relative to PACKAGE, or None


def _relative(filename):
    if filename not in _ours:
        path = Path(os.path.realpath(filename))
        _ours[filename] = path.relative_to(PACKAGE).as_posix() \
            if path.is_relative_to(PACKAGE) else None
    return _ours[filename]


def _line(frame, event, arg):
    if event == "line":
        _hits.add((_relative(frame.f_code.co_filename), frame.f_lineno))
    return _line


def _call(frame, event, arg):
    name = _relative(frame.f_code.co_filename)
    if name is None:
        return None
    _hits.add((name, frame.f_lineno))  # a function's first line, where its code begins
    return _line


def executable_lines(path):
    """The line starts of every code object compiled from `path`."""
    stack = [compile(path.read_text(), str(path), "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


@pytest.hookimpl(tryfirst=True)
def pytest_load_initial_conftests(early_config, parser, args):
    sys.settrace(_call)
    threading.settrace(_call)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    threading.settrace(None)
    total = 0
    allowed = 0
    unreached = []
    for path in sorted(PACKAGE.rglob("*.py")):
        name = path.relative_to(PACKAGE).as_posix()
        source = path.read_text().splitlines()
        lines = executable_lines(path)
        total += len(lines)
        for line in sorted(lines):
            text = source[line - 1].strip()
            if (name, line) in _hits:
                continue
            if (name, text) in ALLOWED:
                allowed += 1
            else:
                unreached.append(f"{name}:{line}  {text}")
    write = terminalreporter.write_line
    write(f"line reach: {total} executable lines under src/lethargy, "
          f"{total - allowed - len(unreached)} reached, {allowed} allowed, "
          f"{len(unreached)} unreached")
    for entry in unreached:
        write(entry)

"""Line coverage of ``src/finalg`` under a pytest run, standard library only.

Usage, from the repository root::

    python tools/linecov.py                  # the tier-1 suite
    python tools/linecov.py tests/test_core.py -x

The arguments, if any, are passed to ``pytest.main`` in place of the
tier-1 defaults.  A trace function (``sys.settrace`` and
``threading.settrace``) records each line run in a frame whose code lies
under ``src/finalg/``; the executable lines of a module are the line
numbers of its code object and every code object nested in it
(``co_lines``).  Whatever the tests' outcome, it then prints, per module,
the executable lines that never ran, as ranges, and lists each of those
that holds a ``raise``.  The exit code is pytest's.

Tracing slows the suite several-fold, so a test with a wall-clock limit
may fail under it.
"""
from __future__ import annotations

import os
import sys
import threading
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "finalg") + os.sep
TIER1 = ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]


def executable_lines(path: str) -> set[int]:
    """The line numbers of every instruction in the module at ``path``."""
    with open(path, encoding="utf-8") as fh:
        code = compile(fh.read(), path, "exec")
    lines, todo = set(), [code]
    while todo:
        co = todo.pop()
        # A module's first instruction sits on line 0, which no trace reports.
        lines.update(line for _, _, line in co.co_lines() if line)
        todo.extend(c for c in co.co_consts if isinstance(c, types.CodeType))
    return lines


def ranges(lines: list[int]) -> str:
    """Sorted line numbers as ``a-b`` runs, comma separated."""
    out, start = [], None
    for i, line in enumerate(lines):
        if start is None:
            start = line
        if i + 1 == len(lines) or lines[i + 1] != line + 1:
            out.append(str(start) if start == line else f"{start}-{line}")
            start = None
    return ", ".join(out)


def trace(argv: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest on ``argv`` in-process; its exit code and the lines run
    per file under the package."""
    import pytest

    hits: dict[str, set[int]] = {}
    tracers: dict = {}  # per file: its line tracer, or None outside the package

    def tracer_for(lines: set[int]):
        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    def global_(frame, event, arg):
        filename = frame.f_code.co_filename
        try:
            return tracers[filename]
        except KeyError:
            pass
        tracer = None
        if filename.startswith(PACKAGE):
            tracer = tracer_for(hits.setdefault(filename, set()))
        tracers[filename] = tracer
        return tracer

    sys.path.insert(0, os.path.join(ROOT, "src"))
    threading.settrace(global_)
    sys.settrace(global_)
    try:
        code = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), hits


def main(argv: list[str]) -> int:
    os.chdir(ROOT)
    code, hits = trace(argv or TIER1)
    raises = []
    print("\nlines never run, per module:")
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = PACKAGE + name
        missed = sorted(executable_lines(path) - hits.get(path, set()))
        print(f"src/finalg/{name}: {ranges(missed) if missed else '-'}")
        with open(path, encoding="utf-8") as fh:
            text = fh.read().splitlines()
        raises += [(name, n, text[n - 1].strip()) for n in missed
                   if text[n - 1].lstrip().startswith("raise")]
    print(f"\nraise lines never run: {len(raises)}")
    for name, n, line in raises:
        print(f"src/finalg/{name}:{n}: {line}")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

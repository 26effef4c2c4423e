"""Reach probe: the `src/nwfs` functions that only the tier-1 suite calls.

Run it from the repository root:

    python tests/reach_probe.py

With `sys.setprofile` it records every `src/nwfs` function that two sets of
work call:

1. what the engine is run for: each `nwfs` command of CI's end-to-end step
   that exits 0, then one operation and output check of each perfbench
   workload, in this process;
2. the tier-1 suite, in a child process that runs pytest.

It prints the functions that the suite reaches and the first set does not,
then those that neither reaches, each with its line count. A function is
matched by its first line, which is the line of its first decorator when it
has one, as its code object's `co_firstlineno` is.

CI's step runs in a scratch directory with an `nwfs` on `PATH` that runs
`nwfs.cli.main` through this file, profiled, and records what an exit-0
command reached. `PYTHONPATH` is set to `src` for every child, since the
step's inline Python and an acceptance test start the engine themselves.

The probe uses the standard library only. Its name does not match
`test_*.py`, so pytest does not collect it.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ENGINE = SRC / "nwfs"
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"
CI_STEP = "Installed nwfs command runs end to end"
LOG = "REACH_PROBE_LOG"


def engine_functions() -> dict[tuple[str, int], tuple[str, int]]:
    """(file, first line) -> (qualified name, lines) for every `def` in the engine."""
    found = {}

    def walk(node, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                found[path, first] = (prefix + child.name, child.end_lineno - first + 1)
                walk(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}{child.name}.")
            else:
                walk(child, path, prefix)

    for path in sorted(ENGINE.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), str(path), "")
    return found


@contextlib.contextmanager
def profiled(reached: set[tuple[str, int]]):
    """Add (file, first line) of every engine function called inside to `reached`."""
    codes = set()

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(hook)
    try:
        yield
    finally:
        sys.setprofile(None)
        engine = str(ENGINE)
        for code in codes:
            path = os.path.realpath(code.co_filename)
            if os.path.dirname(path) == engine:
                reached.add((path, code.co_firstlineno))


def ci_script() -> str:
    """The shell lines of CI's end-to-end step, dedented."""
    lines = WORKFLOW.read_text(encoding="utf-8").splitlines()
    step = next(n for n, line in enumerate(lines) if line.strip() == f"- name: {CI_STEP}")
    run = next(n for n in range(step, len(lines)) if lines[n].strip() == "run: |")
    indent = len(lines[run]) - len(lines[run].lstrip())
    body = []
    for line in lines[run + 1 :]:
        if line.strip() and len(line) - len(line.lstrip()) <= indent:
            break
        body.append(line)
    return textwrap.dedent("\n".join(body)) + "\n"


def run_command(argv: list[str]) -> int:
    """One profiled `nwfs` command; an exit-0 command appends what it reached to the log."""
    reached: set[tuple[str, int]] = set()
    with profiled(reached):
        from nwfs.cli import main

        status = main(argv)
    if status == 0:
        with open(os.environ[LOG], "a", encoding="utf-8") as log:
            log.write(json.dumps(sorted(reached)) + "\n")
    return status


def engine_run_reach() -> set[tuple[str, int]]:
    """CI's exit-0 commands, then one op and check of each perfbench workload."""
    reached: set[tuple[str, int]] = set()
    with tempfile.TemporaryDirectory() as scratch:
        work = Path(scratch)
        shim = work / "bin" / "nwfs"
        shim.parent.mkdir()
        shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" "{Path(__file__).resolve()}" --command "$@"\n')
        shim.chmod(0o755)
        log = work / "reached.jsonl"
        env = {**os.environ, "PATH": f"{shim.parent}{os.pathsep}{os.environ['PATH']}", "PYTHONPATH": str(SRC), LOG: str(log)}
        ci = subprocess.run(["bash", "-e", "-c", ci_script()], cwd=work, env=env, capture_output=True, text=True)
        if ci.returncode != 0:
            raise RuntimeError(f"CI's step failed with exit {ci.returncode}:\n{ci.stderr}")
        for line in log.read_text(encoding="utf-8").splitlines():
            reached.update(map(tuple, json.loads(line)))

        sys.path[:0] = [str(SRC), str(ROOT / "perfbench")]
        with profiled(reached):
            import workloads

            for name, w in workloads.WORKLOADS.items():
                data = work / name
                data.mkdir()
                state = w.load(w.make_inputs(workloads.input_variant(0)), data)
                with contextlib.redirect_stdout(io.StringIO()):
                    out = w.op(state)
                _, problems, _ = w.check(state, out)
                if problems:
                    raise RuntimeError(f"perfbench workload {name}: {problems[0]}")
    return reached


def run_suite(out: str) -> int:
    """The tier-1 suite, profiled; writes what it reached to `out`."""
    reached: set[tuple[str, int]] = set()
    with profiled(reached):
        import pytest

        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    Path(out).write_text(json.dumps(sorted(reached)), encoding="utf-8")
    return int(status)


def suite_reach() -> set[tuple[str, int]]:
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / "suite.json"
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        subprocess.run([sys.executable, __file__, "--suite", str(out)], cwd=ROOT, env=env, check=True)
        return set(map(tuple, json.loads(out.read_text(encoding="utf-8"))))


def report(title: str, keys: set, functions: dict) -> None:
    print(f"{title}: {len(keys)} functions, {sum(functions[k][1] for k in keys)} lines")
    for path, line in sorted(keys):
        name, length = functions[path, line]
        print(f"  {Path(path).name}:{line} {name} ({length})")


def main() -> int:
    functions = engine_functions()
    engine_run = engine_run_reach() & functions.keys()
    suite = suite_reach() & functions.keys()
    report("reached only by the tier-1 suite", suite - engine_run, functions)
    report("reached by neither", functions.keys() - suite - engine_run, functions)
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--command"]:
        sys.exit(run_command(sys.argv[2:]))
    if sys.argv[1:2] == ["--suite"]:
        sys.exit(run_suite(sys.argv[2]))
    sys.exit(main())

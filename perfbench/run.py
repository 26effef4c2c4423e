"""Benchmark of the nwfs engine: five workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. With `--trace 0` the workload runs in a
child process with tracing off and the end-to-end metrics are printed; set-up
is timed separately in several fresh processes. With `--trace 1` a short
untraced child runs first and a traced child second, and the per-layer
metrics are printed, with the tracing overhead taken from the two children's
operation times, each read against a reference kernel (see `end_to_end`).
The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. Full results, with the machine they came
from, are also written under `.perfbench/results/`.

The metric names and units come from BENCHMARK.json at the checkout root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

SETUP_REPEATS = 10
# The reference kernel's time (`child.reference_kernel`) on the VM described
# in README.md when nothing else slows it. Set-up times are reported at this
# machine speed.
REF_NOMINAL_S = 0.0025
CHILD_TIMEOUT_S = 150
# Share of the run given to the untraced child when tracing, for the overhead.
UNTRACED_SHARE = 1 / 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def child(mode: str, args, seconds: float, workdir: Path, spans: Path | None = None) -> dict:
    """Run child.py in a fresh process and return its figures."""
    cmd = [
        sys.executable,
        str(HERE / "child.py"),
        "--mode", mode,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(seconds),
        "--workdir", str(workdir),
    ]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    # a fixed hash seed keeps dict and set layouts the same from run to run
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S, env=env)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} child for {args.workload} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> dict:
    """Sample count, median, quartiles, and the highest of p90 and p99 that
    has at least ten samples above it."""
    if len(values) < 2:
        return {"n": len(values), "median": values[0] if values else None}
    q1, _, q3 = statistics.quantiles(values, n=4)
    out = {"n": len(values), "median": statistics.median(values), "p25": q1, "p75": q3}
    for pct in (99, 90):
        if len(values) * (100 - pct) >= 1000:
            out[f"p{pct}"] = statistics.quantiles(values, n=100)[pct - 1]
            break
    return out


def _first_line(path: str, prefix: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        return None
    return None


def _tree_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(python: str | None) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
        )
        commit = proc.stdout.strip() or None
    mem_kb = _first_line("/proc/meminfo", "MemTotal")
    return {
        "commit": commit,
        "engine_sha256": _tree_digest(ROOT / "src" / "nwfs"),
        "benchmark_sha256": _tree_digest(HERE),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _first_line("/proc/cpuinfo", "model name") or platform.processor(),
        "python": python or platform.python_version(),
        "mem_total_mb": int(mem_kb.split()[0]) // 1024 if mem_kb else None,
        "platform": platform.platform(),
    }


def wall_ratios(run: dict) -> list[float]:
    """Each operation's wall time over the reference kernel's time beside it."""
    return [wall / ref for wall, ref in zip(run["walls"], run["refs"])]


def end_to_end(args, workdir: Path) -> tuple[dict, dict, list[dict]]:
    """Timings from one untraced child; set-up from several fresh processes.

    Other tenants of a shared machine slow every process by up to 2x for
    seconds at a time, so a raw operation time depends on when the run was
    made. Each operation's wall time is therefore divided by the time of
    the reference kernel run beside it (`child.reference_kernel`), which
    slows down with the machine; `wall_ref` is the median of these ratios.
    Set-up time is scaled the same way: each set-up process times the
    reference kernel after its set-up, and `setup_s` is the median of the
    set-up times scaled to the speed at which the kernel takes
    REF_NOMINAL_S. The raw wall and set-up times are printed beside them.
    """
    # half the set-ups before the timed child and half after, so that they
    # do not all fall in one slow spell
    setup_runs = [child("setup", args, 0, workdir) for _ in range(SETUP_REPEATS // 2)]
    run = child("run", args, args.seconds, workdir)
    setup_runs += [child("setup", args, 0, workdir) for _ in range(SETUP_REPEATS - len(setup_runs))]
    raw_setups = [r["setup_s"] for r in setup_runs]
    setups = [r["setup_s"] * REF_NOMINAL_S / r["ref_s"] for r in setup_runs]
    walls, refs = run["walls"], run["refs"]
    ratios = wall_ratios(run)
    per_ref = [out / ratio for out, ratio in zip(run["outputs"], ratios)]
    samples = {
        "wall_s": quartiles(walls),
        "ref_s": quartiles(refs),
        "wall_ref": quartiles(ratios),
        "output_per_ref": quartiles(per_ref),
        "setup_s": quartiles(setups),
        "setup_raw_s": quartiles(raw_setups),
    }
    if not walls:
        return {}, samples, [run]
    metrics = {
        "wall_ref": statistics.median(ratios),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": run["peak_rss_mb"],
        "output_per_ref": statistics.median(per_ref),
    }
    return metrics, samples, [run]


def per_layer(args, workdir: Path) -> tuple[dict, dict, list[dict]]:
    untraced = child("run", args, args.seconds * UNTRACED_SHARE, workdir)
    spans = OUT / "spans" / f"{args.workload}-seed{args.seed}.txt"
    spans.parent.mkdir(parents=True, exist_ok=True)
    traced = child("traced", args, args.seconds * (1 - UNTRACED_SHARE), workdir, spans)
    metrics = dict(traced["layers"])
    if traced["walls"] and untraced["walls"]:
        # Compared on wall/reference ratios, so that a change of machine speed
        # between the two children cancels, and given in seconds of a traced op.
        slowdown = statistics.median(wall_ratios(traced)) / statistics.median(wall_ratios(untraced))
        metrics["trace.overhead_s"] = statistics.median(traced["walls"]) * (1 - 1 / slowdown)
    samples = {"traced_wall_s": quartiles(traced["walls"]), "untraced_wall_s": quartiles(untraced["walls"])}
    return metrics, samples, [untraced, traced]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "nwfs" / "__init__.py").is_file():
        print(f"error: no engine sources under {ROOT / 'src' / 'nwfs'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    workdir = OUT / "work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        metrics, samples, children = (per_layer if args.trace else end_to_end)(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    problems = [p for c in children for p in c.get("self_check_problems", [])]
    for p in problems:
        print(f"self-check failed: {p}", file=sys.stderr)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        # every op failed, so nothing was measured: report the counts, no figures
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}))
        return 1
    correct = failed == 0 and not problems

    prov = provenance(children[0].get("python"))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": prov,
        "samples": samples,
        "golden": children[0]["golden"],
        "expected_failures": children[0].get("expected_failures", {}),
        "metrics": metrics,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True), encoding="utf-8"
    )
    print("provenance: " + json.dumps(prov, sort_keys=True))
    print("samples: " + json.dumps(samples, sort_keys=True))
    print("golden digest: " + record["golden"])
    print("expected failures: " + json.dumps(record["expected_failures"], sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

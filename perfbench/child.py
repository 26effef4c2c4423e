"""One workload process of the benchmark; `run.py` starts it.

    python3 perfbench/child.py --mode setup|run|traced --workload NAME
        --seed N --seconds S --workdir DIR [--spans FILE]

Every mode first sets up: it imports `nwfs`, builds the catalog entries the
workload uses, generates the seeded inputs and writes them as JSON under
DIR, then loads them. `setup` stops there, after timing the reference kernel
(see below) for its run to scale the set-up time by. `run` repeats the operation for S
seconds with tracing off. `traced` installs the tracer first and reports the
per-layer metrics of each operation. Each operation's output is checked
outside its timed region, and a fixed pure-Python reference kernel is timed
just before and just after it, so that the operation's time can be read
against the machine's speed at that moment. The last line of standard output
is a JSON object with this process's figures.
"""

import time

SETUP_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Operations run at least this many times after the warm-up, even when that
# takes longer than the time given.
MIN_SAMPLES = 5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--mode", choices=("setup", "run", "traced"), required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--spans", help="write the spans of one traced operation here")
    return p.parse_args(argv)


def setup(args):
    """Import the engine, then generate, write and load the inputs."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import nwfs
    import workloads

    if Path(nwfs.__file__).resolve().parent != (ROOT / "src" / "nwfs").resolve():
        raise RuntimeError(f"imported nwfs from {nwfs.__file__}, not from this checkout")
    workload = workloads.WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    state = workload.load(workload.make_inputs(workloads.input_variant(args.seed)), workdir)
    return workloads, workload, state


def load_golden(workload: str, variant: int) -> str:
    """The recorded output digest of one input variant."""
    golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))
    return golden["digests"][workload][str(variant)]


def reference_kernel() -> float:
    """Wall time of a fixed pure-Python loop of dicts, tuples, sorts and sets.

    It does not touch the engine, so an engine change leaves it as it is;
    a machine that runs slower for a while runs it slower too.
    """
    start = time.perf_counter()
    acc = 0
    for _ in range(6):
        d = {(x, y): (x * 31 + y) % 97 for x in range(40) for y in range(40)}
        inv = {}
        for key, v in d.items():
            inv.setdefault(v, []).append(key)
        acc += len(frozenset(tuple(sorted(vs)) for vs in inv.values()))
    return time.perf_counter() - start


def checked(workload, state, out, expected_digest):
    """Check one op's output; returns (problems, counts)."""
    try:
        digest, problems, counts = workload.check(state, out)
    except Exception:  # a crashing check is a failed op, with its traceback
        return [f"check raised:\n{traceback.format_exc()}"], {}
    if digest != expected_digest:
        problems = problems + [f"output digest {digest} differs from golden {expected_digest}"]
    return problems, counts


def measure(args, workload, state, run_op, expected):
    """Warm up once, then repeat the op for the time given.

    `run_op()` returns (output, wall seconds, extra); the loop returns the
    timed samples, each a dict of wall, reference time, output count and
    extra. The reference time is the mean of the fastest of two reference
    kernels before the op and the fastest of two after it.
    """
    samples, attempted, failed = [], 0, 0
    deadline = None
    while True:
        gc.collect()
        before = min(reference_kernel() for _ in range(2))
        attempted += 1
        try:
            out, wall, extra = run_op()
        except Exception:
            failed += 1
            print(f"{args.workload}: op {attempted} raised:\n{traceback.format_exc()}", file=sys.stderr)
            out = None
        ref = (before + min(reference_kernel() for _ in range(2))) / 2
        if out is not None:
            problems, counts = checked(workload, state, out, expected)
            del out
            if problems:
                failed += 1
                for p in problems:
                    print(f"{args.workload} seed {args.seed}: op {attempted}: {p}", file=sys.stderr)
            elif deadline is not None:
                samples.append(
                    {"wall": wall, "ref": ref, "output": counts[workload.output], "counts": counts, "extra": extra}
                )
        now = time.perf_counter()
        if deadline is None:  # the first op was the warm-up
            deadline = now + args.seconds
        elif now >= deadline and (len(samples) >= MIN_SAMPLES or failed):
            break
    return samples, attempted, failed


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads, workload, state = setup(args)
    setup_s = time.perf_counter() - SETUP_START
    result = {"setup_s": setup_s}
    if args.mode == "setup":
        result["ref_s"] = min(reference_kernel() for _ in range(3))
        print(json.dumps(result))
        return 0

    variant = workloads.input_variant(args.seed)
    expected = load_golden(args.workload, variant)
    result["golden"] = f"every op checked against the digest of input variant {variant}"
    if args.mode == "run":
        defect = workloads.multi_block_validator_defect(Path(args.workdir))
        result["expected_failures"] = {"multi-block-validator": defect or "reproduced"}
        result["self_check_problems"] = [] if defect is None else [f"multi-block-validator: {defect}"]

        def run_op():
            start = time.perf_counter()
            out = workload.op(state)
            return out, time.perf_counter() - start, None

        samples, attempted, failed = measure(args, workload, state, run_op, expected)
    else:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
        left = tracer.unwrapped_references()
        result["self_check_problems"] = [f"unwrapped traced function: {x}" for x in left]
        keep = iter([False, True])  # keep the spans of the first timed op

        def run_op():
            out, wall, layers = tracer.run_op(workload.op, state, keep_spans=next(keep, False))
            return out, wall, layers

        samples, attempted, failed = measure(args, workload, state, run_op, expected)
        per_op = []
        for s in samples:
            layers = dict(s["extra"])
            for key in ("elements", "squares", "checks", "algebras"):
                layers[f"op.{key}"] = s["counts"].get(key, 0)
            per_op.append(layers)
        result["layers"] = tracing.summarize(per_op) if per_op else {}
        if args.spans:
            tracer.write_spans(args.spans)

    result.update(
        attempted=attempted,
        failed=failed,
        walls=[s["wall"] for s in samples],
        refs=[s["ref"] for s in samples],
        outputs=[s["output"] for s in samples],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        python=sys.version.split()[0],
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

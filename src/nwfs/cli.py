"""Command line front end.

Every subcommand that computes something can emit a certificate: a JSON
document embedding its inputs, outputs and enough intermediate structure to
be rechecked later with `nwfs validate`. Certificates are deterministic, so
rerunning a command with the same inputs reproduces the same bytes.

Exit codes: 0 on success (converged run, verified comparison, all laws
passing, clean validation), 2 when a sequence ran out of budget before
converging, 3 when a check found a genuine failure (law counterexample,
bijection mismatch, certificate problem), 4 for unusable input, including
a command line argparse cannot parse, and for a run that ran out of memory.
`--help` exits 0.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import partial
from pathlib import Path

from . import algebras, catalog, jsonio, laws, sequence
from .arrows import GeneratingSet
from .core import EngineError, FinCategory, PresheafMap
from .jsonio import InputError

EXIT_OK = 0
EXIT_EXHAUSTED = 2
EXIT_FAILED = 3
EXIT_INPUT = 4

DEFAULT_RULES = "graph,cograph,trivial-left,trivial-right"


def _unique_keys(what: str, pairs: list) -> dict:
    doc = dict(pairs)
    if len(doc) < len(pairs):
        keys = [k for k, _ in pairs]
        key = next(k for i, k in enumerate(keys) if k in keys[:i])
        raise InputError(f"/{what}", f"key {json.dumps(key)} repeated in one object")
    return doc


def _read_json(path: str, what: str):
    """The JSON document in `path`; a key repeated in one object is an error, in an input or a certificate."""
    try:
        raw = Path(path).read_text(encoding="utf-8")
        return json.loads(raw, object_pairs_hook=partial(_unique_keys, what))
    except OSError as err:
        raise InputError(f"/{what}", f"cannot read {path}: {err}") from None
    except UnicodeDecodeError:
        raise InputError(f"/{what}", f"{path} is not UTF-8 text") from None
    except ValueError as err:
        # JSONDecodeError, or an integer with more digits than int() reads
        raise InputError(f"/{what}", f"{path} is not valid JSON: {err}") from None
    except RecursionError:
        raise InputError(f"/{what}", f"{path} is nested too deeply to read") from None


def _catalog_or_file(value: str, what: str):
    """`value` itself when it is a catalog key, else the JSON document in the file it names."""
    try:
        catalog.get(value)
    except catalog.UnknownCatalogKey:
        return _read_json(value, what)
    return value


def _resolve_inputs(args) -> tuple[FinCategory, GeneratingSet, PresheafMap]:
    """The category, generating set and arrow; the map is always a JSON file."""
    cat = jsonio.load_category(_catalog_or_file(args.category, "category"), "/category")
    gens = jsonio.load_gens(_catalog_or_file(args.gens, "gens"), "/gens", cat)
    return cat, gens, jsonio.load_map(_read_json(args.map, "map"), "/map", cat)


def _emit(cert: dict, args, text: str) -> None:
    payload = jsonio.pretty_json(cert)
    if args.out:
        try:
            Path(args.out).write_text(payload, encoding="utf-8")
        except OSError as err:
            raise InputError("/out", f"cannot write {args.out}: {err}") from None
    if args.format == "json":
        sys.stdout.write(payload)
    else:
        print(text)
        if args.out:
            print(f"certificate written to {args.out}")


def _sizes_str(sizes: dict[str, int]) -> str:
    body = ", ".join(f"{a}:{n}" for a, n in sorted(sizes.items()))
    return f"[{body}] total {sum(sizes.values())}"


def _sequence_text(state, elapsed: float) -> str:
    lines = [
        f"mode: {state.mode}",
        f"generators: {len(state.gens.members)}",
        f"budget: {state.budget.successors_per_block} successors x {state.budget.omega_blocks} block(s)",
        "stage  ordinal  kind       middle sizes",
    ]
    for stage in state.stages:
        lines.append(
            f"{stage.index:<6} {stage.ordinal:<8} {stage.kind:<10} {_sizes_str(stage.mid.sizes)}"
        )
    if state.converged_at is not None:
        lines.append(f"converged at stage {state.converged_at}")
    if state.exhausted:
        lines.append("budget exhausted")
    lines.append(f"elapsed: {elapsed:.3f}s")
    return "\n".join(lines)


def _cmd_run(args, mode: str) -> int:
    _, gens, arrow = _resolve_inputs(args)
    budget = sequence.OrdinalBudget(args.budget_successors, args.budget_omega_blocks)
    runner = sequence.run_free if mode == sequence.FREE else sequence.run_plain
    start = time.perf_counter()
    state = runner(gens, arrow, budget=budget)
    elapsed = time.perf_counter() - start
    algebra = table = None
    if state.converged_at is not None:
        algebra = algebras.extract_algebra(state)
        table = algebras.fillers_from_algebra(algebra)
    cert = jsonio.sequence_certificate(state, algebra=algebra, table=table, seed=args.seed)
    text = _sequence_text(state, elapsed)
    if algebra is not None:
        text += f"\nalgebra structure extracted with {len(table.fillers)} fillers"
    _emit(cert, args, text)
    return EXIT_OK if state.converged_at is not None else EXIT_EXHAUSTED


def cmd_compare(args) -> int:
    _, gens, arrow = _resolve_inputs(args)
    budget = sequence.OrdinalBudget(args.budget_successors, args.budget_omega_blocks)
    start = time.perf_counter()
    free = sequence.run_free(gens, arrow, budget=budget, stop_at_convergence=False)
    plain = sequence.run_plain(gens, arrow, budget=budget, stop_at_convergence=False)
    report = sequence.build_comparison(free, plain)
    elapsed = time.perf_counter() - start
    cert = jsonio.compare_certificate(free, plain, report, seed=args.seed)
    lines = ["stage  plain sizes -> free sizes  onto"]
    for i, q in enumerate(report.maps):
        lines.append(
            f"{i:<6} {plain.stages[i].mid.total_size:>5} -> {free.stages[i].mid.total_size:<5}"
            f"      {'yes' if report.surjective[i] else 'NO'}"
        )
    lines.append(f"comparison {'verified' if report.ok else 'FAILED'} over {len(report.maps)} stages")
    lines.append(f"elapsed: {elapsed:.3f}s")
    _emit(cert, args, "\n".join(lines))
    return EXIT_OK if report.ok else EXIT_FAILED


def cmd_laws(args) -> int:
    tokens = [t.strip() for t in args.rules.split(",") if t.strip()]
    rules_ = jsonio.rules_from_tokens(tokens)
    if args.samples is not None:
        category = _catalog_or_file(args.category or "delta<=1", "category")
        raw = {"kind": "seeded", "category": category, "count": args.samples, "seed": args.seed or 0}
    elif args.category is not None:
        raise InputError("/category", "--category names the base category of a seeded sample, so it needs --samples")
    else:
        raw = {"kind": "exhaustive", "max_total": args.max_total}
    # no recorded checks bound the sample the writer builds
    sample, spec = jsonio.sample_from_spec(raw, sys.maxsize)
    start = time.perf_counter()
    report = laws.check_laws(rules_, sample)
    elapsed = time.perf_counter() - start
    cert = jsonio.laws_certificate(report, tokens, spec, seed=args.seed)
    lines = [f"rules: {', '.join(tokens)}", f"arrows: {len(sample)}  checks: {len(report.checks)}"]
    for c in report.counterexamples:
        lines.append(f"FAIL {c.rule} / {c.law} on {c.arrow}: {c.detail}")
    lines.append("all laws hold" if report.ok else f"{len(report.counterexamples)} counterexample(s)")
    lines.append(f"elapsed: {elapsed:.3f}s")
    _emit(cert, args, "\n".join(lines))
    return EXIT_OK if report.ok else EXIT_FAILED


def cmd_enumerate(args) -> int:
    cat, gens, arrow = _resolve_inputs(args)
    start = time.perf_counter()
    report = algebras.check_bijection(gens, arrow)
    elapsed = time.perf_counter() - start
    cert = jsonio.enumeration_certificate(report, cat, gens, arrow, seed=args.seed)
    lines = [
        f"algebra structures: {report.algebra_count}",
        f"lifting tables:     {report.table_count}",
        f"filler product:     {report.product_count}",
    ]
    for p in report.problems:
        lines.append(f"PROBLEM {p}")
    lines.append("bijection verified" if report.ok else "bijection FAILED")
    lines.append(f"elapsed: {elapsed:.3f}s")
    _emit(cert, args, "\n".join(lines))
    return EXIT_OK if report.ok else EXIT_FAILED


def cmd_fill(args) -> int:
    doc = _read_json(args.certificate, "certificate")
    problems, run = jsonio.replay_certificate(doc)
    if problems:
        for p in problems:
            print(f"problem: {p}", file=sys.stderr)
        return EXIT_FAILED
    if run is None or doc.get("lifting_table") is None:
        raise InputError("/lifting_table", "fill needs a converged sequence certificate with a lifting table")
    # the validator accepts a lifting table only on a converged run
    stage, step = run.stages[run.converged_at], run.steps[run.converged_at]
    if not 0 <= args.square < len(step.squares):
        raise InputError("/square", f"square index {args.square} out of range (found {len(step.squares)})")
    gi, sq = step.squares[args.square]
    gen = run.gens.members[gi]
    filler_doc = doc["lifting_table"]["fillers"][args.square]
    filler = PresheafMap(gen.f.target, stage.mid, jsonio.parse_components(filler_doc, f"/lifting_table/fillers/{args.square}"))
    cert = jsonio.filler_certificate(run.arrow.f.source.base, gen, stage.right, sq.top, sq.bottom, filler)
    text = (
        f"square {args.square} (generator {gi}: {gen.label or 'unnamed'})\n"
        f"filler extracted; both triangles verified"
    )
    _emit(cert, args, text)
    return EXIT_OK


def cmd_validate(args) -> int:
    doc = _read_json(args.certificate, "certificate")
    problems = jsonio.validate_certificate(doc)
    if problems:
        for p in problems:
            print(f"problem: {p}")
        print(f"{len(problems)} problem(s) found")
        return EXIT_FAILED
    print(f"certificate valid ({doc.get('schema')})")
    return EXIT_OK


def _add_common(p: argparse.ArgumentParser, *, budget: bool = False) -> None:
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", help="write the certificate to this file")
    p.add_argument("--seed", type=int, default=None)
    if budget:
        p.add_argument("--budget-successors", type=int, default=32, metavar="N")
        p.add_argument("--budget-omega-blocks", type=int, default=1, metavar="M")


def _add_inputs(p: argparse.ArgumentParser) -> None:
    p.add_argument("--category", required=True, help="catalog key or JSON file")
    p.add_argument("--gens", required=True, help="catalog key or JSON file")
    p.add_argument("--map", required=True, help="JSON file with the arrow to factor")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nwfs",
        description="Factorisation sequences on finite presheaf categories, with certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("factorize", help="run the free (coequalizer-collapsed) sequence")
    _add_inputs(p)
    _add_common(p, budget=True)
    p.set_defaults(func=partial(_cmd_run, mode=sequence.FREE))

    p = sub.add_parser("plain", help="run the plain step-iteration sequence")
    _add_inputs(p)
    _add_common(p, budget=True)
    p.set_defaults(func=partial(_cmd_run, mode=sequence.PLAIN))

    p = sub.add_parser("compare", help="run both sequences and verify the stagewise comparison")
    _add_inputs(p)
    _add_common(p, budget=True)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("laws", help="check the algebraic laws of factorisation rules")
    p.add_argument("--rules", default=DEFAULT_RULES, help="comma separated rule tokens")
    p.add_argument("--max-total", type=int, default=4, help="exhaustive sample bound")
    p.add_argument("--samples", type=int, default=None, help="use a seeded random sample instead")
    p.add_argument("--category", default=None, help="base category for seeded samples")
    _add_common(p)
    p.set_defaults(func=cmd_laws)

    p = sub.add_parser("enumerate", help="enumerate algebras and lifting tables, check the bijection")
    _add_inputs(p)
    _add_common(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("fill", help="extract one filler from a sequence certificate")
    p.add_argument("certificate")
    p.add_argument("--square", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=cmd_fill)

    p = sub.add_parser("validate", help="recheck a certificate")
    p.add_argument("certificate")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as stop:
        # argparse exits 2 on a usage error, which here means an exhausted budget
        if stop.code != 2:
            raise
        return EXIT_INPUT
    try:
        return args.func(args)
    except EngineError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError:
        hint = "; try a smaller --budget-successors" if hasattr(args, "budget_successors") else ""
        print(f"error: out of memory{hint}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's five workloads: seeded inputs, one operation, output checks.

Each workload is made of four steps:

* `make_inputs(variant)` builds the input documents from the seed's input
  variant (see `input_variant`) in plain Python, without the engine, so the
  engine only ever receives the generated inputs;
* `load(docs, workdir)` hands those documents to the engine's own loaders
  (or writes them where the command line reads them) and returns the state
  an operation needs;
* `op(state)` is the timed operation; it calls the engine only through
  module attributes (`nwfs.sequence.run_free`, ...), so functions wrapped by
  the tracer are the ones that run;
* `check(state, out)` runs outside the timed region. It returns the digest
  of the operation's canonical output, the problems found by oracles that do
  not come from the engine's earlier output, and the operation's output
  counts.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import nwfs
import nwfs.algebras
import nwfs.arrows
import nwfs.catalog
import nwfs.cli
import nwfs.core
import nwfs.jsonio
import nwfs.laws
import nwfs.rules
import nwfs.sequence

# Morphisms of delta<=1 as the catalog names them, with (dom, cod). Actions
# run from the carrier at the codomain to the carrier at the domain: f01_0
# and f01_1 send an edge to its source and target, f10_00 sends a vertex to
# its degenerate edge, f11_00 and f11_11 send an edge to the degenerate edge
# at its source and at its target.
DELTA1_MORPHISMS = {
    "id0": ("0", "0"),
    "f01_0": ("0", "1"),
    "f01_1": ("0", "1"),
    "f10_00": ("1", "0"),
    "f11_00": ("1", "1"),
    "id1": ("1", "1"),
    "f11_11": ("1", "1"),
}


# A seed selects one of INPUT_VARIANTS input sets per workload, and
# golden.json records the output digest of every one (see record_golden.py),
# so an operation is checked against its golden digest on every seed.
INPUT_VARIANTS = 64


def input_variant(seed: int) -> int:
    """The input set a seed selects: the same seed, the same inputs."""
    return seed % INPUT_VARIANTS


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[int], dict]
    load: Callable[[dict, Path], Any]
    op: Callable[[Any], Any]
    check: Callable[[Any, Any], tuple[str, list[str], dict[str, int]]]
    output: str  # the count in `check`'s counts that measures an op's output


def sha256_json(doc: Any) -> str:
    return hashlib.sha256(nwfs.jsonio.canonical_bytes(doc)).hexdigest()


# ---------------------------------------------------------------------------
# input documents, built without the engine


def _ints(values) -> dict[str, int]:
    return {str(i): v for i, v in enumerate(values)}


def set_map_doc(values: list[int], target_size: int) -> dict:
    """A map of finite sets over the one-object base."""
    n = len(values)
    return {
        "source": {"sets": {"0": list(range(n))}, "actions": {"id0": _ints(range(n))}},
        "target": {
            "sets": {"0": list(range(target_size))},
            "actions": {"id0": _ints(range(target_size))},
        },
        "components": {"0": _ints(values)},
    }


def reflexive_graph_doc(vertices: int, edges: list[tuple[int, int]]) -> dict:
    """A reflexive graph over delta<=1.

    Edge ids below `vertices` are the degenerate edges; edge `vertices + k`
    runs from `edges[k][0]` to `edges[k][1]`.
    """
    src = list(range(vertices)) + [s for s, _ in edges]
    tgt = list(range(vertices)) + [t for _, t in edges]
    n_edges = len(src)
    return {
        "sets": {"0": list(range(vertices)), "1": list(range(n_edges))},
        "actions": {
            "id0": _ints(range(vertices)),
            "f01_0": _ints(src),
            "f01_1": _ints(tgt),
            "f10_00": _ints(range(vertices)),
            "f11_00": _ints(src),
            "id1": _ints(range(n_edges)),
            "f11_11": _ints(tgt),
        },
    }


def terminal_delta1_doc() -> dict:
    return {"sets": {"0": [0], "1": [0]}, "actions": {m: {"0": 0} for m in DELTA1_MORPHISMS}}


def to_terminal_doc(source: dict, target: dict) -> dict:
    """The unique map from `source` to a terminal presheaf `target`."""
    return {
        "source": source,
        "target": target,
        "components": {a: {str(x): 0 for x in xs} for a, xs in source["sets"].items()},
    }


def relabel_doc(doc: dict, morphisms: dict[str, tuple[str, str]], rng: random.Random) -> dict:
    """An isomorphic copy of a presheaf document with element ids permuted.

    `morphisms` gives (dom, cod) per morphism; an action sends the carrier at
    cod to the carrier at dom.
    """
    perm = {}
    for obj, elems in sorted(doc["sets"].items()):
        shuffled = list(elems)
        rng.shuffle(shuffled)
        perm[obj] = dict(zip(elems, shuffled))
    actions = {}
    for mor, act in doc["actions"].items():
        dom, cod = morphisms[mor]
        actions[mor] = {str(perm[cod][int(x)]): perm[dom][y] for x, y in act.items()}
    return {"sets": doc["sets"], "actions": actions}


# ---------------------------------------------------------------------------
# free-horns2: the free sequence of the five 2-dimensional horns


FREE_HORNS2_SUCCESSORS = 2
# Stage sizes and square count recorded at the seed commit. They are
# invariants of the input up to generator order, so they hold on every seed.
FREE_HORNS2_SIZES = [9, 89, 2377]
FREE_HORNS2_SQUARES = 604


def free_horns2_inputs(seed: int) -> dict:
    # The base arrow is fixed (the interval Δ[1] mapped to the point, over
    # delta<=2); the seed orders the five generators. Generator order changes
    # every element id the run emits but neither the stage sizes nor the
    # square count.
    order = list(range(5))
    random.Random(seed).shuffle(order)
    return {"generator_order": order}


def free_horns2_load(docs: dict, workdir: Path):
    cat = nwfs.catalog.get_category("delta<=2")
    horns = nwfs.catalog.get_gens("horns<=2")
    interval = nwfs.catalog.representable(cat, "1")
    point = nwfs.catalog.terminal_presheaf(cat)
    arrow_doc = {
        "source": nwfs.jsonio.presheaf_doc(interval),
        "target": nwfs.jsonio.presheaf_doc(point),
        "components": {a: {str(x): 0 for x in interval.carrier[a]} for a in cat.objects},
    }
    gens_doc = nwfs.jsonio.gens_doc(horns)
    gens_doc["arrows"] = [gens_doc["arrows"][i] for i in docs["generator_order"]]
    write_inputs(workdir, {"map": arrow_doc, "gens": gens_doc})
    return {
        "gens": nwfs.jsonio.load_gens(gens_doc, "/gens", cat),
        "arrow": nwfs.jsonio.load_map(arrow_doc, "/map", cat),
    }


def free_horns2_op(state):
    return nwfs.sequence.run_free(
        state["gens"],
        state["arrow"],
        budget=nwfs.sequence.OrdinalBudget(FREE_HORNS2_SUCCESSORS),
        stop_at_convergence=False,
    )


def free_horns2_check(state, run):
    problems = []
    if len(run.stages) != FREE_HORNS2_SUCCESSORS + 1:
        problems.append(f"expected {FREE_HORNS2_SUCCESSORS + 1} stages, got {len(run.stages)}")
    for stage in run.stages:
        # each stage factors the input arrow: right after left is the arrow
        through = nwfs.core.compose_maps(stage.right, stage.left)
        if through.components != run.arrow.f.components:
            problems.append(f"stage {stage.index} does not factor the input arrow")
    sizes = [s.mid.total_size for s in run.stages]
    if sizes != FREE_HORNS2_SIZES:
        problems.append(f"stage sizes {sizes}, expected {FREE_HORNS2_SIZES}")
    work = run.work
    if work["squares"] != FREE_HORNS2_SQUARES:
        problems.append(f"{work['squares']} squares, expected {FREE_HORNS2_SQUARES}")
    digest = sha256_json(nwfs.jsonio.sequence_body(run))
    return digest, problems, {"elements": work["elements"], "squares": work["squares"]}


# ---------------------------------------------------------------------------
# point-compare: free and plain runs of the point generator, and the comparison


POINT_SIZE = 100
POINT_BUDGET = (8, 3)


def point_compare_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    values = [rng.randrange(POINT_SIZE) for _ in range(POINT_SIZE)]
    return {"map": set_map_doc(values, POINT_SIZE)}


def point_compare_load(docs: dict, workdir: Path):
    cat = nwfs.catalog.get_category("terminal")
    write_inputs(workdir, docs)
    return {
        "gens": nwfs.jsonio.load_gens("point", "/gens", cat),
        "arrow": nwfs.jsonio.load_map(docs["map"], "/map", cat),
    }


def point_compare_op(state):
    budget = nwfs.sequence.OrdinalBudget(*POINT_BUDGET)
    free = nwfs.sequence.run_free(state["gens"], state["arrow"], budget=budget, stop_at_convergence=False)
    plain = nwfs.sequence.run_plain(state["gens"], state["arrow"], budget=budget, stop_at_convergence=False)
    return free, plain, nwfs.sequence.build_comparison(free, plain)


def point_stage_sizes(source: int, target: int, kinds: list[str]) -> tuple[list[int], list[int]]:
    """Closed-form stage sizes for the point generator over sets.

    One step on g: X -> Y glues one free cell per element of Y, so the plain
    run grows by |Y| at every step stage and a limit stage (the colimit of a
    chain of injections) keeps the size of the stage below it. The free run
    stops growing after its first step: every later cell is coequalized onto
    the one already inserted.
    """
    plain, free, size = [source], [source], source
    for kind in kinds[1:]:
        if kind != "limit":
            size += target
        plain.append(size)
        free.append(source + target)
    return free, plain


def point_compare_check(state, out):
    free, plain, report = out
    problems = []
    if not report.ok:
        problems.append("comparison is not verified")
    kinds = [s.kind for s in plain.stages]
    n_src = len(state["arrow"].source.carrier["0"])
    n_tgt = len(state["arrow"].target.carrier["0"])
    want_free, want_plain = point_stage_sizes(n_src, n_tgt, kinds)
    if [s.mid.total_size for s in free.stages] != want_free:
        problems.append("free stage sizes differ from |X| + |Y|")
    if [s.mid.total_size for s in plain.stages] != want_plain:
        problems.append("plain stage sizes differ from |X| + k|Y|")
    limits = sum(1 for k in kinds if k == "limit")
    if limits != POINT_BUDGET[1] - 1:
        problems.append(f"expected {POINT_BUDGET[1] - 1} limit stages, got {limits}")
    digest = sha256_json(
        {
            "free": nwfs.jsonio.sequence_body(free),
            "plain": nwfs.jsonio.sequence_body(plain),
            "comparison": [nwfs.jsonio.components_doc(m) for m in report.maps],
        }
    )
    counts = {
        "elements": free.work["elements"] + plain.work["elements"],
        "squares": free.work["squares"] + plain.work["squares"],
    }
    return digest, problems, counts


# ---------------------------------------------------------------------------
# certify: `nwfs compare` then `nwfs validate`, both through the CLI entry


CERTIFY_SUCCESSORS = 5


def certify_inputs(seed: int) -> dict:
    # The interval Δ[1] over delta<=1 mapped to the point, with its element
    # ids permuted by the seed; stage sizes do not depend on the labels.
    interval = reflexive_graph_doc(2, [(0, 1)])
    relabelled = relabel_doc(interval, DELTA1_MORPHISMS, random.Random(seed))
    return {"map": to_terminal_doc(relabelled, terminal_delta1_doc())}


def certify_load(docs: dict, workdir: Path):
    paths = write_inputs(workdir, docs)
    # load once so that a bad input fails in set-up, not in the timed region
    nwfs.jsonio.load_map(docs["map"], "/map", nwfs.catalog.get_category("delta<=1"))
    return {"map": str(paths["map"]), "cert": str(workdir / "certificate.json")}


def certify_op(state):
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        rc_compare = nwfs.cli.main(
            [
                "compare",
                "--category", "delta<=1",
                "--gens", "horns<=1",
                "--map", state["map"],
                "--budget-successors", str(CERTIFY_SUCCESSORS),
                "--out", state["cert"],
            ]
        )
        rc_validate = nwfs.cli.main(["validate", state["cert"]])
    return rc_compare, rc_validate, captured.getvalue()


def certify_check(state, out):
    rc_compare, rc_validate, text = out
    problems = []
    if rc_compare != nwfs.cli.EXIT_OK:
        problems.append(f"nwfs compare exited {rc_compare}")
    if rc_validate != nwfs.cli.EXIT_OK:
        problems.append(f"nwfs validate exited {rc_validate}: {text.strip().splitlines()[-1:]}")
    raw = Path(state["cert"]).read_bytes()
    cert = json.loads(raw)
    if cert["comparison"]["ok"] is not True:
        problems.append("certificate comparison is not ok")
    free = [sum(c.values()) for c in cert["free"]["cardinalities"]]
    plain = [sum(c.values()) for c in cert["plain"]["cardinalities"]]
    # closed forms for horns<=1 on the interval mapped to the point
    if free != [12 * 2**n - 7 for n in range(CERTIFY_SUCCESSORS + 1)]:
        problems.append(f"free sizes {free} differ from 12*2^n - 7")
    if plain != [2 * 3 ** (n + 1) - 1 for n in range(CERTIFY_SUCCESSORS + 1)]:
        problems.append(f"plain sizes {plain} differ from 2*3^(n+1) - 1")
    work = cert["timing"]["work"]
    counts = {
        "elements": work["free"]["elements"] + work["plain"]["elements"],
        "squares": work["free"]["squares"] + work["plain"]["squares"],
    }
    return hashlib.sha256(raw).hexdigest(), problems, counts


# ---------------------------------------------------------------------------
# laws: the builtin rules on a fixed-size seeded corpus, the mutants on all
# small functions


LAW_ARROWS = 3
# source: 3 vertices and 1 edge; target: 2 vertices and the image edge plus
# one more. Sizes are the same on every seed, so every product the law
# battery builds has the same size too.
LAW_SHAPE = {"source_vertices": 3, "source_edges": 1, "target_vertices": 2, "extra_edges": 1}
MUTANT_MAX_TOTAL = 5
BUILTIN_RULES = ("graph", "cograph", "trivial-left", "trivial-right")


def law_arrow_doc(rng: random.Random) -> dict:
    vx, ex = LAW_SHAPE["source_vertices"], LAW_SHAPE["source_edges"]
    vy, extra = LAW_SHAPE["target_vertices"], LAW_SHAPE["extra_edges"]
    x_edges = [(rng.randrange(vx), rng.randrange(vx)) for _ in range(ex)]
    phi = [rng.randrange(vy) for _ in range(vx)]
    y_edges = [(phi[s], phi[t]) for s, t in x_edges]
    y_edges += [(rng.randrange(vy), rng.randrange(vy)) for _ in range(extra)]
    edge_image = list(phi) + [vy + k for k in range(ex)]
    return {
        "source": reflexive_graph_doc(vx, x_edges),
        "target": reflexive_graph_doc(vy, y_edges),
        "components": {"0": _ints(phi), "1": _ints(edge_image)},
    }


def laws_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    return {"arrows": [law_arrow_doc(rng) for _ in range(LAW_ARROWS)]}


def laws_load(docs: dict, workdir: Path):
    cat = nwfs.catalog.get_category("delta<=1")
    write_inputs(workdir, docs)
    sample = [
        nwfs.arrows.ArrowObj(nwfs.jsonio.load_map(doc, f"/arrows/{k}", cat), label=f"seeded{k}")
        for k, doc in enumerate(docs["arrows"])
    ]
    return {
        "sample": sample,
        "rules": [nwfs.jsonio.rule_from_token(t) for t in BUILTIN_RULES],
        "mutants": [nwfs.rules.mutant_rule(i) for i in range(nwfs.rules.MUTANT_COUNT)],
        "exhaustive": nwfs.laws.exhaustive_arrows(MUTANT_MAX_TOTAL),
    }


def laws_op(state):
    builtin = nwfs.laws.check_laws(state["rules"], state["sample"])
    mutants = nwfs.laws.check_laws(state["mutants"], state["exhaustive"])
    return builtin, mutants


def laws_check(state, out):
    builtin, mutants = out
    problems = []
    if not builtin.ok:
        problems.append(f"builtin rules fail {len(builtin.counterexamples)} law check(s)")
    caught = {c.rule for c in mutants.counterexamples}
    missed = [r.name for r in state["mutants"] if r.name not in caught]
    if missed:
        problems.append(f"mutants not caught: {missed}")
    checks = [
        [c.rule, c.law, c.arrow, c.ok, c.detail] for c in builtin.checks + mutants.checks
    ]
    counts = {"checks": len(checks)}
    return sha256_json(checks), problems, counts


# ---------------------------------------------------------------------------
# bijection: algebras against lifting tables for horns<=1


BIJECTION_VERTICES = 3
BIJECTION_GRAPHS = 8


def bijection_inputs(seed: int) -> dict:
    # Each graph's edges follow a seeded permutation, so every vertex has
    # out-degree 1 and in-degree 1 and every graph has (2 * 2)^3 = 64
    # algebra structures, while loops and cycles differ from graph to graph.
    # The pinned search behind them walks 3^6 vertex assignments per graph,
    # whatever the count.
    rng = random.Random(seed)
    maps, edge_lists = [], []
    for _ in range(BIJECTION_GRAPHS):
        perm = list(range(BIJECTION_VERTICES))
        rng.shuffle(perm)
        edges = [(v, perm[v]) for v in range(BIJECTION_VERTICES)]
        graph = reflexive_graph_doc(BIJECTION_VERTICES, edges)
        maps.append(to_terminal_doc(graph, terminal_delta1_doc()))
        edge_lists.append(edges)
    return {"maps": maps, "edges": edge_lists}


def bijection_load(docs: dict, workdir: Path):
    cat = nwfs.catalog.get_category("delta<=1")
    write_inputs(workdir, docs)
    return {
        "gens": nwfs.jsonio.load_gens("horns<=1", "/gens", cat),
        "arrows": [nwfs.jsonio.load_map(doc, f"/maps/{k}", cat) for k, doc in enumerate(docs["maps"])],
        "edges": [[tuple(e) for e in edges] for edges in docs["edges"]],
    }


def bijection_op(state):
    return [nwfs.algebras.check_bijection(state["gens"], g) for g in state["arrows"]]


def bijection_count(vertices: int, edges: list[tuple[int, int]]) -> int:
    """Algebra structures on the terminal map out of a reflexive graph.

    A filler for a horn square at vertex v picks an edge out of v (or into
    v) or its degenerate edge, independently per square, so there are
    (outdeg v + 1)(indeg v + 1) choices per vertex.
    """
    return math.prod(
        (sum(1 for s, _ in edges if s == v) + 1) * (sum(1 for _, t in edges if t == v) + 1)
        for v in range(vertices)
    )


def bijection_check(state, reports):
    problems, outcome = [], []
    for k, (report, edges) in enumerate(zip(reports, state["edges"])):
        problems += [f"graph {k}: {p}" for p in report.problems]
        want = bijection_count(BIJECTION_VERTICES, edges)
        for label, got in (
            ("algebra", report.algebra_count),
            ("table", report.table_count),
            ("product", report.product_count),
        ):
            if got != want:
                problems.append(f"graph {k}: {label} count {got}, expected {want}")
        outcome.append([report.algebra_count, report.table_count, report.product_count, list(report.problems)])
    algebras = sum(r.algebra_count for r in reports)
    return sha256_json(outcome), problems, {"algebras": algebras}


# ---------------------------------------------------------------------------


def write_inputs(workdir: Path, docs: dict) -> dict[str, Path]:
    """Write each input document as JSON under workdir; return the paths."""
    paths = {}
    for key, doc in docs.items():
        path = workdir / f"{key}.json"
        path.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
        paths[key] = path
    return paths


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "free-horns2", free_horns2_inputs, free_horns2_load, free_horns2_op, free_horns2_check,
            "elements",
        ),
        Workload(
            "point-compare", point_compare_inputs, point_compare_load, point_compare_op,
            point_compare_check, "elements",
        ),
        Workload("certify", certify_inputs, certify_load, certify_op, certify_check, "elements"),
        Workload("laws", laws_inputs, laws_load, laws_op, laws_check, "checks"),
        Workload(
            "bijection", bijection_inputs, bijection_load, bijection_op, bijection_check, "algebras",
        ),
    )
}


# ---------------------------------------------------------------------------
# known defects, kept as strict expected failures


def multi_block_validator_defect(workdir: Path) -> str | None:
    """The validator rejects an honest free certificate with two ω-blocks.

    `sequence._limit_stage` records neither a step nor a fold for the stage
    just below a limit, while the validator requires both at every free
    stage. Returns None while the defect reproduces exactly, and otherwise
    says what changed, so the check flips once the validator is fixed.
    """
    paths = write_inputs(workdir, {"defect_map": set_map_doc([0, 0], 3)})
    cert = workdir / "defect_certificate.json"
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        rc_compare = nwfs.cli.main(
            [
                "compare",
                "--category", "terminal",
                "--gens", "point",
                "--map", str(paths["defect_map"]),
                "--budget-successors", "2",
                "--budget-omega-blocks", "2",
                "--out", str(cert),
            ]
        )
        rc_validate = nwfs.cli.main(["validate", str(cert)])
    expected = "/free/steps/2: free mode stage is missing its step"
    if rc_compare != nwfs.cli.EXIT_OK:
        return f"nwfs compare exited {rc_compare}"
    if rc_validate == nwfs.cli.EXIT_OK:
        return "validator now accepts the two-block certificate: drop this expected failure"
    if rc_validate != nwfs.cli.EXIT_FAILED or expected not in captured.getvalue():
        return f"validate exited {rc_validate} without reporting {expected!r}"
    return None

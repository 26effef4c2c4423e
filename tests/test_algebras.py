import itertools
import math
import random

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from conftest import edge_to_point, finset, onestep, random_set_map, random_surjection, set_map
from test_onestep import SPARSE_GENS, set_maps_with_ids
from nwfs import algebras, arrows
from nwfs.algebras import (
    AlgebraStructure,
    BijectionReport,
    LiftingTable,
    algebra_from_fillers,
    check_bijection,
    compose_lifting_tables,
    enumerate_algebra_structures,
    enumerate_lifting_tables,
    extract_algebra,
    fillers_from_algebra,
    square_filler_sets,
    validate_algebra,
    validate_table,
)
from nwfs.arrows import as_arrow, generating_squares
from nwfs.catalog import get_category, get_gens, representable, terminal_presheaf
from nwfs.core import (
    IncompatibleInput,
    PresheafMap,
    compose_maps,
    enumerate_maps,
    identity_map,
    maps_equal,
    presheaf,
)
from nwfs.onestep import build_onestep
from nwfs.sequence import OrdinalBudget, run_free, run_plain

POINT = get_gens("point")
CODIAG = get_gens("codiagonal")
HORNS1 = get_gens("horns<=1")


def brute_force_fillers(gens, g):
    """Independent filler count: try every map and keep the commuting ones."""
    arrow = as_arrow(g)
    counts = []
    for i, sq in generating_squares(gens, arrow):
        j = gens.members[i]
        hits = [
            cand
            for cand in enumerate_maps(j.cod, arrow.dom)
            if maps_equal(compose_maps(cand, j.f), sq.top)
            and maps_equal(compose_maps(arrow.f, cand), sq.bottom)
        ]
        counts.append(len(hits))
    return counts


def small_instances():
    """Small (generating set, arrow) pairs over both catalog bases."""
    for n, m in ((0, 0), (0, 2), (1, 1), (2, 1), (2, 2), (3, 2)):
        for g in enumerate_maps(finset(n), finset(m))[:4]:
            yield POINT, g
            yield CODIAG, g
    d1 = get_category("delta<=1")
    shapes = [representable(d1, "0"), representable(d1, "1")]
    for X in shapes:
        for Y in shapes:
            for g in enumerate_maps(X, Y):
                yield HORNS1, g


def test_lift_search_matches_brute_force_in_order():
    """Both pinned searches equal all maps filtered by the two triangles."""
    for gens, g in small_instances():
        arrow = as_arrow(g)
        step = build_onestep(gens, arrow)
        oracle = [
            p
            for p in enumerate_maps(step.mid, arrow.dom)
            if maps_equal(compose_maps(p, step.left), identity_map(arrow.dom))
            and maps_equal(compose_maps(arrow.f, p), step.right)
        ]
        found = [a.structure for a in enumerate_algebra_structures(step)]
        assert [p.components for p in found] == [p.components for p in oracle]

        sets = square_filler_sets(step)
        assert len(sets) == len(step.squares)
        for (i, sq), fillers in zip(step.squares, sets):
            j = gens.members[i]
            oracle = [
                h
                for h in enumerate_maps(j.cod, arrow.dom)
                if maps_equal(compose_maps(h, j.f), sq.top)
                and maps_equal(compose_maps(arrow.f, h), sq.bottom)
            ]
            assert [h.components for h in fillers] == [h.components for h in oracle]


def test_bijection_on_the_empty_arrow():
    report = check_bijection(POINT, set_map(0, 0, []))
    assert (report.algebra_count, report.table_count, report.product_count) == (1, 1, 1)
    assert report.ok


def surjection_from(rng: random.Random, source_size: int) -> "PresheafMap":
    """Random surjection with a fixed source, so pairs compose."""
    n_tgt = rng.randint(1, source_size)
    values = list(range(n_tgt)) + [
        rng.randrange(n_tgt) for _ in range(source_size - n_tgt)
    ]
    rng.shuffle(values)
    return set_map(source_size, n_tgt, values)


def test_extracted_algebra_satisfies_its_laws():
    g = set_map(2, 3, [0, 0])
    state = run_free(POINT, g)
    alg = extract_algebra(state)
    assert validate_algebra(alg) == []
    # the algebra lives on the converged right half, not on g itself
    assert maps_equal(alg.step.arrow.f, state.stages[state.converged_at].right)
    # spot check the retraction law element by element
    p = alg.structure
    for x, image in alg.step.left.components["0"].items():
        assert p.components["0"][image] == x


def test_extract_requires_convergence():
    g = set_map(1, 2, [0])
    state = run_plain(POINT, g, budget=OrdinalBudget(2, 1))
    with pytest.raises(IncompatibleInput):
        extract_algebra(state)


def test_round_trip_algebra_to_table_and_back():
    g = set_map(3, 2, [0, 1, 1])
    state = run_free(CODIAG, g)
    alg = extract_algebra(state)
    table = fillers_from_algebra(alg)
    assert validate_table(table) == []
    back = algebra_from_fillers(table)
    assert maps_equal(back.structure, alg.structure)


def test_enumerations_are_deterministic():
    g = set_map(2, 2, [0, 0])
    first = enumerate_lifting_tables(onestep(POINT, g))
    second = enumerate_lifting_tables(onestep(POINT, g))
    assert len(first) == len(second)
    for a, b in zip(first, second):
        assert all(maps_equal(x, y) for x, y in zip(a.fillers, b.fillers))


def test_bijection_against_brute_force():
    rng = random.Random(11)
    done = 0
    while done < 8:
        source = rng.randrange(0, 4)
        target = rng.randrange(1, 4)
        if source + target > 6:
            continue
        values = [rng.randrange(target) for _ in range(source)]
        g = set_map(source, target, values)
        for gens in (POINT, CODIAG):
            report = check_bijection(gens, g)
            assert report.ok, report.problems
            oracle = math.prod(brute_force_fillers(gens, g))
            assert report.product_count == oracle
            assert report.algebra_count == oracle
        done += 1


def test_bijection_with_no_fillers_anywhere():
    # a non-surjective map admits no point-algebra, and all three counts
    # agree on zero
    g = set_map(1, 2, [0])
    report = check_bijection(POINT, g)
    assert report.ok
    assert report.algebra_count == 0


def test_bijection_lists_the_generating_squares_once_per_use(monkeypatch):
    # once, to build the step; the filler sets behind the tables and the
    # product count read the step's squares
    calls = []
    listing = arrows.enumerate_squares
    monkeypatch.setattr(arrows, "enumerate_squares", lambda j, g: calls.append(j) or listing(j, g))
    base = get_category("delta<=1")
    edge = representable(base, "1")
    g = PresheafMap(edge, terminal_presheaf(base), {a: dict.fromkeys(edge.carrier[a], 0) for a in base.objects})
    report = check_bijection(HORNS1, g)
    assert report.ok, report.problems
    assert report.algebra_count == report.product_count > 0
    assert len(calls) == len(HORNS1.members)


def test_algebra_count_detects_injectivity():
    g = set_map(3, 4, [2, 0, 3])
    assert len(enumerate_algebra_structures(onestep(CODIAG, g))) == 1
    h = set_map(3, 4, [2, 0, 0])
    assert len(enumerate_algebra_structures(onestep(CODIAG, h))) == 0


def test_composite_tables_solve_the_composite():
    rng = random.Random(23)
    for _ in range(12):
        f = random_surjection(rng)
        g = surjection_from(rng, f.target.total_size)
        tf = enumerate_lifting_tables(onestep(POINT, f))[0]
        tg = enumerate_lifting_tables(onestep(POINT, g))[0]
        comp = compose_lifting_tables(tf, tg)
        assert validate_table(comp) == []
        assert maps_equal(comp.step.arrow.f, compose_maps(g, f))


def test_table_composition_is_associative():
    rng = random.Random(31)
    for _ in range(8):
        f = random_surjection(rng)
        g = surjection_from(rng, f.target.total_size)
        h = surjection_from(rng, g.target.total_size)
        tf = enumerate_lifting_tables(onestep(POINT, f))[0]
        tg = enumerate_lifting_tables(onestep(POINT, g))[0]
        th = enumerate_lifting_tables(onestep(POINT, h))[0]
        left = compose_lifting_tables(compose_lifting_tables(tf, tg), th)
        right = compose_lifting_tables(tf, compose_lifting_tables(tg, th))
        assert all(maps_equal(a, b) for a, b in zip(left.fillers, right.fillers))


def test_table_composition_units():
    rng = random.Random(37)
    for _ in range(6):
        f = random_surjection(rng)
        tf = enumerate_lifting_tables(onestep(POINT, f))[0]
        t_id_dom = enumerate_lifting_tables(onestep(POINT, identity_map(f.source)))[0]
        t_id_cod = enumerate_lifting_tables(onestep(POINT, identity_map(f.target)))[0]
        left_unit = compose_lifting_tables(t_id_dom, tf)
        right_unit = compose_lifting_tables(tf, t_id_cod)
        for combined in (left_unit, right_unit):
            assert all(maps_equal(a, b) for a, b in zip(combined.fillers, tf.fillers))


def test_lookup_rejects_foreign_squares():
    g = set_map(2, 1, [0, 0])
    h = set_map(1, 1, [0])
    table = enumerate_lifting_tables(onestep(POINT, g))[0]
    (i, sq), *_ = generating_squares(POINT, as_arrow(h))
    with pytest.raises(IncompatibleInput):
        table.lookup(i, sq)


def test_lookup_rejects_a_square_under_another_generator():
    """The two horns of Δ[1] share their domain, so their squares' sides can agree."""
    g = edge_to_point()
    table = enumerate_lifting_tables(onestep(HORNS1, g))[0]
    squares = generating_squares(HORNS1, as_arrow(g))
    assert [i for i, _ in squares] == [0, 0, 1, 1]
    for n, (i, sq) in enumerate(squares):
        assert table.lookup(i, sq) is table.fillers[n]
        for wrong in (1 - i, 2, -1):
            with pytest.raises(IncompatibleInput):
                table.lookup(wrong, sq)


def sorted_items_key(f: PresheafMap) -> tuple:
    """A map's components as sorted items, a fingerprint independent of the engine's keys."""
    return tuple((a, tuple(sorted(f.components[a].items()))) for a in sorted(f.components))


def two_loop_check_bijection(gens, g):
    """Reference: the bijection check that sends every table round trip too.

    The engine's functions are read off the module at call time, so a
    monkeypatched function acts here as it does in `check_bijection`.
    """
    step = onestep(gens, g)
    found = algebras.enumerate_algebra_structures(step)
    sets = algebras.square_filler_sets(step)
    tables = [LiftingTable(step, choice) for choice in itertools.product(*sets)]
    product_count = math.prod(len(s) for s in sets)
    problems = []

    if len(found) != len(tables):
        problems.append(f"{len(found)} algebras against {len(tables)} tables")

    table_keys = {tuple(sorted_items_key(f) for f in t.fillers): n for n, t in enumerate(tables)}
    hit = set()
    for n, alg in enumerate(found):
        t = algebras.fillers_from_algebra(alg)
        m = table_keys.get(tuple(sorted_items_key(f) for f in t.fillers))
        if m is None:
            problems.append(f"algebra {n} maps to a table outside the enumeration")
            continue
        if m in hit:
            problems.append(f"algebras collide on table {m}")
        hit.add(m)
        back = algebras.algebra_from_fillers(t)
        if not maps_equal(back.structure, alg.structure):
            problems.append(f"round trip through tables moves algebra {n}")
    for m, t in enumerate(tables):
        back = algebras.fillers_from_algebra(algebras.algebra_from_fillers(t))
        if not all(maps_equal(a, b) for a, b in zip(back.fillers, t.fillers)):
            problems.append(f"round trip through algebras moves table {m}")
    return BijectionReport(
        algebras=tuple(found),
        tables=tuple(tables),
        product_count=product_count,
        problems=tuple(problems),
    )


def report_value(report: BijectionReport) -> tuple:
    return (
        (report.algebra_count, report.table_count, report.product_count),
        report.problems,
        [alg.structure.components for alg in report.algebras],
        [[f.components for f in t.fillers] for t in report.tables],
    )


def assert_matches_two_loop_check(gens, g) -> BijectionReport:
    report = check_bijection(gens, g)
    assert report_value(report) == report_value(two_loop_check_bijection(gens, g))
    return report


DELTA1 = get_category("delta<=1")


def permutation_graph_to_point(perm: tuple[int, ...]) -> PresheafMap:
    """The terminal map out of the reflexive graph with one edge v -> perm[v] per vertex.

    Edges 0..n-1 are the degenerate ones, edge n + v runs from v to perm[v].
    """
    n = len(perm)
    edges = range(2 * n)
    src = dict(zip(edges, [*range(n), *range(n)]))
    tgt = dict(zip(edges, [*range(n), *perm]))
    graph = presheaf(
        DELTA1,
        {"0": range(n), "1": edges},
        {"f01_0": src, "f01_1": tgt, "f10_00": {v: v for v in range(n)}, "f11_00": src, "f11_11": tgt},
    )
    point = terminal_presheaf(DELTA1)
    return PresheafMap(graph, point, {a: dict.fromkeys(graph.carrier[a], 0) for a in DELTA1.objects})


def test_bijection_matches_the_two_loop_check_on_set_maps():
    rng = random.Random(41)
    for _ in range(12):
        g = random_set_map(rng, max_size=4)
        for gens in (POINT, CODIAG):
            report = assert_matches_two_loop_check(gens, g)
            assert report.ok, report.problems


@given(st.tuples(st.sampled_from([POINT, CODIAG, SPARSE_GENS]), set_maps_with_ids(max_size=4)))
@example((POINT, PresheafMap(finset([3, 7, 8]), finset([5, 9]), {"0": {3: 5, 7: 5, 8: 9}})))
@settings(max_examples=60, deadline=None)
def test_bijection_matches_the_two_loop_check_on_sparse_ids(case):
    # keys follow carrier order, so ids that are not 0..n-1 are where a key slip shows
    report = assert_matches_two_loop_check(*case)
    assert report.ok, report.problems


@pytest.mark.parametrize("perm", [(1, 2, 0), (0, 2, 1), (0, 1, 2)], ids=["3-cycle", "loop+2-cycle", "3-loops"])
def test_bijection_matches_the_two_loop_check_on_permutation_graphs(perm):
    report = assert_matches_two_loop_check(HORNS1, permutation_graph_to_point(perm))
    assert report.ok, report.problems
    assert report.algebra_count == 64


# a set map with four algebras and four tables under POINT, for fault injection
FOUR = set_map(4, 2, [0, 0, 1, 1])


def components_of(fillers) -> list:
    return [f.components for f in fillers]


def test_a_moved_algebra_round_trip_is_reported_alike(monkeypatch):
    honest = check_bijection(POINT, FOUR)
    moved = components_of(honest.tables[1].fillers)
    elsewhere = honest.algebras[3].structure
    real = algebras.algebra_from_fillers

    def moving(table):
        alg = real(table)
        if components_of(table.fillers) == moved:
            return AlgebraStructure(step=alg.step, structure=elsewhere)
        return alg

    monkeypatch.setattr(algebras, "algebra_from_fillers", moving)
    report = assert_matches_two_loop_check(POINT, FOUR)
    assert report.problems == (
        "round trip through tables moves algebra 1",
        "round trip through algebras moves table 1",
    )


@pytest.mark.parametrize("fault", ["foreign filler", "missing filler"])
def test_an_algebra_outside_the_enumeration_is_reported_alike(monkeypatch, fault):
    honest = check_bijection(POINT, FOUR)
    outside = honest.algebras[2].structure.components
    real = algebras.fillers_from_algebra

    def misplacing(alg):
        table = real(alg)
        if alg.structure.components != outside:
            return table
        first, second, *rest = table.fillers
        fillers = (second, first, *rest) if fault == "foreign filler" else (first,)
        return LiftingTable(step=table.step, fillers=fillers)

    monkeypatch.setattr(algebras, "fillers_from_algebra", misplacing)
    report = assert_matches_two_loop_check(POINT, FOUR)
    # a swapped pair makes table 2's own trip come back moved; a cut-short
    # table agrees with it on the filler that is left
    expected = ["algebra 2 maps to a table outside the enumeration"]
    if fault == "foreign filler":
        expected.append("round trip through algebras moves table 2")
    assert report.problems == tuple(expected)


def test_colliding_algebras_are_reported_alike(monkeypatch):
    real = algebras.enumerate_algebra_structures
    monkeypatch.setattr(algebras, "enumerate_algebra_structures", lambda step: [real(step)[0], *real(step)[:-1]])
    report = assert_matches_two_loop_check(POINT, FOUR)
    assert report.problems == ("algebras collide on table 0",)


def counting(monkeypatch, name: str) -> list:
    calls = []
    real = getattr(algebras, name)
    monkeypatch.setattr(algebras, name, lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs))
    return calls


def test_missing_algebras_leave_every_table_to_its_own_trip(monkeypatch):
    monkeypatch.setattr(algebras, "enumerate_algebra_structures", lambda step: [])
    trips = counting(monkeypatch, "algebra_from_fillers")
    steps = counting(monkeypatch, "build_onestep")
    report = check_bijection(POINT, FOUR)
    assert report.problems == ("0 algebras against 4 tables",)
    # every table is unsettled, and all of them share the one step
    assert len(trips) == report.table_count == 4
    assert len(steps) == 1
    assert report_value(report) == report_value(two_loop_check_bijection(POINT, FOUR))


@pytest.mark.parametrize(
    "gens, g",
    [(HORNS1, permutation_graph_to_point((1, 2, 0))), (POINT, FOUR), (POINT, set_map(1, 2, [0]))],
    ids=["3-cycle", "four-algebras", "no-algebra"],
)
def test_bijection_makes_each_round_trip_once(monkeypatch, gens, g):
    # the table side is read off the algebra side wherever that held, so
    # each direction runs once per algebra, and one step serves both sides
    to_tables = counting(monkeypatch, "fillers_from_algebra")
    to_algebras = counting(monkeypatch, "algebra_from_fillers")
    steps = counting(monkeypatch, "build_onestep")
    report = check_bijection(gens, g)
    assert report.ok, report.problems
    assert len(to_tables) == len(to_algebras) == report.algebra_count
    assert len(steps) == 1

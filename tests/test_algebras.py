import math
import random

import pytest

from conftest import finset, random_surjection, set_map
from nwfs import arrows
from nwfs.algebras import (
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
        found = [a.structure for a in enumerate_algebra_structures(gens, arrow)]
        assert [p.components for p in found] == [p.components for p in oracle]

        squares, sets = square_filler_sets(gens, arrow)
        assert len(sets) == len(squares)
        for (i, sq), fillers in zip(squares, sets):
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
    assert maps_equal(alg.target.f, state.stages[state.converged_at].right)
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
    back = algebra_from_fillers(table, step=alg.step)
    assert maps_equal(back.structure, alg.structure)


def test_enumerations_are_deterministic():
    g = set_map(2, 2, [0, 0])
    first = enumerate_lifting_tables(POINT, g)
    second = enumerate_lifting_tables(POINT, g)
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
    # once to build the step, once for the filler sets behind the tables and
    # the product count
    calls = []
    listing = arrows.enumerate_squares
    monkeypatch.setattr(arrows, "enumerate_squares", lambda j, g: calls.append(j) or listing(j, g))
    base = get_category("delta<=1")
    edge = representable(base, "1")
    g = PresheafMap(edge, terminal_presheaf(base), {a: dict.fromkeys(edge.carrier[a], 0) for a in base.objects})
    report = check_bijection(HORNS1, g)
    assert report.ok, report.problems
    assert report.algebra_count == report.product_count > 0
    assert len(calls) == 2 * len(HORNS1.members)


def test_algebra_count_detects_injectivity():
    g = set_map(3, 4, [2, 0, 3])
    assert len(enumerate_algebra_structures(CODIAG, g)) == 1
    h = set_map(3, 4, [2, 0, 0])
    assert len(enumerate_algebra_structures(CODIAG, h)) == 0


def test_composite_tables_solve_the_composite():
    rng = random.Random(23)
    for _ in range(12):
        f = random_surjection(rng)
        g = surjection_from(rng, f.target.total_size)
        tf = enumerate_lifting_tables(POINT, f)[0]
        tg = enumerate_lifting_tables(POINT, g)[0]
        comp = compose_lifting_tables(tf, tg)
        assert validate_table(comp) == []
        assert maps_equal(comp.target.f, compose_maps(g, f))


def test_table_composition_is_associative():
    rng = random.Random(31)
    for _ in range(8):
        f = random_surjection(rng)
        g = surjection_from(rng, f.target.total_size)
        h = surjection_from(rng, g.target.total_size)
        tf = enumerate_lifting_tables(POINT, f)[0]
        tg = enumerate_lifting_tables(POINT, g)[0]
        th = enumerate_lifting_tables(POINT, h)[0]
        left = compose_lifting_tables(compose_lifting_tables(tf, tg), th)
        right = compose_lifting_tables(tf, compose_lifting_tables(tg, th))
        assert all(maps_equal(a, b) for a, b in zip(left.fillers, right.fillers))


def test_table_composition_units():
    rng = random.Random(37)
    for _ in range(6):
        f = random_surjection(rng)
        tf = enumerate_lifting_tables(POINT, f)[0]
        t_id_dom = enumerate_lifting_tables(POINT, identity_map(f.source))[0]
        t_id_cod = enumerate_lifting_tables(POINT, identity_map(f.target))[0]
        left_unit = compose_lifting_tables(t_id_dom, tf)
        right_unit = compose_lifting_tables(tf, t_id_cod)
        for combined in (left_unit, right_unit):
            assert all(maps_equal(a, b) for a, b in zip(combined.fillers, tf.fillers))


def test_lookup_rejects_foreign_squares():
    g = set_map(2, 1, [0, 0])
    h = set_map(1, 1, [0])
    table = enumerate_lifting_tables(POINT, g)[0]
    (i, sq), *_ = generating_squares(POINT, as_arrow(h))
    with pytest.raises(IncompatibleInput):
        table.lookup(i, sq)

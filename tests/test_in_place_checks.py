"""Equations checked in place, the restriction join of squares and row induction.

Each kernel is compared with the code it replaced, kept here as the
reference: `composite_equals` with building the composite and comparing
its components, `enumerate_squares` with the all-pairs filter, and
`induce` with the dict version. Inputs are random sets over `terminal`
and random reflexive graphs over `delta<=1`, with random element ids.
The negative tests check that every in-place check still fires, the
validator's equations on a replayed run among them.
"""

import json
from dataclasses import replace

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

from conftest import finset, onestep, set_map
from test_hom_search import reflexive_graphs
from nwfs import jsonio, sequence
from nwfs.algebras import (
    enumerate_algebra_structures,
    enumerate_lifting_tables,
    validate_algebra,
    validate_table,
)
from nwfs.arrows import ArrowObj, GeneratingSet, Square, enumerate_squares, square_commutes, validate_square
from nwfs.catalog import get_gens
from nwfs.colimits import Cocone, coproduct, induce, pushout
from nwfs.core import (
    IncompatibleInput,
    InternalCheckFailed,
    PresheafMap,
    _same,
    compose_maps,
    composite_equals,
    enumerate_maps,
    identity_map,
    presheaf,
)
from nwfs.jsonio import sequence_certificate, validate_certificate
from nwfs.sequence import FREE, PLAIN, OrdinalBudget, build_comparison, run_free, run_plain

POINT = get_gens("point")
CODIAG = get_gens("codiagonal")
HORNS1 = get_gens("horns<=1")


# -- the replaced code, kept as references ----------------------------------


def composite_components(g, f):
    return {
        a: {x: g.components[a][f.components[a][x]] for x in f.source.carrier[a]}
        for a in f.source.base.objects
    }


def reference_composite_equals(g, f, h):
    """Build g after f and compare its components with h's (or the identity's)."""
    if not _same(f.target, g.source):
        raise IncompatibleInput("compose_maps: target of the first map is not the source of the second")
    if h is None:
        want = {a: {x: x for x in f.source.carrier[a]} for a in f.source.base.objects}
    else:
        want = h.components
    return composite_components(g, f) == want


def all_pairs_squares(j, g):
    """Every (top, bottom) pair whose square commutes: tops outer, bottoms inner."""
    out = []
    bottoms = enumerate_maps(j.cod, g.cod)
    for top in enumerate_maps(j.dom, g.dom):
        reach = composite_components(g.f, top)
        for bottom in bottoms:
            if composite_components(bottom, j.f) == reach:
                out.append((top.components, bottom.components))
    return out


def reference_induce(cocone, targets, cod):
    """Induction into dicts grown leg by leg, as `induce` did before its rows were keyed by the apex."""
    if len(targets) != len(cocone.legs):
        raise IncompatibleInput(f"induce: {len(cocone.legs)} legs but {len(targets)} target maps")
    for i, t in enumerate(targets):
        if not _same(t.target, cod):
            raise IncompatibleInput(f"induce: target map {i} has a different codomain")
        if not _same(t.source, cocone.legs[i].source):
            raise IncompatibleInput(f"induce: target map {i} does not start at leg {i}'s source")
    apex = cocone.apex
    comps = {a: {} for a in apex.base.objects}
    for leg, t in zip(cocone.legs, targets):
        for a in apex.base.objects:
            lc, tc = leg.components[a], t.components[a]
            for x in leg.source.carrier[a]:
                y, z = lc[x], tc[x]
                seen = comps[a].get(y)
                if seen is None:
                    comps[a][y] = z
                elif seen != z:
                    raise IncompatibleInput(
                        f"induce: targets disagree at object {a!r}, apex element {y} "
                        f"receives both {seen} and {z}"
                    )
    for a in apex.base.objects:
        missing = [y for y in apex.carrier[a] if y not in comps[a]]
        if missing:
            raise InternalCheckFailed(f"induce: apex elements {missing} at object {a!r} not reached by any leg")
    return PresheafMap(apex, cod, comps)


# -- random inputs -----------------------------------------------------------


@st.composite
def random_sets(draw, max_size=4, min_size=0):
    """A set over `terminal` whose element ids are not 0..n-1."""
    return finset(draw(st.lists(st.integers(0, 40), min_size=min_size, max_size=max_size, unique=True)))


@st.composite
def same_base(draw, n, max_size=4, min_size=0):
    """n presheaves over one base: random sets, or random reflexive graphs."""
    if draw(st.booleans()):
        return [draw(random_sets(max_size, min_size)) for _ in range(n)]
    graphs = reflexive_graphs(min_vertices=min(min_size, 2), max_vertices=2, max_edges=2)
    return [draw(graphs) for _ in range(n)]


def pick(data, maps):
    assume(maps)
    return maps[data.draw(st.integers(0, len(maps) - 1))]


def edited(f, data):
    """f's components with one random edit: a moved value, a missing or
    stray element, or a missing or stray component."""
    comps = {a: dict(c) for a, c in f.components.items()}
    filled = [a for a in sorted(comps) if comps[a]]
    kind = data.draw(st.sampled_from(["moved", "missing", "stray", "no component", "extra component"]))
    if kind in ("moved", "missing") and filled:
        a = data.draw(st.sampled_from(filled))
        x = data.draw(st.sampled_from(sorted(comps[a])))
        if kind == "missing":
            del comps[a][x]
        else:
            comps[a][x] = data.draw(st.sampled_from(list(f.target.carrier[a]) + [99]))
    elif kind == "no component":
        del comps[data.draw(st.sampled_from(sorted(comps)))]
    elif kind == "extra component":
        comps["spare"] = {}
    else:
        # a stray element, also in place of a move on an empty map
        comps[data.draw(st.sampled_from(sorted(comps)))][100] = data.draw(st.integers(0, 3))
    return PresheafMap(f.source, f.target, comps)


# -- composite_equals --------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_composite_equals_matches_compose_then_compare(data):
    X, Y, Z = data.draw(same_base(3))
    f = pick(data, enumerate_maps(X, Y))
    g = pick(data, enumerate_maps(Y, Z))
    kind = data.draw(st.sampled_from(["composite", "other", "edited composite"]))
    if kind == "other":
        h = pick(data, enumerate_maps(X, Z))
    else:
        h = PresheafMap(X, Z, composite_components(g, f))
        if kind == "edited composite":
            h = edited(h, data)
    assert composite_equals(g, f, h) == reference_composite_equals(g, f, h)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_composite_equals_with_the_identity_matches_compose_then_compare(data):
    X, Y = data.draw(same_base(2, max_size=3))
    if data.draw(st.booleans()):
        # endomaps of X: the identity and every automorphism pair pass
        f, g = pick(data, enumerate_maps(X, X)), pick(data, enumerate_maps(X, X))
    else:
        f, g = pick(data, enumerate_maps(X, Y)), pick(data, enumerate_maps(Y, X))
    assert composite_equals(g, f) == reference_composite_equals(g, f, None)
    assert composite_equals(g, f, None) == composite_equals(g, f, identity_map(X))
    # the identity of another presheaf: a copy of X, or Y, whose carriers may differ
    copy = presheaf(X.base, {a: list(c) for a, c in X.carrier.items()}, {m: dict(r) for m, r in X.action.items()})
    for W in (X, copy, Y):
        want = composite_components(g, f) == identity_map(W).components
        assert composite_equals(g, f, identity_of=W) == want


def test_composite_equals_sees_a_missing_or_stray_key():
    f = set_map(2, 3, [2, 0])
    g = PresheafMap(f.target, finset(2), {"0": {0: 1, 1: 0, 2: 0}})
    h = PresheafMap(f.source, g.target, {"0": {0: 0, 1: 1}})
    assert composite_equals(g, f, h)
    assert not composite_equals(g, f, PresheafMap(h.source, h.target, {"0": {0: 0}}))
    assert not composite_equals(g, f, PresheafMap(h.source, h.target, {"0": {0: 0, 1: 1, 2: 0}}))
    assert not composite_equals(g, f, PresheafMap(h.source, h.target, {"0": {0: 0, 2: 1}}))
    assert not composite_equals(g, f, PresheafMap(h.source, h.target, {}))
    assert not composite_equals(g, f, PresheafMap(h.source, h.target, {"0": {0: 0, 1: 1}, "1": {}}))
    # g after f is the identity, g after the swapped f is not
    assert composite_equals(g, f)
    assert not composite_equals(g, set_map(2, 3, [0, 2]))


def test_composite_equals_rejects_maps_that_do_not_compose():
    f, g = set_map(2, 3, [2, 0]), set_map(2, 2, [0, 1])
    with pytest.raises(IncompatibleInput, match="composite_equals: target of the first map"):
        composite_equals(g, f, f)
    with pytest.raises(IncompatibleInput, match="composite_equals: target of the first map"):
        composite_equals(g, f)


# -- enumerate_squares -------------------------------------------------------


@st.composite
def square_cases(draw):
    """(generator, arrow): set maps under point and codiagonal, graph maps under horns<=1."""
    if draw(st.booleans()):
        gens = draw(st.sampled_from([POINT, CODIAG]))
        X = draw(random_sets(3))
        Y = draw(random_sets(4).filter(lambda Y: Y.carrier["0"] or not X.carrier["0"]))
        values = [draw(st.sampled_from(Y.carrier["0"])) for _ in X.carrier["0"]]
        g = PresheafMap(X, Y, {"0": dict(zip(X.carrier["0"], values))})
    else:
        gens = HORNS1
        X = draw(reflexive_graphs(min_vertices=0, max_vertices=2, max_edges=2))
        Y = draw(reflexive_graphs(min_vertices=1, max_vertices=3, max_edges=3))
        maps = enumerate_maps(X, Y)
        g = maps[draw(st.integers(0, len(maps) - 1))]
    return draw(st.sampled_from(gens.members)), ArrowObj(g)


@settings(max_examples=200, deadline=None)
@given(square_cases())
def test_enumerate_squares_matches_the_all_pairs_filter(case):
    j, g = case
    got = enumerate_squares(j, g)
    assert all(sq.source is j and sq.target is g for sq in got)
    assert [(sq.top.components, sq.bottom.components) for sq in got] == all_pairs_squares(j, g)


# -- square_commutes ---------------------------------------------------------


def broken_at(draw, f):
    """f with one element sent to another value of its target, if any element has one."""
    spots = [(a, x) for a in f.source.base.objects for x in f.source.carrier[a] if len(f.target.carrier[a]) > 1]
    if not spots:
        return f
    a, x = draw(st.sampled_from(spots))
    y = draw(st.sampled_from([y for y in f.target.carrier[a] if y != f.components[a][x]]))
    return PresheafMap(f.source, f.target, {**f.components, a: {**f.components[a], x: y}})


@st.composite
def random_squares(draw):
    """Squares j -> g: commuting ones or any two sides, then maybe one side broken at one element."""
    j, g = draw(square_cases())
    if draw(st.booleans()):
        squares = enumerate_squares(j, g)
        assume(squares)
        sq = draw(st.sampled_from(squares))
    else:
        tops, bottoms = enumerate_maps(j.dom, g.dom), enumerate_maps(j.cod, g.cod)
        assume(tops and bottoms)
        sq = Square(j, g, draw(st.sampled_from(tops)), draw(st.sampled_from(bottoms)))
    side = draw(st.sampled_from(["top", "bottom", None]))
    return sq if side is None else replace(sq, **{side: broken_at(draw, getattr(sq, side))})


@settings(max_examples=300, deadline=None)
@given(random_squares())
def test_square_commutes_matches_building_both_composites(sq):
    want = compose_maps(sq.target.f, sq.top).components == compose_maps(sq.bottom, sq.source.f).components
    assert square_commutes(sq) is want
    assert validate_square(sq) == ([] if want else ["square does not commute"])


def test_square_commutes_finds_a_square_broken_at_one_element():
    j = CODIAG.members[0]
    sq = enumerate_squares(j, ArrowObj(set_map(2, 2, [0, 1])))[1]
    assert square_commutes(sq)
    for side in ("top", "bottom"):
        f = getattr(sq, side)
        x = max(f.source.carrier["0"])
        broken = PresheafMap(f.source, f.target, {"0": {**f.components["0"], x: 1 - f.components["0"][x]}})
        assert not square_commutes(replace(sq, **{side: broken})), side


def test_a_square_whose_side_misses_its_arrow_does_not_commute():
    j = POINT.members[0]
    sq = replace(enumerate_squares(j, ArrowObj(set_map(1, 2, [0])))[0], target=ArrowObj(set_map(1, 3, [0])))
    assert not square_commutes(sq)
    assert validate_square(sq) == ["bottom map does not end at the target arrow's codomain"]


# -- induce ------------------------------------------------------------------


def outcome(build):
    try:
        u = build()
    except (IncompatibleInput, InternalCheckFailed) as err:
        return type(err).__name__, str(err)
    return "map", u.source, u.target, u.components


def relabelled(cone, ids):
    """The same cocone with the apex's elements renamed by `ids`, object by object."""
    apex, base = cone.apex, cone.apex.base
    name = {a: dict(zip(apex.carrier[a], ids[a])) for a in base.objects}
    new = presheaf(
        base,
        {a: list(name[a].values()) for a in base.objects},
        {
            m.name: {name[m.cod][x]: name[m.dom][y] for x, y in apex.action[m.name].items()}
            for m in base.morphisms
        },
    )
    legs = tuple(
        PresheafMap(leg.source, new, {a: {x: name[a][y] for x, y in leg.components[a].items()} for a in base.objects})
        for leg in cone.legs
    )
    return Cocone(new, legs)


@st.composite
def induce_cases(draw):
    """A cocone (dense or not, legs all there or not), its targets and their codomain."""
    A, B, C, D = draw(same_base(4, max_size=3, min_size=1))
    kind = draw(st.sampled_from(["pushout", "coproduct", "some legs"]))
    if kind == "pushout":
        f, g = enumerate_maps(A, B), enumerate_maps(A, C)
        cone = pushout(f[draw(st.integers(0, len(f) - 1))], g[draw(st.integers(0, len(g) - 1))])
    else:
        cone = coproduct([A, B, C])
        if kind == "some legs":
            # apex elements no leg reaches
            cone = Cocone(cone.apex, cone.legs[: draw(st.integers(0, 2))])
    if draw(st.booleans()):
        # ids from 1 up: the apex is dense only if it is empty
        sizes = {a: len(cone.apex.carrier[a]) for a in cone.apex.base.objects}
        ids = {a: draw(st.lists(st.integers(1, 60), min_size=n, max_size=n, unique=True)) for a, n in sizes.items()}
        cone = relabelled(cone, ids)
    if draw(st.booleans()):
        # targets through one map out of the apex agree wherever the legs meet
        out = enumerate_maps(cone.apex, D)
        assume(out)
        h = out[draw(st.integers(0, len(out) - 1))]
        targets = [PresheafMap(leg.source, D, composite_components(h, leg)) for leg in cone.legs]
    else:
        targets = []
        for leg in cone.legs:
            maps = enumerate_maps(leg.source, D)
            assume(maps)
            targets.append(maps[draw(st.integers(0, len(maps) - 1))])
    return cone, targets, D


@settings(max_examples=300, deadline=None)
@given(induce_cases())
def test_induce_matches_the_dict_version(case):
    cone, targets, D = case
    assert outcome(lambda: induce(cone, targets, D)) == outcome(lambda: reference_induce(cone, targets, D))


@pytest.mark.parametrize("ids", [None, {"0": [3, 7, 9, 20]}], ids=["dense", "not dense"])
def test_induce_reports_disagreement_and_unreached_elements(ids):
    # the pushout of 1 -> 2 (onto 1) and 1 -> 3 (onto 0) glues B's 1 to C's 0
    cone = pushout(set_map(1, 2, [1]), set_map(1, 3, [0]))
    if ids is not None:
        cone = relabelled(cone, ids)
    glued = cone.legs[0].components["0"][1]
    B, C = (leg.source for leg in cone.legs)
    D = finset(3)
    agree = [PresheafMap(B, D, {"0": {0: 0, 1: 2}}), PresheafMap(C, D, {"0": {0: 2, 1: 1, 2: 0}})]
    clash = [PresheafMap(B, D, {"0": {0: 0, 1: 1}}), agree[1]]
    for targets in (agree, clash):
        assert outcome(lambda: induce(cone, targets, D)) == outcome(lambda: reference_induce(cone, targets, D))
    with pytest.raises(IncompatibleInput, match=rf"apex element {glued} receives both 1 and 2"):
        induce(cone, clash, D)
    unreached = [y for y in cone.apex.carrier["0"] if y not in cone.legs[0].components["0"].values()]
    with pytest.raises(InternalCheckFailed, match=rf"apex elements \[{', '.join(map(str, unreached))}\] at object '0'"):
        induce(Cocone(cone.apex, cone.legs[:1]), agree[:1], D)


# -- the in-place checks still fire ------------------------------------------


def moved(f, a, x, value):
    comps = {b: dict(c) for b, c in f.components.items()}
    comps[a][x] = value
    return PresheafMap(f.source, f.target, comps)


def test_a_moved_structure_map_fails_both_algebra_checks():
    g = set_map(2, 2, [0, 1])
    alg = enumerate_algebra_structures(onestep(POINT, g))[0]
    assert validate_algebra(alg) == []
    # the copy of 0 in the middle now goes to 1, which g sends elsewhere
    y = alg.step.left.components["0"][0]
    bad = type(alg)(step=alg.step, structure=moved(alg.structure, "0", y, 1))
    assert validate_algebra(bad) == [
        "structure map does not retract the left half",
        "structure map does not cover the right half",
    ]


def table_on_a_non_injective_arrow():
    # j: 1 -> 2 onto 0, so a filler is pinned at 0 and free over the bottom at 1
    j = ArrowObj(set_map(1, 2, [0]))
    gens = GeneratingSet((j,))
    g = set_map(3, 2, [0, 0, 1])
    table = enumerate_lifting_tables(onestep(gens, g))[0]
    assert validate_table(table) == []
    return table


def test_a_filler_that_breaks_its_top_triangle_fails_the_table():
    table = table_on_a_non_injective_arrow()
    # a square whose top lands in g's fibre {0, 1}: moving the pinned value
    # within the fibre keeps the bottom triangle
    n = next(n for n, (_, sq) in enumerate(table.step.squares) if sq.top.components["0"][0] in (0, 1))
    filler = table.fillers[n]
    other = 1 - filler.components["0"][0]
    fillers = list(table.fillers)
    fillers[n] = moved(filler, "0", 0, other)
    bad = type(table)(step=table.step, fillers=tuple(fillers))
    assert validate_table(bad) == [f"filler {n} breaks the top triangle"]


def test_a_filler_that_breaks_its_bottom_triangle_fails_the_table():
    table = table_on_a_non_injective_arrow()
    n = 0
    filler = table.fillers[n]
    # element 1 is off the image of j; send it over the other point of g's codomain
    value = filler.components["0"][1]
    over = table.step.arrow.f.components["0"]
    other = next(c for c in (0, 1, 2) if over[c] != over[value])
    fillers = list(table.fillers)
    fillers[n] = moved(filler, "0", 1, other)
    bad = type(table)(step=table.step, fillers=tuple(fillers))
    assert validate_table(bad) == [f"filler {n} breaks the bottom triangle"]


@pytest.mark.parametrize("fault", ["missing", "extra"])
def test_a_table_with_a_filler_count_off_its_squares_fails(fault):
    table = enumerate_lifting_tables(onestep(POINT, set_map(2, 2, [0, 1])))[0]
    assert len(table.fillers) == len(table.step.squares) == 2
    # the fillers that are there still solve their squares
    fillers = table.fillers[:-1] if fault == "missing" else (*table.fillers, table.fillers[0])
    bad = type(table)(step=table.step, fillers=fillers)
    assert validate_table(bad) == [f"table has {len(fillers)} fillers for 2 squares"]


def runs_to_compare():
    g = set_map(2, 3, [1, 1])
    budget = OrdinalBudget(1, 1)
    free = run_free(POINT, g, budget, stop_at_convergence=False)
    plain = run_plain(POINT, g, budget)
    report = build_comparison(free, plain)
    assert report.ok and len(report.maps) == 2
    return free, plain, report


@pytest.mark.parametrize("flag", ["left", "right"])
def test_a_tampered_comparison_map_fails_its_flag(monkeypatch, flag):
    free, plain, report = runs_to_compare()
    q = report.maps[1]
    if flag == "left":
        # the image of the arrow's domain now lands on another element
        y = plain.stages[1].left.components["0"][0]
        value = next(z for z in free.stages[1].mid.carrier["0"] if z != q.components["0"][y])
    else:
        # a cell now lands over a different point of the arrow's codomain
        right = free.stages[1].right.components["0"]
        y = max(plain.stages[1].mid.carrier["0"])
        value = next(z for z in free.stages[1].mid.carrier["0"] if right[z] != right[q.components["0"][y]])
    tampered = moved(q, "0", y, value)
    monkeypatch.setattr(sequence, "onestep_on_square", lambda *args, **kwargs: tampered)
    report = build_comparison(free, plain)
    # the fold after the step is the identity, so the map is kept as tampered
    assert report.maps[1].components == tampered.components
    commutes = report.left_commutes if flag == "left" else report.right_commutes
    assert commutes == (True, False)
    assert not report.ok


def swap(X, a, b) -> PresheafMap:
    """The automorphism of a set that swaps elements a and b."""
    values = {x: x for x in X.carrier["0"]}
    values[a], values[b] = b, a
    return PresheafMap(X, X, {"0": values})


def constant(source, target, value) -> PresheafMap:
    return PresheafMap(source, target, {"0": dict.fromkeys(source.carrier["0"], value)})


def at_1(entries, value):
    return entries[:1] + (value,) + entries[2:]


# Each fault breaks one equation at stage 2 of the free (or, for the limit,
# plain) run of 2 -> 3 [1, 1] against the point. Elements 0 and 2 of stage
# 2 lie over different points, and 0 is the image of the domain's 0.
ENGINE_FAULTS = {
    "/run/links/1: link does not extend the left half":
        lambda s: replace(s, links=at_1(s.links, compose_maps(swap(s.stages[2].mid, 0, 2), s.links[1]))),
    "/run/links/1: link does not cover the right half":
        lambda s: replace(s, links=at_1(s.links, compose_maps(swap(s.stages[2].mid, 0, 2), s.links[1]))),
    "/run/links/1: link into a limit stage is not an isomorphism":
        lambda s: replace(s, stages=s.stages[:2] + (replace(s.stages[2], kind="limit"),) + s.stages[3:]),
    "/run/folds/1: fold is not surjective":
        lambda s: replace(s, folds=at_1(s.folds, constant(s.steps[1].mid, s.stages[2].mid, 0))),
    "/run/folds/1: fold does not reproduce the link":
        lambda s: replace(s, folds=at_1(s.folds, compose_maps(swap(s.stages[2].mid, 0, 2), s.folds[1]))),
    "/run/folds/1: fold does not cover the step's right half":
        lambda s: replace(s, folds=at_1(s.folds, compose_maps(swap(s.stages[2].mid, 0, 2), s.folds[1]))),
    "/run/folds/1: fold does not coequalize its pair":
        lambda s: replace(s, pairs=at_1(s.pairs, (s.pairs[1][0], constant(s.pairs[1][0].source, s.steps[1].mid, 0)))),
}


@pytest.mark.parametrize("problem", sorted(ENGINE_FAULTS))
def test_the_validator_checks_the_equations_a_faulty_engine_breaks(monkeypatch, problem):
    # the certificate is written from the faulty run and replayed by the
    # same faulty schedule, so every recorded entry matches the replay
    honest, fault = jsonio.stage_schedule, ENGINE_FAULTS[problem]

    def faulty(*args):
        for state in honest(*args):
            yield fault(state) if len(state.stages) > 2 else state

    monkeypatch.setattr(jsonio, "stage_schedule", faulty)
    mode = PLAIN if "limit" in problem else FREE
    *_, state = faulty(mode, POINT, set_map(2, 3, [1, 1]), OrdinalBudget(3, 1))
    assert problem in validate_certificate(json.loads(json.dumps(sequence_certificate(state))))

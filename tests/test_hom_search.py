"""enumerate_maps against a brute-force oracle, element for element and in order.

The oracle lists every function X -> Y that sends each element to one of
its candidates (its allowed values, else all of Y at its object), which is
the set of all functions filtered by the allowed sets. It keeps the natural
ones and orders them lexicographically by value over the (object id,
element id) variables. It shares no code with the search.
"""

import itertools
import math

import hypothesis.strategies as st
from hypothesis import given, settings

from conftest import CYCLIC3, IDEMPOTENT, finset
from nwfs.catalog import get_category, horn_inclusion, representable
from nwfs.core import Presheaf, enumerate_maps, presheaf, validate

# assignments the oracle may try: the product of the candidate counts
MAX_FUNCTIONS = 10_000

DELTA1 = get_category("delta<=1")
DELTA2 = get_category("delta<=2")
PIECES = tuple(representable(DELTA2, a) for a in DELTA2.objects) + tuple(
    horn_inclusion(2, k, 2).dom for k in range(3)
)
PART_LISTS = tuple(
    parts for r in range(3) for parts in itertools.combinations_with_replacement(range(len(PIECES)), r)
)


def oracle(X: Presheaf, Y: Presheaf, allowed: dict) -> list[dict]:
    base = X.base
    variables = [(a, x) for a in sorted(base.objects) for x in X.carrier[a]]
    found = []
    for values in itertools.product(*(allowed.get(v, Y.carrier[v[0]]) for v in variables)):
        f = {a: {} for a in base.objects}
        for (a, x), y in zip(variables, values):
            f[a][x] = y
        if all(
            f[m.dom][X.action[m.name][x]] == Y.action[m.name][f[m.cod][x]]
            for m in base.morphisms
            for x in X.carrier[m.cod]
        ):
            found.append(f)
    return sorted(found, key=lambda f: [f[a][x] for a, x in variables])


def assert_matches_oracle(X, Y, allowed):
    got = enumerate_maps(X, Y, allowed=allowed)
    assert all(f.source is X and f.target is Y for f in got)
    assert [f.components for f in got] == oracle(X, Y, allowed)


@st.composite
def reflexive_graphs(draw, min_vertices: int, max_vertices: int, max_edges: int):
    """A reflexive graph over delta<=1 with element ids drawn at random."""
    nv = draw(st.integers(min_vertices, max_vertices))
    ends = draw(
        st.lists(st.tuples(st.integers(0, nv - 1), st.integers(0, nv - 1)), max_size=max_edges)
        if nv
        else st.just([])
    )
    ids = st.integers(0, 40)
    vids = draw(st.lists(ids, min_size=nv, max_size=nv, unique=True))
    eids = draw(st.lists(ids, min_size=nv + len(ends), max_size=nv + len(ends), unique=True))
    src = vids + [vids[s] for s, _ in ends]
    tgt = vids + [vids[t] for _, t in ends]
    degenerate = dict(zip(vids, eids))
    actions = {
        "f01_0": dict(zip(eids, src)),
        "f01_1": dict(zip(eids, tgt)),
        "f10_00": degenerate,
        "f11_00": {e: degenerate[v] for e, v in zip(eids, src)},
        "f11_11": {e: degenerate[v] for e, v in zip(eids, tgt)},
    }
    return presheaf(DELTA1, {"0": vids, "1": eids}, actions)


@st.composite
def relabelled_coproducts(draw, parts):
    """The disjoint union of catalog pieces, every element given a fresh random id."""
    pieces = [PIECES[i] for i in parts]
    fresh = {
        a: iter(draw(st.permutations(range(3 * sum(len(P.carrier[a]) for P in pieces) + 1))))
        for a in DELTA2.objects
    }
    carrier = {a: [] for a in DELTA2.objects}
    action = {m.name: {} for m in DELTA2.morphisms}
    for P in pieces:
        name = {a: {x: next(fresh[a]) for x in P.carrier[a]} for a in DELTA2.objects}
        for a in DELTA2.objects:
            carrier[a] += name[a].values()
        for m in DELTA2.morphisms:
            for x, y in P.action[m.name].items():
                action[m.name][name[m.cod][x]] = name[m.dom][y]
    return presheaf(DELTA2, carrier, action)


@st.composite
def constraints(draw, X: Presheaf, Y: Presheaf):
    """Random allowed sets, then pins until the oracle's search is small.

    A pin is an allowed set with one value. Most pins and allowed sets
    agree with one map the search reports, and the extra pins all do, so
    that constrained draws often keep some solutions; allowed sets come in
    random order, so most do not ascend.
    """
    maps = enumerate_maps(X, Y)
    ref = draw(st.sampled_from(maps)).components if maps else None
    variables = [(a, x) for a in sorted(X.base.objects) for x in X.carrier[a] if Y.carrier[a]]

    def value(v, mostly=True):
        if ref is not None and (not mostly or draw(st.integers(0, 7))):
            return ref[v[0]][v[1]]
        return draw(st.sampled_from(Y.carrier[v[0]]))

    allowed = {}
    if draw(st.booleans()):
        for v in variables:
            # about three constrained variables per draw
            kind = draw(st.sampled_from(("free",) * len(variables) + ("pin", "allowed")))
            if kind == "allowed":
                order = draw(st.permutations(Y.carrier[v[0]]))
                order = order[: draw(st.integers(0, len(order)))]
                y = value(v)
                if y not in order:
                    order.insert(draw(st.integers(0, len(order))), y)
                allowed[v] = tuple(order)
            elif kind == "pin":
                allowed[v] = (value(v),)

    def size():
        return math.prod(len(allowed.get(v, Y.carrier[v[0]])) for v in variables)

    for v in draw(st.permutations(variables)):
        if size() <= MAX_FUNCTIONS:
            break
        allowed[v] = (value(v, mostly=False),)
    return allowed


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_graph_maps_match_the_oracle(data):
    X = data.draw(reflexive_graphs(min_vertices=0, max_vertices=3, max_edges=3))
    Y = data.draw(reflexive_graphs(min_vertices=1, max_vertices=3, max_edges=4))
    assert validate(X) == [] and validate(Y) == []
    assert_matches_oracle(X, Y, data.draw(constraints(X, Y)))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_delta2_maps_match_the_oracle(data):
    X = data.draw(relabelled_coproducts(data.draw(st.sampled_from(PART_LISTS))))
    Y = data.draw(relabelled_coproducts(data.draw(st.sampled_from(PART_LISTS))))
    assert validate(X) == [] and validate(Y) == []
    assert_matches_oracle(X, Y, data.draw(constraints(X, Y)))


TRIANGLE = representable(DELTA2, "2")
TOP = DELTA2.hom("2", "2").index("id2")


def at_vertex(a: str, i: int) -> int:
    """The element of TRIANGLE at a that is its vertex i, made degenerate."""
    return DELTA2.hom(a, "2").index(f"f{a}2_{str(i) * (int(a) + 1)}")


@st.composite
def triangle_wedges(draw):
    """Two or three triangles, each after the first glued at one vertex to a
    vertex of an earlier one; returns the presheaf and its top triangles.

    Every element gets a random id, but the top (nondegenerate) triangles
    get the least ids at object 2, in gluing order, so each is a root of
    the search. A later triangle's block shares only the glued vertex and
    its degeneracies with the earlier blocks, and no generator into object
    2 sends a top triangle there, so the block meets them only through a
    composite morphism.
    """
    k = draw(st.integers(2, 3))
    glue = [None] + [
        (draw(st.integers(0, t - 1)), draw(st.integers(0, 2)), draw(st.integers(0, 2))) for t in range(1, k)
    ]
    # element (t, a, e) of triangle t is the class owner[(t, a, e)]
    owner = {}
    for t, g in enumerate(glue):
        for a in DELTA2.objects:
            for e in TRIANGLE.carrier[a]:
                owner[(t, a, e)] = (t, a, e)
        if g is not None:
            s, i, j = g
            for a in DELTA2.objects:
                owner[(t, a, at_vertex(a, j))] = owner[(s, a, at_vertex(a, i))]
    classes = {a: sorted({c for (t, b, e), c in owner.items() if b == a}) for a in DELTA2.objects}
    tops = [(t, "2", TOP) for t in range(k)]
    rest = [c for c in classes["2"] if c not in tops]
    ids = {
        a: dict(zip(classes[a], draw(st.permutations(range(3 * len(classes[a]))))))
        for a in ("0", "1")
    }
    ids["2"] = dict(zip(tops + draw(st.permutations(rest)), range(len(classes["2"]))))
    carrier = {a: list(ids[a].values()) for a in DELTA2.objects}
    action = {m.name: {} for m in DELTA2.morphisms}
    for (t, a, e), c in owner.items():
        for m in DELTA2.morphisms:
            if m.cod == a:
                action[m.name][ids[a][c]] = ids[m.dom][owner[(t, m.dom, TRIANGLE.action[m.name][e])]]
    return presheaf(DELTA2, carrier, action), [ids["2"][c] for c in tops]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_roots_tied_through_a_composite_match_the_oracle(data):
    X, tops = data.draw(triangle_wedges())
    pieces = relabelled_coproducts(data.draw(st.sampled_from(PART_LISTS)))
    Y = data.draw(st.one_of(pieces, triangle_wedges().map(lambda wedge: wedge[0])))
    assert validate(X) == [] and validate(Y) == []
    # no generator sends a top triangle to a vertex or its degeneracies
    for g in DELTA2.generators:
        if g.cod == "2":
            assert TRIANGLE.action[g.name][TOP] not in {at_vertex(g.dom, i) for i in range(3)}
    allowed = data.draw(constraints(X, Y))
    # an allowed entry on a later, tied root that the pins left free
    for x in tops[1:]:
        if ("2", x) not in allowed and Y.carrier["2"] and data.draw(st.booleans()):
            order = data.draw(st.permutations(Y.carrier["2"]))
            allowed[("2", x)] = tuple(order[: data.draw(st.integers(1, len(order)))])
    assert_matches_oracle(X, Y, allowed)


@st.composite
def one_object_presheaves(draw, base):
    """A set with random ids acted on by IDEMPOTENT or CYCLIC3."""
    if base is IDEMPOTENT:
        ids = draw(st.lists(st.integers(0, 20), max_size=4, unique=True))
        fixed = ids[: draw(st.integers(1, len(ids)))] if ids else []
        e = {x: x if x in fixed else draw(st.sampled_from(fixed)) for x in ids}
        return presheaf(base, {"0": ids}, {"e": e})
    # orbits of size 1 or 3; r1 moves each element one step round its orbit
    sizes = draw(st.lists(st.sampled_from((1, 3)), max_size=2))
    ids = draw(st.lists(st.integers(0, 20), min_size=sum(sizes), max_size=sum(sizes), unique=True))
    r1, r2, start = {}, {}, 0
    for n in sizes:
        orbit = ids[start : start + n]
        start += n
        for i, x in enumerate(orbit):
            r1[x], r2[x] = orbit[(i + 1) % n], orbit[(i + 2) % n]
    return presheaf(base, {"0": ids}, {"r1": r1, "r2": r2})


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_maps_over_an_idempotent_and_a_group_match_the_oracle(data):
    base = data.draw(st.sampled_from((IDEMPOTENT, CYCLIC3)))
    X, Y = data.draw(one_object_presheaves(base)), data.draw(one_object_presheaves(base))
    assert validate(X) == [] and validate(Y) == []
    assert_matches_oracle(X, Y, data.draw(constraints(X, Y)))


def test_allowed_order_does_not_matter():
    X, Y = finset(2), finset(3)

    def listed(allowed):
        return [(f.components["0"][0], f.components["0"][1]) for f in enumerate_maps(X, Y, allowed=allowed)]

    shuffled = listed({("0", 0): (2, 0), ("0", 1): (1, 2, 0)})
    assert shuffled == listed({("0", 0): (0, 2), ("0", 1): (0, 1, 2)})
    assert shuffled == [(0, 0), (0, 1), (0, 2), (2, 0), (2, 1), (2, 2)]
    assert_matches_oracle(X, Y, {("0", 0): (2, 0)})


def test_search_depth_does_not_grow_with_the_source():
    maps = enumerate_maps(finset(1200), finset(1))
    assert len(maps) == 1
    assert set(maps[0].components["0"].values()) == {0}

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

from conftest import finset
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

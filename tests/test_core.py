import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import CYCLIC3, IDEMPOTENT, finset, set_map, set_maps
from test_hom_search import reflexive_graphs
from nwfs.catalog import get, get_category, keys, representable, terminal_category
from nwfs.core import (
    FinCategory,
    IncompatibleInput,
    PresheafMap,
    compose_maps,
    enumerate_maps,
    identity_map,
    inverse_map,
    is_injective,
    is_iso,
    is_surjective,
    maps_equal,
    presheaf,
    validate,
)


def test_terminal_category_is_valid():
    assert validate(terminal_category()) == []


CATEGORIES = [get(k).category for k in keys() if get(k).kind == "category"]


def composites(cat: FinCategory, names) -> set[str]:
    """Every composite of one or more of `names`, by saturation."""
    reached = set(names)
    while True:
        more = {cat.table[(g, f)] for g in reached for f in reached if (g, f) in cat.table} - reached
        if not more:
            return reached
        reached |= more


@pytest.mark.parametrize("cat", [*CATEGORIES, IDEMPOTENT, CYCLIC3], ids=lambda c: c.name)
def test_generators_compose_to_every_nonidentity_morphism(cat):
    assert validate(cat) == []
    gens = [m.name for m in cat.generators]
    nonidentity = {m.name for m in cat.nonidentity}
    assert set(gens) <= nonidentity and len(set(gens)) == len(gens)
    assert nonidentity <= composites(cat, gens)
    # no generator is a composite of the others
    for g in gens:
        assert not nonidentity <= composites(cat, set(gens) - {g})
    # the same set, in morphism order, on every call and whatever the order
    # of the composition table
    again = FinCategory(cat.name, cat.objects, cat.morphisms, dict(cat.identity), dict(reversed(cat.table.items())))
    assert cat.generators == cat.generators == again.generators
    assert again.generators == tuple(m for m in again.nonidentity if m.name in gens)


def test_generators_of_the_catalog_and_hand_built_categories():
    # truncated Δ has no indecomposable morphism (a face map factors through
    # an idempotent, f01_0 = f11_00 . f01_1), so the generators cannot be those
    assert get_category("delta<=1").table[("f11_00", "f01_1")] == "f01_0"
    for cat in (get_category("delta<=1"), get_category("delta<=2")):
        names = {m.name for m in cat.nonidentity}
        assert names <= {gf for (g, f), gf in cat.table.items() if g in names and f in names}
    assert [len(get_category(k).generators) for k in ("terminal", "delta<=1", "delta<=2")] == [0, 3, 7]
    assert [m.name for m in IDEMPOTENT.generators] == ["e"]
    # a composite of generators can be an identity: r2 . r2 = r1, r2 . r1 = id0
    assert [m.name for m in CYCLIC3.generators] == ["r2"]


def test_presheaf_fills_identity_actions():
    base = get_category("delta<=1")
    X = representable(base, "1")
    for obj in base.objects:
        ident = base.identity[obj]
        assert all(X.action[ident][x] == x for x in X.carrier[obj])


def test_presheaf_rejects_missing_action():
    base = get_category("delta<=1")
    with pytest.raises(IncompatibleInput):
        presheaf(base, {"0": [0], "1": [0]}, {})


def test_validate_catches_broken_naturality():
    base = get_category("delta<=1")
    X = representable(base, "1")
    # swap the vertices but keep every edge fixed: endpoints no longer match
    comps = {"0": {0: 1, 1: 0}, "1": {x: x for x in X.carrier["1"]}}
    assert any("naturality" in p for p in validate(PresheafMap(X, X, comps)))


def test_validate_catches_a_component_defined_off_the_source():
    X, Y = finset([2, 5]), finset([1])
    assert validate(PresheafMap(X, Y, {"0": {2: 1, 5: 1, 7: 1}})) == [
        "component at '0' defined on stray element 7"
    ]


@given(set_maps(), set_maps())
def test_compose_undefined_on_mismatched_endpoints(f, g):
    if f.target.carrier == g.source.carrier:
        compose_maps(g, f)
    else:
        with pytest.raises(IncompatibleInput):
            compose_maps(g, f)


@given(set_maps())
def test_identity_is_a_unit(f):
    assert maps_equal(compose_maps(f, identity_map(f.source)), f)
    assert maps_equal(compose_maps(identity_map(f.target), f), f)


@given(st.data())
def test_compose_is_associative(data):
    f = data.draw(set_maps())
    n = len(f.target.carrier["0"])
    g_vals = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    g = set_map(n, 4, g_vals)
    h_vals = data.draw(st.lists(st.integers(0, 2), min_size=4, max_size=4))
    h = set_map(4, 3, h_vals)
    lhs = compose_maps(h, compose_maps(g, f))
    rhs = compose_maps(compose_maps(h, g), f)
    assert maps_equal(lhs, rhs)


def test_iso_predicates():
    perm = set_map(3, 3, [2, 0, 1])
    assert is_injective(perm) and is_surjective(perm) and is_iso(perm)
    assert maps_equal(compose_maps(inverse_map(perm), perm), identity_map(perm.source))
    not_inj = set_map(2, 2, [0, 0])
    assert not is_injective(not_inj)
    assert not is_surjective(not_inj)
    with pytest.raises(IncompatibleInput):
        inverse_map(not_inj)


@st.composite
def equal_size_set_maps(draw, max_size: int = 5):
    """A set map whose source and target have one size, so only injectivity decides an iso."""
    n = draw(st.integers(0, max_size))
    return set_map(n, n, draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)) if n else [])


@st.composite
def graph_maps(draw):
    """A reflexive-graph map drawn from all maps between its ends, often an endomorphism."""
    X = draw(reflexive_graphs(1, 3, 3))
    Y = X if draw(st.booleans()) else draw(reflexive_graphs(1, 3, 3))
    maps = enumerate_maps(X, Y)
    return maps[draw(st.integers(0, len(maps) - 1))]


@given(st.one_of(set_maps(), equal_size_set_maps(), graph_maps()))
@settings(max_examples=120, deadline=None)
def test_is_iso_is_injective_and_surjective(f):
    # is_iso compares carrier sizes first; the answer must not change
    assert is_iso(f) == (is_injective(f) and is_surjective(f))


def test_enumerate_maps_counts_functions():
    # plain sets: |hom(A, B)| = |B| ** |A|
    assert len(enumerate_maps(finset(3), finset(2))) == 8
    assert len(enumerate_maps(finset(0), finset(5))) == 1
    assert len(enumerate_maps(finset(2), finset(0))) == 0


def test_enumerate_maps_is_lexicographic():
    out = enumerate_maps(finset(2), finset(2))
    listed = [(m.components["0"][0], m.components["0"][1]) for m in out]
    assert listed == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_enumerate_maps_respects_pins_and_allowed():
    # a pin is an allowed entry with one value
    out = enumerate_maps(finset(2), finset(3), allowed={("0", 0): (2,)})
    assert all(m.components["0"][0] == 2 for m in out)
    assert len(out) == 3
    out = enumerate_maps(finset(2), finset(3), allowed={("0", 1): (0, 1)})
    assert len(out) == 6
    out = enumerate_maps(finset(2), finset(3), allowed={("0", 0): (2,), ("0", 1): (1, 0)})
    assert [(m.components["0"][0], m.components["0"][1]) for m in out] == [(2, 0), (2, 1)]


def test_enumerate_maps_honours_naturality():
    base = get_category("delta<=1")
    X = representable(base, "1")
    count = len(enumerate_maps(X, X))
    # an endomap of the walking edge either fixes it or collapses it onto a
    # degenerate edge; collapsing must pick one of the two vertices
    assert count == 3


def test_enumerate_maps_collapse_to_point():
    base = get_category("delta<=1")
    X = representable(base, "1")
    P = representable(base, "0")
    # everything must collapse onto the unique vertex and its degeneracy
    assert len(enumerate_maps(X, P)) == 1

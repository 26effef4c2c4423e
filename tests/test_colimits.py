import copy

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import CYCLIC3, IDEMPOTENT, chain_legs, finset, parallel_pairs, set_map, set_maps
from test_hom_search import PART_LISTS, one_object_presheaves, reflexive_graphs, relabelled_coproducts
from nwfs.catalog import get_category, get_gens, representable, terminal_presheaf
from nwfs.colimits import (
    attach,
    chain_colimit,
    chain_composites,
    coequalizer,
    coproduct,
    induce,
    initial,
    pushout,
    quotient,
)
from nwfs.core import (
    IncompatibleInput,
    PresheafMap,
    compose_maps,
    enumerate_maps,
    identity_map,
    is_injective,
    is_iso,
    is_surjective,
    maps_equal,
    presheaf,
    validate,
)


def closure_oracle(X, pairs):
    """Independent congruence closure: saturate pairs under all actions,
    then compute equivalence classes by repeated merging over frozensets."""
    classes = {a: {x: frozenset([x]) for x in X.carrier[a]} for a in X.base.objects}
    work = [(a, x, y) for a, x, y in pairs]
    while work:
        a, x, y = work.pop()
        cx, cy = classes[a][x], classes[a][y]
        if cx == cy:
            continue
        merged = cx | cy
        for z in merged:
            classes[a][z] = merged
        for m in X.base.morphisms:
            if m.cod == a:
                for u in cx:
                    for v in cy:
                        work.append((m.dom, X.action[m.name][u], X.action[m.name][v]))
    return {a: {frozenset(c) for c in classes[a].values()} for a in X.base.objects}


def test_initial_is_empty():
    base = get_category("delta<=1")
    empty = initial(base)
    assert empty.total_size == 0
    assert validate(empty) == []


def test_quotient_matches_independent_closure():
    base = get_category("delta<=1")
    edge = representable(base, "1")
    two = coproduct([edge, edge])
    X = two.apex
    nondeg = edge.carrier["1"][-1]  # carrier is sorted by hom name, identity last
    # glue one endpoint of the first edge to the other endpoint of the second
    tip = two.legs[0].components["0"][edge.action["f01_1"][nondeg]]
    tail = two.legs[1].components["0"][edge.action["f01_0"][nondeg]]
    cone = quotient(X, [("0", tip, tail)])
    oracle = closure_oracle(X, [("0", tip, tail)])
    proj = cone.legs[0]
    for a in base.objects:
        got = {}
        for x in X.carrier[a]:
            got.setdefault(proj.components[a][x], set()).add(x)
        assert {frozenset(c) for c in got.values()} == oracle[a]
    assert validate(cone.apex) == []
    # a path of two edges: 3 vertices, 2 nondegenerate + 3 degenerate edges
    assert cone.apex.sizes == {"0": 3, "1": 5}


def test_quotient_propagates_along_actions():
    base = get_category("delta<=1")
    edge = representable(base, "1")
    two = coproduct([edge, edge])
    nondeg = edge.carrier["1"][-1]
    # glue the two nondegenerate edges themselves: endpoints must follow
    e0 = two.legs[0].components["1"][nondeg]
    e1 = two.legs[1].components["1"][nondeg]
    cone = quotient(two.apex, [("1", e0, e1)])
    assert cone.apex.sizes == {"0": 2, "1": 3}
    oracle = closure_oracle(two.apex, [("1", e0, e1)])
    assert sorted(len(c) for c in oracle["0"]) == [2, 2]


def test_coproduct_legs_partition_the_apex():
    parts = [finset(2), finset(0), finset(3)]
    cone = coproduct(parts)
    assert cone.apex.sizes == {"0": 5}
    seen = set()
    for part, leg in zip(parts, cone.legs):
        assert is_injective(leg)
        img = set(leg.components["0"].values())
        assert not (img & seen)
        seen |= img
    assert seen == set(cone.apex.carrier["0"])


@given(parallel_pairs())
@settings(max_examples=60)
def test_coequalizer_universal_property(pair):
    f, g = pair
    cone = coequalizer(f, g)
    proj = cone.legs[0]
    assert is_surjective(proj)
    assert maps_equal(compose_maps(proj, f), compose_maps(proj, g))
    T = finset(3)
    for h in enumerate_maps(f.target, T):
        if not maps_equal(compose_maps(h, f), compose_maps(h, g)):
            continue
        u = induce(cone, [h], T)
        assert maps_equal(compose_maps(u, proj), h)
        matches = [v for v in enumerate_maps(cone.apex, T) if maps_equal(compose_maps(v, proj), h)]
        assert len(matches) == 1


@st.composite
def graph_pairs(draw):
    """Two maps between one pair of reflexive graphs, each drawn from all maps between them."""
    X, Y = draw(reflexive_graphs(0, 2, 2)), draw(reflexive_graphs(1, 3, 3))
    maps = enumerate_maps(X, Y)
    pick = st.integers(0, len(maps) - 1)
    return maps[draw(pick)], maps[draw(pick)]


@st.composite
def equal_pairs(draw):
    f, _ = draw(st.one_of(parallel_pairs(), graph_pairs()))
    return f, f


@given(st.one_of(parallel_pairs(), graph_pairs(), equal_pairs()))
@settings(max_examples=80, deadline=None)
def test_coequalizer_matches_the_quotient_by_every_pair(pair):
    # the coequalizer drops the pairs whose sides are equal; the quotient
    # by every pair, those included, is the reference
    f, g = pair
    got = coequalizer(f, g)
    want = quotient(
        f.target,
        [(a, f.components[a][x], g.components[a][x]) for a in f.source.base.objects for x in f.source.carrier[a]],
    )
    assert dict(got.apex.carrier) == dict(want.apex.carrier)
    assert {m: dict(act) for m, act in got.apex.action.items()} == {m: dict(act) for m, act in want.apex.action.items()}
    assert got.legs[0].source is f.target
    assert got.legs[0].components == want.legs[0].components
    if f is g:
        # nothing merges: the projection only renumbers
        assert is_iso(got.legs[0])


@given(st.data())
@settings(max_examples=60)
def test_pushout_square_and_mono_preservation(data):
    f = data.draw(set_maps(max_size=5))
    n = len(f.source.carrier["0"])
    m = data.draw(st.integers(1, 4)) if n else data.draw(st.integers(0, 4))
    g = set_map(n, m, [data.draw(st.integers(0, m - 1)) for _ in range(n)])
    cone = pushout(f, g)
    left, right = cone.legs
    assert maps_equal(compose_maps(left, f), compose_maps(right, g))
    covered = set(left.components["0"].values()) | set(right.components["0"].values())
    assert covered == set(cone.apex.carrier["0"])
    if is_injective(f):
        assert is_injective(right)


def test_pushout_of_disjoint_corners_is_a_coproduct():
    f = set_map(0, 2, [])
    g = set_map(0, 3, [])
    cone = pushout(f, g)
    assert cone.apex.sizes == {"0": 5}
    assert is_injective(cone.legs[0]) and is_injective(cone.legs[1])


def test_chain_colimit_stabilizing_chain():
    steps = [set_map(2, 3, [0, 1]), set_map(3, 3, [0, 1, 2]), set_map(3, 3, [0, 1, 2])]
    cone = chain_colimit(steps, steps[0].source)
    assert cone.apex.sizes == {"0": 3}
    # the cocone carries the last stage's leg alone
    assert len(cone.legs) == 1 and cone.legs[0].source is steps[-1].target
    legs = chain_legs(cone, steps, steps[0].source)
    for i, leg in enumerate(legs[:-1]):
        assert maps_equal(leg, compose_maps(legs[i + 1], steps[i]))
    assert is_iso(cone.legs[-1])


def test_chain_colimit_starts_at_its_start():
    steps = [set_map(2, 3, [0, 1]), set_map(3, 3, [0, 1, 2])]
    with pytest.raises(IncompatibleInput, match="step 0 does not start"):
        chain_colimit(steps, finset(3))
    start = finset(2)
    cone = chain_colimit([], start)
    assert cone.apex is start and maps_equal(cone.legs[0], identity_map(start))


def test_chain_colimit_with_collapsing_links():
    steps = [set_map(3, 2, [0, 0, 1]), set_map(2, 1, [0, 0])]
    cone = chain_colimit(steps, steps[0].source)
    assert cone.apex.sizes == {"0": 1}
    assert all(is_surjective(leg) for leg in chain_legs(cone, steps, steps[0].source))


def quotient_of_coproduct(steps):
    """The chain colimit as a quotient of the coproduct of every stage."""
    stages = [steps[0].source] + [m.target for m in steps]
    cp = coproduct(stages)
    pairs = [
        (a, cp.legs[i].components[a][x], cp.legs[i + 1].components[a][m.components[a][x]])
        for i, m in enumerate(steps)
        for a in m.source.base.objects
        for x in m.source.carrier[a]
    ]
    q = quotient(cp.apex, pairs)
    return q.apex, [compose_maps(q.legs[0], leg) for leg in cp.legs]


@st.composite
def set_chains(draw, max_steps: int = 4, max_size: int = 4):
    """A chain of set maps whose stages carry random element ids."""
    sizes = draw(st.lists(st.integers(0, max_size), min_size=2, max_size=max_steps + 1))
    for k in range(1, len(sizes)):
        if sizes[k - 1]:
            sizes[k] = max(sizes[k], 1)
    sets = [finset(draw(st.lists(st.integers(0, 20), min_size=n, max_size=n, unique=True))) for n in sizes]
    return [
        PresheafMap(X, Y, {"0": {x: draw(st.sampled_from(Y.carrier["0"])) for x in X.carrier["0"]}})
        for X, Y in zip(sets, sets[1:])
    ]


@st.composite
def graph_chains(draw, max_steps: int = 3):
    """A chain of reflexive-graph maps, each drawn from all maps between its ends."""
    graphs = [draw(reflexive_graphs(0, 2, 2))]
    graphs += [draw(reflexive_graphs(1, 3, 3)) for _ in range(draw(st.integers(1, max_steps)))]
    steps = []
    for X, Y in zip(graphs, graphs[1:]):
        maps = enumerate_maps(X, Y)
        steps.append(maps[draw(st.integers(0, len(maps) - 1))])
    return steps


@given(st.one_of(set_chains(), graph_chains()))
@settings(max_examples=80, deadline=None)
def test_chain_colimit_matches_the_quotient_of_the_coproduct(steps):
    cone = chain_colimit(steps, steps[0].source)
    apex, legs = quotient_of_coproduct(steps)
    assert dict(cone.apex.carrier) == dict(apex.carrier)
    assert {m: dict(act) for m, act in cone.apex.action.items()} == {m: dict(act) for m, act in apex.action.items()}
    # the last leg renumbers the last stage, so it is a bijection
    assert is_iso(cone.legs[-1])
    got_legs = chain_legs(cone, steps, steps[0].source)
    assert len(got_legs) == len(legs)
    for got, want in zip(got_legs, legs):
        assert got.source is want.source
        assert got.components == want.components


@given(st.one_of(set_chains(), graph_chains()))
@settings(max_examples=60, deadline=None)
def test_chain_composites_match_a_fold_of_compose_maps(steps):
    last = steps[-1].target
    got = chain_composites(steps, last)
    assert len(got) == len(steps) + 1
    for i, composite in enumerate(got):
        want = identity_map(last)
        for link in reversed(steps[i:]):
            want = compose_maps(want, link)
        assert composite.source is want.source and composite.target is last
        assert composite.components == want.components
    assert got[-2] is steps[-1]


def test_chain_composites_of_no_links_is_the_identity():
    (only,) = chain_composites([], finset([2, 5]))
    assert only.components == {"0": {2: 2, 5: 5}}


def test_chain_composites_reject_a_chain_that_ends_elsewhere():
    with pytest.raises(IncompatibleInput):
        chain_composites([set_map(2, 2, [0, 1]), set_map(2, 3, [0, 1])], finset(2))


def quotient_of_coproduct_attach(X, spans):
    """`attach` as the quotient of X + B0 + B1 + ... gluing u(a) to v(a)."""
    cp = coproduct([X] + [v.target for _, v in spans])
    into_x = cp.legs[0].components
    pairs = [
        (a, into_x[a][u.components[a][x]], leg.components[a][v.components[a][x]])
        for (u, v), leg in zip(spans, cp.legs[1:])
        for a in X.base.objects
        for x in u.source.carrier[a]
    ]
    q = quotient(cp.apex, pairs)
    return q.apex, [compose_maps(q.legs[0], leg) for leg in cp.legs]


def random_ids(draw, n):
    return draw(st.lists(st.integers(0, 40), min_size=n, max_size=n, unique=True))


@st.composite
def set_spans(draw):
    """A set X and one to three spans into it; v may be injective or collide."""
    X = finset(random_ids(draw, draw(st.integers(0, 4))))
    spans = []
    for _ in range(draw(st.integers(1, 3))):
        A = finset(random_ids(draw, draw(st.integers(0, 4)) if X.carrier["0"] else 0))
        n = len(A.carrier["0"])
        if draw(st.booleans()):
            B = finset(random_ids(draw, n + draw(st.integers(0, 2))))
            values = draw(st.permutations(B.carrier["0"]))[:n]
        else:
            B = finset(random_ids(draw, draw(st.integers(1 if n else 0, 2))))
            values = [draw(st.sampled_from(B.carrier["0"])) for _ in range(n)]
        u = PresheafMap(A, X, {"0": {x: draw(st.sampled_from(X.carrier["0"])) for x in A.carrier["0"]}})
        v = PresheafMap(A, B, {"0": dict(zip(A.carrier["0"], values))})
        spans.append((u, v))
    return X, spans


@st.composite
def graph_spans(draw):
    """A reflexive graph X and one to three spans of random graph maps into it."""
    X = draw(reflexive_graphs(0, 3, 3))
    spans = []
    for _ in range(draw(st.integers(1, 3))):
        A = draw(reflexive_graphs(0, 2 if X.carrier["0"] else 0, 2))
        B = draw(reflexive_graphs(1 if A.carrier["0"] else 0, 3, 2))
        us, vs = enumerate_maps(A, X), enumerate_maps(A, B)
        spans.append((us[draw(st.integers(0, len(us) - 1))], vs[draw(st.integers(0, len(vs) - 1))]))
    return X, spans


DELTA2 = get_category("delta<=2")
HORNS2 = get_gens("horns<=2").members
# small simplicial sets for the horns to land in
DELTA2_PIECES = (
    *(representable(DELTA2, a) for a in DELTA2.objects),
    terminal_presheaf(DELTA2),
    *(j.dom for j in HORNS2),
)
CODIAGONAL = get_gens("codiagonal").members[0].f
POINT = get_gens("point").members[0].f
# an injective v out of the codiagonal's own source object
TWO_INTO_THREE = PresheafMap(CODIAGONAL.source, finset(3), {"0": {0: 2, 1: 0}})


@st.composite
def horn_spans(draw):
    """Spans over delta<=2 whose v are horn inclusions, as in a free step.

    X is a coproduct of one or two small simplicial sets. Each v is one of
    the catalog's horn inclusions, the very object, so spans of one
    generator share their v.
    """
    X = coproduct(draw(st.lists(st.sampled_from(DELTA2_PIECES), min_size=1, max_size=2))).apex
    spans = []
    for _ in range(draw(st.integers(1, 4))):
        v = draw(st.sampled_from(HORNS2)).f
        us = enumerate_maps(v.source, X)
        if us:
            spans.append((draw(st.sampled_from(us)), v))
    return X, spans


@st.composite
def shared_set_spans(draw):
    """Spans into a set whose v is the non-injective codiagonal 2 -> 1, an
    injection 2 -> 3 out of the same source object, or the point 0 -> 1,
    each one object shared by every span that uses it."""
    X = finset(random_ids(draw, draw(st.integers(1, 4))))
    spans = []
    for _ in range(draw(st.integers(1, 4))):
        v = draw(st.sampled_from([CODIAGONAL, TWO_INTO_THREE, POINT]))
        u = PresheafMap(v.source, X, {"0": {x: draw(st.sampled_from(X.carrier["0"])) for x in v.source.carrier["0"]}})
        spans.append((u, v))
    return X, spans


@st.composite
def equal_but_distinct_v(draw):
    """Two spans whose v are equal in value but are distinct objects."""
    X, spans = draw(st.one_of(set_spans(), graph_spans(), horn_spans().filter(lambda case: case[1])))
    u, v = spans[0]
    twin = PresheafMap(v.source, v.target, {a: dict(c) for a, c in v.components.items()})
    assert twin == v and twin is not v
    other = draw(st.sampled_from(enumerate_maps(v.source, X)))
    return X, [(u, v), (other, twin)]


ATTACH_CASES = st.one_of(set_spans(), graph_spans(), horn_spans(), shared_set_spans(), equal_but_distinct_v())


def snapshot(X):
    return copy.deepcopy((dict(X.carrier), {m: dict(act) for m, act in X.action.items()}))


@given(ATTACH_CASES)
@settings(max_examples=250, deadline=None)
def test_attach_matches_the_quotient_of_the_coproduct(case):
    X, spans = case
    before = snapshot(X)
    cone = attach(X, spans)
    # attach writes its cells into the quotient's action dicts, so those
    # must be the quotient's own
    assert snapshot(X) == before
    for m, act in cone.apex.action.items():
        assert act is not X.action[m]
    apex, legs = quotient_of_coproduct_attach(X, spans)
    assert validate(cone.apex) == []
    assert dict(cone.apex.carrier) == dict(apex.carrier)
    assert {m: dict(act) for m, act in cone.apex.action.items()} == {m: dict(act) for m, act in apex.action.items()}
    assert len(cone.legs) == len(legs)
    for got, want in zip(cone.legs, legs):
        assert got.source is want.source and got.target is cone.apex
        assert got.components == want.components
        assert validate(got) == []


@st.composite
def sparse_or_dense(draw):
    """A set or reflexive graph with random ids, or the same renumbered 0..n-1."""
    X = finset(random_ids(draw, draw(st.integers(0, 5)))) if draw(st.booleans()) else draw(reflexive_graphs(0, 3, 3))
    return coproduct([X]).apex if draw(st.booleans()) else X


@given(sparse_or_dense())
@settings(max_examples=100, deadline=None)
def test_quotient_by_pairs_that_merge_nothing_numbers_by_position(X):
    # the numbering quotient keeps as the identity on a 0..n-1 carrier
    before = snapshot(X)
    for pairs in ([], [(a, x, x) for a in X.base.objects for x in X.carrier[a][:1]]):
        cone = quotient(X, pairs)
        (leg,) = cone.legs
        oracle = closure_oracle(X, pairs)
        for a in X.base.objects:
            assert cone.apex.carrier[a] == tuple(range(len(X.carrier[a])))
            assert leg.components[a] == {x: i for i, x in enumerate(X.carrier[a])}
            assert oracle[a] == {frozenset([x]) for x in X.carrier[a]}
        assert validate(cone.apex) == [] and validate(leg) == []
        assert snapshot(X) == before
        for m, act in cone.apex.action.items():
            assert act is not X.action[m]


def test_induce_rejects_disagreeing_targets():
    f = set_map(1, 2, [0])
    g = set_map(1, 2, [1])
    cone = coequalizer(f, g)  # glues the two target elements
    h = set_map(2, 2, [0, 1])  # does not respect the gluing
    with pytest.raises(IncompatibleInput):
        induce(cone, [h], h.target)


def test_induce_folds_coproduct():
    cone = coproduct([finset(2), finset(3)])
    h0 = set_map(2, 3, [0, 1])
    h1 = set_map(3, 3, [0, 1, 2])
    folded = induce(cone, [h0, h1], h0.target)
    assert maps_equal(compose_maps(folded, cone.legs[0]), h0)
    assert maps_equal(compose_maps(folded, cone.legs[1]), h1)


def test_induce_out_of_the_empty_coproduct_is_the_empty_map():
    T = finset(3)
    cone = coproduct([], base=T.base)
    u = induce(cone, [], T)
    assert u.target is T
    assert u.components == {"0": {}}
    assert validate(u) == []


def test_induce_rejects_a_target_outside_the_codomain():
    cone = coproduct([finset(2), finset(3)])
    h0 = set_map(2, 3, [0, 1])
    h1 = set_map(3, 3, [0, 1, 2])
    with pytest.raises(IncompatibleInput):
        induce(cone, [h0, h1], finset(4))


def eager_quotient(X, pairs):
    """The quotient with a union-find over every element of X, kept as the reference.

    Classes are ranked by their least member and the apex goes through the
    normalising constructor.
    """
    base = X.base
    parent = {a: {x: x for x in X.carrier[a]} for a in base.objects}

    def find(a, x):
        while parent[a][x] != x:
            x = parent[a][x]
        return x

    work = list(pairs)
    while work:
        a, u, v = work.pop()
        ru, rv = find(a, u), find(a, v)
        if ru != rv:
            parent[a][max(ru, rv)] = min(ru, rv)
            for m in base.nonidentity:
                if m.cod == a:
                    work.append((m.dom, X.action[m.name][u], X.action[m.name][v]))
    # each root is its class's least member
    reps = {a: sorted({find(a, x) for x in X.carrier[a]}) for a in base.objects}
    rank = {a: {r: i for i, r in enumerate(reps[a])} for a in base.objects}
    action = {
        m.name: {rank[m.cod][r]: rank[m.dom][find(m.dom, X.action[m.name][r])] for r in reps[m.cod]}
        for m in base.morphisms
    }
    apex = presheaf(base, {a: range(len(reps[a])) for a in base.objects}, action)
    proj = {a: {x: rank[a][find(a, x)] for x in X.carrier[a]} for a in base.objects}
    return apex, proj


@st.composite
def quotient_cases(draw):
    """A random set (random ids) or reflexive graph, and random pairs, maybe none."""
    if draw(st.booleans()):
        X = finset(random_ids(draw, draw(st.integers(0, 6))))
    else:
        X = draw(reflexive_graphs(0, 4, 4))
    objects = [a for a in X.base.objects if X.carrier[a]]
    pairs = []
    for _ in range(draw(st.integers(0, 4)) if objects else 0):
        a = draw(st.sampled_from(objects))
        pairs.append((a, draw(st.sampled_from(X.carrier[a])), draw(st.sampled_from(X.carrier[a]))))
    return X, pairs


@given(quotient_cases())
@settings(max_examples=200, deadline=None)
def test_quotient_matches_the_eager_union_find(case):
    X, pairs = case
    cone = quotient(X, pairs)
    apex, proj = eager_quotient(X, pairs)
    assert validate(cone.apex) == []
    assert dict(cone.apex.carrier) == dict(apex.carrier)
    assert {m: dict(act) for m, act in cone.apex.action.items()} == {m: dict(act) for m, act in apex.action.items()}
    (leg,) = cone.legs
    assert leg.source is X and leg.target is cone.apex
    assert leg.components == proj
    assert validate(leg) == []


@st.composite
def congruence_cases(draw):
    """A coproduct of delta<=2 pieces with random ids, or a set acted on by an
    idempotent or a group, and random pairs, maybe none."""
    if draw(st.booleans()):
        X = draw(relabelled_coproducts(draw(st.sampled_from(PART_LISTS))))
    else:
        X = draw(one_object_presheaves(draw(st.sampled_from((IDEMPOTENT, CYCLIC3)))))
    objects = [a for a in X.base.objects if X.carrier[a]]
    pairs = []
    for _ in range(draw(st.integers(0, 4)) if objects else 0):
        a = draw(st.sampled_from(objects))
        pairs.append((a, draw(st.sampled_from(X.carrier[a])), draw(st.sampled_from(X.carrier[a]))))
    return X, pairs


@given(congruence_cases())
@settings(max_examples=150, deadline=None)
def test_quotient_closes_along_generators_as_the_oracle_does_along_every_morphism(case):
    X, pairs = case
    (leg,) = quotient(X, pairs).legs
    classes = {a: {} for a in X.base.objects}
    for a in X.base.objects:
        for x in X.carrier[a]:
            classes[a].setdefault(leg.components[a][x], set()).add(x)
    assert {a: {frozenset(c) for c in cs.values()} for a, cs in classes.items()} == closure_oracle(X, pairs)
    assert validate(leg.target) == [] and validate(leg) == []

"""Binary products against the dict-of-pairs construction, and the product memo.

The reference numbers the pairs of each object by enumerating them
lexicographically into a dict, as `product_presheaf` once did; the kernel
must give the same apex, projections, pairings and indices. The kernel
builds its action tables only when they are read, and the law checks share
products across the rules on one arrow and read none of those tables.
"""

import dataclasses
import gc
import tracemalloc
import weakref

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import finset, set_map
from test_hom_search import reflexive_graphs
from nwfs import rules
from nwfs.arrows import ArrowObj, enumerate_squares
from nwfs.catalog import get_category
from nwfs.core import (
    IncompatibleInput,
    PresheafMap,
    compose_maps,
    enumerate_maps,
    identity_map,
    presheaf,
    validate,
)
from nwfs.laws import check_laws, evaluate_rule, exhaustive_arrows, sample_arrows
from nwfs.rules import (
    cograph_rule,
    graph_rule,
    memo_product,
    memo_scope,
    memo_sum,
    mutant_rule,
    product_presheaf,
)


def reference_product(X, Y):
    """Apex, both projections and the pair index, built from a dict of pairs."""
    base = X.base
    index = {
        a: {xy: n for n, xy in enumerate((x, y) for x in X.carrier[a] for y in Y.carrier[a])}
        for a in base.objects
    }
    back = {a: {n: xy for xy, n in index[a].items()} for a in base.objects}
    carrier = {a: tuple(range(len(index[a]))) for a in base.objects}
    action = {
        m.name: {
            n: index[m.dom][(X.action[m.name][back[m.cod][n][0]], Y.action[m.name][back[m.cod][n][1]])]
            for n in carrier[m.cod]
        }
        for m in base.morphisms
    }
    apex = presheaf(base, carrier, action)
    proj1 = {a: {n: back[a][n][0] for n in carrier[a]} for a in base.objects}
    proj2 = {a: {n: back[a][n][1] for n in carrier[a]} for a in base.objects}
    return apex, proj1, proj2, index


@st.composite
def random_sets(draw):
    """A set over `terminal` whose element ids are not 0..n-1."""
    return finset(draw(st.lists(st.integers(0, 40), max_size=6, unique=True)))


@st.composite
def factor_pairs(draw):
    if draw(st.booleans()):
        return draw(random_sets()), draw(random_sets()), draw(random_sets())
    graphs = lambda: reflexive_graphs(min_vertices=0, max_vertices=3, max_edges=3)
    small = reflexive_graphs(min_vertices=0, max_vertices=2, max_edges=2)
    return draw(graphs()), draw(graphs()), draw(small)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_product_matches_the_dict_of_pairs(data):
    X, Y, Z = data.draw(factor_pairs())
    prod = product_presheaf(X, Y)
    apex, proj1, proj2, index = reference_product(X, Y)
    assert validate(prod.apex) == []
    assert prod.apex.carrier == apex.carrier
    assert prod.apex.action == apex.action
    assert prod.proj1.source is prod.apex and prod.proj1.target is X
    assert prod.proj2.source is prod.apex and prod.proj2.target is Y
    assert prod.proj1.components == proj1
    assert prod.proj2.components == proj2
    for a in X.base.objects:
        for (x, y), n in index[a].items():
            assert prod.index(a, x, y) == n
    # pairing a random map into each factor
    into_x, into_y = enumerate_maps(Z, X), enumerate_maps(Z, Y)
    if into_x and into_y:
        f = into_x[data.draw(st.integers(0, len(into_x) - 1))]
        g = into_y[data.draw(st.integers(0, len(into_y) - 1))]
        paired = prod.pair(f, g)
        assert paired.source is Z and paired.target is prod.apex
        assert paired.components == {
            a: {z: index[a][(f.components[a][z], g.components[a][z])] for z in Z.carrier[a]}
            for a in Z.base.objects
        }


def some_map(data, S, T):
    """A map S → T drawn by `data`, or None when there is none.

    Over a base without nonidentity morphisms any function per object is
    natural, so it is drawn directly rather than out of all S → T.
    """
    if S.base.nonidentity:
        maps = enumerate_maps(S, T)
        return maps[data.draw(st.integers(0, len(maps) - 1))] if maps else None
    if any(S.carrier[a] and not T.carrier[a] for a in S.base.objects):
        return None
    comps = {a: {x: data.draw(st.sampled_from(T.carrier[a])) for x in S.carrier[a]} for a in S.base.objects}
    return PresheafMap(S, T, comps)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_times_matches_pairing_the_projection_composites(data):
    X, Y, Z = data.draw(factor_pairs())
    f, g = some_map(data, X, Z), some_map(data, Y, X)
    if f is None or g is None:
        return
    # the target swaps the factors, so mixing up the two rank tables shows
    P, Q = product_presheaf(X, Y), product_presheaf(Z, X)
    crossed = P.times(Q, f, g)
    assert crossed.source is P.apex and crossed.target is Q.apex
    assert crossed.components == Q.pair(compose_maps(f, P.proj1), compose_maps(g, P.proj2)).components


def test_times_rejects_maps_between_the_wrong_factors():
    X, Y = finset([3, 5]), finset([1, 4, 9])
    P, swapped = product_presheaf(X, Y), product_presheaf(Y, X)
    one_x, one_y = identity_map(X), identity_map(Y)
    assert P.times(P, one_x, one_y).components == identity_map(P.apex).components
    with pytest.raises(IncompatibleInput, match="times: f does not run between the first factors"):
        P.times(P, one_y, one_x)
    with pytest.raises(IncompatibleInput, match="times: f does not run between the first factors"):
        P.times(swapped, one_x, one_y)
    with pytest.raises(IncompatibleInput, match="times: g does not run between the second factors"):
        P.times(product_presheaf(X, finset([2])), one_x, one_y)
    with pytest.raises(IncompatibleInput, match="times: g does not run between the second factors"):
        P.times(P, one_x, set_map(3, 3, [0, 1, 2]))


def test_graph_maps_between_products_read_no_projection():
    first, second = sample_arrows(get_category("delta<=1"), 2, 0)
    sq = enumerate_squares(first, second)[0]
    graph = graph_rule()
    with memo_scope():
        carried = graph.on_square(sq)
        Pf = memo_product(sq.source.dom, sq.source.cod)
        Pg = memo_product(sq.target.dom, sq.target.cod)
        assert Pf is not Pg
        for prod in (Pf, Pg):
            assert "proj1" not in vars(prod) and "proj2" not in vars(prod)
        assert carried.components == Pg.pair(
            compose_maps(sq.top, Pf.proj1), compose_maps(sq.bottom, Pf.proj2)
        ).components
        f = first.f
        merged = graph.mult(f)
        Pr = memo_product(memo_product(f.source, f.target).apex, f.target)
        assert "proj1" not in vars(Pr) and "proj2" not in vars(Pr)
        assert merged.source is Pr.apex


def test_memo_shares_products_and_sums_inside_a_scope():
    X, Y = finset([3, 5]), finset([1, 4, 9])
    with memo_scope():
        assert memo_product(X, Y) is memo_product(X, Y)
        assert memo_sum(X, Y) is memo_sum(X, Y)
        # keyed by the operand objects, not by their value
        assert memo_product(X, finset([1, 4, 9])) is not memo_product(X, Y)
        assert memo_product(Y, X) is not memo_product(X, Y)


def test_memo_builds_afresh_outside_any_scope():
    X, Y = finset(2), finset(3)
    assert memo_product(X, Y) is not memo_product(X, Y)
    assert memo_sum(X, Y) is not memo_sum(X, Y)
    assert memo_product(X, Y).apex.carrier == product_presheaf(X, Y).apex.carrier


def test_a_repeated_product_inside_an_evaluation_is_the_same_object(monkeypatch):
    """Repeated products inside one evaluation are the same object.

    The rules call `rules.memo_product`, and the memo calls
    `rules.product_presheaf` and `rules.coproduct`, by name, so a wrapper
    installed on those names sees every request and every build.
    """
    seen: dict[tuple, list] = {}
    builds = {"product": 0, "sum": 0}

    def probe(X, Y):
        prod = memo_product(X, Y)
        seen.setdefault((id(X), id(Y)), []).append(prod)
        return prod

    def counted(kind, build):
        def wrapper(*args):
            builds[kind] += 1
            return build(*args)

        return wrapper

    monkeypatch.setattr(rules, "memo_product", probe)
    monkeypatch.setattr(rules, "product_presheaf", counted("product", rules.product_presheaf))
    monkeypatch.setattr(rules, "coproduct", counted("sum", rules.coproduct))
    arrow = sample_arrows(get_category("delta<=1"), 1, 0)[0]
    checks = evaluate_rule(graph_rule(), arrow)
    assert all(c.ok for c in checks)
    assert max(len(found) for found in seen.values()) > 1
    assert all(p is found[0] for found in seen.values() for p in found)
    products = builds["product"]
    assert products > 0
    evaluate_rule(cograph_rule(), arrow)
    assert builds["product"] == products and builds["sum"] > 0


def test_the_scope_closes_when_check_laws_returns():
    X, Y = finset(2), finset(2)
    assert check_laws([graph_rule(), cograph_rule()], exhaustive_arrows(2)).ok
    assert memo_product(X, Y) is not memo_product(X, Y)
    assert memo_sum(X, Y) is not memo_sum(X, Y)


def test_the_scope_closes_when_an_evaluation_raises():
    def broken(f):
        memo_product(f.source, f.target)
        raise IncompatibleInput("factor refuses")

    rule = dataclasses.replace(graph_rule(), factor=broken)
    with pytest.raises(IncompatibleInput, match="factor refuses"):
        evaluate_rule(rule, ArrowObj(set_map(1, 2, [1])))
    X, Y = finset(2), finset(2)
    assert memo_product(X, Y) is not memo_product(X, Y)


def test_a_product_builds_its_actions_on_first_read():
    base = get_category("delta<=1")
    first, second = sample_arrows(base, 2, 3)
    prod = product_presheaf(first.cod, second.dom)
    actions = prod.apex.action
    assert actions.tables == {}
    assert len(actions) == len(base.morphisms) and list(actions) == [m.name for m in base.morphisms]
    assert all(m.name in actions for m in base.morphisms) and "nope" not in actions
    assert actions.tables == {}
    name = base.morphisms[-1].name
    assert actions[name] is actions[name] and list(actions.tables) == [name]
    with pytest.raises(KeyError):
        actions["nope"]
    assert validate(prod.apex) == []
    assert set(actions.tables) == {m.name for m in base.morphisms}


def test_a_laws_evaluation_reads_no_product_action(monkeypatch):
    built = []

    def recording(X, Y):
        built.append(product_presheaf(X, Y))
        return built[-1]

    monkeypatch.setattr(rules, "product_presheaf", recording)
    arrows = sample_arrows(get_category("delta<=1"), 2, 0)
    report = check_laws([graph_rule(), mutant_rule(0), mutant_rule(1)], arrows)
    assert built and any(not c.ok for c in report.checks)
    assert all(prod.apex.action.tables == {} for prod in built)
    # the actions are still all there for whoever reads them
    assert all(validate(prod.apex) == [] for prod in built)


def test_rules_on_one_arrow_share_their_products_and_drop_them_after(monkeypatch):
    builds = [0]

    def counted(X, Y):
        builds[0] += 1
        return product_presheaf(X, Y)

    monkeypatch.setattr(rules, "product_presheaf", counted)
    arrows = [a for a in exhaustive_arrows(3) if a.dom.total_size][:4]
    seen: dict[int, set[int]] = {}
    finished: list = []  # weak references to a product of each arrow begun

    def probing(rule):
        def factor(f):
            if any(f is a.f for a in arrows):
                prod = memo_product(f.source, f.target)
                if id(f) not in seen:
                    # a new arrow: the products of every earlier one are gone
                    gc.collect()
                    assert all(ref() is None for ref in finished)
                    finished.append(weakref.ref(prod))
                seen.setdefault(id(f), set()).add(id(prod))
            return rule.factor(f)

        return dataclasses.replace(rule, factor=factor)

    probed = [probing(graph_rule()), probing(mutant_rule(0)), probing(mutant_rule(2))]
    report = check_laws(probed, arrows)
    assert len(seen) == len(arrows) and all(len(ids) == 1 for ids in seen.values())
    # all three rules on an arrow build no more products than one of them
    for arrow in arrows:
        before = builds[0]
        check_laws(probed[:1], [arrow])
        alone = builds[0] - before
        check_laws(probed, [arrow])
        assert builds[0] - before == 2 * alone
    assert report.checks == tuple(c for rule in probed for a in arrows for c in evaluate_rule(rule, a))


def test_the_laws_of_a_large_arrow_stay_small():
    # one seeded arrow over delta<=2, with 4 and 7 top cells: its graph-rule
    # laws peaked at 253 MB when every product action table was built
    arrows = sample_arrows(get_category("delta<=2"), 1, 0)
    tracemalloc.start()
    try:
        report = check_laws([graph_rule()], arrows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak < 100 * 2**20


def test_graph_laws_of_a_large_arrow_peak_under_40_mb():
    # the same arrow peaked at 52 MB while the graph rule's maps between
    # products were paired from projection composites, and at 25 MB by offset
    arrows = sample_arrows(get_category("delta<=2"), 1, 0)
    tracemalloc.start()
    try:
        report = check_laws([graph_rule()], arrows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak < 40 * 2**20

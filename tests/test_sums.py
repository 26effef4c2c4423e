"""Maps out of binary sums against `induce` with the leg composites.

`copair` and `plus` write a map out of X + Y by offset arithmetic. The
reference is the map `induce` builds out of `coproduct([X, Y])` from one
target per leg: f and g for the copair [f, g], and the target's legs after
f and after g for f + g. Inputs are random sets over `terminal` and random
reflexive graphs over `delta<=1`, with random element ids. The cograph rule
and its mutants are built from these maps, so their law checks call
`induce` no more.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import finset, set_map
from test_hom_search import reflexive_graphs
from test_products import random_sets, some_map
from nwfs import algebras, colimits, onestep, rules, sequence
from nwfs.catalog import get_category
from nwfs.colimits import coproduct, induce
from nwfs.core import IncompatibleInput, compose_maps, identity_map
from nwfs.laws import evaluate_rule, exhaustive_arrows, sample_arrows
from nwfs.rules import cograph_rule, copair, mutant_rule, plus


@st.composite
def summands(draw):
    """Five presheaves over one base: two summands, two more and a common target."""
    if draw(st.booleans()):
        return [draw(random_sets()) for _ in range(5)]
    graphs = reflexive_graphs(min_vertices=0, max_vertices=3, max_edges=2)
    return [draw(graphs) for _ in range(5)]


def same_map(u, v):
    return u.source is v.source and u.target is v.target and u.components == v.components


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_copair_and_plus_match_induce_with_the_leg_composites(data):
    X, Y, X2, Y2, Z = data.draw(summands())
    S, T = coproduct([X, Y]), coproduct([X2, Y2])
    f, g = some_map(data, X, Z), some_map(data, Y, Z)
    if f is not None and g is not None:
        assert same_map(copair(S, f, g), induce(S, [f, g], Z))
    f, g = some_map(data, X, X2), some_map(data, Y, Y2)
    if f is not None and g is not None:
        oracle = induce(S, [compose_maps(T.legs[0], f), compose_maps(T.legs[1], g)], T.apex)
        assert same_map(plus(S, T, f, g), oracle)


def test_sum_maps_reject_maps_from_or_to_the_wrong_summands():
    X, Y = finset([3, 5]), finset([1, 4, 9])
    S, swapped = coproduct([X, Y]), coproduct([Y, X])
    one_x, one_y = identity_map(X), identity_map(Y)
    assert plus(S, S, one_x, one_y).components == identity_map(S.apex).components
    assert copair(S, S.legs[0], S.legs[1]).components == identity_map(S.apex).components
    for target, f, g in [
        (S, one_y, one_x),
        (swapped, one_x, one_y),
        (coproduct([X, finset([2])]), one_x, one_y),
        (S, one_x, set_map(3, 3, [0, 1, 2])),
    ]:
        with pytest.raises(IncompatibleInput, match="plus: f and g do not run between the summands"):
            plus(S, target, f, g)
    for cp, f, g in [(S, S.legs[1], S.legs[0]), (swapped, S.legs[0], S.legs[1]), (S, one_x, one_y)]:
        with pytest.raises(IncompatibleInput, match="copair: f and g do not run from the two summands to one presheaf"):
            copair(cp, f, g)


@pytest.mark.parametrize("rule", [cograph_rule(), mutant_rule(3), mutant_rule(4), mutant_rule(5)], ids=lambda r: r.name)
def test_cograph_laws_call_no_induce(monkeypatch, rule):
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return induce(*args)

    # every module that holds the name, as a tracer patches it
    for module in (colimits, rules, algebras, onestep, sequence):
        if hasattr(module, "induce"):
            monkeypatch.setattr(module, "induce", counted)
    arrows = exhaustive_arrows(3)
    if rule.name == "cograph":
        arrows += sample_arrows(get_category("delta<=1"), 2, 0)
    checks = [c for arrow in arrows for c in evaluate_rule(rule, arrow)]
    assert calls[0] == 0
    assert any(not c.ok for c in checks) == (rule.name != "cograph")

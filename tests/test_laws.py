import dataclasses
import itertools

import pytest

from nwfs import laws
from nwfs.arrows import identity_square
from nwfs.catalog import get_category
from nwfs.core import IncompatibleInput, maps_equal, validate
from nwfs.laws import (
    LawReport,
    check_laws,
    evaluate_rule,
    exhaustive_arrows,
    exhaustive_size,
    sample_arrows,
)
from nwfs.rules import (
    MUTANT_COUNT,
    cograph_rule,
    graph_rule,
    mutant_rule,
    odot_product,
    tensor_product,
    trivial_left_rule,
    trivial_right_rule,
)

BUILTINS = [graph_rule(), cograph_rule(), trivial_left_rule(), trivial_right_rule()]

# which law is expected to flag each mutant, worked out by hand from the
# perturbed structural map
EXPECTED_CATCH = {
    "graph!mult-first": "unit-functor",
    "graph!comult-through": "counit-arrow",
    "graph!mult-collapse": "unit-arrow",
    "cograph!mult-misroute": "unit-arrow",
    "cograph!comult-misroute": "counit-functor",
    "cograph!mult-shift": "unit-functor",
}


def count_set_maps(max_total: int) -> int:
    """Independent recount of all maps between finite sets of bounded size."""
    total = 0
    for s in range(max_total + 1):
        for t in range(max_total - s + 1):
            total += len(list(itertools.product(range(t), repeat=s)))
    return total


def test_exhaustive_corpus_size():
    corpus = exhaustive_arrows(4)
    assert len(corpus) == count_set_maps(4) == 17
    labels = [a.label for a in corpus]
    assert len(set(labels)) == len(labels)


def test_exhaustive_size_counts_the_corpus_without_building_it():
    for max_total in range(6):
        size = len(exhaustive_arrows(max_total))
        assert exhaustive_size(max_total, size) == size == count_set_maps(max_total)
        # one short of the count, the count stops past it
        assert exhaustive_size(max_total, size - 1) > size - 1
    assert exhaustive_size(10**9, 22) == 23


def test_exhaustive_corpus_is_exactly_the_function_space():
    corpus = exhaustive_arrows(3)
    seen = {
        (a.dom.total_size, a.cod.total_size, tuple(sorted(a.f.components["0"].items())))
        for a in corpus
    }
    assert len(seen) == len(corpus) == count_set_maps(3)


def test_sampling_is_reproducible():
    base = get_category("delta<=1")
    first = sample_arrows(base, count=6, seed=99)
    second = sample_arrows(base, count=6, seed=99)
    assert len(first) == 6
    for a, b in zip(first, second):
        assert maps_equal(a.f, b.f)
    for arrow in first:
        assert validate(arrow.dom) == []
        assert validate(arrow.cod) == []
        assert validate(arrow.f) == []


def test_sampling_reacts_to_the_seed():
    base = get_category("delta<=1")
    one = sample_arrows(base, count=6, seed=1)
    two = sample_arrows(base, count=6, seed=2)
    assert any(
        a.dom.carrier != b.dom.carrier or not maps_equal(a.f, b.f)
        for a, b in zip(one, two)
    )


def test_builtin_rules_are_clean():
    report = check_laws(BUILTINS, exhaustive_arrows(4))
    assert isinstance(report, LawReport)
    assert report.ok
    assert report.counterexamples == ()
    # comonad and monad structure both present on graph and cograph
    graph_laws = {c.law for c in report.checks if c.rule == "graph"}
    assert {"factors", "functor-id", "counit-arrow", "unit-arrow", "distributivity"} <= graph_laws


def test_trivial_rules_only_carry_one_side():
    report = check_laws([trivial_left_rule()], exhaustive_arrows(3))
    assert report.ok
    laws = {c.law for c in report.checks}
    assert "counit-arrow" in laws or "unit-arrow" in laws


def test_composites_satisfy_the_functor_laws():
    # each composite on its own, so that every one is seen to check both laws
    for combined in (
        tensor_product(graph_rule(), cograph_rule()),
        odot_product(graph_rule(), cograph_rule()),
        odot_product(cograph_rule(), graph_rule()),
    ):
        report = check_laws([combined], exhaustive_arrows(3))
        assert report.ok, combined.name
        laws = {c.law for c in report.checks}
        assert laws == {"factors", "functor-id"}


def test_each_mutant_is_caught_by_the_predicted_law():
    corpus = exhaustive_arrows(4)
    for i in range(MUTANT_COUNT):
        rule = mutant_rule(i)
        report = check_laws([rule], corpus)
        assert not report.ok
        hits = {c.law for c in report.counterexamples}
        assert EXPECTED_CATCH[rule.name] in hits, (rule.name, hits)
        for c in report.counterexamples:
            assert c.detail


def test_evaluate_rule_names_the_arrow():
    arrow = exhaustive_arrows(3)[0]
    checks = evaluate_rule(graph_rule(), arrow)
    assert all(c.arrow == arrow.label for c in checks)
    assert all(c.ok for c in checks)


@pytest.mark.parametrize("rule", BUILTINS, ids=lambda rule: rule.name)
def test_builtin_rules_build_presheaves_and_natural_maps(rule):
    # the laws compare components only, so a middle that is no presheaf or a
    # structure map that is not natural would pass them unseen
    arrows = exhaustive_arrows(3) + sample_arrows(get_category("delta<=1"), 2, 0)
    for arrow in arrows:
        f = arrow.f
        triple = rule.factor(f)
        assert validate(triple.mid) == [], (arrow.label, "mid")
        maps = {
            "left": triple.left,
            "right": triple.right,
            "on_square": rule.on_square(identity_square(arrow)),
        }
        if rule.comult is not None:
            maps["comult"] = rule.comult(f)
        if rule.mult is not None:
            maps["mult"] = rule.mult(f)
        for name, m in maps.items():
            assert validate(m) == [], (arrow.label, name)


def _raising_on_squares(rule):
    """The rule, but its functor refuses every square it is given."""

    def refuse(sq):
        raise IncompatibleInput("on_square refuses")

    return dataclasses.replace(rule, name=rule.name + "!refuse", on_square=refuse)


@pytest.mark.parametrize(
    "rules, sample",
    [
        (BUILTINS + [mutant_rule(i) for i in range(MUTANT_COUNT)], lambda: exhaustive_arrows(4)),
        (BUILTINS, lambda: sample_arrows(get_category("delta<=1"), 4, 0)),
        ([_raising_on_squares(graph_rule()), _raising_on_squares(cograph_rule())], lambda: exhaustive_arrows(3)),
    ],
    ids=["exhaustive", "seeded", "raising"],
)
def test_in_place_verdicts_match_building_both_sides(monkeypatch, rules, sample):
    """A law checked in place gets the verdict and detail that building both sides gives.

    With `composite_equals` patched to find no law holding, every law of the
    form g ∘ f = h falls through to building g ∘ f and h, as laws were once
    checked; the reference is that run.
    """
    arrows = sample()
    in_place = check_laws(rules, arrows).checks
    monkeypatch.setattr(laws, "composite_equals", lambda *args, **kwargs: False)
    built = check_laws(rules, arrows).checks
    assert [(c.rule, c.law, c.arrow) for c in in_place] == [(c.rule, c.law, c.arrow) for c in built]
    assert [(c.ok, c.detail) for c in in_place] == [(c.ok, c.detail) for c in built]
    assert any(c.ok for c in in_place)
    if len(rules) > len(BUILTINS):
        assert any(not c.ok for c in in_place)
    if rules[0].name.endswith("!refuse"):
        raised = [c for c in in_place if c.law in {"functor-id", "counit-functor", "unit-functor"}]
        assert raised and all(c.detail == "evaluation raised: on_square refuses" for c in raised)


def test_a_graph_rule_evaluation_factors_five_times():
    # f, Lf and Rf once each; the distributivity law's interchange factors
    # only the two combined parts and reuses the other three
    calls = [0]
    graph = graph_rule()

    def counted(f):
        calls[0] += 1
        return graph.factor(f)

    arrow = sample_arrows(get_category("delta<=1"), 1, 0)[0]
    checks = evaluate_rule(dataclasses.replace(graph, factor=counted), arrow)
    assert [c.law for c in checks][-1] == "distributivity" and all(c.ok for c in checks)
    assert calls[0] == 5

"""Law battery for factorisation rules.

Each law is an equation between two composite maps built from a rule's
ingredients at one sample arrow. Laws are only evaluated when the rule
provides what they mention, so derived rules without structural maps get
the factorisation and functor laws and nothing else. A law whose very
construction fails (a non-commuting square fed to the functor, say) counts
as violated with the raised message as detail; deliberately broken rules
tend to fail that way.

The checks build only what they read. A law of the form g ∘ f = h, or
g ∘ f = id, is checked element by element with `core.composite_equals`,
and both sides are built only to describe a law that fails. All rules on
one arrow share one `rules.memo_scope`, so each product or sum is built
once per arrow and dropped before the next. A product's action tables,
which no law reads, are left unbuilt, and so is each projection that no
rule asks for. The graph rule's maps between products, its functor on
squares and its multiplication, are f × g by offset arithmetic, so
`on_square` reads no projection and builds no composite with one; the
cograph rule's maps out of sums are offset arithmetic too. Distributivity
reuses the evaluation's factorisations of f, Lf and Rf and their combined
parts, so its interchange factors only those two: five factorisations per
evaluation, not eight.

The counit, unit, (co)associativity and distributivity laws feed the
functor squares with one identity side: the identity of the domain on top,
as in the algebra square (1, Rf): Lf → f, or of the codomain below, as in
the coalgebra square (Lf, 1): f → Rf. They are built by
`arrows.square_fixing_domain` and `arrows.square_fixing_codomain`.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Sequence

from .arrows import ArrowObj, as_arrow, identity_square, square_fixing_codomain, square_fixing_domain
from .catalog import representable, terminal_category
from .colimits import coproduct, quotient
from .core import (
    EngineError,
    FinCategory,
    Presheaf,
    PresheafMap,
    compose_maps,
    composite_equals,
    identity_map,
    presheaf,
)
from .rules import FactorizationRule, interchange, memo_scope


@dataclass(frozen=True)
class LawCheck:
    rule: str
    law: str
    arrow: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class LawReport:
    rules: tuple[str, ...]
    arrows: tuple[str, ...]
    checks: tuple[LawCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def counterexamples(self) -> tuple[LawCheck, ...]:
        return tuple(c for c in self.checks if not c.ok)


def _diff(lhs: PresheafMap, rhs: PresheafMap) -> str:
    for a in sorted(lhs.components):
        lc = lhs.components[a]
        rc = rhs.components.get(a, {})
        for x in sorted(set(lc) | set(rc)):
            if lc.get(x) != rc.get(x):
                return f"at object {a!r}, element {x}: {lc.get(x)} != {rc.get(x)}"
    return "maps differ in shape only"


def _equation(lhs: Callable[[], PresheafMap], rhs: Callable[[], PresheafMap]) -> tuple[bool, str]:
    try:
        left = lhs()
        right = rhs()
    except EngineError as err:
        return False, f"evaluation raised: {err}"
    if left.components == right.components:
        return True, ""
    return False, _diff(left, right)


def _composite_equation(
    g: Callable[[], PresheafMap],
    f: Callable[[], PresheafMap],
    rhs: Callable[[], PresheafMap] | None,
    mid: Presheaf,
) -> tuple[bool, str]:
    """`_equation` for g ∘ f against rhs, or against the identity of mid.

    The law is checked in place with `composite_equals`, so a law that holds
    never builds g ∘ f; only a law that fails builds it, to describe the
    difference. When building a side raises, both sides are built again in
    `_equation`'s order, so the detail names the error it meets first.
    """
    identity = lambda: identity_map(mid)
    try:
        after, before = g(), f()
        right = None if rhs is None else rhs()
        if composite_equals(after, before, right, identity_of=mid):
            return True, ""
    except EngineError:
        return _equation(lambda: compose_maps(g(), f()), rhs or identity)
    return _equation(lambda: compose_maps(after, before), identity if right is None else lambda: right)


def evaluate_rule(rule: FactorizationRule, arrow: ArrowObj) -> list[LawCheck]:
    """Run every applicable law for one rule at one arrow.

    The laws share one `rules.memo_scope`: a product or binary sum that
    several laws mention is built once. The scope is this call's own,
    dropped when it returns, unless one is already open, as `check_laws`
    keeps one for all the rules on an arrow.
    """
    with memo_scope():
        return _evaluate_rule(rule, arrow)


def _evaluate_rule(rule: FactorizationRule, arrow: ArrowObj) -> list[LawCheck]:
    f = arrow.f
    label = arrow.label or "arrow"
    checks: list[LawCheck] = []

    def record(law: str, lhs, rhs) -> None:
        ok, detail = _equation(lhs, rhs)
        checks.append(LawCheck(rule.name, law, label, ok, detail))

    def record_composite(law: str, after, before, rhs=None) -> None:
        """Record after ∘ before = rhs, or = the middle's identity when rhs is None."""
        ok, detail = _composite_equation(after, before, rhs, triple.mid)
        checks.append(LawCheck(rule.name, law, label, ok, detail))

    triple = rule.factor(f)
    record_composite("factors", lambda: triple.right, lambda: triple.left, lambda: f)
    record(
        "functor-id",
        lambda: rule.on_square(identity_square(as_arrow(f))),
        lambda: identity_map(triple.mid),
    )

    if rule.comult is not None:
        sigma = rule.comult(f)
        left_of_left = rule.factor(triple.left)
        record_composite("counit-arrow", lambda: left_of_left.right, lambda: sigma)
        record_composite(
            "counit-functor",
            lambda: rule.on_square(square_fixing_domain(triple.left, f, triple.right)),
            lambda: sigma,
        )
        record_composite("comult-square", lambda: sigma, lambda: triple.left, lambda: left_of_left.left)
        record_composite(
            "comult-coassoc",
            lambda: rule.comult(triple.left),
            lambda: sigma,
            lambda: compose_maps(rule.on_square(square_fixing_domain(triple.left, left_of_left.left, sigma)), sigma),
        )

    if rule.mult is not None:
        pi = rule.mult(f)
        right_of_right = rule.factor(triple.right)
        record_composite("unit-arrow", lambda: pi, lambda: right_of_right.left)
        record_composite(
            "unit-functor",
            lambda: pi,
            lambda: rule.on_square(square_fixing_codomain(f, triple.right, triple.left)),
        )
        record_composite("mult-square", lambda: triple.right, lambda: pi, lambda: right_of_right.right)
        record_composite(
            "mult-assoc",
            lambda: pi,
            lambda: rule.mult(triple.right),
            lambda: compose_maps(pi, rule.on_square(square_fixing_codomain(right_of_right.right, triple.right, pi))),
        )

    if rule.comult is not None and rule.mult is not None:

        def distributivity_rhs() -> PresheafMap:
            """The long way around the distributivity square.

            Widen the right half along the comultiplication, comultiply the
            combined right part, cross the interchange, multiply the combined
            left part, then squash back down along the multiplication. The
            factorisations of f and of its two halves, and sigma and pi at f,
            are the ones the other laws built; the interchange reuses them.
            """
            combined_right = compose_maps(triple.right, left_of_left.right)
            combined_left = compose_maps(right_of_right.left, triple.left)
            widen = rule.on_square(square_fixing_codomain(triple.right, combined_right, sigma))
            cross = interchange(rule, rule, rule, triple, left_of_left, right_of_right, combined_right, combined_left)
            squash = rule.on_square(square_fixing_domain(combined_left, triple.left, pi))
            return compose_maps(
                squash,
                compose_maps(
                    rule.mult(combined_left),
                    compose_maps(cross, compose_maps(rule.comult(combined_right), widen)),
                ),
            )

        record_composite("distributivity", lambda: sigma, lambda: pi, distributivity_rhs)

    return checks


def check_laws(rules: Sequence[FactorizationRule], sample: Sequence[ArrowObj]) -> LawReport:
    """Evaluate every rule against every sample arrow.

    All rules on one arrow share one `rules.memo_scope`, so a product or sum
    that several rules ask for is built once and dropped before the next
    arrow. The checks come out rule by rule, each rule's in sample order.
    """
    per_rule: list[list[LawCheck]] = [[] for _ in rules]
    for arrow in sample:
        with memo_scope():
            for rule, checks in zip(rules, per_rule):
                checks.extend(evaluate_rule(rule, arrow))
    return LawReport(
        rules=tuple(r.name for r in rules),
        arrows=tuple(a.label or "arrow" for a in sample),
        checks=tuple(itertools.chain.from_iterable(per_rule)),
    )


def exhaustive_arrows(max_total: int) -> list[ArrowObj]:
    """Every function between finite sets whose sizes sum to at most max_total.

    Lives over the one-object index, where a presheaf is just a finite set.
    """
    base = terminal_category()
    sets = {
        n: presheaf(base, {"0": tuple(range(n))}, None) for n in range(max_total + 1)
    }
    out: list[ArrowObj] = []
    for m in range(max_total + 1):
        for n in range(max_total + 1 - m):
            if m > 0 and n == 0:
                continue
            for vals in itertools.product(range(n), repeat=m):
                comps = {"0": {i: v for i, v in enumerate(vals)}}
                label = f"{m}->{n}:" + "".join(str(v) for v in vals)
                out.append(ArrowObj(PresheafMap(sets[m], sets[n], comps), label=label))
    return out


def exhaustive_size(max_total: int, most: int) -> int:
    """`len(exhaustive_arrows(max_total))`, counted without building the arrows.

    There are n^m functions from m elements to n, none when m > 0 and n = 0,
    and Python's 0 ** 0 is 1. The count stops as soon as it passes `most`,
    returning a number above it, so a huge `max_total` costs no more than
    `most` does.
    """
    total = 0
    for m in range(max_total + 1):
        for n in range(max_total + 1 - m):
            total += n**m
            if total > most:
                return total
    return total


def sample_arrows(base: FinCategory, count: int, seed: int) -> list[ArrowObj]:
    """Seeded arrows over any index, built by gluing representables.

    Sources are small colimits of representables, targets quotient the source
    further and may add an extra free cell, so the arrows mix collapsing and
    non-surjectivity while staying honest presheaf maps.
    """
    rng = random.Random(seed)
    out: list[ArrowObj] = []
    for k in range(count):
        pieces = [
            representable(base, rng.choice(base.objects))
            for _ in range(rng.randint(1, 2))
        ]
        cp = coproduct(pieces)
        src_q = quotient(cp.apex, _random_pairs(rng, cp.apex, rng.randint(0, 2)))
        X = src_q.apex
        extras = [
            representable(base, rng.choice(base.objects))
            for _ in range(rng.randint(0, 1))
        ]
        widened = coproduct([X] + extras)
        tgt_q = quotient(
            widened.apex, _random_pairs(rng, widened.apex, rng.randint(0, 2))
        )
        f = compose_maps(tgt_q.legs[0], widened.legs[0])
        out.append(ArrowObj(f, label=f"seeded{k}"))
    return out


def _random_pairs(rng: random.Random, X, count: int) -> list[tuple[str, int, int]]:
    spots = [a for a in X.base.objects if len(X.carrier[a]) >= 2]
    pairs = []
    for _ in range(count):
        if not spots:
            break
        a = rng.choice(spots)
        u, v = rng.sample(list(X.carrier[a]), 2)
        pairs.append((a, u, v))
    return pairs

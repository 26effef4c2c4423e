"""Law battery for factorisation rules.

Each law is an equation between two composite maps built from a rule's
ingredients at one sample arrow. Laws are only evaluated when the rule
provides what they mention, so derived rules without structural maps get
the factorisation and functor laws and nothing else. A law whose very
construction fails (a non-commuting square fed to the functor, say) counts
as violated with the raised message as detail; deliberately broken rules
tend to fail that way.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Sequence

from .arrows import ArrowObj, Square, as_arrow, identity_square
from .catalog import representable, terminal_category
from .colimits import coproduct, quotient
from .core import (
    EngineError,
    FinCategory,
    PresheafMap,
    compose_maps,
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


def evaluate_rule(rule: FactorizationRule, arrow: ArrowObj) -> list[LawCheck]:
    """Run every applicable law for one rule at one arrow.

    The laws share one `rules.memo_scope`: a product or binary sum that
    several laws mention is built once, and all of them are dropped when
    this call returns.
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

    triple = rule.factor(f)
    record(
        "factors",
        lambda: compose_maps(triple.right, triple.left),
        lambda: f,
    )
    record(
        "functor-id",
        lambda: rule.on_square(identity_square(as_arrow(f))),
        lambda: identity_map(triple.mid),
    )

    if rule.comult is not None:
        sigma = rule.comult(f)
        left_of_left = rule.factor(triple.left)
        record(
            "counit-arrow",
            lambda: compose_maps(left_of_left.right, sigma),
            lambda: identity_map(triple.mid),
        )
        record(
            "counit-functor",
            lambda: compose_maps(
                rule.on_square(
                    Square(
                        source=as_arrow(triple.left),
                        target=as_arrow(f),
                        top=identity_map(f.source),
                        bottom=triple.right,
                    )
                ),
                sigma,
            ),
            lambda: identity_map(triple.mid),
        )
        record(
            "comult-square",
            lambda: compose_maps(sigma, triple.left),
            lambda: left_of_left.left,
        )
        record(
            "comult-coassoc",
            lambda: compose_maps(rule.comult(triple.left), sigma),
            lambda: compose_maps(
                rule.on_square(
                    Square(
                        source=as_arrow(triple.left),
                        target=as_arrow(left_of_left.left),
                        top=identity_map(f.source),
                        bottom=sigma,
                    )
                ),
                sigma,
            ),
        )

    if rule.mult is not None:
        pi = rule.mult(f)
        right_of_right = rule.factor(triple.right)
        record(
            "unit-arrow",
            lambda: compose_maps(pi, right_of_right.left),
            lambda: identity_map(triple.mid),
        )
        record(
            "unit-functor",
            lambda: compose_maps(
                pi,
                rule.on_square(
                    Square(
                        source=as_arrow(f),
                        target=as_arrow(triple.right),
                        top=triple.left,
                        bottom=identity_map(f.target),
                    )
                ),
            ),
            lambda: identity_map(triple.mid),
        )
        record(
            "mult-square",
            lambda: compose_maps(triple.right, pi),
            lambda: right_of_right.right,
        )
        record(
            "mult-assoc",
            lambda: compose_maps(pi, rule.mult(triple.right)),
            lambda: compose_maps(
                pi,
                rule.on_square(
                    Square(
                        source=as_arrow(right_of_right.right),
                        target=as_arrow(triple.right),
                        top=pi,
                        bottom=identity_map(f.target),
                    )
                ),
            ),
        )

    if rule.comult is not None and rule.mult is not None:
        record(
            "distributivity",
            lambda: compose_maps(rule.comult(f), rule.mult(f)),
            lambda: _distributivity_rhs(rule, f),
        )

    return checks


def _distributivity_rhs(rule: FactorizationRule, f: PresheafMap) -> PresheafMap:
    """The long way around the distributivity square.

    Widen the right half along the comultiplication, comultiply the combined
    right part, cross the interchange, multiply the combined left part, then
    squash back down along the multiplication.
    """
    triple = rule.factor(f)
    sigma = rule.comult(f)
    pi = rule.mult(f)
    left_of_left = rule.factor(triple.left)
    right_of_right = rule.factor(triple.right)
    combined_right = compose_maps(triple.right, left_of_left.right)
    combined_left = compose_maps(right_of_right.left, triple.left)
    widen = rule.on_square(
        Square(
            source=as_arrow(triple.right),
            target=as_arrow(combined_right),
            top=sigma,
            bottom=identity_map(f.target),
        )
    )
    cross = interchange(rule, rule, rule, rule, f)
    squash = rule.on_square(
        Square(
            source=as_arrow(combined_left),
            target=as_arrow(triple.left),
            top=identity_map(f.source),
            bottom=pi,
        )
    )
    return compose_maps(
        squash,
        compose_maps(
            rule.mult(combined_left),
            compose_maps(cross, compose_maps(rule.comult(combined_right), widen)),
        ),
    )


def check_laws(rules: Sequence[FactorizationRule], sample: Sequence[ArrowObj]) -> LawReport:
    """Evaluate every rule against every sample arrow."""
    checks: list[LawCheck] = []
    for rule in rules:
        for arrow in sample:
            checks.extend(evaluate_rule(rule, arrow))
    return LawReport(
        rules=tuple(r.name for r in rules),
        arrows=tuple(a.label or "arrow" for a in sample),
        checks=tuple(checks),
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

"""Pointwise factorisation rules and their composites.

A rule assigns every arrow a factorisation through a middle object,
functorially in commuting squares, and optionally carries two structural
maps: a comultiplication into the middle of the left half and a
multiplication out of the middle of the right half. The law checker in
`laws` consumes exactly this interface.

Two composites are provided. The tensor composite factors the inner rule's
right half with the outer rule, the odot composite factors the inner left
half instead, and `interchange` produces the canonical comparison between
the two ways of stacking four rules. All of it is computed elementwise on
finite carriers, nothing is symbolic.

A coalgebra's section is a filler of the square (Lf, 1): f → Rf, and an
algebra's retraction a filler of (1, Rf): Lf → f; their validators check
the two triangles with `arrows.filler_triangles`. These squares, the
whiskered unit squares of `interchange` and the reshapings in
`compose_coalgebras` all have one identity side and are built by
`arrows.square_fixing_domain` and `arrows.square_fixing_codomain`.

Binary products number their pairs lexicographically: at object a the pair
(x, y) is element i·|Y_a| + j, where i and j are the positions of x and y in
the sorted carriers, so every action is offset arithmetic. A product is
built only as far as it is read: each action table is filled in the first
time its morphism is looked up, and each projection the first time it is
asked for. A map between two products, f × g, is the same offset
arithmetic (`ProductData.times`): the graph rule's functor on squares and
its multiplication are such maps, so `on_square` reads no projection and
`mult` only the first projection of its target. The law checks read no
action table. Binary sums number summand 0 first, each summand in carrier
order, and their legs hold each element's offset plus position. So the
copair [f, g] lists f's values, then g's, and f + g reads each value off
the target's legs: the cograph rule's maps are such offset arithmetic
(`copair`, `plus`), with no leg composite and no `induce`. The builtin
rules ask for products and binary sums through `memo_product` and
`memo_sum`. Inside a `memo_scope`, which `laws.check_laws` opens for all
the rules it checks on one arrow, each is built once per pair of operand
objects; outside it, as in `canonical_lift` or `compose_coalgebras`, every
call builds afresh.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Mapping
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from functools import cached_property

from .arrows import (
    ArrowObj,
    Square,
    as_arrow,
    filler_triangles,
    square_fixing_codomain,
    square_fixing_domain,
    validate_square,
)
from .colimits import Cocone, coproduct
from .core import (
    IncompatibleInput,
    InternalCheckFailed,
    Presheaf,
    PresheafMap,
    _same,
    compose_maps,
    identity_map,
)


@dataclass(frozen=True)
class FactorTriple:
    """One arrow factored: left into the middle, right out of it."""

    left: PresheafMap
    mid: Presheaf
    right: PresheafMap


@dataclass(frozen=True)
class FactorizationRule:
    name: str
    factor: Callable[[PresheafMap], FactorTriple]
    on_square: Callable[[Square], PresheafMap]
    comult: Callable[[PresheafMap], PresheafMap] | None = None
    mult: Callable[[PresheafMap], PresheafMap] | None = None


@dataclass(frozen=True)
class ProductData:
    """A binary product X × Y with enough bookkeeping to pair maps into it.

    At each object a the pair (x, y) is apex element i·|Y_a| + j, where i and
    j are the positions of x in X.carrier[a] and of y in Y.carrier[a]: pairs
    are numbered lexicographically. `rank1` and `rank2` hold those positions.
    The projections onto `first` (X) and `second` (Y) are built the first
    time each is read; `pair` maps into the apex and `times` maps from it
    into another product without reading them. Within a `memo_scope`,
    `memo_product` hands the same instance to every caller with the same
    operand objects, so nothing may modify it.
    """

    apex: Presheaf
    first: Presheaf
    second: Presheaf
    rank1: Mapping[str, Mapping[int, int]]
    rank2: Mapping[str, Mapping[int, int]]

    @cached_property
    def proj1(self) -> PresheafMap:
        X, Y, carrier = self.first, self.second, self.apex.carrier
        return PresheafMap(
            self.apex,
            X,
            {a: dict(zip(carrier[a], [x for x in X.carrier[a] for _ in Y.carrier[a]])) for a in X.base.objects},
        )

    @cached_property
    def proj2(self) -> PresheafMap:
        X, Y, carrier = self.first, self.second, self.apex.carrier
        return PresheafMap(
            self.apex, Y, {a: dict(zip(carrier[a], Y.carrier[a] * len(X.carrier[a]))) for a in X.base.objects}
        )

    def index(self, a: str, x: int, y: int) -> int:
        """The apex element at object a that stands for the pair (x, y)."""
        return self.apex.carrier[a][self.rank1[a][x] * len(self.rank2[a]) + self.rank2[a][y]]

    def pair(self, f: PresheafMap, g: PresheafMap) -> PresheafMap:
        Z = f.source
        comps = {}
        for a in Z.base.objects:
            r1, r2, out = self.rank1[a], self.rank2[a], self.apex.carrier[a]
            width = len(r2)
            fa, ga = f.components[a], g.components[a]
            comps[a] = {z: out[r1[fa[z]] * width + r2[ga[z]]] for z in Z.carrier[a]}
        return PresheafMap(Z, self.apex, comps)

    def times(self, target: ProductData, f: PresheafMap, g: PresheafMap) -> PresheafMap:
        """The map f × g from this apex to `target`'s: the pair (x, y) goes to (f x, g y).

        The same offset arithmetic as an action table: at each object the
        pair element i·|Y| + j goes to rows[i] + cols[j], where rows[i] is
        the position of f(x) times the width of `target` and cols[j] is the
        position of g(y). No projection is read or built.
        """
        if not (_same(f.source, self.first) and _same(f.target, target.first)):
            raise IncompatibleInput("times: f does not run between the first factors")
        if not (_same(g.source, self.second) and _same(g.target, target.second)):
            raise IncompatibleInput("times: g does not run between the second factors")
        X, Y, carrier = self.first, self.second, self.apex.carrier
        comps = {}
        for a in X.base.objects:
            r1, r2, out = target.rank1[a], target.rank2[a], target.apex.carrier[a]
            fa, ga, width = f.components[a], g.components[a], len(r2)
            rows = [r1[fa[x]] * width for x in X.carrier[a]]
            cols = [r2[ga[y]] for y in Y.carrier[a]]
            comps[a] = dict(zip(carrier[a], [out[r + c] for r in rows for c in cols]))
        return PresheafMap(self.apex, target.apex, comps)


class _ProductActions(Mapping):
    """The action tables of a product apex, each built the first time it is read.

    A morphism m sends pair element i·|Y| + j to rows[i] + cols[j], where
    rows[i] is the position of x's image times the width of Y at dom(m) and
    cols[j] is the position of y's image. Keys and values are taken from the
    apex carriers, so the tables share their int objects with them. `tables`
    holds the tables built so far; reading every key, as `validate` and
    equality do, builds them all.
    """

    def __init__(self, X: Presheaf, Y: Presheaf, rank1, rank2, carrier) -> None:
        self._operands = (X, Y, rank1, rank2, carrier)
        self._morphisms = {m.name: m for m in X.base.morphisms}
        self.tables: dict[str, dict[int, int]] = {}

    def __getitem__(self, name: str) -> dict[int, int]:
        table = self.tables.get(name)
        if table is None:
            m = self._morphisms[name]
            X, Y, rank1, rank2, carrier = self._operands
            r1, r2, out = rank1[m.dom], rank2[m.dom], carrier[m.dom]
            xa, ya, width = X.action[name], Y.action[name], len(r2)
            rows = [r1[xa[x]] * width for x in X.carrier[m.cod]]
            cols = [r2[ya[y]] for y in Y.carrier[m.cod]]
            table = self.tables[name] = dict(zip(carrier[m.cod], [out[r + c] for r in rows for c in cols]))
        return table

    def __contains__(self, name: object) -> bool:
        return name in self._morphisms

    def __iter__(self) -> Iterator[str]:
        return iter(self._morphisms)

    def __len__(self) -> int:
        return len(self._morphisms)


def product_presheaf(X: Presheaf, Y: Presheaf) -> ProductData:
    """Binary product, pairs numbered lexicographically per object.

    Only the carriers and the rank tables are built here; each action table
    is offset arithmetic done on first read, and each projection is built
    on first use.
    """
    base = X.base
    rank1 = {a: {x: i for i, x in enumerate(X.carrier[a])} for a in base.objects}
    rank2 = {a: {y: j for j, y in enumerate(Y.carrier[a])} for a in base.objects}
    carrier = {a: tuple(range(len(X.carrier[a]) * len(Y.carrier[a]))) for a in base.objects}
    # carriers are sorted and every morphism acts, so no normalising is needed
    apex = Presheaf(base=base, carrier=carrier, action=_ProductActions(X, Y, rank1, rank2, carrier))
    return ProductData(apex=apex, first=X, second=Y, rank1=rank1, rank2=rank2)


_MEMO: ContextVar[dict | None] = ContextVar("nwfs.rules.memo", default=None)


@contextmanager
def memo_scope() -> Iterator[None]:
    """Share binary products and sums until the block ends.

    Inside the scope, `memo_product(X, Y)` and `memo_sum(X, Y)` return what
    they already built for the same operand objects. Entries are keyed by id
    and hold their operands, so an id cannot be reused while it is a key.
    Outside any scope both build afresh on every call. A scope opened inside
    another one shares the outer memo and leaves it in place. `laws` opens
    one scope per sample arrow, so nothing is kept across arrows.
    """
    if _MEMO.get() is not None:
        yield
        return
    token = _MEMO.set({})
    try:
        yield
    finally:
        _MEMO.reset(token)


def _memo(kind: str, build: Callable[[Presheaf, Presheaf], object], X: Presheaf, Y: Presheaf):
    memo = _MEMO.get()
    if memo is None:
        return build(X, Y)
    key = (kind, id(X), id(Y))
    hit = memo.get(key)
    if hit is None:
        hit = memo[key] = (X, Y, build(X, Y))
    return hit[2]


def _binary_sum(X: Presheaf, Y: Presheaf) -> Cocone:
    return coproduct([X, Y])


def memo_product(X: Presheaf, Y: Presheaf) -> ProductData:
    """`product_presheaf(X, Y)`, shared within a `memo_scope`."""
    return _memo("product", product_presheaf, X, Y)


def memo_sum(X: Presheaf, Y: Presheaf) -> Cocone:
    """`coproduct([X, Y])`, shared within a `memo_scope`."""
    return _memo("sum", _binary_sum, X, Y)


def copair(cp: Cocone, f: PresheafMap, g: PresheafMap) -> PresheafMap:
    """The map [f, g] out of the binary sum `cp`: at each object, f's values and then g's."""
    X, Y = cp.legs[0].source, cp.legs[1].source
    if not (_same(f.source, X) and _same(g.source, Y) and _same(f.target, g.target)):
        raise IncompatibleInput("copair: f and g do not run from the two summands to one presheaf")
    comps = {}
    for a in X.base.objects:
        fa, ga = f.components[a], g.components[a]
        comps[a] = dict(zip(cp.apex.carrier[a], [fa[x] for x in X.carrier[a]] + [ga[y] for y in Y.carrier[a]]))
    return PresheafMap(cp.apex, f.target, comps)


def plus(cp: Cocone, target: Cocone, f: PresheafMap, g: PresheafMap) -> PresheafMap:
    """The map f + g between binary sums, [inj₀ ∘ f, inj₁ ∘ g], read off `target`'s legs."""
    (X, Y), (in1, in2) = (leg.source for leg in cp.legs), target.legs
    if not (_same(f.source, X) and _same(g.source, Y) and _same(f.target, in1.source) and _same(g.target, in2.source)):
        raise IncompatibleInput("plus: f and g do not run between the summands")
    comps = {}
    for a in X.base.objects:
        fa, ga, ia, ja = f.components[a], g.components[a], in1.components[a], in2.components[a]
        comps[a] = dict(zip(cp.apex.carrier[a], [ia[fa[x]] for x in X.carrier[a]] + [ja[ga[y]] for y in Y.carrier[a]]))
    return PresheafMap(cp.apex, target.apex, comps)


def graph_rule() -> FactorizationRule:
    """Factor through the product of the endpoints.

    The left half pairs the identity with the arrow, the right half is the
    second projection, and both structural maps are reshuffles of product
    coordinates. A square acts as top × bottom, and the multiplication is
    proj1 × id, both built by `ProductData.times`.
    """

    def factor(f: PresheafMap) -> FactorTriple:
        P = memo_product(f.source, f.target)
        return FactorTriple(left=P.pair(identity_map(f.source), f), mid=P.apex, right=P.proj2)

    def on_square(sq: Square) -> PresheafMap:
        Pf = memo_product(sq.source.dom, sq.source.cod)
        Pg = memo_product(sq.target.dom, sq.target.cod)
        return Pf.times(Pg, sq.top, sq.bottom)

    def comult(f: PresheafMap) -> PresheafMap:
        Pf = memo_product(f.source, f.target)
        Pm = memo_product(f.source, Pf.apex)
        return Pm.pair(Pf.proj1, identity_map(Pf.apex))

    def mult(f: PresheafMap) -> PresheafMap:
        Pf = memo_product(f.source, f.target)
        Pr = memo_product(Pf.apex, f.target)
        return Pr.times(Pf, Pf.proj1, identity_map(f.target))

    return FactorizationRule("graph", factor, on_square, comult, mult)


def cograph_rule() -> FactorizationRule:
    """Factor through the sum of the endpoints.

    The left half is the first injection, the right half folds the arrow
    with the identity, [f, 1]. A square acts as top + bottom, the
    comultiplication is 1 + inj₁ and the multiplication [1, inj₁].
    """

    def factor(f: PresheafMap) -> FactorTriple:
        cp = memo_sum(f.source, f.target)
        return FactorTriple(left=cp.legs[0], mid=cp.apex, right=copair(cp, f, identity_map(f.target)))

    def on_square(sq: Square) -> PresheafMap:
        cpf = memo_sum(sq.source.dom, sq.source.cod)
        cpg = memo_sum(sq.target.dom, sq.target.cod)
        return plus(cpf, cpg, sq.top, sq.bottom)

    def comult(f: PresheafMap) -> PresheafMap:
        cpf = memo_sum(f.source, f.target)
        cpm = memo_sum(f.source, cpf.apex)
        return plus(cpf, cpm, identity_map(f.source), cpf.legs[1])

    def mult(f: PresheafMap) -> PresheafMap:
        cpf = memo_sum(f.source, f.target)
        cpr = memo_sum(cpf.apex, f.target)
        return copair(cpr, identity_map(cpf.apex), cpf.legs[1])

    return FactorizationRule("cograph", factor, on_square, comult, mult)


def trivial_left_rule() -> FactorizationRule:
    """The middle is the domain: nothing happens on the left."""

    def factor(f: PresheafMap) -> FactorTriple:
        return FactorTriple(left=identity_map(f.source), mid=f.source, right=f)

    def on_square(sq: Square) -> PresheafMap:
        return sq.top

    def comult(f: PresheafMap) -> PresheafMap:
        return identity_map(f.source)

    def mult(f: PresheafMap) -> PresheafMap:
        return identity_map(f.source)

    return FactorizationRule("trivial-left", factor, on_square, comult, mult)


def trivial_right_rule() -> FactorizationRule:
    """The middle is the codomain: nothing happens on the right."""

    def factor(f: PresheafMap) -> FactorTriple:
        return FactorTriple(left=f, mid=f.target, right=identity_map(f.target))

    def on_square(sq: Square) -> PresheafMap:
        return sq.bottom

    def comult(f: PresheafMap) -> PresheafMap:
        return identity_map(f.target)

    def mult(f: PresheafMap) -> PresheafMap:
        return identity_map(f.target)

    return FactorizationRule("trivial-right", factor, on_square, comult, mult)


def tensor_product(outer: FactorizationRule, inner: FactorizationRule) -> FactorizationRule:
    """Compose by refactoring the inner right half with the outer rule."""

    def factor(f: PresheafMap) -> FactorTriple:
        fi = inner.factor(f)
        fo = outer.factor(fi.right)
        return FactorTriple(
            left=compose_maps(fo.left, fi.left), mid=fo.mid, right=fo.right
        )

    def on_square(sq: Square) -> PresheafMap:
        carried = inner.on_square(sq)
        return outer.on_square(
            Square(
                source=as_arrow(inner.factor(sq.source.f).right),
                target=as_arrow(inner.factor(sq.target.f).right),
                top=carried,
                bottom=sq.bottom,
            )
        )

    return FactorizationRule(f"{outer.name}⊗{inner.name}", factor, on_square)


def odot_product(outer: FactorizationRule, inner: FactorizationRule) -> FactorizationRule:
    """Compose by refactoring the inner left half with the outer rule."""

    def factor(f: PresheafMap) -> FactorTriple:
        fi = inner.factor(f)
        fo = outer.factor(fi.left)
        return FactorTriple(
            left=fo.left, mid=fo.mid, right=compose_maps(fi.right, fo.right)
        )

    def on_square(sq: Square) -> PresheafMap:
        carried = inner.on_square(sq)
        return outer.on_square(
            Square(
                source=as_arrow(inner.factor(sq.source.f).left),
                target=as_arrow(inner.factor(sq.target.f).left),
                top=sq.top,
                bottom=carried,
            )
        )

    return FactorizationRule(f"{outer.name}⊙{inner.name}", factor, on_square)


def interchange(
    A: FactorizationRule,
    B: FactorizationRule,
    C: FactorizationRule,
    fd: FactorTriple,
    c_left: FactorTriple,
    b_right: FactorTriple,
    cd_right: PresheafMap,
    bd_left: PresheafMap,
) -> PresheafMap:
    """The canonical map between the two stackings of four rules at f.

    Runs from the middle that (A odot B) tensor (C odot D) assigns f to the
    middle assigned by (A tensor C) odot (B tensor D). It is A applied to a
    square whose halves are C on the left-whiskered unit square and B on the
    right-whiskered one. The caller passes what it built: fd = D.factor(f),
    c_left = C.factor(fd.left), b_right = B.factor(fd.right), and cd_right =
    fd.right ∘ c_left.right and bd_left = b_right.left ∘ fd.left.
    """
    top = C.on_square(square_fixing_domain(fd.left, bd_left, b_right.left))
    bottom = B.on_square(square_fixing_codomain(cd_right, fd.right, c_left.right))
    source, target = as_arrow(B.factor(cd_right).left), as_arrow(C.factor(bd_left).right)
    return A.on_square(Square(source=source, target=target, top=top, bottom=bottom))


@dataclass(frozen=True)
class RuleCoalgebra:
    """A coalgebra for a rule: a section of the right half over the codomain."""

    arrow: ArrowObj
    component: PresheafMap


@dataclass(frozen=True)
class RuleAlgebra:
    """An algebra for a rule: a retraction of the left half onto the domain."""

    arrow: ArrowObj
    component: PresheafMap


def validate_rule_coalgebra(rule: FactorizationRule, co: RuleCoalgebra) -> list[str]:
    """A coalgebra's section fills the square (Lf, 1): f → Rf."""
    triple = rule.factor(co.arrow.f)
    triangles = filler_triangles(square_fixing_codomain(co.arrow, triple.right, triple.left), co.component)
    messages = ("section does not extend the left half", "section is not a section of the right half")
    return [m for m, holds in zip(messages, triangles) if not holds]


def validate_rule_algebra(rule: FactorizationRule, al: RuleAlgebra) -> list[str]:
    """An algebra's retraction fills the square (1, Rf): Lf → f."""
    triple = rule.factor(al.arrow.f)
    triangles = filler_triangles(square_fixing_domain(triple.left, al.arrow, triple.right), al.component)
    messages = ("retraction does not retract the left half", "retraction does not cover the right half")
    return [m for m, holds in zip(messages, triangles) if not holds]


def canonical_lift(
    rule: FactorizationRule,
    s: RuleCoalgebra,
    p: RuleAlgebra,
    sq: Square,
) -> PresheafMap:
    """Solve a lifting problem from a coalgebra against an algebra.

    The square runs from the coalgebra's arrow to the algebra's; the lift is
    the retraction after the functorial image of the square after the
    section, and both triangle identities are re-verified before returning.
    """
    problems = validate_square(sq)
    problems += validate_rule_coalgebra(rule, s)
    problems += validate_rule_algebra(rule, p)
    if sq.source != s.arrow and sq.source.f.components != s.arrow.f.components:
        problems.append("square does not start at the coalgebra's arrow")
    if sq.target != p.arrow and sq.target.f.components != p.arrow.f.components:
        problems.append("square does not end at the algebra's arrow")
    if problems:
        raise IncompatibleInput(f"canonical_lift: {problems[0]}")
    lift = compose_maps(p.component, compose_maps(rule.on_square(sq), s.component))
    upper, lower = filler_triangles(sq, lift)
    if not upper:
        raise InternalCheckFailed("canonical_lift: lift breaks the top triangle")
    if not lower:
        raise InternalCheckFailed("canonical_lift: lift breaks the bottom triangle")
    return lift


def compose_coalgebras(
    rule: FactorizationRule,
    first: RuleCoalgebra,
    second: RuleCoalgebra,
) -> RuleCoalgebra:
    """Coalgebra for the composite of two coalgebra-bearing arrows.

    `first` sits on the arrow applied first. The section of the composite
    threads the second section through two functorial reshapings and lands
    via the rule's multiplication; both coalgebra equations are re-verified.
    """
    if rule.mult is None:
        raise IncompatibleInput("compose_coalgebras needs a rule with a multiplication")
    problems = validate_rule_coalgebra(rule, first) + validate_rule_coalgebra(rule, second)
    if problems:
        raise IncompatibleInput(f"compose_coalgebras: {problems[0]}")
    f, g = first.arrow.f, second.arrow.f
    gf = compose_maps(g, f)
    triple_f = rule.factor(f)
    triple_gf = rule.factor(gf)
    over_right = compose_maps(g, triple_f.right)
    widen = rule.on_square(square_fixing_codomain(g, over_right, first.component))
    reshape = rule.on_square(square_fixing_domain(f, gf, g))
    absorb = rule.on_square(square_fixing_codomain(over_right, triple_gf.right, reshape))
    component = compose_maps(
        rule.mult(gf), compose_maps(absorb, compose_maps(widen, second.component))
    )
    out = RuleCoalgebra(arrow=as_arrow(gf), component=component)
    problems = validate_rule_coalgebra(rule, out)
    if problems:
        raise InternalCheckFailed(f"compose_coalgebras: {problems[0]}")
    return out


def _cograph_shift(Y: Presheaf) -> PresheafMap:
    """Rotate each carrier one step, which fixes a singleton.

    Only safe over bases without nonidentity morphisms, which is where the
    mutant rules are exercised.
    """
    return PresheafMap(Y, Y, {a: dict(zip(Y.carrier[a], Y.carrier[a][1:] + Y.carrier[a][:1])) for a in Y.base.objects})


MUTANT_COUNT = 6


def mutant_rule(index: int) -> FactorizationRule:
    """A deliberately broken builtin rule, for law-checker calibration.

    Each mutant perturbs exactly one structural map of the graph or cograph
    rule in a way some law detects on a small arrow.
    """
    if not 0 <= index < MUTANT_COUNT:
        raise IncompatibleInput(f"mutant_rule index must lie in [0, {MUTANT_COUNT})")

    if index <= 2:
        rule = graph_rule()

        def bad_mult_first(f: PresheafMap) -> PresheafMap:
            Pf = memo_product(f.source, f.target)
            Pr = memo_product(Pf.apex, f.target)
            return Pr.proj1

        def bad_comult_through(f: PresheafMap) -> PresheafMap:
            Pf = memo_product(f.source, f.target)
            Pm = memo_product(f.source, Pf.apex)
            return Pm.pair(Pf.proj1, Pf.pair(Pf.proj1, compose_maps(f, Pf.proj1)))

        def bad_mult_collapse(f: PresheafMap) -> PresheafMap:
            Pf = memo_product(f.source, f.target)
            Pr = memo_product(Pf.apex, f.target)
            first = compose_maps(Pf.proj1, Pr.proj1)
            return Pf.pair(first, compose_maps(f, first))

        if index == 0:
            return replace(rule, name="graph!mult-first", mult=bad_mult_first)
        if index == 1:
            return replace(rule, name="graph!comult-through", comult=bad_comult_through)
        return replace(rule, name="graph!mult-collapse", mult=bad_mult_collapse)

    rule = cograph_rule()

    def bad_mult_misroute(f: PresheafMap) -> PresheafMap:
        cpf = memo_sum(f.source, f.target)
        cpr = memo_sum(cpf.apex, f.target)
        folded = copair(cpf, compose_maps(cpf.legs[1], f), cpf.legs[1])
        return copair(cpr, folded, cpf.legs[1])

    def bad_comult_misroute(f: PresheafMap) -> PresheafMap:
        # [inj₁ ∘ inj₀, inj₁ ∘ inj₁] out of the sum is the second injection itself
        cpf = memo_sum(f.source, f.target)
        return memo_sum(f.source, cpf.apex).legs[1]

    def bad_mult_shift(f: PresheafMap) -> PresheafMap:
        cpf = memo_sum(f.source, f.target)
        cpr = memo_sum(cpf.apex, f.target)
        return copair(cpr, identity_map(cpf.apex), compose_maps(cpf.legs[1], _cograph_shift(f.target)))

    if index == 3:
        return replace(rule, name="cograph!mult-misroute", mult=bad_mult_misroute)
    if index == 4:
        return replace(rule, name="cograph!comult-misroute", comult=bad_comult_misroute)
    return replace(rule, name="cograph!mult-shift", mult=bad_mult_shift)

"""Arrows as objects, commuting squares between them, generating sets.

Two shapes of square carry the structure of a natural weak factorisation
system. For an arrow f factored as Rf ∘ Lf, the square (1, Rf): Lf → f has
the identity of f's domain on top, and its diagonal fillers are the algebra
structures on f; the square (Lf, 1): f → Rf has the identity of f's
codomain below, and its fillers are the coalgebra structures.
`square_fixing_domain` and `square_fixing_codomain` build these shapes, and
every square the laws, rules and runs build with an identity side comes
from them. `filler_triangles` says which of a filler's two triangles hold.

`enumerate_squares` is the one square search. A square from j: A → B
into g: C → D is a top A → C and a bottom B → D that agree along j. The
bottoms depend on j and D alone, so a `BottomIndex` lists them once, and
the search joins the tops against it. A run, whose stages all end at D,
builds one per generator; a single call builds its own.

This module also owns the row layout of a map: its values on its source's
elements, object by object in carrier order. `values` gives that row as the
map's key, `segments` cuts a key into one slice per object, and
`square_key` keys a square by its two sides. A one-step factorisation's
`square_index` is the one index of squares by these keys: the functorial
step finds a pasted square's cell there, and a lifting table, which holds
its step, finds a square's filler there.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    IncompatibleInput,
    Presheaf,
    PresheafMap,
    _same,
    composite_equals,
    enumerate_maps,
    identity_map,
)


@dataclass(frozen=True)
class ArrowObj:
    """A presheaf map viewed as a single object in its own right."""

    f: PresheafMap
    label: str | None = None

    @property
    def dom(self) -> Presheaf:
        return self.f.source

    @property
    def cod(self) -> Presheaf:
        return self.f.target


def as_arrow(f: PresheafMap | ArrowObj) -> ArrowObj:
    return f if isinstance(f, ArrowObj) else ArrowObj(f)


@dataclass(frozen=True)
class Square:
    """A commuting square from `source` to `target`.

    `top` runs between the domains and `bottom` between the codomains;
    commutation means target.f . top == bottom . source.f, which
    `validate_square` checks elementwise.
    """

    source: ArrowObj
    target: ArrowObj
    top: PresheafMap
    bottom: PresheafMap


def square_commutes(sq: Square) -> bool:
    """Whether sq is a commuting square: `validate_square` finds no problem."""
    return not validate_square(sq)


def validate_square(sq: Square) -> list[str]:
    """What keeps sq from being a commuting square, if anything.

    target ∘ top == bottom ∘ source is checked element by element of the
    source's domain, without building either composite.
    """
    out: list[str] = []
    if not _same(sq.top.source, sq.source.dom):
        out.append("top map does not start at the source arrow's domain")
    if not _same(sq.top.target, sq.target.dom):
        out.append("top map does not end at the target arrow's domain")
    if not _same(sq.bottom.source, sq.source.cod):
        out.append("bottom map does not start at the source arrow's codomain")
    if not _same(sq.bottom.target, sq.target.cod):
        out.append("bottom map does not end at the target arrow's codomain")
    if out:
        return out
    g, top, bottom, j = sq.target.f.components, sq.top.components, sq.bottom.components, sq.source.f.components
    carrier = sq.source.dom.carrier
    for a in sq.source.dom.base.objects:
        ga, ta, ba, ja = g[a], top[a], bottom[a], j[a]
        for x in carrier[a]:
            if ga[ta[x]] != ba[ja[x]]:
                return ["square does not commute"]
    return out


def identity_square(f: ArrowObj) -> Square:
    return Square(source=f, target=f, top=identity_map(f.dom), bottom=identity_map(f.cod))


def square_fixing_domain(f: PresheafMap | ArrowObj, g: PresheafMap | ArrowObj, bottom: PresheafMap) -> Square:
    """The square f → g with the identity of f's domain on top."""
    f = as_arrow(f)
    return Square(source=f, target=as_arrow(g), top=identity_map(f.dom), bottom=bottom)


def square_fixing_codomain(f: PresheafMap | ArrowObj, g: PresheafMap | ArrowObj, top: PresheafMap) -> Square:
    """The square f → g with the identity of f's codomain below."""
    f = as_arrow(f)
    return Square(source=f, target=as_arrow(g), top=top, bottom=identity_map(f.cod))


def filler_triangles(sq: Square, d: PresheafMap) -> tuple[bool, bool]:
    """Whether d fills sq: (d ∘ j == top, g ∘ d == bottom) for sq: j → g.

    Both triangles are checked in place with `composite_equals`, each on
    its own, so a caller can say which one fails.
    """
    return composite_equals(d, sq.source.f, sq.top), composite_equals(sq.target.f, d, sq.bottom)


@dataclass(frozen=True)
class GeneratingSet:
    """A finite family of arrows used to generate a factorisation system."""

    members: tuple[ArrowObj, ...]
    name: str | None = None

    def __post_init__(self):
        if not self.members:
            return
        base = self.members[0].f.source.base
        for m in self.members[1:]:
            if not _same(m.f.source.base, base):
                raise IncompatibleInput("generating set mixes base categories")


class BottomIndex:
    """The maps from j's codomain to D, listed once and bucketed by their values along j."""

    __slots__ = ("j", "cod", "buckets")

    def __init__(self, j: ArrowObj, D: Presheaf):
        images = [(a, [j.f.components[a][x] for x in j.dom.carrier[a]]) for a in j.dom.base.objects]
        buckets: dict[tuple[int, ...], list[PresheafMap]] = {}
        for bottom in enumerate_maps(j.cod, D):
            key: list[int] = []
            for a, ys in images:
                key.extend(map(bottom.components[a].__getitem__, ys))
            buckets.setdefault(tuple(key), []).append(bottom)
        self.j, self.cod, self.buckets = j, D, buckets


def enumerate_squares(j: ArrowObj, g: ArrowObj, bottoms: BottomIndex | None = None) -> list[Square]:
    """All commuting squares from j to g.

    Ordering is fixed: top maps in enumerate_maps order form the outer loop,
    bottom maps the inner one. A top and a bottom make a square exactly when
    the bottom restricted along j equals g after the top, so the pairs are
    found by a join on that restriction: each top reads off the bucket of
    its values under g in `bottoms`, the `BottomIndex` of j and g's
    codomain, built here when not given. No composite is built and no
    pair outside the output is tried.
    """
    if bottoms is None:
        bottoms = BottomIndex(j, g.cod)
    elif not (_same(bottoms.j, j) and _same(bottoms.cod, g.cod)):
        raise IncompatibleInput("enumerate_squares: the bottom index is for another generator or codomain")
    buckets = bottoms.buckets
    reach = [(a, j.dom.carrier[a], g.f.components[a]) for a in j.dom.base.objects]
    out = []
    for top in enumerate_maps(j.dom, g.dom):
        key = []
        for a, xs, ga in reach:
            key.extend(map(ga.__getitem__, map(top.components[a].__getitem__, xs)))
        for bottom in buckets.get(tuple(key), ()):
            out.append(Square(source=j, target=g, top=top, bottom=bottom))
    return out


def generating_squares(
    gens: GeneratingSet, g: ArrowObj, bottoms: tuple[BottomIndex, ...] | None = None
) -> list[tuple[int, Square]]:
    """Squares from every generator into g, tagged with the generator index.

    `bottoms`, when given, holds each generator's `BottomIndex` into g's codomain.
    """
    out: list[tuple[int, Square]] = []
    for i, j in enumerate(gens.members):
        squares = enumerate_squares(j, g) if bottoms is None else enumerate_squares(j, g, bottoms[i])
        out.extend((i, sq) for sq in squares)
    return out


def values(f: PresheafMap) -> tuple[int, ...]:
    """f's key: its values on its source's elements, object by object in carrier order.

    Exact among maps with the same source, the only maps it is compared
    across; nothing is sorted.
    """
    out: list[int] = []
    carrier, components = f.source.carrier, f.components
    for a in f.source.base.objects:
        out.extend(map(components[a].__getitem__, carrier[a]))
    return tuple(out)


def segments(f: PresheafMap, X: Presheaf) -> list[tuple[dict, slice]]:
    """f's row and the slice of a key out of X, at each object where X has elements."""
    out, start = [], 0
    for a in X.base.objects:
        size = len(X.carrier[a])
        if size:
            out.append((f.components[a], slice(start, start + size)))
            start += size
    return out


def square_key(i: int, sq: Square) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """A square out of generator i as (i, top's key, bottom's key)."""
    return (i, values(sq.top), values(sq.bottom))

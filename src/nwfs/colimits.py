"""Exact finite colimits of presheaves.

All constructions return a `Cocone` whose apex carriers are densely
renumbered (each carrier is range(n)) in a deterministic order, so repeated
runs on equal inputs produce identical apexes. Quotients are computed by
union-find congruence closure on the touched elements only: merging two
elements propagates along every base morphism into the element's object
until saturation, which is exactly what makes the apex a presheaf again.
An element no pair reaches never enters the union-find and is numbered by
its position. `attach` quotients X alone, and only by the pairs a
non-injective v forces; the glued cells are numbered by offset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import (
    FinCategory,
    IncompatibleInput,
    InternalCheckFailed,
    Presheaf,
    PresheafMap,
    _same,
    compose_maps,
    identity_map,
    presheaf,
)


@dataclass(frozen=True)
class Cocone:
    apex: Presheaf
    legs: tuple[PresheafMap, ...]


class UnionFind:
    """Disjoint sets over ints, union by size.

    An element enters on its first `find` or `union`; one never touched is
    a class of its own and costs nothing.
    """

    def __init__(self):
        self.parent: dict[int, int] = {}
        self.size: dict[int, int] = {}
        self.merges = 0

    def find(self, x: int) -> int:
        parent = self.parent
        root = parent.setdefault(x, x)
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, x: int, y: int) -> bool:
        """Merge the classes of x and y; report whether anything changed."""
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        sx, sy = self.size.get(rx, 1), self.size.get(ry, 1)
        if sx < sy:
            rx, ry = ry, rx
        self.parent[ry] = rx
        self.size[rx] = sx + sy
        self.merges += 1
        return True


def initial(base: FinCategory) -> Presheaf:
    return presheaf(base, {}, {m.name: {} for m in base.morphisms})


def quotient(X: Presheaf, pairs: Iterable[tuple[str, int, int]]) -> Cocone:
    """Quotient X by the presheaf congruence generated by `pairs`.

    Each pair (a, u, v) identifies elements u and v at object a. The single
    leg of the returned cocone is the projection X -> X/~. Classes are
    numbered by their least member, which is their first in X's sorted
    carrier; only the elements the pairs reach enter a union-find.
    """
    base = X.base
    uf = {a: UnionFind() for a in base.objects}
    into: dict[str, list] = {a: [] for a in base.objects}
    for m in base.nonidentity:
        into[m.cod].append(m)

    work = list(pairs)
    while work:
        a, u, v = work.pop()
        if uf[a].union(u, v):
            for m in into[a]:
                act = X.action[m.name]
                work.append((m.dom, act[u], act[v]))

    proj: dict[str, dict[int, int]] = {}
    carrier: dict[str, tuple[int, ...]] = {}
    for a in base.objects:
        touched, find = uf[a].parent, uf[a].find
        comp, first, k = {}, {}, 0
        for x in X.carrier[a]:
            if x in touched:
                c = first.setdefault(find(x), k)
                if c == k:
                    k += 1
            else:
                c = k
                k += 1
            comp[x] = c
        proj[a] = comp
        carrier[a] = tuple(range(k))
    # carriers are ranges and every morphism acts, so the normalising
    # constructor would only copy
    action = {}
    for m in base.morphisms:
        on_cod, on_dom, act = proj[m.cod], proj[m.dom], X.action[m.name]
        action[m.name] = {on_cod[x]: on_dom[act[x]] for x in X.carrier[m.cod]}
    apex = Presheaf(base=base, carrier=carrier, action=action)
    return Cocone(apex=apex, legs=(PresheafMap(X, apex, proj),))


def coproduct(parts: Sequence[Presheaf], base: FinCategory | None = None) -> Cocone:
    """Disjoint union, summands in the given order, elements renumbered densely."""
    if not parts:
        if base is None:
            raise IncompatibleInput("coproduct of no parts needs an explicit base category")
        return Cocone(apex=initial(base), legs=())
    base = parts[0].base
    for p in parts[1:]:
        if not _same(p.base, base):
            raise IncompatibleInput("coproduct: summands live over different bases")

    offset: list[dict[str, int]] = []
    sizes = {a: 0 for a in base.objects}
    for p in parts:
        offset.append(dict(sizes))
        for a in base.objects:
            sizes[a] += len(p.carrier[a])

    rank = [
        {a: {x: i for i, x in enumerate(p.carrier[a])} for a in base.objects}
        for p in parts
    ]
    carrier = {a: tuple(range(sizes[a])) for a in base.objects}
    action: dict[str, dict[int, int]] = {m.name: {} for m in base.morphisms}
    for i, p in enumerate(parts):
        for m in base.morphisms:
            for x in p.carrier[m.cod]:
                tagged = offset[i][m.cod] + rank[i][m.cod][x]
                action[m.name][tagged] = offset[i][m.dom] + rank[i][m.dom][p.action[m.name][x]]
    apex = presheaf(base, carrier, action)
    legs = tuple(
        PresheafMap(
            p,
            apex,
            {a: {x: offset[i][a] + rank[i][a][x] for x in p.carrier[a]} for a in base.objects},
        )
        for i, p in enumerate(parts)
    )
    return Cocone(apex=apex, legs=legs)


def coequalizer(f: PresheafMap, g: PresheafMap) -> Cocone:
    """Coequalizer of the parallel pair f, g; the single leg is the quotient map."""
    if not (_same(f.source, g.source) and _same(f.target, g.target)):
        raise IncompatibleInput("coequalizer: the two maps are not a parallel pair")
    pairs = [
        (a, f.components[a][x], g.components[a][x])
        for a in f.source.base.objects
        for x in f.source.carrier[a]
    ]
    return quotient(f.target, pairs)


def attach(X: Presheaf, spans: Sequence[tuple[PresheafMap, PresheafMap]]) -> Cocone:
    """X with a copy of B glued along A for every span (u: A -> X, v: A -> B).

    This is the quotient of the coproduct X + B0 + B1 + ... that identifies
    u(a) with v(a) for every span and every element a of its A, but neither
    is built. Colimits of presheaves are computed objectwise, so two
    elements of X meet only where some v sends two elements of A to one b
    while u keeps them apart; those pairs are all X is quotiented by, and
    an injective v gives none. Every element of B in the image of v joins
    the class of its u-partner; every other element of B is a class of
    its own.

    The apex is numbered as that quotient of the coproduct would number it,
    ranking classes by their least member: X comes first in the coproduct,
    so the classes of X/~ come first, in X's order; then each span's
    elements of B outside the image of v, span by span and in carrier
    order. Legs come back in the order (from X, from B0, from B1, ...).
    """
    for n, (u, v) in enumerate(spans):
        if not _same(u.target, X):
            raise IncompatibleInput(f"attach: span {n} does not land in the presheaf it attaches to")
        if not _same(u.source, v.source):
            raise IncompatibleInput(f"attach: the two maps of span {n} do not share a source")
    base = X.base
    # glued[n][a] sends each element of span n's v-image at a to a u-partner
    pairs: list[tuple[str, int, int]] = []
    glued: list[dict[str, dict[int, int]]] = []
    for u, v in spans:
        glued.append({})
        for a in base.objects:
            uc, vc, seen = u.components[a], v.components[a], {}
            for x in u.source.carrier[a]:
                y = uc[x]
                first = seen.setdefault(vc[x], y)
                if first != y:
                    pairs.append((a, first, y))
            glued[-1][a] = seen
    proj = quotient(X, pairs).legs[0]
    Q = proj.target

    size = Q.sizes
    action = {m.name: dict(Q.action[m.name]) for m in base.morphisms}
    cell_legs = []
    for (_, v), hits in zip(spans, glued):
        B, into = v.target, {}
        for a in base.objects:
            on_x, hit, k = proj.components[a], hits[a], size[a]
            into[a] = {}
            for b in B.carrier[a]:
                x = hit.get(b)
                if x is None:
                    into[a][b] = k
                    k += 1
                else:
                    into[a][b] = on_x[x]
            size[a] = k
        for m in base.morphisms:
            act, out, hit = B.action[m.name], action[m.name], hits[m.cod]
            into_cod, into_dom = into[m.cod], into[m.dom]
            for b in B.carrier[m.cod]:
                if b not in hit:
                    out[into_cod[b]] = into_dom[act[b]]
        cell_legs.append((B, into))
    # carriers are ranges and every morphism acts, so the normalising
    # constructor would only copy
    apex = Presheaf(base=base, carrier={a: tuple(range(size[a])) for a in base.objects}, action=action)
    legs = [PresheafMap(X, apex, proj.components)]
    legs.extend(PresheafMap(B, apex, into) for B, into in cell_legs)
    return Cocone(apex=apex, legs=tuple(legs))


def pushout(f: PresheafMap, g: PresheafMap) -> Cocone:
    """Pushout of the span f: A -> B, g: A -> C, with legs (from B, from C)."""
    return attach(f.target, [(f, g)])


def chain_composites(links: Sequence[PresheafMap], last: Presheaf) -> list[PresheafMap]:
    """Composites of the chain `links`, which ends at `last`, into its end.

    Entry i runs from stage i to the end; the list has one more entry than
    `links`, the identity on `last`. The last link is its own entry, and one
    backward sweep composes each earlier link once.
    """
    if links and not _same(links[-1].target, last):
        raise IncompatibleInput("chain_composites: the last link does not end at the chain's end")
    out = [identity_map(last), *links[-1:]]
    for link in reversed(links[:-1]):
        out.append(compose_maps(out[-1], link))
    out.reverse()
    return out


def chain_colimit(steps: Sequence[PresheafMap], start: Presheaf) -> Cocone:
    """Colimit of a finite chain start = X0 -> X1 -> ... -> Xn, one leg per stage.

    Step i runs from Xi to Xi+1, so step 0 must start at `start`. A finite
    chain's colimit is its last stage Xn, and leg i is the composite
    Xi -> Xn. The apex is Xn renumbered in order of first appearance: stage
    by stage, and in carrier order within a stage. That is the numbering
    the quotient of the coproduct of all stages would give, whose classes
    are ranked by their least member. With no steps the colimit is `start`
    itself, with an identity leg.
    """
    if not steps:
        return Cocone(apex=start, legs=(identity_map(start),))
    stages = [start]
    for i, m in enumerate(steps):
        if not _same(m.source, stages[-1]):
            raise IncompatibleInput(f"chain_colimit: step {i} does not start where the chain before it ends")
        stages.append(m.target)
    last = stages[-1]
    base = last.base
    # to_last[i] holds the components of the composite Xi -> Xn
    to_last = [leg.components for leg in chain_composites(steps, last)]
    rank: dict[str, dict[int, int]] = {a: {} for a in base.objects}
    for X, into in zip(stages, to_last):
        for a in base.objects:
            for x in X.carrier[a]:
                rank[a].setdefault(into[a][x], len(rank[a]))
    carrier = {a: tuple(range(len(rank[a]))) for a in base.objects}
    action = {
        m.name: {rank[m.cod][y]: rank[m.dom][last.action[m.name][y]] for y in rank[m.cod]}
        for m in base.morphisms
    }
    apex = presheaf(base, carrier, action)
    legs = tuple(
        PresheafMap(X, apex, {a: {x: rank[a][into[a][x]] for x in X.carrier[a]} for a in base.objects})
        for X, into in zip(stages, to_last)
    )
    return Cocone(apex=apex, legs=legs)


def induce(cocone: Cocone, targets: Sequence[PresheafMap], cod: Presheaf) -> PresheafMap:
    """The unique map out of the apex into `cod` determined by one target map per leg.

    Targets must agree wherever legs identify elements and must land in
    `cod`; both are checked. The legs of every cocone built in this module
    are jointly surjective, which is what makes the induced map total.

    The map is filled in one row per object, keyed by the apex carrier and
    empty at first. Each leg writes its targets' values into the rows, and
    a value that meets a different one already written is a disagreement;
    a row with a hole afterwards is an element no leg reaches. Legs land
    in the apex, so every element they reach has its slot.
    """
    if len(targets) != len(cocone.legs):
        raise IncompatibleInput(
            f"induce: {len(cocone.legs)} legs but {len(targets)} target maps"
        )
    for i, t in enumerate(targets):
        if not _same(t.target, cod):
            raise IncompatibleInput(f"induce: target map {i} has a different codomain")
        if not _same(t.source, cocone.legs[i].source):
            raise IncompatibleInput(f"induce: target map {i} does not start at leg {i}'s source")

    apex = cocone.apex
    objects = apex.base.objects
    comps = {a: dict.fromkeys(apex.carrier[a]) for a in objects}
    for leg, t in zip(cocone.legs, targets):
        lcs, tcs, carrier = leg.components, t.components, leg.source.carrier
        for a in objects:
            row, lc, tc = comps[a], lcs[a], tcs[a]
            for x in carrier[a]:
                y = lc[x]
                seen = row[y]
                if seen is None:
                    row[y] = tc[x]
                elif seen != tc[x]:
                    raise IncompatibleInput(
                        f"induce: targets disagree at object {a!r}, apex element {y} "
                        f"receives both {seen} and {tc[x]}"
                    )
    for a, row in comps.items():
        if None in row.values():
            missing = [y for y, z in row.items() if z is None]
            raise InternalCheckFailed(
                f"induce: apex elements {missing} at object {a!r} not reached by any leg"
            )
    return PresheafMap(apex, cod, comps)

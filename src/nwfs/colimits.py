"""Exact finite colimits of presheaves.

All constructions return a `Cocone` whose apex carriers are densely
renumbered (each carrier is range(n)) in a deterministic order, so repeated
runs on equal inputs produce identical apexes. Quotients are computed by
union-find congruence closure on the touched elements only: merging two
elements propagates along every generator of the base (`generators`) into
the element's object until saturation. The input is a presheaf, so its
actions compose, and closure along the generators is closure along every
morphism, which is exactly what makes the apex a presheaf again.
An element no pair reaches never enters the union-find and is numbered by
its position, and an object where nothing merged and whose carrier is
already 0..n-1 is carried over unchanged (identity projection, copied
action). `attach` makes one `quotient` call, of X alone and by the pairs a
non-injective v forces, and fills the quotient's freshly built action
dicts with the glued cells. Every span of one v gets its cell from a
template worked out once per v: rows of offsets and partners per object,
and the positions each morphism's fresh entries are read from.
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


@dataclass(frozen=True)
class Attachment(Cocone):
    """`attach`'s cocone; `fresh[id(v)][a]` lists v's fresh elements at a, as each span of v numbers them."""

    fresh: dict[int, dict[str, list[int]]]


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

    Each pair (a, u, v) identifies elements u and v at object a. A merge
    propagates along the base's generators only; since X is a presheaf,
    the congruence they generate is closed under every morphism. The single
    leg of the returned cocone is the projection X -> X/~. Classes are
    numbered by their least member, which is their first in X's sorted
    carrier; only the elements the pairs reach enter a union-find. An
    object where nothing merged and whose carrier is already 0..n-1 is
    kept as it is: the projection there is the identity, and a morphism
    between two such objects keeps its action, copied. The apex shares no
    dict with X, so a caller may write into its actions.
    """
    base = X.base
    uf = {a: UnionFind() for a in base.objects}
    into: dict[str, list] = {a: [] for a in base.objects}
    for m in base.generators:
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
    kept: set[str] = set()
    for a in base.objects:
        xs, classes = X.carrier[a], uf[a]
        # a sorted carrier of distinct ids is 0..n-1 when its ends are
        if not classes.merges and (not xs or (xs[0] == 0 and xs[-1] == len(xs) - 1)):
            proj[a] = dict(zip(xs, xs))
            carrier[a] = xs
            kept.add(a)
            continue
        touched, find = classes.parent, classes.find
        comp, first, k = {}, {}, 0
        for x in xs:
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
        act = X.action[m.name]
        if m.cod in kept and m.dom in kept:
            action[m.name] = dict(act)
        else:
            on_cod, on_dom = proj[m.cod], proj[m.dom]
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
    """Coequalizer of the parallel pair f, g; the single leg is the quotient map.

    Where f and g agree there is no pair: it adds nothing to the congruence.
    """
    if not (_same(f.source, g.source) and _same(f.target, g.target)):
        raise IncompatibleInput("coequalizer: the two maps are not a parallel pair")
    pairs = []
    for a in f.source.base.objects:
        fa, ga = f.components[a], g.components[a]
        pairs.extend((a, fa[x], ga[x]) for x in f.source.carrier[a] if fa[x] != ga[x])
    return quotient(f.target, pairs)


def _cell_template(v: PresheafMap) -> tuple:
    """What gluing a copy of B along v: A -> B needs, whatever u is.

    Returns (hits, fresh, merges, writes, elements). Per object a:
    - `hits[a]`: (position in B's carrier, A-element) for each element of
      B in v's image, with the first A-element over it in A's carrier order;
    - `fresh[a]`: the positions of the other elements of B, in carrier
      order, so the r-th of them becomes apex element offset + r, and
      `elements[a]` those elements themselves;
    - `merges[a]`: the pairs (first, other) of A-elements that v sends to
      one element.
    `writes` lists, for each morphism m that acts on a fresh element, m's
    name, codomain and domain and the (cod position, dom position) of each
    fresh element and its image under m.
    """
    A, B = v.source, v.target
    base = B.base
    hits, fresh, merges, image, position, elements = {}, {}, {}, {}, {}, {}
    for a in base.objects:
        vc, first, same = v.components[a], {}, []
        for x in A.carrier[a]:
            x0 = first.setdefault(vc[x], x)
            if x0 != x:
                same.append((x0, x))
        at = position[a] = {b: p for p, b in enumerate(B.carrier[a])}
        hits[a] = [(at[b], x0) for b, x0 in first.items()]
        fresh[a] = [p for p, b in enumerate(B.carrier[a]) if b not in first]
        elements[a] = [B.carrier[a][p] for p in fresh[a]]
        merges[a] = same
        image[a] = first
    writes = []
    for m in base.morphisms:
        act, hit, at = B.action[m.name], image[m.cod], position[m.dom]
        entries = [(p, at[act[b]]) for p, b in enumerate(B.carrier[m.cod]) if b not in hit]
        if entries:
            writes.append((m.name, m.cod, m.dom, entries))
    return hits, fresh, merges, writes, elements


def attach(X: Presheaf, spans: Sequence[tuple[PresheafMap, PresheafMap]]) -> Attachment:
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
    The cocone's `fresh` gives that layout, so a map out of the apex can be
    written block by block with no `induce`, as `onestep` does.

    Everything about a cell that depends on v alone is worked out once per
    distinct v object (`_cell_template`). `quotient` is called once, and the
    cells are written into the action dicts it builds. A span fills one row
    per object, in B's carrier order: offset + rank for a fresh element and
    the class of its u-partner for a hit one. Its leg is the rows, and it
    writes the action entries of its fresh elements only, reading keys and
    values from the rows, so an entry shares its ints with the leg.
    """
    for n, (u, v) in enumerate(spans):
        if not _same(u.target, X):
            raise IncompatibleInput(f"attach: span {n} does not land in the presheaf it attaches to")
        if not _same(u.source, v.source):
            raise IncompatibleInput(f"attach: the two maps of span {n} do not share a source")
    objects = X.base.objects
    templates: dict[int, tuple] = {}
    cells = []
    pairs: list[tuple[str, int, int]] = []
    for u, v in spans:
        template = templates.get(id(v))
        if template is None:
            template = templates[id(v)] = _cell_template(v)
        merges = template[2]
        for a, same in merges.items():
            uc = u.components[a]
            for x0, x in same:
                if uc[x0] != uc[x]:
                    pairs.append((a, uc[x0], uc[x]))
        cells.append(template)
    proj = quotient(X, pairs).legs[0]
    Q = proj.target

    size = Q.sizes
    action = Q.action
    cell_legs = []
    for (u, v), (hits, fresh, _, writes, _) in zip(spans, cells):
        B, rows, into = v.target, {}, {}
        for a in objects:
            on_x, uc, carrier = proj.components[a], u.components[a], B.carrier[a]
            row = [0] * len(carrier)
            for p, x in hits[a]:
                row[p] = on_x[uc[x]]
            k = size[a]
            for p in fresh[a]:
                row[p] = k
                k += 1
            size[a] = k
            rows[a] = row
            into[a] = dict(zip(carrier, row))
        for name, cod, dom, entries in writes:
            out, row_cod, row_dom = action[name], rows[cod], rows[dom]
            for p, q in entries:
                out[row_cod[p]] = row_dom[q]
        cell_legs.append((B, into))
    # carriers are ranges and every morphism acts, so the normalising
    # constructor would only copy
    apex = Presheaf(base=X.base, carrier={a: tuple(range(size[a])) for a in objects}, action=action)
    legs = [PresheafMap(X, apex, proj.components)]
    legs.extend(PresheafMap(B, apex, into) for B, into in cell_legs)
    return Attachment(apex=apex, legs=tuple(legs), fresh={key: t[4] for key, t in templates.items()})


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
    """Colimit of a finite chain start = X0 -> X1 -> ... -> Xn, read through its last stage.

    Step i runs from Xi to Xi+1, so step 0 must start at `start`. A finite
    chain's colimit is its last stage Xn, renumbered in order of first
    appearance: stage by stage, and in carrier order within a stage. That
    is the numbering the quotient of the coproduct of all stages would
    give, whose classes are ranked by their least member. The one leg is
    the renumbering Xn -> apex, a bijection; the leg from Xi is it after
    `chain_composites(steps, Xn)[i]`. With no steps the colimit is `start`
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
    # each element of Xn ranked at its first appearance through a composite
    # Xi -> Xn; the last composite is the identity, so rank is the leg
    rank: dict[str, dict[int, int]] = {a: {} for a in base.objects}
    for X, to_last in zip(stages, chain_composites(steps, last)):
        for a in base.objects:
            into, ranked = to_last.components[a], rank[a]
            for x in X.carrier[a]:
                ranked.setdefault(into[x], len(ranked))
    carrier = {a: tuple(range(len(rank[a]))) for a in base.objects}
    action = {
        m.name: {rank[m.cod][y]: rank[m.dom][last.action[m.name][y]] for y in rank[m.cod]}
        for m in base.morphisms
    }
    # carriers are ranges and every morphism acts: nothing to normalise
    apex = Presheaf(base=base, carrier=carrier, action=action)
    return Cocone(apex=apex, legs=(PresheafMap(last, apex, rank),))


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

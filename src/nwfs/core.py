"""Finite index categories and finite presheaves on them.

Everything here is exact and deterministic. A presheaf is a contravariant
set-valued functor presented by explicit carrier sets (sorted tuples of ints)
and explicit action functions (dicts). Maps between presheaves are natural
transformations presented componentwise. Validation never raises; it returns
a list of human-readable violation strings naming the offending ids, so the
CLI can surface them and tests can assert emptiness.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence


class EngineError(Exception):
    """Base class for errors raised by the engine proper."""


class IncompatibleInput(EngineError):
    """Two pieces of data that must agree (bases, endpoints) do not."""


class InternalCheckFailed(EngineError):
    """A consistency check that should be unreachable fired anyway.

    Raised by constructions that re-verify their own output, for example a
    cocone induction whose candidate assignment turns out not to be well
    defined. Seeing this means a bug, not bad user input.
    """


@dataclass(frozen=True)
class Morphism:
    name: str
    dom: str
    cod: str


@dataclass(frozen=True)
class FinCategory:
    """A finite category with a total composition table.

    `table` maps (after, before) pairs of morphism names to the composite
    name, so `table[(g, f)]` is g after f. Identities are listed per object in
    `identity`. Objects and morphisms are identified by string ids, and all
    deterministic orderings elsewhere in the package sort those ids.
    """

    name: str
    objects: tuple[str, ...]
    morphisms: tuple[Morphism, ...]
    identity: Mapping[str, str]
    table: Mapping[tuple[str, str], str]

    @cached_property
    def _by_name(self) -> dict[str, Morphism]:
        return {m.name: m for m in self.morphisms}

    def hom(self, a: str, b: str) -> tuple[str, ...]:
        return tuple(sorted(m.name for m in self.morphisms if m.dom == a and m.cod == b))

    @cached_property
    def nonidentity(self) -> tuple[Morphism, ...]:
        ids = set(self.identity.values())
        return tuple(m for m in self.morphisms if m.name not in ids)

    @cached_property
    def generators(self) -> tuple[Morphism, ...]:
        """Non-identity morphisms whose composites give every non-identity one.

        A presheaf's actions along these fix all its others, so naturality
        and congruence closure need only these. Indecomposables may not
        generate (a face of truncated Δ factors through an idempotent), so
        morphisms are dropped from `nonidentity`, most factorisations first,
        while the rest generate.
        """
        table, names = self.table, {m.name for m in self.nonidentity}
        factorisations = Counter(gf for (g, f), gf in table.items() if g in names and f in names)

        def generate(keep: set[str]) -> bool:
            reached = set(keep)
            while True:
                more = {table[(g, f)] for g in reached for f in reached if (g, f) in table} - reached
                if not more:
                    return names <= reached
                reached |= more

        keep = set(names)
        for m in sorted(self.nonidentity, key=lambda m: -factorisations[m.name]):
            if generate(keep - {m.name}):
                keep.discard(m.name)
        return tuple(m for m in self.nonidentity if m.name in keep)


def _validate_category(cat: FinCategory) -> list[str]:
    out: list[str] = []
    names = [m.name for m in cat.morphisms]
    if len(names) != len(set(names)):
        dupes = sorted({n for n in names if names.count(n) > 1})
        out.append(f"duplicate morphism ids: {dupes}")
        return out
    objs = set(cat.objects)
    if len(cat.objects) != len(objs):
        out.append("duplicate object ids")
    for m in cat.morphisms:
        if m.dom not in objs:
            out.append(f"morphism {m.name!r} has unknown dom {m.dom!r}")
        if m.cod not in objs:
            out.append(f"morphism {m.name!r} has unknown cod {m.cod!r}")
    for a in cat.objects:
        i = cat.identity.get(a)
        if i is None:
            out.append(f"object {a!r} has no identity")
            continue
        if i not in cat._by_name:
            out.append(f"identity of {a!r} is an unknown morphism {i!r}")
            continue
        m = cat._by_name[i]
        if (m.dom, m.cod) != (a, a):
            out.append(f"identity {i!r} of {a!r} is not an endomap of {a!r}")
    if out:
        return out

    comp = {}
    for m in cat.morphisms:
        for n in cat.morphisms:
            if n.cod == m.dom:
                got = cat.table.get((m.name, n.name))
                if got is None:
                    out.append(f"missing composite ({m.name!r}, {n.name!r})")
                    continue
                gm = cat._by_name.get(got)
                if gm is None:
                    out.append(f"composite ({m.name!r}, {n.name!r}) = {got!r} is unknown")
                elif (gm.dom, gm.cod) != (n.dom, m.cod):
                    out.append(
                        f"composite ({m.name!r}, {n.name!r}) = {got!r} has endpoints "
                        f"({gm.dom!r}, {gm.cod!r}), expected ({n.dom!r}, {m.cod!r})"
                    )
                comp[(m.name, n.name)] = got
    for (g, f), gf in cat.table.items():
        if (g, f) not in comp:
            gm = cat._by_name.get(g)
            fm = cat._by_name.get(f)
            if gm is None or fm is None:
                out.append(f"composition table mentions unknown morphism in ({g!r}, {f!r})")
            else:
                out.append(f"composition table entry ({g!r}, {f!r}) is not composable")
    if out:
        return out

    for m in cat.morphisms:
        le = cat.table[(cat.identity[m.cod], m.name)]
        ri = cat.table[(m.name, cat.identity[m.dom])]
        if le != m.name:
            out.append(f"left unit law fails: id . {m.name!r} = {le!r}")
        if ri != m.name:
            out.append(f"right unit law fails: {m.name!r} . id = {ri!r}")
    for h in cat.morphisms:
        for g in cat.morphisms:
            if g.cod != h.dom:
                continue
            hg = cat.table[(h.name, g.name)]
            for f in cat.morphisms:
                if f.cod != g.dom:
                    continue
                lhs = cat.table[(hg, f.name)]
                rhs = cat.table[(h.name, cat.table[(g.name, f.name)])]
                if lhs != rhs:
                    out.append(
                        f"associativity fails on ({h.name!r}, {g.name!r}, {f.name!r}): "
                        f"{lhs!r} != {rhs!r}"
                    )
    return out


@dataclass(frozen=True)
class Presheaf:
    """A finite presheaf on `base`.

    `carrier[a]` is the sorted tuple of element ids at object a, and
    `action[m]` sends elements at cod(m) to elements at dom(m); identities
    act as identity functions and composites act contravariantly, which
    `validate` checks exhaustively.
    """

    base: FinCategory
    carrier: Mapping[str, tuple[int, ...]]
    action: Mapping[str, Mapping[int, int]]

    @property
    def sizes(self) -> dict[str, int]:
        return {a: len(self.carrier[a]) for a in self.base.objects}

    @property
    def total_size(self) -> int:
        return sum(len(self.carrier[a]) for a in self.base.objects)


def presheaf(
    base: FinCategory,
    carrier: Mapping[str, Iterable[int]],
    action: Mapping[str, Mapping[int, int]] | None = None,
) -> Presheaf:
    """Normalising constructor: sorts carriers, fills identity actions.

    Missing carrier entries become empty; actions for identity morphisms may
    be omitted. Non-identity actions must be supplied for every morphism that
    has a nonempty codomain carrier.
    """
    action = dict(action or {})
    carr = {a: tuple(sorted(set(carrier.get(a, ())))) for a in base.objects}
    full: dict[str, dict[int, int]] = {}
    for m in base.morphisms:
        if m.name in action:
            full[m.name] = dict(action[m.name])
        elif base.identity[m.dom] == m.name and m.dom == m.cod:
            full[m.name] = {x: x for x in carr[m.cod]}
        elif not carr[m.cod]:
            full[m.name] = {}
        else:
            raise IncompatibleInput(f"no action supplied for morphism {m.name!r}")
    return Presheaf(base=base, carrier=carr, action=full)


def _validate_presheaf(X: Presheaf) -> list[str]:
    out: list[str] = []
    out.extend(_validate_category(X.base))
    if out:
        return [f"base category invalid: {v}" for v in out]
    objs = set(X.base.objects)
    for a in X.carrier:
        if a not in objs:
            out.append(f"carrier mentions unknown object {a!r}")
    for a in X.base.objects:
        if a not in X.carrier:
            out.append(f"carrier missing object {a!r}")
    if out:
        return out
    for m in X.base.morphisms:
        act = X.action.get(m.name)
        if act is None:
            out.append(f"no action for morphism {m.name!r}")
            continue
        src = set(X.carrier[m.cod])
        tgt = set(X.carrier[m.dom])
        for x in src:
            if x not in act:
                out.append(f"action of {m.name!r} undefined on element {x} at {m.cod!r}")
            elif act[x] not in tgt:
                out.append(f"action of {m.name!r} sends {x} to {act[x]}, not in carrier at {m.dom!r}")
        for x in act:
            if x not in src:
                out.append(f"action of {m.name!r} defined on stray element {x}")
    if out:
        return out
    for a in X.base.objects:
        i = X.base.identity[a]
        for x in X.carrier[a]:
            if X.action[i][x] != x:
                out.append(f"identity action {i!r} moves element {x} at {a!r}")
    for g in X.base.morphisms:
        for f in X.base.morphisms:
            if f.cod != g.dom:
                continue
            gf = X.base.table[(g.name, f.name)]
            # actions are contravariant: the composite acts on the carrier at
            # g's codomain, through g's action first and then f's
            for x in X.carrier[g.cod]:
                lhs = X.action[gf].get(x)
                rhs = X.action[f.name].get(X.action[g.name][x])
                if lhs != rhs:
                    out.append(
                        f"functoriality fails: action[{gf!r}]({x}) = {lhs}, "
                        f"action[{f.name!r}](action[{g.name!r}]({x})) = {rhs}"
                    )
    return out


@dataclass(frozen=True)
class PresheafMap:
    """A natural transformation, one component function per base object."""

    source: Presheaf
    target: Presheaf
    components: Mapping[str, Mapping[int, int]]


def _same(x: object, y: object) -> bool:
    return x is y or x == y


def _validate_map(f: PresheafMap) -> list[str]:
    out: list[str] = []
    if not _same(f.source.base, f.target.base):
        return ["source and target live over different base categories"]
    base = f.source.base
    out.extend(f"component at unknown object {a!r}" for a in f.components if a not in base.objects)
    for a in base.objects:
        comp = f.components.get(a)
        if comp is None:
            out.append(f"missing component at object {a!r}")
            continue
        src, tgt = set(f.source.carrier[a]), set(f.target.carrier[a])
        for x in f.source.carrier[a]:
            if x not in comp:
                out.append(f"component at {a!r} undefined on element {x}")
            elif comp[x] not in tgt:
                out.append(f"component at {a!r} sends {x} to {comp[x]}, not in target carrier")
        for x in comp:
            if x not in src:
                out.append(f"component at {a!r} defined on stray element {x}")
    if out:
        return out
    for m in base.morphisms:
        for x in f.source.carrier[m.cod]:
            lhs = f.components[m.dom][f.source.action[m.name][x]]
            rhs = f.target.action[m.name][f.components[m.cod][x]]
            if lhs != rhs:
                out.append(
                    f"naturality fails at morphism {m.name!r} on element {x}: "
                    f"component(action(x)) = {lhs}, action(component(x)) = {rhs}"
                )
    return out


def validate(thing: FinCategory | Presheaf | PresheafMap) -> list[str]:
    """Check an object exhaustively; return violations instead of raising."""
    if isinstance(thing, FinCategory):
        return _validate_category(thing)
    if isinstance(thing, Presheaf):
        return _validate_presheaf(thing)
    if isinstance(thing, PresheafMap):
        return _validate_map(thing)
    raise TypeError(f"cannot validate {type(thing).__name__}")


def identity_map(X: Presheaf) -> PresheafMap:
    return PresheafMap(X, X, {a: {x: x for x in X.carrier[a]} for a in X.base.objects})


def compose_maps(g: PresheafMap, f: PresheafMap) -> PresheafMap:
    """The composite g after f."""
    if not _same(f.target, g.source):
        raise IncompatibleInput("compose_maps: target of the first map is not the source of the second")
    gc, fc, carrier = g.components, f.components, f.source.carrier
    comps = {}
    for a in f.source.base.objects:
        ga, fa = gc[a], fc[a]
        comps[a] = {x: ga[fa[x]] for x in carrier[a]}
    return PresheafMap(f.source, g.target, comps)


def composite_equals(
    g: PresheafMap, f: PresheafMap, h: PresheafMap | None = None, *, identity_of: Presheaf | None = None
) -> bool:
    """Whether g after f has the components of h, without building g after f.

    With `h` None the comparison is with `identity_map(identity_of)`, or
    with the identity of f's source when `identity_of` is None too; the
    identity of a presheaf other than f's source matches only when the
    carriers agree. Each element of f's source is checked in place, and
    the first mismatch ends the check. The answer is that of comparing
    `compose_maps(g, f).components` with `h.components`, so an h with a
    component too many or too few, or one defined on an element too many
    or too few, is unequal; like `compose_maps`, this raises when g does
    not start where f ends. Object lists and carriers have no repeats, as
    `validate` requires.
    """
    if not _same(f.target, g.source):
        raise IncompatibleInput("composite_equals: target of the first map is not the source of the second")
    gc, fc, carrier = g.components, f.components, f.source.carrier
    objects = f.source.base.objects
    if h is None:
        if identity_of is not None and identity_of is not f.source and identity_of.carrier != carrier:
            return False
        for a in objects:
            ga, fa = gc[a], fc[a]
            for x in carrier[a]:
                if ga[fa[x]] != x:
                    return False
        return True
    hc = h.components
    if len(hc) != len(objects):
        return False
    for a in objects:
        ha = hc.get(a)
        elts = carrier[a]
        if ha is None or len(ha) != len(elts):
            return False
        ga, fa = gc[a], fc[a]
        for x in elts:
            if x not in ha or ga[fa[x]] != ha[x]:
                return False
    return True


def is_injective(f: PresheafMap) -> bool:
    return all(
        len(set(f.components[a].values())) == len(f.source.carrier[a])
        for a in f.source.base.objects
    )


def is_surjective(f: PresheafMap) -> bool:
    return all(
        set(f.components[a].values()) == set(f.target.carrier[a])
        for a in f.source.base.objects
    )


def is_iso(f: PresheafMap) -> bool:
    # a bijection keeps every carrier's size, which is cheap to compare first
    src, tgt = f.source.carrier, f.target.carrier
    same_sizes = all(len(src[a]) == len(tgt[a]) for a in f.source.base.objects)
    return same_sizes and is_injective(f) and is_surjective(f)


def inverse_map(f: PresheafMap) -> PresheafMap:
    if not is_iso(f):
        raise IncompatibleInput("inverse_map: the map is not a componentwise bijection")
    comps = {a: {y: x for x, y in f.components[a].items()} for a in f.source.base.objects}
    return PresheafMap(f.target, f.source, comps)


def maps_equal(f: PresheafMap, g: PresheafMap) -> bool:
    """Componentwise equality, ignoring presheaf object identity."""
    return (
        f.components == g.components
        and f.source.carrier == g.source.carrier
        and f.target.carrier == g.target.carrier
    )


def enumerate_maps(
    X: Presheaf,
    Y: Presheaf,
    *,
    allowed: Mapping[tuple[str, int], Sequence[int]] | None = None,
) -> list[PresheafMap]:
    """All natural transformations X -> Y, in lexicographic order by value.

    The variables are the elements of X ordered by object id then element
    id, and the maps appear in lexicographic order of the values they
    assign to them. `allowed`, keyed by (object id, element id), restricts
    an element to the values its entry lists; the order of an entry does
    not matter, and an entry with one value pins the element.

    The search runs in Yoneda order. A map is fixed by where it sends a set
    of generating elements, so the search picks a root element (objects
    with the most morphisms into them first) and then visits, breadth
    first, every element the actions of `base.generators` reach from it.
    X and Y are presheaves, so naturality along the generators is
    naturality along their composites, every morphism. A reached element
    is forced: its only candidate is the action of Y on its parent's
    value, which must still lie in its `allowed` entry. Every other
    naturality constraint is checked as soon as both elements it mentions
    are assigned. A root whose block first meets an earlier block through
    the composite q draws its candidates from the fibre of Y's action of q
    over the value met. The search keeps its own stack, so its depth does
    not grow with X, and the maps it finds are sorted into the output order.
    """
    if not _same(X.base, Y.base):
        raise IncompatibleInput("enumerate_maps: presheaves live over different bases")
    allowed = allowed or {}
    base = X.base
    if not any(X.carrier[a] for a in base.objects):
        return [PresheafMap(X, Y, {a: {} for a in base.objects})]

    # variables are numbered in output order; var[a][x] is the number of (a, x)
    var: dict[str, dict[int, int]] = {}
    first: dict[str, int] = {}
    elements: list[tuple[str, int]] = []
    for a in sorted(base.objects):
        first[a] = len(elements)
        var[a] = {x: i for i, x in enumerate(X.carrier[a], first[a])}
        elements.extend((a, x) for x in X.carrier[a])
    n = len(elements)

    # arrows[a]: how a generator into a moves elements there, in X (onto
    # variables) and in Y, with the generator's name
    arrows: dict[str, list[tuple[str, Mapping[int, int], dict[int, int], Mapping[int, int]]]] = {
        a: [] for a in base.objects
    }
    incoming = dict.fromkeys(base.objects, 0)
    for m in base.morphisms:
        incoming[m.cod] += 1
    for m in base.generators:
        arrows[m.cod].append((m.name, X.action[m.name], var[m.dom], Y.action[m.name]))

    # Breadth-first from each root. A variable reached for the first time is
    # forced by the arrow that reached it; every other arrow between two
    # variables is a check (s, d, act), meaning vals[d] == act[vals[s]], run
    # when the later of the two is assigned. Those all lie in the current
    # block or an earlier one, so each block's plan is complete once its
    # walk ends. path[u] is the composite morphism from u's root to u.
    step = [-1] * n
    order: list[int] = []
    parent: list[tuple[int, Mapping[int, int]]] = [(-1, {})] * n
    path = [""] * n
    checks: list[list[tuple[int, int, Mapping[int, int]]]] = [[] for _ in range(n)]
    fibres: dict = {}
    plan = []
    for c in sorted(base.objects, key=lambda a: (-incoming[a], a)):
        for x in X.carrier[c]:
            root = var[c][x]
            if step[root] >= 0:
                continue
            start = len(order)
            step[root] = start
            order.append(root)
            path[root] = base.identity[c]
            tie = None
            i = start
            while i < len(order):
                u = order[i]
                i += 1
                a, e = elements[u]
                for name, act_x, dvar, act_y in arrows[a]:
                    w = dvar[act_x[e]]
                    if step[w] < 0:
                        step[w] = len(order)
                        order.append(w)
                        parent[w] = (u, act_y)
                        path[w] = base.table[(path[u], name)]
                    else:
                        checks[u if step[u] >= step[w] else w].append((u, w, act_y))
                        if tie is None and step[w] < start:
                            tie = (base.table[(path[u], name)], w)

            forced = []
            for w in order[start + 1 :]:
                keep = allowed.get(elements[w])
                forced.append((w, *parent[w], None if keep is None else set(keep), checks[w]))
            cands = allowed.get((c, x), Y.carrier[c])
            if tie is not None:
                # the candidates by their value under q; roots tied through q
                # share one index of Y's, and one with an allowed entry has its own
                q, w = tie
                key = (q, (c, x)) if (c, x) in allowed else q
                if key not in fibres:
                    fibres[key] = index = {}
                    for y in cands:
                        index.setdefault(Y.action[q][y], []).append(y)
                tie = (fibres[key], w)
            plan.append((root, cands, tie, checks[root], forced))

    vals: list = [None] * n

    def candidates(b: int) -> Iterable[int]:
        _, cands, tie, _, _ = plan[b]
        return iter(cands if tie is None else tie[0].get(vals[tie[1]], ()))

    def fits(root_checks, forced) -> bool:
        for s, d, act in root_checks:
            if act[vals[s]] != vals[d]:
                return False
        for w, p, force, keep, cons in forced:
            y = force[vals[p]]
            if keep is not None and y not in keep:
                return False
            vals[w] = y
            for s, d, act in cons:
                if act[vals[s]] != vals[d]:
                    return False
        return True

    # One frame per block, each holding the iterator over its root's
    # remaining candidates; a solution is a full row of values.
    found: list[tuple[int, ...]] = []
    last = len(plan) - 1
    its = [iter(())] * len(plan)
    its[0] = candidates(0)
    b = 0
    while b >= 0:
        root, _, _, root_checks, forced = plan[b]
        if b == last:
            for y in its[b]:
                vals[root] = y
                if fits(root_checks, forced):
                    found.append(tuple(vals))
            b -= 1
            continue
        for y in its[b]:
            vals[root] = y
            if fits(root_checks, forced):
                b += 1
                its[b] = candidates(b)
                break
        else:
            b -= 1

    # a row holds the values in variable order, so rows sort into output order
    found.sort()
    layout = [(a, X.carrier[a], first[a], first[a] + len(X.carrier[a])) for a in base.objects]
    out = []
    for row in found:
        comps = {}
        for a, elts, lo, hi in layout:
            comps[a] = dict(zip(elts, row[lo:hi]))
        out.append(PresheafMap(X, Y, comps))
    return out

"""Built-in index categories, presheaves and generating sets.

Simplex truncations are generated from monotone maps, so composition tables
and simplicial identities come out right by construction instead of being
typed in. Morphism ids are systematic: a non-identity monotone map from
level m to level k with values v0..vm is called "f{m}{k}_v0..vm", identities
are "id{k}". Horns are computed as action-closed subobjects of representables
seeded by the faces that stay.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .arrows import ArrowObj, GeneratingSet
from .core import EngineError, FinCategory, IncompatibleInput, Morphism, Presheaf, PresheafMap, presheaf


class UnknownCatalogKey(EngineError):
    def __init__(self, key: str):
        self.key = key
        super().__init__(
            f"unknown catalog key {key!r}; available: {', '.join(keys())}"
        )


_ALIASES = {
    "delta≤1": "delta<=1",
    "delta≤2": "delta<=2",
    "horns≤1": "horns<=1",
    "horns≤2": "horns<=2",
}


def keys() -> tuple[str, ...]:
    return tuple(_ENTRIES)


def _canon(key: str) -> str:
    return _ALIASES.get(key, key)


@dataclass(frozen=True)
class CatalogEntry:
    key: str
    kind: str  # "category" or "gens"
    category: FinCategory | None = None
    gens: GeneratingSet | None = None


@lru_cache(maxsize=None)
def terminal_category() -> FinCategory:
    return FinCategory(
        name="terminal",
        objects=("0",),
        morphisms=(Morphism("id0", "0", "0"),),
        identity={"0": "id0"},
        table={("id0", "id0"): "id0"},
    )


def _monotone(m: int, k: int) -> list[tuple[int, ...]]:
    """All monotone maps [m] -> [k] as value tuples, lexicographically."""
    return [
        v
        for v in itertools.product(range(k + 1), repeat=m + 1)
        if all(v[i] <= v[i + 1] for i in range(m))
    ]


def _mor_name(m: int, k: int, values: tuple[int, ...]) -> str:
    if m == k and values == tuple(range(m + 1)):
        return f"id{k}"
    return f"f{m}{k}_" + "".join(str(v) for v in values)


@lru_cache(maxsize=None)
def simplex_truncation(n: int) -> FinCategory:
    """The full subcategory of levels 0..n of the simplex shapes."""
    objects = tuple(str(i) for i in range(n + 1))
    mors: list[Morphism] = []
    data: dict[str, tuple[int, int, tuple[int, ...]]] = {}
    for m in range(n + 1):
        for k in range(n + 1):
            for v in _monotone(m, k):
                name = _mor_name(m, k, v)
                mors.append(Morphism(name, str(m), str(k)))
                data[name] = (m, k, v)
    table = {}
    for g, (gm, gk, gv) in data.items():
        for f, (fm, fk, fv) in data.items():
            if fk != gm:
                continue
            composite = tuple(gv[x] for x in fv)
            table[(g, f)] = _mor_name(fm, gk, composite)
    return FinCategory(
        name=f"delta<={n}",
        objects=objects,
        morphisms=tuple(mors),
        identity={str(k): f"id{k}" for k in range(n + 1)},
        table=table,
    )


def representable(base: FinCategory, obj: str) -> Presheaf:
    """The presheaf of maps into obj; element i at a is hom(a, obj)[i]."""
    homs = {a: base.hom(a, obj) for a in base.objects}
    rank = {a: {h: i for i, h in enumerate(homs[a])} for a in base.objects}
    carrier = {a: tuple(range(len(homs[a]))) for a in base.objects}
    action = {
        m.name: {
            i: rank[m.dom][base.table[(homs[m.cod][i], m.name)]]
            for i in carrier[m.cod]
        }
        for m in base.morphisms
    }
    return presheaf(base, carrier, action)


def terminal_presheaf(base: FinCategory) -> Presheaf:
    return presheaf(
        base,
        {a: (0,) for a in base.objects},
        {m.name: {0: 0} for m in base.morphisms},
    )


def action_closure(X: Presheaf, seeds: list[tuple[str, int]]) -> PresheafMap:
    """The smallest subobject of X containing the seeds, as an inclusion map."""
    base = X.base
    have: dict[str, set[int]] = {a: set() for a in base.objects}
    work = list(seeds)
    while work:
        b, x = work.pop()
        if x in have[b]:
            continue
        have[b].add(x)
        for m in base.morphisms:
            if m.cod == b:
                work.append((m.dom, X.action[m.name][x]))
    kept = {a: sorted(have[a]) for a in base.objects}
    rank = {a: {x: i for i, x in enumerate(kept[a])} for a in base.objects}
    carrier = {a: tuple(range(len(kept[a]))) for a in base.objects}
    action = {
        m.name: {
            rank[m.cod][x]: rank[m.dom][X.action[m.name][x]] for x in kept[m.cod]
        }
        for m in base.morphisms
    }
    sub = presheaf(base, carrier, action)
    incl = PresheafMap(
        sub, X, {a: {rank[a][x]: x for x in kept[a]} for a in base.objects}
    )
    return incl


def _face_element(base: FinCategory, n: int, i: int) -> tuple[str, int]:
    """Locate the i-th face of the top cell of the n-simplex representable."""
    values = tuple(v for v in range(n + 1) if v != i)
    name = _mor_name(n - 1, n, values)
    homs = base.hom(str(n - 1), str(n))
    return (str(n - 1), homs.index(name))


def horn_inclusion(n: int, k: int, truncation: int) -> ArrowObj:
    """The k-th horn of the n-simplex inside its representable.

    Spanned by every face except the k-th, taken over the simplex shapes
    truncated at `truncation`.
    """
    if n < 1 or not 0 <= k <= n:
        raise IncompatibleInput(f"no horn at n={n}, k={k}")
    if truncation < n:
        raise IncompatibleInput("truncation must include the simplex itself")
    base = simplex_truncation(truncation)
    simplex = representable(base, str(n))
    seeds = [_face_element(base, n, i) for i in range(n + 1) if i != k]
    incl = action_closure(simplex, seeds)
    return ArrowObj(incl, label=f"horn{n}.{k}")


@lru_cache(maxsize=None)
def point_gens() -> GeneratingSet:
    base = terminal_category()
    empty = presheaf(base, {"0": ()}, {"id0": {}})
    one = terminal_presheaf(base)
    arrow = ArrowObj(PresheafMap(empty, one, {"0": {}}), label="point")
    return GeneratingSet(members=(arrow,), name="point")


@lru_cache(maxsize=None)
def codiagonal_gens() -> GeneratingSet:
    base = terminal_category()
    two = presheaf(base, {"0": (0, 1)}, None)
    one = terminal_presheaf(base)
    arrow = ArrowObj(PresheafMap(two, one, {"0": {0: 0, 1: 0}}), label="codiagonal")
    return GeneratingSet(members=(arrow,), name="codiagonal")


@lru_cache(maxsize=None)
def horn_gens(truncation: int) -> GeneratingSet:
    members = tuple(
        horn_inclusion(n, k, truncation)
        for n in range(1, truncation + 1)
        for k in range(n + 1)
    )
    return GeneratingSet(members=members, name=f"horns<={truncation}")


# every catalog key, in `keys()` order, with its kind (the `CatalogEntry` field
# that holds what the builder returns) and its builder
_ENTRIES = {
    "terminal": ("category", terminal_category),
    "delta<=1": ("category", lambda: simplex_truncation(1)),
    "delta<=2": ("category", lambda: simplex_truncation(2)),
    "point": ("gens", point_gens),
    "codiagonal": ("gens", codiagonal_gens),
    "horns<=1": ("gens", lambda: horn_gens(1)),
    "horns<=2": ("gens", lambda: horn_gens(2)),
}


def get(key: str) -> CatalogEntry:
    canon = _canon(key)
    if canon not in _ENTRIES:
        raise UnknownCatalogKey(key)
    kind, build = _ENTRIES[canon]
    return CatalogEntry(canon, kind, **{kind: build()})


def get_category(key: str) -> FinCategory:
    entry = get(key)
    if entry.kind != "category":
        raise UnknownCatalogKey(key)
    return entry.category


def get_gens(key: str) -> GeneratingSet:
    entry = get(key)
    if entry.kind != "gens":
        raise UnknownCatalogKey(key)
    return entry.gens

"""Shared builders for tests: set-shaped presheaves and random instances."""

from __future__ import annotations

import random

import hypothesis.strategies as st

from nwfs.arrows import as_arrow
from nwfs.catalog import get_category, representable, terminal_category, terminal_presheaf
from nwfs.colimits import Cocone, chain_composites
from nwfs.core import FinCategory, Morphism, Presheaf, PresheafMap, compose_maps, presheaf
from nwfs.onestep import OneStepFactorization, build_onestep


def finset(elements) -> Presheaf:
    """A presheaf on the one-object one-morphism base, i.e. a plain set."""
    if isinstance(elements, int):
        elements = range(elements)
    return presheaf(terminal_category(), {"0": list(elements)}, {})


def one_object_category(name: str, elements: list[str], times) -> FinCategory:
    """One object "0" whose morphisms are `elements`, the first the identity,
    composed by `times(g, f)`, the index of g after f."""
    return FinCategory(
        name=name,
        objects=("0",),
        morphisms=tuple(Morphism(m, "0", "0") for m in elements),
        identity={"0": elements[0]},
        table={(g, f): elements[times(i, j)] for i, g in enumerate(elements) for j, f in enumerate(elements)},
    )


# a non-identity idempotent e, with e . e = e
IDEMPOTENT = one_object_category("idempotent", ["id0", "e"], lambda i, j: max(i, j))
# the cyclic group of order 3: r1 and r2 are inverse isomorphisms
CYCLIC3 = one_object_category("cyclic3", ["id0", "r1", "r2"], lambda i, j: (i + j) % 3)


def set_map(source_size: int, target_size: int, values) -> PresheafMap:
    src, tgt = finset(source_size), finset(target_size)
    return PresheafMap(src, tgt, {"0": {i: v for i, v in enumerate(values)}})


def chain_legs(cone: Cocone, steps, start: Presheaf) -> list[PresheafMap]:
    """Every leg of `chain_colimit(steps, start)`: its one leg, from the last stage, after each stage's composite into the end."""
    last = steps[-1].target if steps else start
    return [compose_maps(cone.legs[-1], c) for c in chain_composites(steps, last)]


def onestep(gens, g) -> OneStepFactorization:
    """The one-step factorisation of a map or arrow g, which algebras and tables live on."""
    return build_onestep(gens, as_arrow(g))


def edge_to_point() -> PresheafMap:
    """The interval Δ[1] over delta<=1 mapped to the terminal presheaf."""
    base = get_category("delta<=1")
    edge = representable(base, "1")
    point = terminal_presheaf(base)
    return PresheafMap(edge, point, {a: dict.fromkeys(edge.carrier[a], 0) for a in base.objects})


def random_set_map(rng: random.Random, max_size: int = 6, min_source: int = 0) -> PresheafMap:
    n_src = rng.randint(min_source, max_size)
    n_tgt = rng.randint(1, max_size) if n_src else rng.randint(0, max_size)
    return set_map(n_src, n_tgt, [rng.randrange(n_tgt) for _ in range(n_src)])


def random_surjection(rng: random.Random, max_size: int = 4) -> PresheafMap:
    n_tgt = rng.randint(1, max_size)
    extra = rng.randint(0, max_size - 1)
    values = list(range(n_tgt)) + [rng.randrange(n_tgt) for _ in range(extra)]
    rng.shuffle(values)
    return set_map(n_tgt + extra, n_tgt, values)


@st.composite
def set_maps(draw, max_size: int = 5):
    n_src = draw(st.integers(0, max_size))
    n_tgt = draw(st.integers(1 if n_src else 0, max_size))
    values = draw(st.lists(st.integers(0, n_tgt - 1), min_size=n_src, max_size=n_src)) if n_src else []
    return set_map(n_src, n_tgt, values)


@st.composite
def parallel_pairs(draw, max_size: int = 4):
    """Two maps sharing endpoints, for coequalizer properties."""
    n_src = draw(st.integers(0, max_size))
    n_tgt = draw(st.integers(1 if n_src else 0, max_size))
    mk = lambda: [draw(st.integers(0, n_tgt - 1)) for _ in range(n_src)]
    src, tgt = finset(n_src), finset(n_tgt)
    f = PresheafMap(src, tgt, {"0": dict(enumerate(mk()))})
    g = PresheafMap(src, tgt, {"0": dict(enumerate(mk()))})
    return f, g

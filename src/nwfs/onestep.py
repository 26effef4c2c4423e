"""The one-step factorisation of an arrow against a generating set.

Given a generating set J and an arrow g: C -> D, every commuting square from
a generator j: A -> B into g contributes a cell: a copy of B glued onto C
along the square's top A -> C. The new middle object is the single colimit
`attach(C, [(top, j), ...])`, through which g factors: the left part is the
leg from C, and the right part is induced by g itself and the squares'
bottom halves.

The construction is functorial in g: a commuting square g -> g2 induces a map
between the two middle objects, computed on colimit representatives and
re-checked for well-definedness during cocone induction. Each cell goes to
the cell of the pasted square, which is looked up by its key; that key is
the source square's cached key with its values relabelled, so no composite
map is built per cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .arrows import (
    ArrowObj,
    GeneratingSet,
    Square,
    generating_squares,
    square_key,
    validate_square,
)
from .colimits import Cocone, attach, induce
from .core import (
    IncompatibleInput,
    InternalCheckFailed,
    Presheaf,
    PresheafMap,
    _same,
    compose_maps,
)


@dataclass(frozen=True)
class OneStepFactorization:
    """One application of the factorisation step to `arrow`.

    `cocone` is the colimit that builds `mid`: its first leg is `left`, and
    leg n + 1 embeds the cell of square n. Composing `right` after `left`
    returns the original arrow, and the legs are jointly surjective, so maps
    out of `mid` are induced from one target per leg.
    """

    arrow: ArrowObj
    gens: GeneratingSet
    squares: tuple[tuple[int, Square], ...]
    cocone: Cocone
    right: PresheafMap

    @property
    def mid(self) -> Presheaf:
        return self.cocone.apex

    @property
    def left(self) -> PresheafMap:
        return self.cocone.legs[0]

    @cached_property
    def square_keys(self) -> tuple[tuple, ...]:
        """`square_key` of each square, in square order."""
        return tuple(square_key(i, sq) for i, sq in self.squares)

    @cached_property
    def square_index(self) -> dict[tuple, int]:
        return {key: n for n, key in enumerate(self.square_keys)}

    def cell_leg(self, n: int) -> PresheafMap:
        """The embedding of square n's generator codomain into mid."""
        return self.cocone.legs[n + 1]


def build_onestep(gens: GeneratingSet, g: ArrowObj) -> OneStepFactorization:
    """Factor g once against gens."""
    squares = tuple(generating_squares(gens, g))
    cocone = attach(g.dom, [(sq.top, gens.members[i].f) for i, sq in squares])
    right = induce(cocone, [g.f] + [sq.bottom for _, sq in squares], g.cod)
    return OneStepFactorization(arrow=g, gens=gens, squares=squares, cocone=cocone, right=right)


def onestep_on_square(
    gens: GeneratingSet,
    sq: Square,
    source_step: OneStepFactorization | None = None,
    target_step: OneStepFactorization | None = None,
) -> PresheafMap:
    """Functorial action of the step on a square between factored arrows.

    Sends the copy of g's domain via the square's top half and each cell to
    the cell of the pasted square. Precomputed steps for either arrow can be
    passed in to avoid refactoring them.
    """
    problems = validate_square(sq)
    if problems:
        raise IncompatibleInput(f"onestep_on_square: {problems[0]}")
    if source_step is None:
        source_step = build_onestep(gens, sq.source)
    if target_step is None:
        target_step = build_onestep(gens, sq.target)
    if source_step.gens is not gens or target_step.gens is not gens:
        if source_step.gens != gens or target_step.gens != gens:
            raise IncompatibleInput("onestep_on_square: steps built from a different generating set")

    # every square of the source step starts where sq.top and sq.bottom do,
    # and pasting lands where the target step's squares end
    if not (_same(source_step.arrow.dom, sq.top.source) and _same(source_step.arrow.cod, sq.bottom.source)):
        raise IncompatibleInput("onestep_on_square: source_step does not factor the square's source arrow")
    if not (_same(target_step.arrow.dom, sq.top.target) and _same(target_step.arrow.cod, sq.bottom.target)):
        raise IncompatibleInput("onestep_on_square: target_step does not factor the square's target arrow")

    # Pasting composes each square's top and bottom with sq.top and
    # sq.bottom. That only relabels values, so the pasted square's key is
    # the source key relabelled: its keys and their sorted order stay put.
    top, bottom = sq.top.components, sq.bottom.components
    index = target_step.square_index
    cell_targets = []
    for i, top_key, bottom_key in source_step.square_keys:
        n = index.get((i, _relabel(top_key, top), _relabel(bottom_key, bottom)))
        if n is None:
            raise InternalCheckFailed("onestep_on_square: pasted square missing from the target step")
        cell_targets.append(target_step.cell_leg(n))

    return induce(source_step.cocone, [compose_maps(target_step.left, sq.top)] + cell_targets, target_step.mid)


def _relabel(key: tuple, after: dict) -> tuple:
    """The `components_key` of `after` composed with the map whose key is `key`."""
    out = []
    for a, items in key:
        at = after[a]
        out.append((a, tuple([(x, at[y]) for x, y in items])))
    return tuple(out)

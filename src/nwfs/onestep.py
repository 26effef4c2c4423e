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
the cell of the pasted square, found by `arrows.square_key`. Pasting sends
each object's segment of a side's key (`arrows.segments`) through the
square's row at that object, so the pasted key is built in place: no
composite map is built and nothing is sorted per cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .arrows import (
    ArrowObj,
    BottomIndex,
    GeneratingSet,
    Square,
    generating_squares,
    segments,
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
    def square_keys(self) -> tuple[tuple[int, tuple[int, ...], tuple[int, ...]], ...]:
        """Each square's `square_key`, in square order."""
        return tuple(square_key(i, sq) for i, sq in self.squares)

    @cached_property
    def square_index(self) -> dict[tuple, int]:
        return {key: n for n, key in enumerate(self.square_keys)}

    def cell_leg(self, n: int) -> PresheafMap:
        """The embedding of square n's generator codomain into mid."""
        return self.cocone.legs[n + 1]


def build_onestep(gens: GeneratingSet, g: ArrowObj, bottoms: tuple[BottomIndex, ...] | None = None) -> OneStepFactorization:
    """Factor g once against gens, with `bottoms` as `generating_squares` takes them."""
    squares = tuple(generating_squares(gens, g, bottoms))
    cocone = attach(g.dom, [(sq.top, gens.members[i].f) for i, sq in squares])
    right = induce(cocone, [g.f] + [sq.bottom for _, sq in squares], g.cod)
    return OneStepFactorization(arrow=g, gens=gens, squares=squares, cocone=cocone, right=right)


def onestep_on_square(
    sq: Square, source_step: OneStepFactorization, target_step: OneStepFactorization
) -> PresheafMap:
    """Functorial action of the step on a square between factored arrows.

    `source_step` and `target_step` factor the square's source and target
    against one generating set. The map sends the copy of the source's
    domain via the square's top half and each cell to the cell of the
    pasted square.
    """
    problems = validate_square(sq)
    if problems:
        raise IncompatibleInput(f"onestep_on_square: {problems[0]}")
    gens = source_step.gens
    if not _same(gens, target_step.gens):
        raise IncompatibleInput("onestep_on_square: steps built from different generating sets")
    if not _same(source_step.arrow.f, sq.source.f):
        raise IncompatibleInput("onestep_on_square: source_step does not factor the square's source arrow")
    if not _same(target_step.arrow.f, sq.target.f):
        raise IncompatibleInput("onestep_on_square: target_step does not factor the square's target arrow")

    # Pasting composes each square's top and bottom with sq.top and
    # sq.bottom, which relabels their values in place: the pasted square's
    # key is the source key with each object's segment sent through sq's
    # row at that object. rows[i] holds those rows and segments for
    # generator i's domain and codomain, at the objects where they have
    # elements.
    rows = [(segments(sq.top, j.dom), segments(sq.bottom, j.cod)) for j in gens.members]
    index = target_step.square_index
    cell_targets = []
    for i, top_values, bottom_values in source_step.square_keys:
        top_rows, bottom_rows = rows[i]
        top_pasted: list[int] = []
        for row, part in top_rows:
            top_pasted.extend(map(row.__getitem__, top_values[part]))
        bottom_pasted: list[int] = []
        for row, part in bottom_rows:
            bottom_pasted.extend(map(row.__getitem__, bottom_values[part]))
        n = index.get((i, tuple(top_pasted), tuple(bottom_pasted)))
        if n is None:
            raise InternalCheckFailed("onestep_on_square: pasted square missing from the target step")
        cell_targets.append(target_step.cell_leg(n))

    return induce(source_step.cocone, [compose_maps(target_step.left, sq.top)] + cell_targets, target_step.mid)

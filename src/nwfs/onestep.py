"""The one-step factorisation of an arrow against a generating set.

Given a generating set J and an arrow g: C -> D, every commuting square from
a generator j: A -> B into g contributes a cell: a copy of B glued onto C
along the square's top A -> C. The new middle object is the single colimit
`attach(C, [(top, j), ...])`, through which g factors: the left part is the
leg from C, and the right part is g on C's classes, which `attach` numbers
first, and each square's bottom on its cell's fresh elements, which follow
cell after cell: it is written by offset, with no map induced.

The construction is functorial in g: a commuting square g -> g2 gives a map
between the two middle objects, written on that layout too. C's classes go
through the square's top, and each cell's fresh block to the block of the
pasted square's cell (one generator, so one length), found by
`arrows.square_key`. Pasting sends each object's segment of a side's key
(`arrows.segments`) through the square's row at that object, so the pasted
key is built in place: no composite map is built and nothing is sorted per
cell. Square commutation and the pasted key lookup imply what `induce`
would check, that the cells agree where they meet C.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

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
from .colimits import Attachment, attach
from .core import IncompatibleInput, InternalCheckFailed, Presheaf, PresheafMap, _same


@dataclass(frozen=True)
class OneStepFactorization:
    """One application of the factorisation step to `arrow`.

    `cocone` is the colimit that builds `mid`: its first leg is `left`, and
    leg n + 1 embeds the cell of square n. Composing `right` after `left`
    returns the original arrow. Maps out of `mid` are written on its
    layout: the left leg's image, then one block per cell (`cell_starts`).
    """

    arrow: ArrowObj
    gens: GeneratingSet
    squares: tuple[tuple[int, Square], ...]
    cocone: Attachment
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

    @cached_property
    def cell_starts(self) -> dict[str, list[int]]:
        """Cell n's fresh elements at a are range(starts[a][n], starts[a][n + 1]); the last entry is mid's size."""
        fresh, members = self.cocone.fresh, self.gens.members
        blocks = [fresh[id(members[i].f)] for i, _ in self.squares]
        out = {}
        for a, size in self.mid.sizes.items():
            counts = [len(block[a]) for block in blocks]
            out[a] = list(accumulate(counts, initial=size - sum(counts)))
        return out

    def cell_leg(self, n: int) -> PresheafMap:
        """The embedding of square n's generator codomain into mid."""
        return self.cocone.legs[n + 1]


def _fill(head: dict[int, int], cells: list[int], carrier: tuple[int, ...], who: str) -> dict[int, int]:
    """A row out of mid at one object: `head` on the left leg's image, then `cells` keyed by `carrier`."""
    head.update(zip(carrier[len(carrier) - len(cells):], cells))
    if len(head) != len(carrier):
        raise InternalCheckFailed(f"{who}: the row covers {len(head)} of the middle's {len(carrier)} elements")
    return head


def build_onestep(gens: GeneratingSet, g: ArrowObj, bottoms: tuple[BottomIndex, ...] | None = None) -> OneStepFactorization:
    """Factor g once against gens, with `bottoms` as `generating_squares` takes them."""
    squares = tuple(generating_squares(gens, g, bottoms))
    cocone = attach(g.dom, [(sq.top, gens.members[i].f) for i, sq in squares])
    fresh = [cocone.fresh.get(id(j.f)) for j in gens.members]
    left, rows = cocone.legs[0].components, {}
    for a in g.dom.base.objects:
        la, ga = left[a], g.f.components[a]
        head = {la[x]: ga[x] for x in g.dom.carrier[a]}
        cells = [sq.bottom.components[a][b] for i, sq in squares for b in fresh[i][a]]
        rows[a] = _fill(head, cells, cocone.apex.carrier[a], "build_onestep")
    right = PresheafMap(cocone.apex, g.cod, rows)
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
    pasted = []
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
        pasted.append(n)

    # C's classes go through target.left after sq.top, and each cell's
    # fresh block to the block of its pasted cell, which has its length
    source_left, target_left = source_step.left.components, target_step.left.components
    starts, into = source_step.cell_starts, target_step.cell_starts
    comps = {}
    for a in sq.top.source.base.objects:
        sa, la, ta, s, t = source_left[a], target_left[a], sq.top.components[a], starts[a], into[a]
        head = {sa[x]: la[ta[x]] for x in source_step.arrow.dom.carrier[a]}
        mid = target_step.mid.carrier[a]
        cells = [y for n, lo, hi in zip(pasted, s, s[1:]) for y in mid[t[n]:t[n] + hi - lo]]
        comps[a] = _fill(head, cells, source_step.mid.carrier[a], "onestep_on_square")
    return PresheafMap(source_step.mid, target_step.mid, comps)

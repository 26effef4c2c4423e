"""The one-step factorisation of an arrow against a generating set.

Given a generating set J and an arrow g: C -> D, every commuting square from
a generator into g contributes a copy of that generator. Summing the copies
gives a single map between coproducts, the squares' top and bottom halves
assemble into a counit pair, and pushing the summed generator map out along
the top half produces a new middle object through which g factors. The right
part of the factorisation is induced by g itself and the bottom halves.

The construction is functorial in g: a commuting square g -> g2 induces a map
between the two middle objects, computed on pushout representatives and
re-checked for well-definedness during cocone induction.
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
from .colimits import Cocone, coproduct, induce, pushout
from .core import (
    IncompatibleInput,
    InternalCheckFailed,
    Presheaf,
    PresheafMap,
    compose_maps,
)


@dataclass(frozen=True)
class OneStepFactorization:
    """One application of the factorisation step to `arrow`.

    Composing `right` after `left` returns the original arrow, `cells` embeds
    the summed generator codomains into the middle, and the pushout cocone
    (`left`, `cells`) is jointly surjective, so maps out of `mid` can be
    induced legwise.
    """

    arrow: ArrowObj
    gens: GeneratingSet
    squares: tuple[tuple[int, Square], ...]
    gen_domains: Cocone
    gen_codomains: Cocone
    gen_sum: PresheafMap
    attach: PresheafMap
    project: PresheafMap
    mid: Presheaf
    left: PresheafMap
    right: PresheafMap
    cells: PresheafMap

    @cached_property
    def square_index(self) -> dict[tuple, int]:
        return {square_key(i, sq): n for n, (i, sq) in enumerate(self.squares)}

    def factorisation_cocone(self) -> Cocone:
        return Cocone(apex=self.mid, legs=(self.left, self.cells), provenance="pushout")

    def cell_leg(self, n: int) -> PresheafMap:
        """The composite embedding of square n's generator codomain into mid."""
        return compose_maps(self.cells, self.gen_codomains.legs[n])


def build_onestep(gens: GeneratingSet, g: ArrowObj) -> OneStepFactorization:
    """Factor g once against gens."""
    base = g.f.source.base
    squares = tuple(generating_squares(gens, g))
    dom_parts = [gens.members[i].dom for i, _ in squares]
    cod_parts = [gens.members[i].cod for i, _ in squares]
    gen_domains = coproduct(dom_parts, base=base)
    gen_codomains = coproduct(cod_parts, base=base)
    gen_sum = induce(
        gen_domains,
        [compose_maps(gen_codomains.legs[n], gens.members[i].f) for n, (i, _) in enumerate(squares)],
        gen_codomains.apex,
    )
    attach = induce(gen_domains, [sq.top for _, sq in squares], g.dom)
    project = induce(gen_codomains, [sq.bottom for _, sq in squares], g.cod)

    po = pushout(attach, gen_sum)
    left, cells = po.legs
    right = induce(po, [g.f, project], g.cod)
    return OneStepFactorization(
        arrow=g,
        gens=gens,
        squares=squares,
        gen_domains=gen_domains,
        gen_codomains=gen_codomains,
        gen_sum=gen_sum,
        attach=attach,
        project=project,
        mid=po.apex,
        left=left,
        right=right,
        cells=cells,
    )


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

    cell_targets = []
    for i, s in source_step.squares:
        pasted_key = square_key(
            i,
            Square(
                source=s.source,
                target=sq.target,
                top=compose_maps(sq.top, s.top),
                bottom=compose_maps(sq.bottom, s.bottom),
            ),
        )
        n = target_step.square_index.get(pasted_key)
        if n is None:
            raise InternalCheckFailed("onestep_on_square: pasted square missing from the target step")
        cell_targets.append(target_step.cell_leg(n))

    mid = target_step.mid
    dom_target = compose_maps(target_step.left, sq.top)
    cod_target = induce(source_step.gen_codomains, cell_targets, mid)
    return induce(source_step.factorisation_cocone(), [dom_target, cod_target], mid)

"""Algebra structures for the one-step factorisation and lifting tables.

An algebra structure on an arrow g retracts the one-step middle back onto
g's domain compatibly with both factorisation halves. A lifting table picks
one diagonal filler for every generating square into g. The two notions
determine each other: cells go to fillers by composing with the structure
map, and fillers induce a structure map through the pushout because the top
triangle of each filler agrees with the identity on everything the pushout
glues. `check_bijection` verifies that correspondence exhaustively and
compares the counts against the product of the per-square filler counts.
It sends each algebra to its table and back once. A table that such a trip
reached and returned from unchanged needs no trip of its own: that trip
would induce from the same step and the same cocone legs, so it is the
algebra's trip again. Tables are numbered in product order, so the table an
algebra reaches is found from its fillers' positions in their sets.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

from .arrows import (
    ArrowObj,
    GeneratingSet,
    Square,
    as_arrow,
    generating_squares,
    square_fixing_domain,
    square_key,
    values,
)
from .colimits import induce
from .core import (
    IncompatibleInput,
    InternalCheckFailed,
    PresheafMap,
    _same,
    compose_maps,
    composite_equals,
    enumerate_maps,
    identity_map,
    inverse_map,
    maps_equal,
)
from .onestep import OneStepFactorization, build_onestep
from .sequence import SequenceState


@dataclass(frozen=True)
class AlgebraStructure:
    """A structure map for the one-step factorisation of `target`.

    `structure` runs from the step middle back to the arrow's domain; it
    restricts to the identity along the left half and covers the right half
    over the arrow itself.
    """

    target: ArrowObj
    structure: PresheafMap
    step: OneStepFactorization


def validate_algebra(alg: AlgebraStructure) -> list[str]:
    out = []
    p, step = alg.structure, alg.step
    # inline, not `arrows.filler_triangles`: every bijection round trip checks here, and a square costs an identity map
    if not composite_equals(p, step.left, identity_of=alg.target.dom):
        out.append("structure map does not retract the left half")
    if not composite_equals(alg.target.f, p, step.right):
        out.append("structure map does not cover the right half")
    return out


@dataclass(frozen=True)
class LiftingTable:
    """One chosen diagonal filler per generating square into `target`."""

    target: ArrowObj
    gens: GeneratingSet
    squares: tuple[tuple[int, Square], ...]
    fillers: tuple[PresheafMap, ...]

    @cached_property
    def _index(self) -> dict[tuple, PresheafMap]:
        return {
            square_key(i, s): filler
            for (i, s), filler in zip(self.squares, self.fillers)
        }

    def lookup(self, gen_index: int, sq: Square) -> PresheafMap:
        # keys are exact only among maps with one source, so the generator is checked
        if not 0 <= gen_index < len(self.gens.members) or not _same(sq.source.f, self.gens.members[gen_index].f):
            raise IncompatibleInput("lookup: square does not start at the generator it is looked up under")
        if not _same(sq.target.f, self.target.f):
            raise IncompatibleInput("lookup: square lands in a different arrow")
        filler = self._index.get(square_key(gen_index, sq))
        if filler is None:
            raise IncompatibleInput("lookup: square not present in the table")
        return filler


def validate_table(table: LiftingTable) -> list[str]:
    out = []
    for n, ((i, sq), filler) in enumerate(zip(table.squares, table.fillers)):
        j = table.gens.members[i]
        # inline, not `arrows.filler_triangles`: one more call per filler measurably slows the bijection check
        if not composite_equals(filler, j.f, sq.top):
            out.append(f"filler {n} breaks the top triangle")
        if not composite_equals(table.target.f, filler, sq.bottom):
            out.append(f"filler {n} breaks the bottom triangle")
    return out


def extract_algebra(state: SequenceState) -> AlgebraStructure:
    """Read the algebra off a converged free run.

    At the converged stage the connecting map is invertible, so the fold
    followed by that inverse retracts the step middle onto the stage middle.
    """
    gamma = state.converged_at
    if gamma is None:
        raise IncompatibleInput("extract_algebra needs a converged run")
    step = state.steps[gamma]
    if step is None:
        raise InternalCheckFailed("converged stage is missing its one-step data")
    fold = state.folds[gamma]
    if fold is None:
        fold = identity_map(step.mid)
    p = compose_maps(inverse_map(state.links[gamma]), fold)
    alg = AlgebraStructure(target=ArrowObj(state.stages[gamma].right), structure=p, step=step)
    problems = validate_algebra(alg)
    if problems:
        raise InternalCheckFailed(f"extracted algebra is invalid: {problems[0]}")
    return alg


def fillers_from_algebra(alg: AlgebraStructure) -> LiftingTable:
    """Solve every generating square by routing its cell through the structure map."""
    fillers = tuple(
        compose_maps(alg.structure, alg.step.cell_leg(n))
        for n in range(len(alg.step.squares))
    )
    table = LiftingTable(
        target=alg.target,
        gens=alg.step.gens,
        squares=alg.step.squares,
        fillers=fillers,
    )
    problems = validate_table(table)
    if problems:
        raise InternalCheckFailed(f"derived table is invalid: {problems[0]}")
    return table


def algebra_from_fillers(table: LiftingTable, step: OneStepFactorization) -> AlgebraStructure:
    """Induce the structure map from a full table of fillers over `step`.

    `step` must factor the table's arrow. Well-definedness over the pushout
    comes from the top triangles, which is re-checked during induction.
    """
    if not _same(step.arrow.f, table.target.f):
        raise IncompatibleInput("algebra_from_fillers: the step does not factor the table's arrow")
    if len(step.squares) != len(table.squares):
        raise IncompatibleInput("table does not cover the generating squares of its arrow")
    C = table.target.dom
    p = induce(step.cocone, [identity_map(C), *table.fillers], C)
    alg = AlgebraStructure(target=table.target, structure=p, step=step)
    problems = validate_algebra(alg)
    if problems:
        raise InternalCheckFailed(f"induced algebra is invalid: {problems[0]}")
    return alg


def _fillers(sq: Square) -> list[PresheafMap]:
    """Every diagonal filler of one square, in enumerate_maps order.

    One restriction says where each element of the source arrow's codomain
    may go. Where the source arrow's domain lands, the only value is the
    top's there, and two elements of the domain that land together with
    different tops leave no filler. Everywhere else it is the fibre of g
    over the bottom's value. The Yoneda-ordered search roots at generating
    elements and checks the restriction of every element it forces from
    them, so it walks the fillers rather than all maps.
    """
    j, g = sq.source, sq.target
    base = g.f.source.base
    allowed: dict[tuple[str, int], tuple[int, ...]] = {}
    for a in base.objects:
        for x in j.dom.carrier[a]:
            spot = (a, j.f.components[a][x])
            want = (sq.top.components[a][x],)
            if allowed.setdefault(spot, want) != want:
                return []
    for a in base.objects:
        over = g.f.components[a]
        for u in j.cod.carrier[a]:
            if (a, u) not in allowed:
                y = sq.bottom.components[a][u]
                allowed[a, u] = tuple(c for c in g.dom.carrier[a] if over[c] == y)
    return enumerate_maps(j.cod, g.dom, allowed=allowed)


def square_filler_sets(
    gens: GeneratingSet, g: PresheafMap | ArrowObj
) -> tuple[tuple[tuple[int, Square], ...], list[list[PresheafMap]]]:
    """Per generating square, every filler it admits."""
    arrow = as_arrow(g)
    squares = tuple(generating_squares(gens, arrow))
    sets = [_fillers(sq) for _, sq in squares]
    return squares, sets


def enumerate_lifting_tables(gens: GeneratingSet, g: PresheafMap | ArrowObj) -> list[LiftingTable]:
    """Every lifting table on g, as the product of the per-square filler sets.

    Exhaustive by design; meant for small instances.
    """
    arrow = as_arrow(g)
    return _tables(gens, arrow, *square_filler_sets(gens, arrow))


def _tables(
    gens: GeneratingSet,
    arrow: ArrowObj,
    squares: tuple[tuple[int, Square], ...],
    sets: list[list[PresheafMap]],
) -> list[LiftingTable]:
    """The lifting tables of one filler listing, in product order."""
    if any(not s for s in sets):
        return []
    return [
        LiftingTable(target=arrow, gens=gens, squares=squares, fillers=choice)
        for choice in itertools.product(*sets)
    ]


def enumerate_algebra_structures(
    gens: GeneratingSet, g: PresheafMap | ArrowObj
) -> list[AlgebraStructure]:
    """Every algebra structure on the one-step factorisation of g.

    A structure map is exactly a filler of the square from the left half to
    g whose top is the identity and whose bottom is the right half.
    """
    return _algebra_structures(build_onestep(gens, as_arrow(g)))


def _algebra_structures(step: OneStepFactorization) -> list[AlgebraStructure]:
    """Every algebra structure on one built step, in enumerate_maps order."""
    arrow = step.arrow
    sq = square_fixing_domain(step.left, arrow, step.right)
    return [AlgebraStructure(target=arrow, structure=p, step=step) for p in _fillers(sq)]


@dataclass(frozen=True)
class BijectionReport:
    """Both listings, in enumeration order, and what checking them found."""

    algebras: tuple[AlgebraStructure, ...]
    tables: tuple[LiftingTable, ...]
    product_count: int
    problems: tuple[str, ...]

    @property
    def algebra_count(self) -> int:
        return len(self.algebras)

    @property
    def table_count(self) -> int:
        return len(self.tables)

    @property
    def ok(self) -> bool:
        return not self.problems and self.algebra_count == self.table_count == self.product_count


def check_bijection(gens: GeneratingSet, g: PresheafMap | ArrowObj) -> BijectionReport:
    """Exhaustively verify that algebras and tables determine each other.

    Every algebra is sent to its table and back. When that trip gives the
    algebra back, the table it reached is settled: the table's own trip
    through algebras would induce from the same step and from cocone legs
    with the same components, so it would repeat the algebra's trip and
    give the table back. Only unsettled tables, which no algebra reached or
    whose algebra's trip moved, make their own trip; the problems found,
    and their order, are those of sending every table round.
    """
    arrow = as_arrow(g)
    step = build_onestep(gens, arrow)
    algebras = _algebra_structures(step)
    squares, sets = square_filler_sets(gens, arrow)
    tables = _tables(gens, arrow, squares, sets)
    product_count = math.prod(len(s) for s in sets)
    problems: list[str] = []

    if len(algebras) != len(tables):
        problems.append(f"{len(algebras)} algebras against {len(tables)} tables")

    positions = [{values(f): k for k, f in enumerate(s)} for s in sets]
    hit = set()
    settled = set()
    for n, alg in enumerate(algebras):
        t = fillers_from_algebra(alg)
        m = _table_number(sets, positions, t.fillers)
        if m is None:
            problems.append(f"algebra {n} maps to a table outside the enumeration")
            continue
        if m in hit:
            problems.append(f"algebras collide on table {m}")
        hit.add(m)
        back = algebra_from_fillers(t, step=alg.step)
        if maps_equal(back.structure, alg.structure):
            settled.add(m)
        else:
            problems.append(f"round trip through tables moves algebra {n}")
    for m, t in enumerate(tables):
        if m in settled:
            continue
        back = fillers_from_algebra(algebra_from_fillers(t, step=step))
        if not all(maps_equal(a, b) for a, b in zip(back.fillers, t.fillers)):
            problems.append(f"round trip through algebras moves table {m}")
    return BijectionReport(
        algebras=tuple(algebras),
        tables=tuple(tables),
        product_count=product_count,
        problems=tuple(problems),
    )


def _table_number(
    sets: list[list[PresheafMap]],
    positions: list[dict[tuple, int]],
    fillers: tuple[PresheafMap, ...],
) -> int | None:
    """Index in `_tables(..., sets)` of the table with these fillers, if any.

    Tables follow `itertools.product(*sets)`, so a table's index is its
    fillers' positions in their sets read as a mixed-radix number.
    """
    if len(fillers) != len(sets):
        return None
    m = 0
    for s, position, f in zip(sets, positions, fillers):
        k = position.get(values(f))
        if k is None:
            return None
        m = m * len(s) + k
    return m


def compose_lifting_tables(first: LiftingTable, second: LiftingTable) -> LiftingTable:
    """Table for the composite arrow, given tables for both factors.

    `first` solves squares into the arrow applied first. A square into the
    composite is solved in two moves: push its top through the first arrow
    and lift against `second`, then use that lift as the bottom of a square
    solved by `first`.
    """
    if first.gens != second.gens:
        raise IncompatibleInput("compose_lifting_tables: tables use different generating sets")
    f, g = first.target, second.target
    composite = as_arrow(compose_maps(g.f, f.f))
    gens = first.gens
    squares = tuple(generating_squares(gens, composite))
    fillers = []
    for i, sq in squares:
        j = gens.members[i]
        through = second.lookup(
            i,
            Square(source=j, target=g, top=compose_maps(f.f, sq.top), bottom=sq.bottom),
        )
        fillers.append(
            first.lookup(i, Square(source=j, target=f, top=sq.top, bottom=through))
        )
    table = LiftingTable(target=composite, gens=gens, squares=squares, fillers=tuple(fillers))
    problems = validate_table(table)
    if problems:
        raise InternalCheckFailed(f"composite table is invalid: {problems[0]}")
    return table

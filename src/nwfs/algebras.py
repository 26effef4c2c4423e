"""Algebra structures and lifting tables on one built one-step factorisation.

An algebra structure on an arrow g retracts the one-step middle back onto
g's domain compatibly with both factorisation halves. A lifting table picks
one diagonal filler for every generating square into g. Both are data on
the one-step factorisation of g, and both hold the `OneStepFactorization`
they live on: a table's fillers follow its squares, and its cocone is what
they induce a structure map out of. The two notions determine each other:
cells go to fillers by composing with the structure map, and fillers induce
a structure map through the pushout because the top triangle of each filler
agrees with the identity on everything the pushout glues.

`check_bijection` builds the step once, lists its algebras and its
per-square filler sets, and verifies that correspondence exhaustively.
It sends each algebra to its table and back once. A table that such a trip
reached and returned from unchanged needs no trip of its own: that trip
would induce from the same step and the same cocone legs, so it is the
algebra's trip again. Tables are numbered in product order, so the table an
algebra reaches is found from its fillers' positions in their sets. The
report's `product_count` is the product of the filler-set sizes; the tables
are the product of the same sets, so it always equals the table count and
checks nothing on its own.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .arrows import (
    ArrowObj,
    GeneratingSet,
    Square,
    as_arrow,
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
    """A structure map for one built step of the arrow `step.arrow`.

    `structure` runs from the step middle back to the arrow's domain; it
    restricts to the identity along the left half and covers the right half
    over the arrow itself.
    """

    step: OneStepFactorization
    structure: PresheafMap


def validate_algebra(alg: AlgebraStructure) -> list[str]:
    out = []
    p, step = alg.structure, alg.step
    # inline, not `arrows.filler_triangles`: every bijection round trip checks here, and a square costs an identity map
    if not composite_equals(p, step.left, identity_of=step.arrow.dom):
        out.append("structure map does not retract the left half")
    if not composite_equals(step.arrow.f, p, step.right):
        out.append("structure map does not cover the right half")
    return out


@dataclass(frozen=True)
class LiftingTable:
    """One chosen diagonal filler per square of `step`, in square order."""

    step: OneStepFactorization
    fillers: tuple[PresheafMap, ...]

    def lookup(self, gen_index: int, sq: Square) -> PresheafMap:
        step = self.step
        # keys are exact only among maps with one source, so the generator is checked
        if not 0 <= gen_index < len(step.gens.members) or not _same(sq.source.f, step.gens.members[gen_index].f):
            raise IncompatibleInput("lookup: square does not start at the generator it is looked up under")
        if not _same(sq.target.f, step.arrow.f):
            raise IncompatibleInput("lookup: square lands in a different arrow")
        n = step.square_index.get(square_key(gen_index, sq))
        if n is None:
            raise IncompatibleInput("lookup: square not present in the table")
        return self.fillers[n]


def validate_table(table: LiftingTable) -> list[str]:
    step = table.step
    out = []
    if len(table.fillers) != len(step.squares):
        out.append(f"table has {len(table.fillers)} fillers for {len(step.squares)} squares")
    g = step.arrow.f
    for n, ((i, sq), filler) in enumerate(zip(step.squares, table.fillers)):
        # inline, not `arrows.filler_triangles`: one more call per filler measurably slows the bijection check
        if not composite_equals(filler, step.gens.members[i].f, sq.top):
            out.append(f"filler {n} breaks the top triangle")
        if not composite_equals(g, filler, sq.bottom):
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
    alg = AlgebraStructure(step=step, structure=p)
    problems = validate_algebra(alg)
    if problems:
        raise InternalCheckFailed(f"extracted algebra is invalid: {problems[0]}")
    return alg


def fillers_from_algebra(alg: AlgebraStructure) -> LiftingTable:
    """Solve every generating square by routing its cell through the structure map."""
    step = alg.step
    fillers = tuple(compose_maps(alg.structure, step.cell_leg(n)) for n in range(len(step.squares)))
    table = LiftingTable(step=step, fillers=fillers)
    problems = validate_table(table)
    if problems:
        raise InternalCheckFailed(f"derived table is invalid: {problems[0]}")
    return table


def algebra_from_fillers(table: LiftingTable) -> AlgebraStructure:
    """Induce the structure map from a full table of fillers over its step.

    Well-definedness over the pushout comes from the top triangles, which is
    re-checked during induction.
    """
    step = table.step
    C = step.arrow.dom
    p = induce(step.cocone, [identity_map(C), *table.fillers], C)
    alg = AlgebraStructure(step=step, structure=p)
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


def square_filler_sets(step: OneStepFactorization) -> list[list[PresheafMap]]:
    """Per square of `step`, every filler it admits."""
    return [_fillers(sq) for _, sq in step.squares]


def enumerate_lifting_tables(step: OneStepFactorization) -> list[LiftingTable]:
    """Every lifting table on `step`, as the product of the per-square filler sets.

    Exhaustive by design; meant for small instances.
    """
    return [LiftingTable(step, choice) for choice in itertools.product(*square_filler_sets(step))]


def enumerate_algebra_structures(step: OneStepFactorization) -> list[AlgebraStructure]:
    """Every algebra structure on `step`, in enumerate_maps order.

    A structure map is exactly a filler of the square from the left half to
    the arrow whose top is the identity and whose bottom is the right half.
    """
    sq = square_fixing_domain(step.left, step.arrow, step.right)
    return [AlgebraStructure(step, p) for p in _fillers(sq)]


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

    One step of g is built, and both sides live on it: the algebras come
    from `enumerate_algebra_structures`, and the tables are the product of
    the filler sets that `square_filler_sets` finds for the step's squares,
    so the squares are searched once. The public enumerators are called
    through this module's globals, as a caller would call them.

    Every algebra is sent to its table and back. When that trip gives the
    algebra back, the table it reached is settled: the table's own trip
    through algebras would induce from the same step and from cocone legs
    with the same components, so it would repeat the algebra's trip and
    give the table back. Only unsettled tables, which no algebra reached or
    whose algebra's trip moved, make their own trip; the problems found,
    and their order, are those of sending every table round.
    """
    step = build_onestep(gens, as_arrow(g))
    algebras = enumerate_algebra_structures(step)
    sets = square_filler_sets(step)
    tables = [LiftingTable(step, choice) for choice in itertools.product(*sets)]
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
        back = algebra_from_fillers(t)
        if maps_equal(back.structure, alg.structure):
            settled.add(m)
        else:
            problems.append(f"round trip through tables moves algebra {n}")
    for m, t in enumerate(tables):
        if m in settled:
            continue
        back = fillers_from_algebra(algebra_from_fillers(t))
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
    """Index of the table with these fillers among the tables of `sets`, if any.

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
    gens = first.step.gens
    if gens != second.step.gens:
        raise IncompatibleInput("compose_lifting_tables: tables use different generating sets")
    f, g = first.step.arrow, second.step.arrow
    step = build_onestep(gens, as_arrow(compose_maps(g.f, f.f)))
    fillers = []
    for i, sq in step.squares:
        j = gens.members[i]
        through = second.lookup(i, Square(source=j, target=g, top=compose_maps(f.f, sq.top), bottom=sq.bottom))
        fillers.append(first.lookup(i, Square(source=j, target=f, top=sq.top, bottom=through)))
    table = LiftingTable(step, tuple(fillers))
    problems = validate_table(table)
    if problems:
        raise InternalCheckFailed(f"composite table is invalid: {problems[0]}")
    return table

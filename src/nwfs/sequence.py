"""Iterated factorisation sequences and the comparison between them.

Two modes share the bookkeeping. The free mode folds each new step back onto
the previous one with a coequalizer, so cells that an earlier stage already
provided get identified instead of duplicated; convergence at a finite stage
is then detectable as the connecting map becoming an isomorphism. The plain
mode just re-applies the step and never identifies anything.

Budgets are organised in blocks of successor steps. Between blocks the
sequence passes to the colimit of the chain built so far (a limit stage).
A finite chain's colimit is its last stage, numbered in order of first
appearance (`colimits.chain_colimit`), and on a run's chain that numbering
is the last stage's own: every link numbers its source's image first, in
first-appearance order, since `attach` puts the block X/~ first in X's
order and `quotient` numbers classes by their least member. So a limit
stage is the stage below it, its link the identity, which the convergence
test skips. `stage_schedule` is the one place that orders the stages; the
runners and the certificate validator all consume it.

A run lists each generator's square bottoms once, not once per stage: they
run from the generator's codomain to D, where every stage ends, so they
depend on the generator and D alone (`arrows.BottomIndex`). They go when
the run does.

Every free stage after the first is built by one step. The one-step middle
of the current stage is coequalized against the folds below it: after a
successor stage that is the previous fold alone, after a limit stage every
fold in the chain. The pair leaves the colimit of the step middles carrying
those folds, and it leaves through that chain's last stage, since the
colimit is that stage renumbered: one map goes through the last fold and the
links up to the current stage, the other applies the step functor to those
links. The step functor takes composites to composites, so it is applied
once per stage: each free stage carries the connecting map from the last
fold below it up to itself, the run keeps that carry as the link of every
later colimit that reaches the stage (across a limit stage too), and the
second map is the current stage's carry read through the renumbering.

A free run stands still from its convergence on. A bijective run link is
the identity, by the numbering above. After an identity link a free pair
identifies each step element with its fold's image under the step's left
half, so the next fold has the kernel of the fold below and, numbered by
least member, is that fold (a web re-keys the pair but changes no pair of
values): every link after `converged_at` is the identity.
Once the links into the last two stages, both successors, are identities,
the next successor stage is the last one again, with the stage below's
link, step, fold, pair and carry, and nothing is built.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator

from .arrows import ArrowObj, BottomIndex, GeneratingSet, as_arrow, square_fixing_codomain
from .colimits import chain_colimit, chain_composites, coequalizer, induce
from .core import (
    IncompatibleInput,
    InternalCheckFailed,
    Presheaf,
    PresheafMap,
    compose_maps,
    composite_equals,
    identity_map,
    is_iso,
    is_surjective,
)
from .onestep import OneStepFactorization, build_onestep, onestep_on_square

FREE = "free"
PLAIN = "plain"


@dataclass(frozen=True)
class OrdinalBudget:
    """How far a run may iterate.

    `successors_per_block` bounds the successor steps inside one block and
    `omega_blocks` is the number of blocks; a limit stage is interposed
    between consecutive blocks, so a budget of b blocks allows b - 1 limit
    stages.
    """

    successors_per_block: int = 32
    omega_blocks: int = 1

    def __post_init__(self):
        if self.successors_per_block < 1:
            raise IncompatibleInput("successors_per_block must be at least 1")
        if self.omega_blocks < 1:
            raise IncompatibleInput("omega_blocks must be at least 1")


@dataclass(frozen=True)
class Stage:
    """One stage of a factorisation sequence: C -> mid -> D."""

    index: int
    ordinal: str
    kind: str  # "zero", "onestep", "successor" or "limit"
    mid: Presheaf
    left: PresheafMap
    right: PresheafMap


@dataclass(frozen=True)
class SequenceState:
    """A run of either sequence, as far as it has been built.

    Indexing: `links[i]` connects stage i to stage i + 1, `steps[i]` is the
    one-step factorisation of stage i's right part when it was needed, and
    for the free mode `folds[i]` maps that step's middle onto stage i + 1.
    `pairs[i]` records the parallel pair whose coequalizer produced stage
    i + 1, when one was taken, and `carries[i]` the step functor on the
    connecting map from the last fold below stage i up to it, taken on the
    way. `steps`, `folds`, `pairs` and `carries` have one entry per stage,
    so the last stage's entries are `None`.
    """

    mode: str
    gens: GeneratingSet
    arrow: ArrowObj
    budget: OrdinalBudget
    stages: tuple[Stage, ...]
    links: tuple[PresheafMap, ...]
    steps: tuple[OneStepFactorization | None, ...]
    folds: tuple[PresheafMap | None, ...]
    pairs: tuple[tuple[PresheafMap, PresheafMap] | None, ...]
    carries: tuple[PresheafMap | None, ...]
    converged_at: int | None

    @property
    def exhausted(self) -> bool:
        return self.converged_at is None

    def extended(self, stage: Stage, link: PresheafMap, step=None, fold=None, pair=None, carry=None) -> SequenceState:
        """The run with one more stage, the link into it and the step data of the stage before it.

        The run converges at the first non-limit link that is an isomorphism.
        """
        converged_at = self.converged_at
        if stage.kind != "limit" and converged_at is None and is_iso(link):
            converged_at = stage.index - 1
        return replace(
            self,
            stages=self.stages + (stage,),
            links=self.links + (link,),
            steps=self.steps[:-1] + (step, None),
            folds=self.folds[:-1] + (fold, None),
            pairs=self.pairs[:-1] + (pair, None),
            carries=self.carries[:-1] + (carry, None),
            converged_at=converged_at,
        )

    def step_of(self, i: int) -> OneStepFactorization:
        built = self.steps[i]
        if built is None:
            raise IncompatibleInput(f"one-step data for stage {i} was not built")
        return built

    def connect_all(self, j: int) -> list[PresheafMap]:
        """The composite connecting maps into stage j: entry i runs from stage i, for every i <= j."""
        if not 0 <= j < len(self.stages):
            raise IncompatibleInput(f"connect_all({j}) out of range for {len(self.stages)} stages")
        return chain_composites(self.links[:j], self.stages[j].mid)

    @property
    def cardinalities(self) -> list[dict[str, int]]:
        return [stage.mid.sizes for stage in self.stages]

    @property
    def work(self) -> dict[str, int]:
        """Deterministic size counters, used by certificates instead of clocks."""
        return {
            "stages": len(self.stages),
            "steps_built": sum(1 for s in self.steps if s is not None),
            "squares": sum(len(s.squares) for s in self.steps if s is not None),
            "elements": sum(stage.mid.total_size for stage in self.stages),
        }


def _carry(top: PresheafMap, source_step: OneStepFactorization, target_step: OneStepFactorization) -> PresheafMap:
    """The step functor on the square between two factored right halves.

    `top` runs between their domains, and the identity of D is the bottom.
    """
    square = square_fixing_codomain(source_step.arrow, target_step.arrow, top)
    return onestep_on_square(square, source_step, target_step)


def _ordinal_label(block: int, offset: int) -> str:
    if block == 0:
        return str(offset)
    prefix = "ω" if block == 1 else f"ω·{block}"
    return prefix if offset == 0 else f"{prefix}+{offset}"


def _first_step(run: SequenceState, ordinal: str, bottoms: tuple[BottomIndex, ...]) -> SequenceState:
    """Stage 1 (or the stage after a limit in plain mode): apply the step."""
    last = run.stages[-1]
    step = build_onestep(run.gens, ArrowObj(last.right), bottoms)
    fold = identity_map(step.mid) if run.mode == FREE else None
    stage = Stage(
        index=last.index + 1,
        ordinal=ordinal,
        kind="onestep",
        mid=step.mid,
        left=compose_maps(step.left, last.left),
        right=step.right,
    )
    return run.extended(stage, link=step.left, step=step, fold=fold)


def _limit_stage(run: SequenceState, block: int) -> SequenceState:
    """Pass to the colimit of the chain built so far: its last stage, with an identity link.

    `chain_colimit` would number that stage in order of first appearance
    along the chain, and every link of a run numbers its source's image
    first, in that order, so the numbering is the stage's own.
    """
    last = run.stages[-1]
    stage = replace(last, index=last.index + 1, ordinal=_ordinal_label(block, 0), kind="limit")
    return run.extended(stage, link=identity_map(last.mid))


def _free_step(run: SequenceState, ordinal: str, bottoms: tuple[BottomIndex, ...]) -> SequenceState:
    """Free-mode stage: coequalize the new step against the folds below it.

    After a successor stage the only fold below is the previous one; after a
    limit stage it is every fold in the chain. The step middles carrying
    those folds form a chain of their own, and both maps of the pair leave
    its colimit through its last member, which the colimit only renumbers:
    one through the last fold and up to the current stage, the other
    through the step functor. The chain's links are carries the run kept
    from earlier stages, and the one new carry runs from its last member up
    to the current stage; the run keeps it in turn. The first map's
    targets must agree along the links, which is checked.

    When the last two stages are successors and the run converged by the
    link into the first of them, both links into them are identities, and
    the new stage repeats the last with the stage below's entries (see the
    module docstring).
    """
    last = run.stages[-1]
    top = last.index
    if run.converged_at is not None and run.converged_at < top - 1 and run.stages[top - 1].kind == last.kind == "successor":
        i = top - 1
        stage = replace(last, index=top + 1, ordinal=ordinal)
        return run.extended(stage, run.links[i], run.steps[i], run.folds[i], run.pairs[i], run.carries[i])
    if last.kind == "limit":
        below = [i for i in range(top) if run.folds[i] is not None]
    else:
        below = [top - 1]
    if not below or run.folds[below[0]] is None:
        raise IncompatibleInput("free step without a fold to coequalize against")
    step = build_onestep(run.gens, ArrowObj(last.right), bottoms)

    # to_top[i - low] is connect_all(top)[i], from one backward sweep
    low, high = below[0], below[-1]
    to_top = chain_composites(run.links[low:top], last.mid)
    # The step functor on the link between consecutive folds i < j: every
    # fold but the first was coequalized at its own stage j, which carried
    # connect_all(j)[i] then, also across a limit stage between them.
    web_links = [run.carries[j] for j in below[1:]]
    web = chain_colimit(web_links, start=run.step_of(low).mid)
    targets = [compose_maps(step.left, compose_maps(to_top[i + 1 - low], run.folds[i])) for i in below]
    for n, link in enumerate(web_links):
        if not composite_equals(targets[n + 1], link, targets[n]):
            raise InternalCheckFailed(f"free step: the folds below stage {top} disagree along web link {n}")
    # the second map's targets are `up` after the web's own composites, so
    # they agree by construction; the tests compare a web with every leg
    up = _carry(to_top[high - low], run.step_of(high), step)
    # both maps leave the web through its last leg, a bijection
    into = web.legs[-1].components
    first, second = (
        PresheafMap(web.apex, step.mid, {a: {y: t.components[a][x] for x, y in into[a].items()} for a in into})
        for t in (targets[-1], up)
    )
    coeq = coequalizer(first, second)
    fold = coeq.legs[0]
    link = compose_maps(fold, step.left)
    stage = Stage(
        index=top + 1,
        ordinal=ordinal,
        kind="successor",
        mid=coeq.apex,
        left=compose_maps(link, last.left),
        right=induce(coeq, [step.right], run.arrow.cod),
    )
    return run.extended(stage, link=link, step=step, fold=fold, pair=(first, second), carry=up)


def stage_schedule(
    mode: str,
    gens: GeneratingSet,
    g: PresheafMap | ArrowObj,
    budget: OrdinalBudget,
) -> Iterator[SequenceState]:
    """The stages of a run in the order its budget takes them, one at a time.

    Yields the run so far: first stage 0 alone, then once after each stage
    it adds, until the budget is spent. It builds a stage only when asked
    for it, so a consumer decides where the run ends: `run_free` and
    `run_plain` stop at convergence when told to, and the certificate
    validator after the stages a certificate records.
    """
    arrow = as_arrow(g)
    if gens.members and not arrow.f.source.base == gens.members[0].f.source.base:
        raise IncompatibleInput("generating set and arrow live over different base categories")
    C = arrow.f.source
    run = SequenceState(
        mode, gens, arrow, budget,
        stages=(Stage(0, "0", "zero", C, identity_map(C), arrow.f),),
        links=(), steps=(None,), folds=(None,), pairs=(None,), carries=(None,), converged_at=None,
    )
    yield run
    bottoms = tuple(BottomIndex(j, arrow.cod) for j in gens.members)
    for block in range(budget.omega_blocks):
        if block > 0:
            run = _limit_stage(run, block)
            yield run
        for taken in range(budget.successors_per_block):
            add = _first_step if mode == PLAIN or run.stages[-1].kind == "zero" else _free_step
            run = add(run, _ordinal_label(block, taken + 1), bottoms)
            yield run


def _until(schedule: Iterator[SequenceState], stop_at_convergence: bool) -> SequenceState:
    """The run a schedule has built when its budget is spent, or once it converges if told to stop there."""
    for state in schedule:
        if stop_at_convergence and state.converged_at is not None:
            break
    return state


def run_free(
    gens: GeneratingSet,
    g: PresheafMap | ArrowObj,
    budget: OrdinalBudget | None = None,
    stop_at_convergence: bool = True,
) -> SequenceState:
    """Run the free sequence on g until convergence or budget exhaustion."""
    return _until(stage_schedule(FREE, gens, g, budget or OrdinalBudget()), stop_at_convergence)


def run_plain(
    gens: GeneratingSet,
    g: PresheafMap | ArrowObj,
    budget: OrdinalBudget | None = None,
    stop_at_convergence: bool = True,
) -> SequenceState:
    """Run the plain re-application sequence on g under the same budget rules."""
    return _until(stage_schedule(PLAIN, gens, g, budget or OrdinalBudget()), stop_at_convergence)


@dataclass(frozen=True)
class ComparisonReport:
    """Stagewise comparison from the plain sequence onto the free one.

    `maps[n]` runs from the plain stage n middle to the free stage n middle.
    Each map must commute with both factorisation halves and be
    componentwise surjective; `ok` records the conjunction over all stages.
    """

    maps: tuple[PresheafMap, ...]
    left_commutes: tuple[bool, ...]
    right_commutes: tuple[bool, ...]
    surjective: tuple[bool, ...]

    @property
    def ok(self) -> bool:
        return all(self.left_commutes) and all(self.right_commutes) and all(self.surjective)


def build_comparison(free: SequenceState, plain: SequenceState) -> ComparisonReport:
    """Compare a plain run against a free run of the same input.

    Stage patterns must line up, which holds whenever both runs used the same
    budget and the free run was told not to stop early.
    """
    if free.mode != FREE or plain.mode != PLAIN:
        raise IncompatibleInput("build_comparison expects (free run, plain run) in that order")
    if free.gens != plain.gens:
        raise IncompatibleInput("the two runs used different generating sets")
    if free.arrow.f.components != plain.arrow.f.components:
        raise IncompatibleInput("the two runs factored different arrows")
    n_stages = min(len(free.stages), len(plain.stages))
    for n in range(n_stages):
        if free.stages[n].kind != plain.stages[n].kind and {
            free.stages[n].kind,
            plain.stages[n].kind,
        } != {"onestep", "successor"}:
            raise IncompatibleInput(f"stage {n} kinds differ between the runs")

    # both runs start at the arrow's domain
    maps = [PresheafMap(plain.stages[0].mid, free.stages[0].mid, identity_map(plain.stages[0].mid).components)]
    for n in range(1, n_stages):
        if plain.stages[n].kind == "limit":
            # both limit stages are the stages below them; the map below
            # must commute with the connecting maps from every earlier stage
            below = maps[n - 1]
            into_plain, into_free = plain.connect_all(n - 1), free.connect_all(n - 1)
            for i in range(n - 1):
                if not composite_equals(below, into_plain[i], compose_maps(into_free[i], maps[i])):
                    raise IncompatibleInput(f"comparison: map {i} does not commute with the links into limit stage {n}")
            maps.append(below)
            continue
        carried = _carry(maps[n - 1], plain.step_of(n - 1), free.step_of(n - 1))
        fold = free.folds[n - 1]
        maps.append(carried if fold is None else compose_maps(fold, carried))

    left_ok = []
    right_ok = []
    surj = []
    for n in range(n_stages):
        q = maps[n]
        left_ok.append(composite_equals(q, plain.stages[n].left, free.stages[n].left))
        right_ok.append(composite_equals(free.stages[n].right, q, plain.stages[n].right))
        surj.append(is_surjective(q))
    return ComparisonReport(
        maps=tuple(maps),
        left_commutes=tuple(left_ok),
        right_commutes=tuple(right_ok),
        surjective=tuple(surj),
    )

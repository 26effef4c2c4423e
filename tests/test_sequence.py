import random
from collections import Counter

import pytest
from hypothesis import given, settings

from conftest import chain_legs, edge_to_point, finset, random_set_map, set_map, set_maps
from test_colimits import quotient_of_coproduct
from nwfs import arrows, sequence
from nwfs.arrows import ArrowObj, BottomIndex, Square, as_arrow, enumerate_squares, generating_squares
from nwfs.catalog import get_category, get_gens, representable, terminal_presheaf
from nwfs.colimits import Cocone, chain_colimit, chain_composites, coequalizer, induce
from nwfs.core import IncompatibleInput, PresheafMap, compose_maps, identity_map, is_iso, maps_equal
from nwfs.onestep import build_onestep, onestep_on_square
from nwfs.sequence import (
    FREE,
    PLAIN,
    OrdinalBudget,
    Stage,
    build_comparison,
    run_free,
    run_plain,
)

POINT = get_gens("point")
CODIAG = get_gens("codiagonal")


def test_budget_rejects_nonsense():
    with pytest.raises(IncompatibleInput):
        OrdinalBudget(successors_per_block=0)
    with pytest.raises(IncompatibleInput):
        OrdinalBudget(successors_per_block=3, omega_blocks=0)


def test_horns_on_the_interval_follow_the_closed_forms():
    # horns<=1 on the terminal map out of Δ[1]: the free middles grow as
    # 12·2ⁿ − 7 and the plain ones as 2·3ⁿ⁺¹ − 1
    base = get_category("delta<=1")
    edge, point = representable(base, "1"), terminal_presheaf(base)
    g = PresheafMap(edge, point, {a: dict.fromkeys(edge.carrier[a], 0) for a in base.objects})
    gens, budget = get_gens("horns<=1"), OrdinalBudget(4, 1)
    free = run_free(gens, g, budget=budget)
    plain = run_plain(gens, g, budget=budget)
    assert [s.mid.total_size for s in free.stages] == [12 * 2**n - 7 for n in range(5)] == [5, 17, 41, 89, 185]
    assert [s.mid.total_size for s in plain.stages] == [2 * 3 ** (n + 1) - 1 for n in range(5)] == [5, 17, 53, 161, 485]
    assert free.exhausted and plain.exhausted


def test_plain_point_growth_follows_the_recurrence():
    # with a single empty-domain generator each step glues one fresh copy of
    # the target, so the middles grow by |D| every stage
    g = set_map(2, 3, [0, 2])
    state = run_plain(POINT, g, budget=OrdinalBudget(5, 1))
    expected = [2 + 3 * n for n in range(6)]
    assert [s.mid.total_size for s in state.stages] == expected
    assert state.converged_at is None and state.exhausted
    assert state.mode == PLAIN


def test_free_point_run_stops_immediately():
    g = set_map(2, 3, [0, 2])
    state = run_free(POINT, g)
    assert state.mode == FREE
    assert state.converged_at == 1
    assert not state.exhausted
    assert state.stages[1].mid.total_size == 5


def test_free_codiagonal_is_image_factorisation():
    rng = random.Random(7)
    for _ in range(10):
        g = random_set_map(rng, max_size=5, min_source=1)
        state = run_free(CODIAG, g)
        assert state.converged_at is not None
        stage = state.stages[state.converged_at]
        image_size = len(set(g.components["0"].values()))
        assert stage.mid.total_size == image_size


def test_every_stage_factors_the_arrow():
    g = set_map(3, 2, [0, 0, 1])
    for state in (run_free(POINT, g, budget=OrdinalBudget(3, 1)),
                  run_plain(POINT, g, budget=OrdinalBudget(3, 1))):
        for stage in state.stages:
            assert maps_equal(compose_maps(stage.right, stage.left), g)
        for i, link in enumerate(state.links):
            assert maps_equal(state.stages[i + 1].left, compose_maps(link, state.stages[i].left))
            assert maps_equal(compose_maps(state.stages[i + 1].right, link), state.stages[i].right)


def test_folds_collapse_the_step_middles():
    g = set_map(2, 2, [0, 0])
    state = run_free(POINT, g, budget=OrdinalBudget(3, 1), stop_at_convergence=False)
    for i, fold in enumerate(state.folds):
        if fold is None:
            continue
        step = state.steps[i]
        assert maps_equal(state.links[i], compose_maps(fold, step.left))
        u1, u2 = state.pairs[i] if state.pairs[i] else (None, None)
        if u1 is not None:
            assert maps_equal(compose_maps(fold, u1), compose_maps(fold, u2))


def test_first_coequalizer_pair_is_the_pinned_one():
    g = set_map(2, 3, [1, 1])
    state = run_free(POINT, g, budget=OrdinalBudget(2, 1), stop_at_convergence=False)
    s0 = build_onestep(POINT, as_arrow(g))
    s1 = build_onestep(POINT, as_arrow(state.stages[1].right))
    first, second = state.pairs[1]
    assert maps_equal(first, s1.left)
    expected_second = onestep_on_square(
        Square(
            source=as_arrow(g),
            target=as_arrow(state.stages[1].right),
            top=state.links[0],
            bottom=identity_map(g.target),
        ),
        s0,
        s1,
    )
    assert maps_equal(second, expected_second)


def test_limit_stage_bookkeeping():
    g = set_map(2, 2, [0, 0])
    state = run_free(POINT, g, budget=OrdinalBudget(2, 3), stop_at_convergence=False)
    kinds = [s.kind for s in state.stages]
    assert kinds == ["zero", "onestep", "successor", "limit", "successor", "successor",
                     "limit", "successor", "successor"]
    ordinals = [s.ordinal for s in state.stages]
    assert ordinals == ["0", "1", "2", "ω", "ω+1", "ω+2", "ω·2", "ω·2+1", "ω·2+2"]
    # the link into the limit is an iso, and the limit stage is already
    # numbered as the colimit of the chain up to it
    assert is_iso(state.links[2])
    chain = chain_colimit(state.links[:3], state.stages[0].mid)
    into = state.connect_all(3)
    legs = chain_legs(chain, state.links[:3], state.stages[0].mid)
    for i in range(4):
        assert maps_equal(legs[i], into[i])


def test_connect_composes_links():
    g = set_map(1, 2, [0])
    state = run_plain(POINT, g, budget=OrdinalBudget(3, 1), stop_at_convergence=False)
    assert maps_equal(state.connect_all(0)[0], identity_map(state.stages[0].mid))
    two_step = compose_maps(state.links[1], state.links[0])
    assert maps_equal(state.connect_all(2)[0], two_step)
    with pytest.raises(IncompatibleInput):
        state.connect_all(99)


def interval_to_point():
    base = get_category("delta<=1")
    edge, point = representable(base, "1"), terminal_presheaf(base)
    return PresheafMap(edge, point, {a: dict.fromkeys(edge.carrier[a], 0) for a in base.objects})


def composed_links(state, i: int, j: int):
    """The connecting map from stage i to stage j, one `compose_maps` per link."""
    out = identity_map(state.stages[i].mid)
    for link in state.links[i:j]:
        out = compose_maps(link, out)
    return out


@pytest.mark.parametrize(
    "gens, g, budget",
    [
        (POINT, set_map(2, 2, [0, 0]), OrdinalBudget(2, 3)),
        (CODIAG, set_map(3, 2, [0, 1, 1]), OrdinalBudget(1, 3)),
        (get_gens("horns<=1"), interval_to_point(), OrdinalBudget(1, 3)),
    ],
)
def test_connect_all_gives_every_connect_into_a_stage(gens, g, budget):
    for state in (
        run_free(gens, g, budget=budget, stop_at_convergence=False),
        run_plain(gens, g, budget=budget, stop_at_convergence=False),
    ):
        assert [s.kind for s in state.stages].count("limit") == budget.omega_blocks - 1
        for j in range(len(state.stages)):
            into = state.connect_all(j)
            assert len(into) == j + 1
            for i, got in enumerate(into):
                want = composed_links(state, i, j)
                assert got.source is want.source and got.target is want.target
                assert got.components == want.components
        with pytest.raises(IncompatibleInput):
            state.connect_all(len(state.stages))


def test_convergence_detection_is_sound():
    g = set_map(3, 2, [0, 1, 1])
    state = run_free(CODIAG, g)
    gamma = state.converged_at
    assert gamma is not None
    assert is_iso(state.links[gamma])
    assert all(not is_iso(state.links[i]) for i in range(gamma))


@given(set_maps(max_size=4))
@settings(max_examples=25, deadline=None)
def test_comparison_is_componentwise_surjective(g):
    budget = OrdinalBudget(3, 1)
    free = run_free(POINT, g, budget=budget, stop_at_convergence=False)
    plain = run_plain(POINT, g, budget=budget, stop_at_convergence=False)
    report = build_comparison(free, plain)
    assert report.ok
    assert len(report.maps) == len(free.stages) == len(plain.stages)
    assert maps_equal(report.maps[0], identity_map(g.source))


def test_comparison_rejects_mismatched_runs():
    g = set_map(2, 2, [0, 1])
    h = set_map(2, 2, [0, 0])
    free = run_free(POINT, g, budget=OrdinalBudget(2, 1), stop_at_convergence=False)
    plain = run_plain(POINT, h, budget=OrdinalBudget(2, 1), stop_at_convergence=False)
    with pytest.raises(IncompatibleInput):
        build_comparison(free, plain)


def test_comparison_crosses_limit_stages():
    g = set_map(2, 2, [0, 0])
    budget = OrdinalBudget(2, 2)
    free = run_free(POINT, g, budget=budget, stop_at_convergence=False)
    plain = run_plain(POINT, g, budget=budget, stop_at_convergence=False)
    report = build_comparison(free, plain)
    assert report.ok


def test_work_counters_are_deterministic():
    g = set_map(2, 3, [0, 1])
    a = run_free(POINT, g).work
    b = run_free(POINT, g).work
    assert a == b
    assert set(a) == {"stages", "steps_built", "squares", "elements"}


def web_free_step(run, ordinal, bottoms):
    """The free step that carries every link of the web and every leg of the second map, kept as the reference."""
    last = run.stages[-1]
    top = last.index
    if last.kind == "limit":
        below = [i for i in range(top) if run.folds[i] is not None]
    else:
        below = [top - 1]
    step = build_onestep(run.gens, ArrowObj(last.right))
    low = below[0]
    to_top = chain_composites(run.links[low:top], last.mid)
    web_links = [sequence._carry(run.connect_all(j)[i], run.step_of(i), run.step_of(j)) for i, j in zip(below, below[1:])]
    start = run.step_of(low).mid
    cone = chain_colimit(web_links, start=start)
    web = Cocone(cone.apex, tuple(chain_legs(cone, web_links, start)))
    first = induce(
        web,
        [compose_maps(step.left, compose_maps(to_top[i + 1 - low], run.folds[i])) for i in below],
        step.mid,
    )
    second = induce(web, [sequence._carry(to_top[i - low], run.step_of(i), step) for i in below], step.mid)
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
    return run.extended(stage, link=link, step=step, fold=fold, pair=(first, second))


def every_leg_limit_stage(run, block):
    """The limit stage induced out of the quotient of the coproduct of every stage, kept as the reference."""
    last = run.stages[-1]
    apex, legs = quotient_of_coproduct(list(run.links))
    stage = Stage(
        index=last.index + 1,
        ordinal=sequence._ordinal_label(block, 0),
        kind="limit",
        mid=apex,
        left=compose_maps(legs[-1], last.left),
        right=induce(Cocone(apex, tuple(legs)), [s.right for s in run.stages], run.arrow.cod),
    )
    return run.extended(stage, link=legs[-1])


def free_step_cases():
    rng = random.Random(1801)
    cases = [
        (gens, random_set_map(rng, max_size=4, min_source=1), budget)
        for budget in ((2, 3), (3, 2))
        for gens in (POINT, CODIAG)
        for _ in range(3)
    ]
    return cases + [(get_gens("horns<=1"), edge_to_point(), (2, 2)), (get_gens("horns<=1"), edge_to_point(), (2, 3))]


@pytest.mark.parametrize("gens, g, budget", free_step_cases())
def test_free_step_matches_the_web_that_carries_every_link(monkeypatch, gens, g, budget):
    got = run_free(gens, g, OrdinalBudget(*budget), stop_at_convergence=False)
    with monkeypatch.context() as m:
        m.setattr(sequence, "_free_step", web_free_step)
        want = run_free(gens, g, OrdinalBudget(*budget), stop_at_convergence=False)
    assert sum(s.kind == "limit" for s in got.stages) == budget[1] - 1
    assert len(got.stages) == len(want.stages)
    for n, (a, b) in enumerate(zip(got.stages, want.stages)):
        assert a == b, f"stage {n}"
    assert got.links == want.links
    assert got.folds == want.folds
    assert got.pairs == want.pairs


@pytest.mark.parametrize("gens, g, budget", free_step_cases())
@pytest.mark.parametrize("runner", [run_free, run_plain])
def test_limit_stages_match_the_cocone_that_carries_every_leg(monkeypatch, runner, gens, g, budget):
    got = runner(gens, g, OrdinalBudget(*budget), stop_at_convergence=False)
    with monkeypatch.context() as m:
        m.setattr(sequence, "_limit_stage", every_leg_limit_stage)
        want = runner(gens, g, OrdinalBudget(*budget), stop_at_convergence=False)
    assert sum(s.kind == "limit" for s in got.stages) == budget[1] - 1
    assert len(got.stages) == len(want.stages)
    for n, (a, b) in enumerate(zip(got.stages, want.stages)):
        assert a == b, f"stage {n}"
    assert got.links == want.links
    assert got.folds == want.folds


def test_free_step_carries_each_link_once(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return onestep_on_square(*args, **kwargs)

    monkeypatch.setattr(sequence, "onestep_on_square", counted)
    state = run_free(POINT, set_map(2, 3, [1, 1]), OrdinalBudget(4, 3), stop_at_convergence=False)
    kinds = [s.kind for s in state.stages]
    assert kinds.count("successor") == 11 and kinds.count("limit") == 2
    # one carry per successor stage, up to it from the last fold below it;
    # the web after ω·2 reuses the carry across ω that the stage after ω made
    assert len(calls) == 11


def run_cases():
    sparse = PresheafMap(finset([3, 7, 8]), finset([5, 9]), {"0": {3: 5, 7: 5, 8: 9}})
    return [
        (POINT, set_map(2, 3, [1, 1])),
        (POINT, sparse),
        (CODIAG, set_map(3, 2, [0, 0, 1])),
        (CODIAG, sparse),
        (get_gens("horns<=1"), edge_to_point()),
    ]


@pytest.mark.parametrize("gens, g", run_cases())
@pytest.mark.parametrize("runner", [run_free, run_plain])
def test_every_step_of_a_run_finds_the_squares_of_its_stage(gens, g, runner):
    run = runner(gens, g, OrdinalBudget(2, 2), stop_at_convergence=False)
    assert [s.kind for s in run.stages].count("limit") == 1
    steps = [(n, step) for n, step in enumerate(run.steps) if step is not None]
    assert len(steps) == 4
    for n, step in steps:
        assert step.squares == tuple(generating_squares(gens, ArrowObj(run.stages[n].right))), f"stage {n}"


@pytest.mark.parametrize("gens, g", run_cases())
def test_a_run_lists_each_generators_bottoms_once(monkeypatch, gens, g):
    listed = []
    listing = arrows.enumerate_maps
    monkeypatch.setattr(arrows, "enumerate_maps", lambda X, Y, **kw: listed.append((X, Y)) or listing(X, Y, **kw))
    # a bottom runs from a generator's codomain to g's codomain; generators
    # that share a codomain each list their own
    cods = {id(j.cod) for j in gens.members}
    for runner in (run_free, run_plain):
        for runs in (1, 2):
            runner(gens, g, OrdinalBudget(2, 2), stop_at_convergence=False)
            got = Counter(id(X) for X, Y in listed if id(X) in cods and Y is g.target)
            assert got == Counter(id(j.cod) for j in gens.members for _ in range(runs)), runner.__name__
        listed.clear()


def test_a_bottom_index_rejects_an_arrow_that_ends_elsewhere():
    j = POINT.members[0]
    index = BottomIndex(j, finset(2))
    assert len(enumerate_squares(j, ArrowObj(set_map(1, 2, [0])), index)) == 2
    with pytest.raises(IncompatibleInput, match="bottom index is for another generator or codomain"):
        enumerate_squares(j, ArrowObj(set_map(1, 3, [0])), index)
    with pytest.raises(IncompatibleInput, match="bottom index is for another generator or codomain"):
        enumerate_squares(CODIAG.members[0], ArrowObj(set_map(1, 2, [0])), index)

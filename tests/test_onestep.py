import importlib
import pkgutil

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

import nwfs
from conftest import finset, set_map, set_maps
from test_colimits import CODIAGONAL, DELTA2_PIECES, TWO_INTO_THREE
from test_hom_search import PIECES, reflexive_graphs
from nwfs.arrows import (
    ArrowObj,
    GeneratingSet,
    Square,
    as_arrow,
    enumerate_squares,
    generating_squares,
    identity_square,
    square_fixing_codomain,
    square_fixing_domain,
)
from nwfs.catalog import get_gens, terminal_presheaf
from nwfs.colimits import Cocone, coequalizer, coproduct, induce
from nwfs.core import (
    IncompatibleInput,
    PresheafMap,
    compose_maps,
    enumerate_maps,
    identity_map,
    is_injective,
    maps_equal,
    validate,
)
from nwfs.jsonio import cells_doc, components_doc
from nwfs.onestep import build_onestep, onestep_on_square
from nwfs.sequence import OrdinalBudget, run_free

POINT = get_gens("point")
CODIAG = get_gens("codiagonal")
HORNS = get_gens("horns<=1")
HORNS2 = get_gens("horns<=2")
# point and codiagonal again, with ids that are not 0..n-1: square keys are rows
# of maps out of the generators, so a generator's carriers are what a key reads
SPARSE_GENS = GeneratingSet(
    members=(
        ArrowObj(PresheafMap(finset([]), finset([7]), {"0": {}})),
        ArrowObj(PresheafMap(finset([4, 9]), finset([6]), {"0": {4: 6, 9: 6}})),
    )
)


def test_generating_squares_counts_for_point():
    g = set_map(2, 3, [1, 1])
    squares = generating_squares(POINT, as_arrow(g))
    # the generator has an empty domain, so squares = elements of the target
    assert [sq.bottom.components["0"][0] for _, sq in squares] == [0, 1, 2]


def test_point_step_is_plain_coproduct():
    g = set_map(2, 3, [1, 1])
    step = build_onestep(POINT, as_arrow(g))
    assert step.mid.sizes == {"0": 5}
    assert maps_equal(compose_maps(step.right, step.left), g)
    assert is_injective(step.left)
    # left embeds the source first, cells append the target afterwards
    assert step.left.components["0"] == {0: 0, 1: 1}
    assert step.right.components["0"] == {0: 1, 1: 1, 2: 0, 3: 1, 4: 2}


def test_codiagonal_step_is_kernel_quotient():
    g = set_map(4, 2, [0, 0, 1, 1])
    step = build_onestep(CODIAG, as_arrow(g))
    # gluing both members of every fiber collapses onto the image
    assert step.mid.sizes == {"0": 2}
    assert maps_equal(compose_maps(step.right, step.left), g)
    assert validate(step.mid) == []


def test_step_with_no_squares_is_trivial():
    g = set_map(0, 0, [])
    step = build_onestep(POINT, as_arrow(g))
    assert step.squares == ()
    assert step.mid.sizes == {"0": 0}
    assert maps_equal(compose_maps(step.right, step.left), g)


@given(set_maps())
@settings(max_examples=50)
def test_step_factors_the_arrow(g):
    for gens in (POINT, CODIAG):
        step = build_onestep(gens, as_arrow(g))
        assert maps_equal(compose_maps(step.right, step.left), g)
        assert validate(step.mid) == []
        assert validate(step.left) == [] and validate(step.right) == []


@given(set_maps(max_size=4))
@settings(max_examples=40)
def test_step_cocone_is_jointly_surjective(g):
    step = build_onestep(CODIAG, as_arrow(g))
    covered = set(step.left.components["0"].values())
    for n in range(len(step.squares)):
        covered |= set(step.cell_leg(n).components["0"].values())
    assert covered == set(step.mid.carrier["0"])


def test_identity_square_induces_identity():
    g = as_arrow(set_map(3, 2, [0, 1, 0]))
    step = build_onestep(CODIAG, g)
    induced = onestep_on_square(identity_square(g), step, step)
    assert maps_equal(induced, identity_map(step.mid))


def test_on_square_is_functorial():
    f = as_arrow(set_map(2, 2, [0, 0]))
    g = as_arrow(set_map(3, 2, [0, 0, 1]))
    h = as_arrow(set_map(3, 3, [0, 1, 1]))
    sq1 = Square(source=f, target=g, top=set_map(2, 3, [1, 0]), bottom=set_map(2, 2, [0, 1]))
    sq2 = Square(source=g, target=h, top=set_map(3, 3, [0, 0, 1]), bottom=set_map(2, 3, [0, 1]))
    sf, sg, sh = (build_onestep(POINT, a) for a in (f, g, h))
    one = onestep_on_square(sq1, sf, sg)
    two = onestep_on_square(sq2, sg, sh)
    both = onestep_on_square(
        Square(source=f, target=h, top=compose_maps(sq2.top, sq1.top), bottom=compose_maps(sq2.bottom, sq1.bottom)),
        sf,
        sh,
    )
    assert maps_equal(both, compose_maps(two, one))


def test_on_square_commutes_with_the_step_halves():
    f = as_arrow(set_map(2, 2, [0, 0]))
    g = as_arrow(set_map(3, 2, [0, 0, 1]))
    sq = Square(source=f, target=g, top=set_map(2, 3, [0, 0]), bottom=set_map(2, 2, [0, 1]))
    sf, sg = build_onestep(POINT, f), build_onestep(POINT, g)
    induced = onestep_on_square(sq, sf, sg)
    assert maps_equal(compose_maps(induced, sf.left), compose_maps(sg.left, sq.top))
    assert maps_equal(compose_maps(sg.right, induced), compose_maps(sq.bottom, sf.right))


def test_on_square_rejects_noncommuting_input():
    f = as_arrow(set_map(1, 1, [0]))
    g = as_arrow(set_map(2, 2, [0, 1]))
    bad = Square(source=f, target=g, top=set_map(1, 2, [0]), bottom=set_map(1, 2, [1]))
    with pytest.raises(IncompatibleInput):
        onestep_on_square(bad, build_onestep(POINT, f), build_onestep(POINT, g))


def test_new_cell_rides_above_the_old_one():
    # factoring the generator itself: the induced endo-map of middles sends
    # the original cell onto the cell of the pasted square, not onto itself
    j = POINT.members[0]
    s0 = build_onestep(POINT, j)
    assert s0.mid.sizes == {"0": 1}
    rho = as_arrow(s0.right)
    s1 = build_onestep(POINT, rho)
    assert s1.mid.sizes == {"0": 2}
    lift = onestep_on_square(Square(source=j, target=rho, top=s0.left, bottom=identity_map(j.f.target)), s0, s1)
    assert lift.components["0"] == {0: 1}
    assert s1.left.components["0"] == {0: 0}


def test_on_square_out_of_the_empty_arrow_is_the_empty_map():
    empty, g = set_map(0, 0, []), set_map(0, 2, [])
    sq = Square(source=as_arrow(empty), target=as_arrow(g), top=empty, bottom=g)
    target_step = build_onestep(POINT, sq.target)
    induced = onestep_on_square(sq, build_onestep(POINT, sq.source), target_step)
    assert induced.source.sizes == {"0": 0}
    assert induced.target is target_step.mid
    assert induced.components == {"0": {}}


def staged_onestep(gens, g):
    """The one-step middle built in stages, kept as the reference.

    Sum the generator domains and codomains, induce the summed generator, the
    attaching map and the projection out of the sums, push the summed
    generator out along the attaching map (a coproduct, then a coequalizer),
    and induce the right half out of that pushout.
    """
    base = g.f.source.base
    squares = generating_squares(gens, g)
    gen_domains = coproduct([gens.members[i].dom for i, _ in squares], base=base)
    gen_codomains = coproduct([gens.members[i].cod for i, _ in squares], base=base)
    gen_sum = induce(
        gen_domains,
        [compose_maps(gen_codomains.legs[n], gens.members[i].f) for n, (i, _) in enumerate(squares)],
        gen_codomains.apex,
    )
    attach = induce(gen_domains, [sq.top for _, sq in squares], g.dom)
    project = induce(gen_codomains, [sq.bottom for _, sq in squares], g.cod)
    both = coproduct([g.dom, gen_codomains.apex])
    proj = coequalizer(compose_maps(both.legs[0], attach), compose_maps(both.legs[1], gen_sum)).legs[0]
    left, cells = (compose_maps(proj, leg) for leg in both.legs)
    right = induce(Cocone(proj.target, (left, cells)), [g.f, project], g.cod)
    cell_legs = [compose_maps(cells, leg) for leg in gen_codomains.legs]
    return proj.target, left, right, cells, cell_legs


@st.composite
def set_maps_with_ids(draw, max_size: int = 5):
    """A set map whose two sets carry random element ids."""
    n_src = draw(st.integers(0, max_size))
    n_tgt = draw(st.integers(1 if n_src else 0, max_size))
    src = finset(draw(st.lists(st.integers(0, 20), min_size=n_src, max_size=n_src, unique=True)))
    tgt = finset(draw(st.lists(st.integers(0, 20), min_size=n_tgt, max_size=n_tgt, unique=True)))
    return PresheafMap(src, tgt, {"0": {x: draw(st.sampled_from(tgt.carrier["0"])) for x in src.carrier["0"]}})


@st.composite
def graph_maps(draw):
    """A reflexive-graph map, drawn from all maps between two random graphs."""
    X = draw(reflexive_graphs(0, 2, 2))
    Y = draw(reflexive_graphs(1, 3, 3))
    maps = enumerate_maps(X, Y)
    return maps[draw(st.integers(0, len(maps) - 1))]


@st.composite
def delta2_maps(draw):
    """A map over delta<=2 between two small pieces, drawn from all maps between them."""
    X = draw(st.sampled_from(PIECES))
    Y = draw(st.sampled_from(PIECES + (terminal_presheaf(X.base),)))
    maps = enumerate_maps(X, Y)
    assume(maps)
    return maps[draw(st.integers(0, len(maps) - 1))]


@given(st.one_of(st.tuples(st.just(HORNS), graph_maps()), st.tuples(st.just(HORNS2), delta2_maps())))
@settings(max_examples=60, deadline=None)
def test_square_index_holds_one_key_per_square(case):
    gens, g = case
    step = build_onestep(gens, as_arrow(g))
    assert len(step.square_keys) == len(step.squares)
    assert [step.square_index[key] for key in step.square_keys] == list(range(len(step.squares)))


@given(
    st.one_of(
        st.tuples(st.sampled_from([POINT, CODIAG]), set_maps_with_ids()),
        st.tuples(st.just(HORNS), graph_maps()),
    )
)
@settings(max_examples=80, deadline=None)
def test_onestep_matches_the_staged_construction(case):
    gens, g = case
    step = build_onestep(gens, as_arrow(g))
    mid, left, right, cells, cell_legs = staged_onestep(gens, as_arrow(g))
    assert dict(step.mid.carrier) == dict(mid.carrier)
    assert {m: dict(act) for m, act in step.mid.action.items()} == {m: dict(act) for m, act in mid.action.items()}
    assert step.left.components == left.components
    assert step.right.components == right.components
    assert len(step.squares) == len(cell_legs)
    for n, leg in enumerate(cell_legs):
        assert step.cell_leg(n).components == leg.components
    assert cells_doc(step.cocone.legs[1:], mid.base.objects) == components_doc(cells)


def pasted_onestep(sq, source_step, target_step):
    """The step on a square by composing every source square with it, kept as the reference.

    Each pasted square is found by a search over the target step's squares
    for the same generator and equal top and bottom components, so the
    reference does not read the step's square keys.
    """
    cell_targets = []
    for i, s in source_step.squares:
        top, bottom = compose_maps(sq.top, s.top), compose_maps(sq.bottom, s.bottom)
        (n,) = [
            n
            for n, (k, t) in enumerate(target_step.squares)
            if k == i and t.top.components == top.components and t.bottom.components == bottom.components
        ]
        cell_targets.append(target_step.cell_leg(n))
    return induce(source_step.cocone, [compose_maps(target_step.left, sq.top)] + cell_targets, target_step.mid)


@st.composite
def squares_between(draw, arrows):
    """A commuting square between two arrows drawn from `arrows`, if there is one."""
    f, g = as_arrow(draw(arrows)), as_arrow(draw(arrows))
    squares = enumerate_squares(f, g)
    assume(squares)
    return squares[draw(st.integers(0, len(squares) - 1))]


@given(
    st.one_of(
        st.tuples(st.sampled_from([POINT, CODIAG, SPARSE_GENS]), squares_between(set_maps_with_ids(max_size=3))),
        st.tuples(st.just(HORNS), squares_between(graph_maps())),
    )
)
@settings(max_examples=80, deadline=None)
def test_on_square_matches_the_composed_pasting(case):
    gens, sq = case
    source_step, target_step = build_onestep(gens, sq.source), build_onestep(gens, sq.target)
    got = onestep_on_square(sq, source_step, target_step)
    want = pasted_onestep(sq, source_step, target_step)
    assert got.source is source_step.mid and got.target is target_step.mid
    assert got.components == want.components


def test_on_square_rejects_a_step_of_another_arrow():
    f = as_arrow(set_map(2, 2, [0, 0]))
    g = as_arrow(set_map(3, 2, [0, 0, 1]))
    sq = Square(source=f, target=g, top=set_map(2, 3, [0, 0]), bottom=set_map(2, 2, [0, 1]))
    sf, sg = build_onestep(POINT, f), build_onestep(POINT, g)
    # the same domain as g but another codomain
    sh = build_onestep(POINT, as_arrow(set_map(3, 3, [0, 0, 1])))
    with pytest.raises(IncompatibleInput, match="source_step"):
        onestep_on_square(sq, sg, sg)
    with pytest.raises(IncompatibleInput, match="target_step"):
        onestep_on_square(sq, sf, sf)
    with pytest.raises(IncompatibleInput, match="target_step"):
        onestep_on_square(sq, sf, sh)


@pytest.mark.parametrize("side", ["source", "target"])
def test_on_square_rejects_a_step_of_another_arrow_with_the_same_ends(side):
    g = as_arrow(set_map(3, 2, [0, 0, 1]))
    step = build_onestep(CODIAG, g)
    steps = {"source_step": step, "target_step": step, f"{side}_step": build_onestep(CODIAG, as_arrow(set_map(3, 2, [1, 1, 0])))}
    with pytest.raises(IncompatibleInput, match=f"{side}_step does not factor the square's {side} arrow"):
        onestep_on_square(identity_square(g), **steps)


def test_on_square_rejects_steps_of_different_generating_sets():
    # the generating set is read off the steps, so they must share it
    g = as_arrow(set_map(3, 2, [0, 0, 1]))
    with pytest.raises(IncompatibleInput, match="different generating sets"):
        onestep_on_square(identity_square(g), build_onestep(POINT, g), build_onestep(CODIAG, g))


def twin(v):
    """A map equal to v that is another object."""
    return PresheafMap(v.source, v.target, {a: dict(c) for a, c in v.components.items()})


@st.composite
def layout_cases(draw):
    """A generating set and an arrow to factor, drawn as the `attach` tests draw spans.

    Horns over delta<=2 into a small simplicial set, each the catalog's own
    object and possibly listed twice, so that the cells of one generator
    share its template; sets under the codiagonal, an injection 2 -> 3 out
    of its source and the point; and either with one generator beside an
    equal but distinct twin.
    """
    if draw(st.booleans()):
        members = draw(st.lists(st.sampled_from(HORNS2.members), min_size=1, max_size=3))
        maps = enumerate_maps(draw(st.sampled_from(DELTA2_PIECES)), draw(st.sampled_from(DELTA2_PIECES)))
        assume(maps)
        g = draw(st.sampled_from(maps))
    else:
        vs = draw(st.lists(st.sampled_from([CODIAGONAL, TWO_INTO_THREE, POINT.members[0].f]), min_size=1, max_size=3))
        members = [ArrowObj(v) for v in vs]
        g = draw(set_maps_with_ids(max_size=4))
    if draw(st.booleans()):
        members.append(ArrowObj(twin(draw(st.sampled_from(members)).f)))
    return GeneratingSet(members=tuple(members)), as_arrow(g)


@given(layout_cases(), st.data())
@settings(max_examples=120, deadline=None)
def test_the_step_writers_match_induce_out_of_the_same_cocone(case, data):
    gens, g = case
    step = build_onestep(gens, g)
    want = induce(step.cocone, [g.f] + [sq.bottom for _, sq in step.squares], g.cod)
    assert step.right.source is step.mid and step.right.target is g.cod
    assert step.right.components == want.components
    # a cell's fresh block is what its leg reaches outside the left leg's image
    for a in step.mid.base.objects:
        starts, image = step.cell_starts[a], set(step.left.components[a].values())
        assert len(starts) == len(step.squares) + 1 and starts[-1] == len(step.mid.carrier[a])
        for n in range(len(step.squares)):
            assert sorted(set(step.cell_leg(n).components[a].values()) - image) == list(range(starts[n], starts[n + 1]))

    # the identity, the run's carry (left, 1): g -> right, and (1, h): g -> h g
    rho = as_arrow(step.right)
    h = data.draw(st.sampled_from(enumerate_maps(g.cod, g.cod)))
    hg = as_arrow(compose_maps(h, g.f))
    for sq, source_step, target_step in [
        (identity_square(g), step, step),
        (square_fixing_codomain(g, rho, step.left), step, build_onestep(gens, rho)),
        (square_fixing_domain(g, hg, h), step, build_onestep(gens, hg)),
    ]:
        got = onestep_on_square(sq, source_step, target_step)
        assert got.source is source_step.mid and got.target is target_step.mid
        assert got.components == pasted_onestep(sq, source_step, target_step).components


def test_the_step_writers_call_no_induce(monkeypatch):
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return induce(*args)

    # every module that holds the name, as a tracer patches it
    modules = [nwfs] + [importlib.import_module(f"nwfs.{m.name}") for m in pkgutil.iter_modules(nwfs.__path__)]
    for module in modules:
        if hasattr(module, "induce"):
            monkeypatch.setattr(module, "induce", counted)
    cases = [
        (POINT, set_map(3, 2, [0, 0, 1])),
        (CODIAG, set_map(4, 2, [0, 0, 1, 1])),
        (HORNS2, enumerate_maps(DELTA2_PIECES[2], terminal_presheaf(DELTA2_PIECES[2].base))[0]),
    ]
    for gens, g in cases:
        g = as_arrow(g)
        step = build_onestep(gens, g)
        rho = as_arrow(step.right)
        onestep_on_square(identity_square(g), step, step)
        onestep_on_square(square_fixing_codomain(g, rho, step.left), step, build_onestep(gens, rho))
    assert calls[0] == 0
    # the patch reaches the callers that still induce: a free successor
    # stage induces its right half out of the coequalizer
    run_free(POINT, cases[0][1], OrdinalBudget(successors_per_block=2), stop_at_convergence=False)
    assert calls[0] > 0

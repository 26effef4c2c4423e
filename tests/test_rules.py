import dataclasses

import pytest

from conftest import set_map
from nwfs.arrows import Square, as_arrow, square_fixing_codomain, square_fixing_domain, validate_square
from nwfs.catalog import get_category, representable
from nwfs.core import (
    IncompatibleInput,
    InternalCheckFailed,
    PresheafMap,
    compose_maps,
    identity_map,
    maps_equal,
)
from nwfs.laws import check_laws, exhaustive_arrows
from nwfs.rules import (
    MUTANT_COUNT,
    RuleAlgebra,
    RuleCoalgebra,
    canonical_lift,
    cograph_rule,
    compose_coalgebras,
    graph_rule,
    interchange,
    mutant_rule,
    odot_product,
    product_presheaf,
    tensor_product,
    trivial_left_rule,
    trivial_right_rule,
    validate_rule_algebra,
    validate_rule_coalgebra,
)

GRAPH = graph_rule()
COGRAPH = cograph_rule()
TLEFT = trivial_left_rule()
TRIGHT = trivial_right_rule()


def triples_equal(a, b) -> bool:
    return (
        maps_equal(a.left, b.left)
        and maps_equal(a.right, b.right)
        and a.mid.carrier == b.mid.carrier
    )


def cograph_section(f: PresheafMap) -> RuleCoalgebra:
    """The unique cograph coalgebra on an injective map, built by hand."""
    triple = cograph_rule().factor(f)
    n_src = f.source.total_size
    back = {v: k for k, v in f.components["0"].items()}
    comps = {
        d: back[d] if d in back else n_src + d
        for d in range(f.target.total_size)
    }
    return RuleCoalgebra(
        arrow=as_arrow(f),
        component=PresheafMap(f.target, triple.mid, {"0": comps}),
    )


def test_graph_factor_shape():
    f = set_map(2, 3, [1, 1])
    triple = GRAPH.factor(f)
    assert triple.mid.total_size == 6
    assert maps_equal(compose_maps(triple.right, triple.left), f)
    # the left half pairs each element with its image
    prod = product_presheaf(f.source, f.target)
    for c in range(2):
        assert triple.left.components["0"][c] == prod.index("0", c, 1)


def test_cograph_factor_shape():
    f = set_map(2, 3, [1, 1])
    triple = COGRAPH.factor(f)
    assert triple.mid.total_size == 5
    assert triple.left.components["0"] == {0: 0, 1: 1}
    assert triple.right.components["0"] == {0: 1, 1: 1, 2: 0, 3: 1, 4: 2}


def test_trivial_factor_shapes():
    f = set_map(2, 3, [0, 2])
    lt = TLEFT.factor(f)
    assert maps_equal(lt.left, identity_map(f.source))
    assert maps_equal(lt.right, f)
    rt = TRIGHT.factor(f)
    assert maps_equal(rt.left, f)
    assert maps_equal(rt.right, identity_map(f.target))


def test_product_on_a_nontrivial_base():
    base = get_category("delta<=1")
    edge = representable(base, "1")
    prod = product_presheaf(edge, edge)
    assert [len(prod.apex.carrier[a]) for a in ("0", "1")] == [4, 9]
    assert maps_equal(prod.pair(prod.proj1, prod.proj2), identity_map(prod.apex))


def test_tensor_unit_is_literal():
    f = set_map(3, 2, [0, 0, 1])
    for rule in (GRAPH, COGRAPH):
        combined = tensor_product(rule, TLEFT)
        assert triples_equal(combined.factor(f), rule.factor(f))


def test_odot_unit_is_literal():
    f = set_map(3, 2, [0, 0, 1])
    for rule in (GRAPH, COGRAPH):
        combined = odot_product(TRIGHT, rule)
        assert triples_equal(combined.factor(f), rule.factor(f))


def test_composites_still_factor():
    f = set_map(2, 3, [2, 0])
    for combined in (
        tensor_product(GRAPH, COGRAPH),
        odot_product(COGRAPH, GRAPH),
        tensor_product(odot_product(GRAPH, TLEFT), COGRAPH),
    ):
        triple = combined.factor(f)
        assert maps_equal(compose_maps(triple.right, triple.left), f)


def test_interchange_connects_the_two_stackings():
    f = set_map(2, 2, [1, 1])
    A, B, C, D = GRAPH, TLEFT, TRIGHT, COGRAPH
    lhs = tensor_product(odot_product(A, B), odot_product(C, D)).factor(f)
    rhs = odot_product(tensor_product(A, C), tensor_product(B, D)).factor(f)
    fd = D.factor(f)
    c_left, b_right = C.factor(fd.left), B.factor(fd.right)
    cd_right, bd_left = compose_maps(fd.right, c_left.right), compose_maps(b_right.left, fd.left)
    swap = interchange(A, B, C, fd, c_left, b_right, cd_right, bd_left)
    assert swap.source.carrier == lhs.mid.carrier
    assert swap.target.carrier == rhs.mid.carrier
    assert maps_equal(compose_maps(swap, lhs.left), rhs.left)
    assert maps_equal(compose_maps(rhs.right, swap), lhs.right)


def test_canonical_lift_solves_the_square():
    f = set_map(1, 2, [0])
    g = set_map(2, 1, [0, 0])
    prod = product_presheaf(f.source, f.target)
    co = RuleCoalgebra(
        arrow=as_arrow(f),
        component=PresheafMap(
            f.target, prod.apex, {"0": {0: prod.index("0", 0, 0), 1: prod.index("0", 0, 1)}}
        ),
    )
    gprod = product_presheaf(g.source, g.target)
    al = RuleAlgebra(
        arrow=as_arrow(g),
        component=PresheafMap(
            gprod.apex, g.source, {"0": {gprod.index("0", c, 0): c for c in range(2)}}
        ),
    )
    assert validate_rule_coalgebra(GRAPH, co) == []
    assert validate_rule_algebra(GRAPH, al) == []
    sq = Square(
        source=co.arrow,
        target=al.arrow,
        top=set_map(1, 2, [1]),
        bottom=set_map(2, 1, [0, 0]),
    )
    lift = canonical_lift(GRAPH, co, al, sq)
    assert maps_equal(compose_maps(lift, f), sq.top)
    assert maps_equal(compose_maps(g, lift), sq.bottom)


def test_canonical_lift_rejects_a_foreign_square():
    f = set_map(1, 2, [0])
    prod = product_presheaf(f.source, f.target)
    co = RuleCoalgebra(
        arrow=as_arrow(f),
        component=PresheafMap(
            f.target, prod.apex, {"0": {0: prod.index("0", 0, 0), 1: prod.index("0", 0, 1)}}
        ),
    )
    g = set_map(2, 1, [0, 0])
    gprod = product_presheaf(g.source, g.target)
    al = RuleAlgebra(
        arrow=as_arrow(g),
        component=PresheafMap(
            gprod.apex, g.source, {"0": {gprod.index("0", c, 0): c for c in range(2)}}
        ),
    )
    other = as_arrow(set_map(2, 2, [0, 1]))
    sq = Square(source=other, target=al.arrow, top=set_map(2, 2, [0, 0]), bottom=set_map(2, 1, [0, 0]))
    with pytest.raises(IncompatibleInput):
        canonical_lift(GRAPH, co, al, sq)


def graph_section(f: PresheafMap, pairs) -> RuleCoalgebra:
    """A graph-rule section candidate: codomain element y goes to the pair pairs[y]."""
    prod = product_presheaf(f.source, f.target)
    comps = {y: prod.index("0", *pair) for y, pair in enumerate(pairs)}
    return RuleCoalgebra(arrow=as_arrow(f), component=PresheafMap(f.target, prod.apex, {"0": comps}))


def graph_retraction(g: PresheafMap, pick) -> RuleAlgebra:
    """A graph-rule retraction candidate: the pair (x, y) goes to pick(x, y)."""
    prod = product_presheaf(g.source, g.target)
    comps = {
        prod.index("0", x, y): pick(x, y) for x in g.source.carrier["0"] for y in g.target.carrier["0"]
    }
    return RuleAlgebra(arrow=as_arrow(g), component=PresheafMap(prod.apex, g.source, {"0": comps}))


def test_rule_coalgebra_reports_the_one_broken_triangle():
    assert validate_rule_coalgebra(GRAPH, graph_section(set_map(1, 2, [0]), [(0, 0), (0, 1)])) == []
    # the section at 0 should be the pair (0, 0), the left half's value
    shifted = graph_section(set_map(2, 2, [0, 1]), [(1, 0), (1, 1)])
    assert validate_rule_coalgebra(GRAPH, shifted) == ["section does not extend the left half"]
    # 1 goes to a pair over 0, which the right half sends back to 0
    collapsed = graph_section(set_map(1, 2, [0]), [(0, 0), (0, 0)])
    assert validate_rule_coalgebra(GRAPH, collapsed) == ["section is not a section of the right half"]


def test_rule_algebra_reports_the_one_broken_triangle():
    assert validate_rule_algebra(GRAPH, graph_retraction(set_map(2, 1, [0, 0]), lambda x, y: x)) == []
    # every pair goes to 0, so the left half's pair (1, 0) is not sent back to 1
    constant = graph_retraction(set_map(2, 1, [0, 0]), lambda x, y: 0)
    assert validate_rule_algebra(GRAPH, constant) == ["retraction does not retract the left half"]
    # over the identity on 2 the pair (0, 1) must go to 1, and it goes to 0
    first = graph_retraction(set_map(2, 2, [0, 1]), lambda x, y: x)
    assert validate_rule_algebra(GRAPH, first) == ["retraction does not cover the right half"]


def lift_with_constant_functor(co: RuleCoalgebra, al: RuleAlgebra, sq: Square, x: int, y: int):
    """`canonical_lift` for the graph rule with `on_square` sending everything to the pair (x, y)."""
    g = al.arrow.f
    apex = co.component.target
    target = product_presheaf(g.source, g.target)
    constant = PresheafMap(apex, al.component.source, {"0": dict.fromkeys(apex.carrier["0"], target.index("0", x, y))})
    return canonical_lift(dataclasses.replace(GRAPH, on_square=lambda _: constant), co, al, sq)


def test_canonical_lift_checks_the_top_triangle():
    co = graph_section(set_map(1, 2, [0]), [(0, 0), (0, 1)])
    al = graph_retraction(set_map(2, 1, [0, 0]), lambda x, y: x)
    sq = Square(source=co.arrow, target=al.arrow, top=set_map(1, 2, [1]), bottom=set_map(2, 1, [0, 0]))
    # a functor constant at (1, 0) gives the lift [1, 1], which fills the square
    assert maps_equal(lift_with_constant_functor(co, al, sq, 1, 0), set_map(2, 2, [1, 1]))
    # the lift is constantly 0 where the top asks for 1; g has one point, so the bottom holds
    with pytest.raises(InternalCheckFailed, match="lift breaks the top triangle"):
        lift_with_constant_functor(co, al, sq, 0, 0)


def test_canonical_lift_checks_the_bottom_triangle():
    co = graph_section(set_map(1, 2, [0]), [(0, 0), (0, 1)])
    al = graph_retraction(set_map(2, 2, [0, 1]), lambda x, y: y)
    sq = Square(source=co.arrow, target=al.arrow, top=set_map(1, 2, [1]), bottom=set_map(2, 2, [1, 0]))
    # the lift is constantly 1: it agrees with the top but not with the bottom
    with pytest.raises(InternalCheckFailed, match="lift breaks the bottom triangle"):
        lift_with_constant_functor(co, al, sq, 1, 1)


def test_identity_sided_squares_fit_every_builtin_rule():
    for rule in (GRAPH, COGRAPH, TLEFT, TRIGHT):
        for arrow in exhaustive_arrows(3):
            f = arrow.f
            triple = rule.factor(f)
            algebra_square = square_fixing_domain(triple.left, arrow, triple.right)
            assert validate_square(algebra_square) == [], (rule.name, arrow.label)
            assert algebra_square.top.source is triple.left.source
            assert maps_equal(algebra_square.top, identity_map(f.source))
            coalgebra_square = square_fixing_codomain(arrow, triple.right, triple.left)
            assert validate_square(coalgebra_square) == [], (rule.name, arrow.label)
            assert coalgebra_square.bottom.source is f.target
            assert maps_equal(coalgebra_square.bottom, identity_map(f.target))


def test_compose_coalgebras_lands_on_the_composite():
    f = set_map(2, 3, [2, 0])
    g = set_map(3, 5, [1, 3, 0])
    out = compose_coalgebras(COGRAPH, cograph_section(f), cograph_section(g))
    assert maps_equal(out.arrow.f, compose_maps(g, f))
    assert validate_rule_coalgebra(COGRAPH, out) == []


def test_compose_coalgebras_needs_a_multiplication():
    f = set_map(1, 2, [0])
    g = set_map(2, 3, [0, 1])
    crippled = dataclasses.replace(COGRAPH, mult=None)
    with pytest.raises(IncompatibleInput):
        compose_coalgebras(crippled, cograph_section(f), cograph_section(g))


def test_mutant_indices_are_bounded():
    with pytest.raises(IncompatibleInput):
        mutant_rule(-1)
    with pytest.raises(IncompatibleInput):
        mutant_rule(MUTANT_COUNT)
    names = {mutant_rule(i).name for i in range(MUTANT_COUNT)}
    assert len(names) == MUTANT_COUNT


def test_every_mutant_breaks_some_law():
    sample = exhaustive_arrows(3)
    for i in range(MUTANT_COUNT):
        report = check_laws([mutant_rule(i)], sample)
        assert not report.ok, mutant_rule(i).name

"""Mutation fuzzing of the certificate validator.

Each example takes an honest `factorize` or `compare` certificate, replaces
one node (the whole document, an object member or a list entry) with a random
JSON value, and checks that `validate_certificate` answers with a list of
problems instead of raising.
"""

import json
from functools import lru_cache

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import set_map
from nwfs.algebras import extract_algebra, fillers_from_algebra
from nwfs.catalog import get_category, get_gens, representable, terminal_presheaf
from nwfs.core import PresheafMap
from nwfs.jsonio import (
    SCHEMA_COMPARE,
    SCHEMA_SEQUENCE,
    compare_certificate,
    sequence_certificate,
    validate_certificate,
)
from nwfs.sequence import OrdinalBudget, build_comparison, run_free, run_plain


def _edge_to_point() -> PresheafMap:
    base = get_category("delta<=1")
    edge = representable(base, "1")
    point = terminal_presheaf(base)
    return PresheafMap(edge, point, {a: dict.fromkeys(edge.carrier[a], 0) for a in base.objects})


def _factorize(gens_key, g, budget):
    """The certificate `nwfs factorize` writes, with its algebra when it converged."""
    state = run_free(get_gens(gens_key), g, budget=budget)
    if state.converged_at is None:
        return sequence_certificate(state)
    algebra = extract_algebra(state)
    return sequence_certificate(state, algebra, fillers_from_algebra(algebra))


def _compare(gens_key, g, budget):
    """The certificate `nwfs compare` writes."""
    gens = get_gens(gens_key)
    free = run_free(gens, g, budget=budget, stop_at_convergence=False)
    plain = run_plain(gens, g, budget=budget, stop_at_convergence=False)
    return compare_certificate(free, plain, build_comparison(free, plain))


@lru_cache(maxsize=None)
def honest_certificates() -> dict[str, str]:
    one_block = OrdinalBudget(3, 1)
    certs = {
        "factorize-point": _factorize("point", set_map(2, 3, [1, 1]), one_block),
        "factorize-codiagonal": _factorize("codiagonal", set_map(3, 2, [0, 0, 1]), one_block),
        "factorize-horns": _factorize("horns<=1", _edge_to_point(), OrdinalBudget(2, 1)),
        "compare-point": _compare("point", set_map(2, 3, [1, 1]), one_block),
        "compare-codiagonal": _compare("codiagonal", set_map(3, 2, [0, 0, 1]), one_block),
    }
    return {name: json.dumps(doc) for name, doc in certs.items()}


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 10**6)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4)
    | st.sampled_from(["0", "1", "id0", "free", "limit", "successor", SCHEMA_SEQUENCE, SCHEMA_COMPARE]),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.sampled_from(["0", "1", "id0", "mid", "sets", "first", "gen"]), children, max_size=3),
    max_leaves=6,
)


@st.composite
def mutated_certificates(draw):
    """An honest certificate with one node replaced by a random JSON value.

    The node is found by walking down from the root, entering a random child
    four times out of five, so that shallow nodes are picked as often as the
    many deep ones.
    """
    name = draw(st.sampled_from(sorted(honest_certificates())))
    doc = json.loads(honest_certificates()[name])
    holder, key = None, None
    node = doc
    while isinstance(node, (dict, list)) and node and draw(st.integers(0, 4)):
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        holder, key = node, draw(st.sampled_from(keys))
        node = holder[key]
    value = draw(json_values)
    if holder is None:
        return value
    holder[key] = value
    return doc


@pytest.mark.parametrize("name", sorted(honest_certificates()))
def test_the_honest_certificates_validate(name):
    assert validate_certificate(json.loads(honest_certificates()[name])) == []


@given(mutated_certificates())
@settings(max_examples=300, deadline=None)
def test_validator_returns_problems_for_any_single_node_mutation(doc):
    problems = validate_certificate(doc)
    assert isinstance(problems, list)
    assert all(isinstance(p, str) for p in problems)

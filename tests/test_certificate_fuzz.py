"""Mutation fuzzing of the certificate validator and of the input documents.

Each example takes an honest document, replaces one node (the whole
document, an object member or a list entry) with a random JSON value, and
checks that no traceback escapes. A mutated `factorize` or `compare`
certificate must get a list of problems from `validate_certificate`; a
mutated `--category`, `--gens` or `--map` document must give an exit code
of `nwfs enumerate` and `nwfs factorize` (0, 2, 3 or 4).
"""

import contextlib
import io
import json
from functools import lru_cache

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import edge_to_point, set_map
from nwfs.algebras import extract_algebra, fillers_from_algebra
from nwfs.catalog import get_gens, terminal_category
from nwfs.cli import main
from nwfs.jsonio import (
    SCHEMA_COMPARE,
    SCHEMA_SEQUENCE,
    category_doc,
    compare_certificate,
    gens_doc,
    map_doc,
    sequence_certificate,
    validate_certificate,
)
from nwfs.sequence import OrdinalBudget, build_comparison, run_free, run_plain


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
        "factorize-horns": _factorize("horns<=1", edge_to_point(), OrdinalBudget(2, 1)),
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


def _mutate(draw, doc, values):
    """`doc` with one node replaced by a value drawn from `values`.

    The node is found by walking down from the root, entering a random child
    four times out of five, so that shallow nodes are picked as often as the
    many deep ones.
    """
    holder, key = None, None
    node = doc
    while isinstance(node, (dict, list)) and node and draw(st.integers(0, 4)):
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        holder, key = node, draw(st.sampled_from(keys))
        node = holder[key]
    value = draw(values)
    if holder is None:
        return value
    holder[key] = value
    return doc


@st.composite
def mutated_certificates(draw):
    """An honest certificate with one node replaced by a random JSON value."""
    name = draw(st.sampled_from(sorted(honest_certificates())))
    return _mutate(draw, json.loads(honest_certificates()[name]), json_values)


@pytest.mark.parametrize("name", sorted(honest_certificates()))
def test_the_honest_certificates_validate(name):
    assert validate_certificate(json.loads(honest_certificates()[name])) == []


@given(mutated_certificates())
@settings(max_examples=300, deadline=None)
def test_validator_returns_problems_for_any_single_node_mutation(doc):
    problems = validate_certificate(doc)
    assert isinstance(problems, list)
    assert all(isinstance(p, str) for p in problems)


def honest_inputs() -> dict:
    """The `--category`, `--gens` and `--map` documents of a 2 -> 3 set map against the point."""
    return {
        "category": category_doc(terminal_category()),
        "gens": gens_doc(get_gens("point")),
        "map": map_doc(set_map(2, 3, [1, 1])),
    }


input_values = json_values | st.sampled_from(["point", "codiagonal", "terminal"])


@st.composite
def mutated_inputs(draw):
    """The honest input documents with one node of one of them mutated."""
    docs = honest_inputs()
    which = draw(st.sampled_from(sorted(docs)))
    docs[which] = _mutate(draw, docs[which], input_values)
    return docs


def _run_cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def _input_args(folder, docs) -> list[str]:
    args = []
    for key, doc in docs.items():
        path = folder / f"{key}.json"
        path.write_text(json.dumps(doc))
        args += [f"--{key}", str(path)]
    return args


def test_the_honest_inputs_run(tmp_path):
    args = _input_args(tmp_path, honest_inputs())
    assert _run_cli(["enumerate", *args]) == 0
    assert _run_cli(["factorize", *args, "--budget-successors", "2"]) == 0


@given(mutated_inputs())
@settings(max_examples=150, deadline=None)
def test_cli_exits_cleanly_for_any_single_node_mutation_of_an_input(tmp_path_factory, docs):
    args = _input_args(tmp_path_factory.mktemp("inputs"), docs)
    assert _run_cli(["enumerate", *args]) in (0, 2, 3, 4)
    assert _run_cli(["factorize", *args, "--budget-successors", "2"]) in (0, 2, 3, 4)

import copy
import json
from collections import OrderedDict
from enum import IntEnum

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import onestep, set_map
from nwfs.algebras import check_bijection, enumerate_lifting_tables
from nwfs.arrows import as_arrow, generating_squares
from nwfs.catalog import get_category, get_gens, representable, terminal_category, terminal_presheaf
from nwfs.core import PresheafMap, maps_equal, validate
from nwfs.jsonio import (
    InputError,
    _entries,
    _first_difference,
    _plain,
    canonical_bytes,
    category_doc,
    compare_certificate,
    components_doc,
    digest,
    enumeration_certificate,
    filler_certificate,
    gens_doc,
    laws_certificate,
    load_category,
    load_gens,
    load_map,
    load_presheaf,
    map_doc,
    presheaf_doc,
    pretty_json,
    sequence_certificate,
    validate_certificate,
)
from nwfs.laws import check_laws, exhaustive_arrows
from nwfs.sequence import OrdinalBudget, build_comparison, run_free, run_plain

POINT = get_gens("point")


def reload(doc):
    """Push a document through its serialized form, as a file write would."""
    return json.loads(json.dumps(doc))


def test_category_round_trip():
    for key in ("terminal", "delta<=1", "delta<=2"):
        cat = get_category(key)
        back = load_category(reload(category_doc(cat)))
        assert back.objects == cat.objects
        assert {m.name for m in back.morphisms} == {m.name for m in cat.morphisms}
        assert back.table == cat.table
        assert validate(back) == []


def test_presheaf_round_trip():
    base = get_category("delta<=1")
    X = representable(base, "1")
    # a presheaf that names its own category loads without an ambient one
    back = load_presheaf(reload({**presheaf_doc(X), "category": category_doc(base)}), "$", None)
    assert back.carrier == X.carrier
    assert back.action == X.action


def test_map_round_trip_with_ambient_category():
    f = set_map(3, 2, [1, 0, 0])
    doc = reload(map_doc(f))
    back = load_map(doc, "$", terminal_category())
    assert maps_equal(back, f)


def test_gens_round_trip_and_catalog_splice():
    gens = get_gens("horns<=1")
    back = load_gens(reload(gens_doc(gens)), "$", get_category("delta<=1"))
    assert len(back.members) == len(gens.members)
    for a, b in zip(back.members, gens.members):
        assert maps_equal(a.f, b.f)
    spliced = load_gens({"arrows": ["point"]}, "$", terminal_category())
    assert len(spliced.members) == 1


def test_load_errors_carry_pointers():
    with pytest.raises(InputError) as err:
        load_category({"objects": ["0"], "morphisms": [{"id": "id0", "dom": 3, "cod": "0"}],
                       "identities": {"0": "id0"}, "compose": []})
    assert "/morphisms/0" in str(err.value)

    with pytest.raises(InputError) as err:
        load_presheaf({"sets": {"9": [0]}, "actions": {}}, "$", terminal_category())
    assert "/sets/9" in str(err.value)

    with pytest.raises(InputError) as err:
        load_map({"source": {"sets": {"0": [0]}, "actions": {"id0": {"0": 0}}},
                  "target": {"sets": {"0": [0]}, "actions": {"id0": {"0": 0}}},
                  "components": {"0": {"0": 7}}}, "$", terminal_category())
    assert "invalid map" in str(err.value)

    with pytest.raises(InputError):
        load_gens("delta<=1", "$", terminal_category())

    with pytest.raises(InputError):
        load_gens({"arrows": ["horns<=1"]}, "$", terminal_category())


def test_digest_survives_serialization():
    doc = {"b": [1, 2, {"x": None}], "a": "text"}
    assert digest(doc) == digest(reload(doc))
    assert canonical_bytes({"a": 1, "b": 2}) == canonical_bytes({"b": 2, "a": 1})
    assert digest({"a": 1}) != digest({"a": 2})


def fresh_sequence_cert():
    g = set_map(2, 3, [0, 0])
    state = run_free(POINT, g)
    from nwfs.algebras import extract_algebra, fillers_from_algebra

    alg = extract_algebra(state)
    return sequence_certificate(state, alg, fillers_from_algebra(alg), seed=5)


def test_sequence_certificate_validates_clean():
    cert = reload(fresh_sequence_cert())
    assert validate_certificate(cert) == []


def test_sequence_certificate_catches_tampering():
    base = fresh_sequence_cert()

    stale = copy.deepcopy(reload(base))
    stale["digests"]["arrow"] = "0" * 64
    assert any("digest" in p for p in validate_certificate(stale))

    wrong_stage = copy.deepcopy(reload(base))
    wrong_stage["run"]["stages"][1]["left"]["0"]["0"] = 1
    assert validate_certificate(wrong_stage) != []

    wrong_gamma = copy.deepcopy(reload(base))
    wrong_gamma["run"]["converged_at"] = 0
    assert validate_certificate(wrong_gamma) != []

    dropped = copy.deepcopy(reload(base))
    dropped["run"]["steps"] = []
    assert validate_certificate(dropped) != []


def test_validator_reports_a_value_nested_too_deeply():
    cert = reload(fresh_sequence_cert())
    deep = []
    for _ in range(5000):
        deep = [deep]
    # the validator walks as deep as the expected counter, then describes the deep value
    cert["timing"]["work"]["elements"] = deep
    assert validate_certificate(cert) == ["/: nested too deeply to check"]


def test_validator_rejects_a_fold_that_is_not_the_coequalizer():
    # an honest run whose last stage is collapsed to the terminal presheaf:
    # the collapsed fold still coequalizes the recorded pair, factors the
    # link and covers the right half, but identifies far more than the pair,
    # so it differs from the coequalizer the replay builds
    base = get_category("delta<=1")
    edge = representable(base, "1")
    point = terminal_presheaf(base)
    g = PresheafMap(edge, point, {a: dict.fromkeys(edge.carrier[a], 0) for a in base.objects})
    state = run_free(get_gens("horns<=1"), g, budget=OrdinalBudget(2, 1))
    cert = reload(sequence_certificate(state))
    assert validate_certificate(cert) == []

    run = cert["run"]
    assert [s["kind"] for s in run["stages"]] == ["zero", "onestep", "successor"]
    squash = lambda doc: {a: dict.fromkeys(doc[a], 0) for a in doc}
    run["stages"][2]["mid"] = presheaf_doc(point)
    run["stages"][2]["left"] = squash(run["stages"][2]["left"])
    run["stages"][2]["right"] = {a: {"0": 0} for a in base.objects}
    run["links"][1] = squash(run["links"][1])
    run["folds"][1] = squash(run["folds"][1])
    cert["timing"]["work"]["elements"] += point.total_size - sum(run["cardinalities"][2].values())
    run["cardinalities"][2] = point.sizes
    problems = validate_certificate(cert)
    assert problems == ["/run/folds/1/0/1: recorded 0, expected 1"]


def test_validator_rejects_a_limit_stage_that_grows():
    # a plain stage is a limit only where the budget ends a block; the
    # replay builds stage 2 as a one-step stage, whose link is no iso
    g = set_map(2, 2, [0, 0])
    state = run_plain(POINT, g, budget=OrdinalBudget(2, 2), stop_at_convergence=False)
    cert = reload(sequence_certificate(state))
    assert [s["kind"] for s in cert["run"]["stages"]] == ["zero", "onestep", "onestep", "limit", "onestep", "onestep"]
    assert validate_certificate(cert) == []
    cert["run"]["stages"][2]["kind"] = "limit"
    # relabel the ordinals to match a limit at stage 2
    for stage, ordinal in zip(cert["run"]["stages"][2:], ["ω", "ω·2", "ω·2+1", "ω·2+2"]):
        stage["ordinal"] = ordinal
    assert validate_certificate(cert) == ["/run/stages/2/ordinal: recorded 'ω', expected '2'"]


def test_compare_certificate_validates_and_catches_tampering():
    g = set_map(2, 2, [0, 0])
    budget = OrdinalBudget(2, 1)
    free = run_free(POINT, g, budget=budget, stop_at_convergence=False)
    plain = run_plain(POINT, g, budget=budget, stop_at_convergence=False)
    report = build_comparison(free, plain)
    cert = reload(compare_certificate(free, plain, report, seed=None))
    assert validate_certificate(cert) == []

    bent = copy.deepcopy(cert)
    last = bent["comparison"]["maps"][-1]
    key = next(iter(last["0"]))
    room = len(bent["plain"]["stages"][-1]["mid"]["sets"]["0"])
    last["0"][key] = (last["0"][key] + 1) % room
    assert validate_certificate(bent) != []


def _horns_compare_certificate():
    base = get_category("delta<=1")
    edge = representable(base, "1")
    g = PresheafMap(edge, terminal_presheaf(base), {a: dict.fromkeys(edge.carrier[a], 0) for a in base.objects})
    budget = OrdinalBudget(2, 1)
    free = run_free(get_gens("horns<=1"), g, budget=budget, stop_at_convergence=False)
    plain = run_plain(get_gens("horns<=1"), g, budget=budget, stop_at_convergence=False)
    return compare_certificate(free, plain, build_comparison(free, plain))


def test_plain_run_documents_share_a_step_with_the_next_stage():
    # a plain step's mid and right are the next stage's, and built once
    plain = _horns_compare_certificate()["plain"]
    for i, step in enumerate(plain["steps"][:-1]):
        stage = plain["stages"][i + 1]
        assert step["mid"] is stage["mid"] and step["right"] is stage["right"]


@pytest.mark.parametrize(
    "edit, problem",
    [
        (
            lambda cert: cert["plain"]["stages"][1]["mid"]["actions"]["f01_1"].update({"3": 1}),
            "/plain/stages/1/mid/actions/f01_1/3: recorded 1, expected 2",
        ),
        (
            lambda cert: cert["plain"]["links"][0]["1"].update({"2": 0}),
            "/plain/links/0/1/2: recorded 0, expected 2",
        ),
    ],
    ids=["stage-mid", "link"],
)
def test_validator_names_the_tampered_entry_of_shared_expected_documents(edit, problem):
    # stage 1's expected mid is the expected mid of step 0, which the
    # validator compares first and which still holds
    cert = reload(_horns_compare_certificate())
    assert validate_certificate(cert) == []
    edit(cert)
    assert validate_certificate(cert) == [problem]


def test_laws_certificate_validates_and_catches_tampering():
    from nwfs.rules import cograph_rule, graph_rule

    rules = [graph_rule(), cograph_rule()]
    sample = exhaustive_arrows(3)
    cert = reload(
        laws_certificate(
            check_laws(rules, sample),
            ["graph", "cograph"],
            {"kind": "exhaustive", "max_total": 3},
            seed=None,
        )
    )
    assert validate_certificate(cert) == []

    lie = copy.deepcopy(cert)
    lie["checks"][0]["ok"] = False
    assert validate_certificate(lie) != []


def test_enumeration_certificate_round_trip():
    g = set_map(2, 2, [0, 1])
    report = check_bijection(POINT, g)
    cert = reload(enumeration_certificate(report, terminal_category(), POINT, g))
    assert validate_certificate(cert) == []

    off = copy.deepcopy(cert)
    off["algebra_count"] += 1
    assert validate_certificate(off) != []


def test_filler_certificate_round_trip():
    g = set_map(2, 1, [0, 0])
    arrow = as_arrow(g)
    (i, sq), *_ = generating_squares(POINT, arrow)
    table = enumerate_lifting_tables(onestep(POINT, g))[0]
    cert = reload(
        filler_certificate(
            terminal_category(), POINT.members[i], g, sq.top, sq.bottom, table.fillers[0]
        )
    )
    assert validate_certificate(cert) == []

    broken = copy.deepcopy(cert)
    broken["filler"]["0"]["0"] = 9
    assert validate_certificate(broken) != []

    stray = copy.deepcopy(cert)
    stray["filler"]["1"] = {}
    assert validate_certificate(stray) == ["/filler: component at unknown object '1'"]


def test_filler_certificate_names_the_upper_triangle_alone():
    # codiagonal 2 -> 1 against [0, 0, 1]: 3 -> 2; the filler [0] misses the top [0, 1]
    cert = reload(
        filler_certificate(
            terminal_category(),
            get_gens("codiagonal").members[0],
            set_map(3, 2, [0, 0, 1]),
            set_map(2, 3, [0, 1]),
            set_map(1, 2, [0]),
            set_map(1, 3, [0]),
        )
    )
    assert validate_certificate(cert) == ["/filler: upper triangle fails"]


def test_filler_certificate_names_the_lower_triangle_alone():
    # the point against the identity on 2: the filler [1] misses the bottom [0]
    cert = reload(
        filler_certificate(
            terminal_category(),
            POINT.members[0],
            set_map(2, 2, [0, 1]),
            set_map(0, 2, []),
            set_map(1, 2, [0]),
            set_map(1, 2, [1]),
        )
    )
    assert validate_certificate(cert) == ["/filler: lower triangle fails"]


def test_first_difference_tells_booleans_from_numbers_on_either_side():
    assert _first_difference({"ok": [True, False], "n": 1}, {"ok": [True, False], "n": 1}, "") is None
    assert _first_difference({"ok": 1}, {"ok": True}, "") == "/ok: recorded 1, expected True"
    assert _first_difference({"n": True}, {"n": 1}, "") == "/n: recorded True, expected 1"
    assert _first_difference({"n": 1, "m": 2}, {"n": 1}, "") == "/m: not expected"


def test_replayed_run_entries_hold_no_float_and_no_boolean():
    # so a replayed run is compared checking the value types of the recorded side only
    g = set_map(2, 3, [1, 1])
    budget = OrdinalBudget(2, 2)
    for state in (run_free(POINT, g, budget=budget, stop_at_convergence=False), run_plain(POINT, g, budget=budget)):
        n = len(state.stages)
        entries = [want for i in range(n) for _, _, want in _entries(state, i, last=i == n - 1)]
        assert len(entries) > n and all(_plain(want) for want in entries)
    assert _first_difference({"n": [True]}, {"n": [1]}, "", plain_expected=True) == "/n/0: recorded True, expected 1"
    assert _first_difference({"n": 1.0}, {"n": 1}, "", plain_expected=True) == "/n: recorded 1.0, expected 1"


def test_validator_rejects_unknown_schema():
    assert validate_certificate({"schema": "nwfs.mystery/1"}) != []
    assert validate_certificate(["not", "an", "object"]) != []


# brackets, quotes, separators, escapes and non-ASCII text, which a writer
# that splits or joins encoded text could get wrong
_tricky = st.sampled_from('[]{}",: \n\t\\\x00é→𝔸')
_text = lambda size: st.text(alphabet=st.one_of(_tricky, st.characters(codec="utf-8")), max_size=size)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**6), 10**6),
    st.floats(allow_nan=False),
    _text(6),
    # empty containers as leaves reach every depth, each its own encoder
    st.builds(list),
    st.builds(dict),
    st.builds(tuple),
)
_json_docs = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        # all keys of one object share a type, or json cannot sort them;
        # int keys sort as ints but are written as strings ("10" before "9")
        st.dictionaries(_text(4), children, max_size=4),
        st.dictionaries(st.integers(-20, 20), children, max_size=4),
        st.dictionaries(st.floats(allow_nan=False), children, max_size=4),
        st.dictionaries(st.booleans(), children, max_size=2),
        st.dictionaries(st.none(), children, max_size=1),
    ),
    max_leaves=30,
)


def _indented_dump(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


@given(_json_docs)
@settings(max_examples=300, deadline=None)
def test_pretty_json_is_the_indented_json_dump(doc):
    assert pretty_json(doc) == _indented_dump(doc)
    # one object three times at one depth and again deeper, as a
    # certificate shares a sub-document
    shared = {"a": doc, "b": [doc, {"c": doc}], "d": doc, "e": doc}
    assert pretty_json(shared) == _indented_dump(shared)


_NESTED_ROW = {"x": [1, 2], "y": {"z": 3}}
_FLAT_ROW = {"0": 1, "1": 2, "10": 0}
_NESTED_LIST = [[1], {"a": 2}, []]


@pytest.mark.parametrize(
    "doc",
    [
        {"p": _NESTED_ROW, "q": _NESTED_ROW},
        {"p": _NESTED_ROW, "q": {"r": _NESTED_ROW}, "s": [[_NESTED_ROW]]},
        {"a": _FLAT_ROW, "b": _FLAT_ROW, "c": [_FLAT_ROW, {"d": _FLAT_ROW}]},
        {"a": _NESTED_LIST, "b": _NESTED_LIST, "c": [_NESTED_LIST, _NESTED_LIST]},
    ],
    ids=["dict-same-depth", "dict-other-depths", "flat-row", "list"],
)
def test_pretty_json_writes_shared_containers_as_json_does(doc):
    assert pretty_json(doc) == _indented_dump(doc)


def test_a_memo_writes_each_object_once():
    f = set_map(3, 2, [1, 0, 0])
    memo: dict = {}
    doc = components_doc(f, memo)
    assert components_doc(f, memo) is doc and components_doc(f.components, memo) is doc
    assert presheaf_doc(f.source, memo) is presheaf_doc(f.source, memo)
    # an equal object is another object
    assert components_doc(dict(f.components), memo) is not doc
    assert components_doc(f) is not doc and components_doc(f) == doc


class _Level(IntEnum):
    LOW = 1
    HIGH = 10


@pytest.mark.parametrize(
    "doc",
    [
        OrderedDict([("b", 1), ("a", 2)]),
        OrderedDict([("b", [1, OrderedDict([("z", None), ("y", [])])]), ("a", {})]),
        [_Level.LOW, _Level.HIGH],
        {"level": _Level.HIGH, "levels": {_Level.HIGH: [_Level.LOW], _Level.LOW: 0}},
        [[[[]]], {"a": {"b": {"c": [{}]}}}],
    ],
    ids=["ordered-dict-flat", "ordered-dict-nested", "int-enum-values", "int-enum-keys", "deep-empties"],
)
def test_pretty_json_writes_subclasses_and_empties_as_json_does(doc):
    assert pretty_json(doc) == _indented_dump(doc)


@pytest.mark.parametrize("doc", [{1, 2}, [1, {2}], {"a": [0, {"b": {3}}]}])
def test_pretty_json_rejects_what_json_cannot_write(doc):
    with pytest.raises(TypeError):
        _indented_dump(doc)
    with pytest.raises(TypeError):
        pretty_json(doc)


def test_pretty_json_writes_a_compare_certificate_as_json_does():
    cert = _horns_compare_certificate()
    assert pretty_json(cert) == _indented_dump(cert)


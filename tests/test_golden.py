"""Golden digests of three-block runs and of law batteries.

Each run passes two limit stages and a free step after each, so the digests
pin the numbering of chain colimits and of the coequalizers after a limit.
The law digests pin every check's verdict and detail text, counterexample
descriptions included, and so the numbering of products and sums.
"""

import hashlib

import pytest

from conftest import edge_to_point, set_map
from nwfs.catalog import get_category, get_gens
from nwfs.jsonio import canonical_bytes, components_doc, sequence_body
from nwfs.laws import check_laws, exhaustive_arrows, sample_arrows
from nwfs.rules import MUTANT_COUNT, cograph_rule, graph_rule, mutant_rule, trivial_left_rule, trivial_right_rule
from nwfs.sequence import OrdinalBudget, build_comparison, run_free, run_plain


GOLDEN = {
    "horns<=1": (
        edge_to_point,
        "788ceea76dc1280002b16fb85f0fc8615d5facf2a0ff994480664e42177fdb4b",
        "f9e7bd7d0203bba9d398bb64003d38f6e0b7bd6ea167963ed879070a9ca6d100",
        "9db259923368bc904359c21419385a6e84dca7a51806616e8f8a154bec2c7e35",
    ),
    "codiagonal": (
        lambda: set_map(5, 4, [0, 0, 1, 2, 2]),
        "f535f8875156f4d4cb80256dabd50ff388a87db7c4c0e5081cf8de48ed7f9531",
        "831e12cb75ca578de61559f720ff3704300b6e1a88ca867c9e8e6a04b3aeeb5f",
        "af6257e45709c6659372e622f87000607d56165afa1893824df0c8c9893d7ab6",
    ),
}


def _sha(doc) -> str:
    return hashlib.sha256(canonical_bytes(doc)).hexdigest()


@pytest.mark.parametrize("gens_key", sorted(GOLDEN))
def test_three_block_runs_keep_their_golden_digests(gens_key):
    make_arrow, free_sha, plain_sha, maps_sha = GOLDEN[gens_key]
    gens, g = get_gens(gens_key), make_arrow()
    budget = OrdinalBudget(2, 3)
    free = run_free(gens, g, budget=budget, stop_at_convergence=False)
    plain = run_plain(gens, g, budget=budget, stop_at_convergence=False)
    report = build_comparison(free, plain)
    assert [s.kind for s in free.stages].count("limit") == 2
    assert report.ok
    assert _sha(sequence_body(free)) == free_sha
    assert _sha(sequence_body(plain)) == plain_sha
    assert _sha([components_doc(m) for m in report.maps]) == maps_sha


LAW_GOLDEN = {
    "builtins-and-mutants": (
        lambda: [graph_rule(), cograph_rule(), trivial_left_rule(), trivial_right_rule()]
        + [mutant_rule(i) for i in range(MUTANT_COUNT)],
        lambda: exhaustive_arrows(4),
        1870,
        "462ca12a64abc06e846412cdd2b3a194a02e63aa30abd356adf208ee1dc4eb8d",
    ),
    "graph-on-reflexive-graphs": (
        lambda: [graph_rule()],
        lambda: sample_arrows(get_category("delta<=1"), 2, 0),
        22,
        "2bcdd8c965058dad25f9d1ae70304792b8ac59a2a7d8c8236d2b059590f91e34",
    ),
}


@pytest.mark.parametrize("case", sorted(LAW_GOLDEN))
def test_law_checks_keep_their_golden_digests(case):
    make_rules, make_sample, count, sha = LAW_GOLDEN[case]
    report = check_laws(make_rules(), make_sample())
    checks = [[c.rule, c.law, c.arrow, c.ok, c.detail] for c in report.checks]
    assert len(checks) == count
    assert _sha(checks) == sha

"""End-to-end acceptance battery.

Each test covers one required behaviour of the engine and prints a one-line
summary so a `pytest -v` run doubles as the acceptance report. Random
corpora are seeded, so reruns see the same instances.
"""

import json
import random
import subprocess
import sys
import time

from conftest import onestep, random_set_map, random_surjection, set_map
from nwfs.algebras import (
    LiftingTable,
    check_bijection,
    enumerate_algebra_structures,
    enumerate_lifting_tables,
    extract_algebra,
    fillers_from_algebra,
    validate_table,
)
from nwfs.arrows import Square, as_arrow, generating_squares, square_key
from nwfs.catalog import (
    get_category,
    get_gens,
    representable,
    terminal_presheaf,
)
from nwfs.core import (
    PresheafMap,
    compose_maps,
    enumerate_maps,
    identity_map,
    is_injective,
    maps_equal,
)
from nwfs.jsonio import pretty_json, sequence_certificate, validate_certificate
from nwfs.laws import check_laws, exhaustive_arrows
from nwfs.onestep import build_onestep, onestep_on_square
from nwfs.rules import (
    MUTANT_COUNT,
    cograph_rule,
    graph_rule,
    mutant_rule,
    trivial_left_rule,
    trivial_right_rule,
)
from nwfs.sequence import OrdinalBudget, build_comparison, run_free, run_plain

SEED = 20260815
POINT = get_gens("point")
CODIAG = get_gens("codiagonal")


def surjection_from(rng, source_size):
    n_tgt = rng.randint(1, source_size)
    values = list(range(n_tgt)) + [rng.randrange(n_tgt) for _ in range(source_size - n_tgt)]
    rng.shuffle(values)
    return set_map(source_size, n_tgt, values)


def compose_tables(first, second):
    """A table for the composite arrow, from tables for both factors; `first` solves squares into the arrow applied first.

    A square into the composite is solved in two moves: push its top
    through the first arrow and lift against `second`, then use that lift
    as the bottom of a square solved by `first`.
    """
    f, g = first.step.arrow, second.step.arrow
    step = build_onestep(first.step.gens, as_arrow(compose_maps(g.f, f.f)))

    def filler(table, i, sq):
        return table.fillers[table.step.square_index[square_key(i, sq)]]

    fillers = []
    for i, sq in step.squares:
        j = step.gens.members[i]
        through = filler(second, i, Square(source=j, target=g, top=compose_maps(f.f, sq.top), bottom=sq.bottom))
        fillers.append(filler(first, i, Square(source=j, target=f, top=sq.top, bottom=through)))
    return LiftingTable(step, tuple(fillers))


def terminal_map(X):
    T = terminal_presheaf(X.base)
    comps = {a: {x: T.carrier[a][0] for x in X.carrier[a]} for a in X.base.objects}
    return PresheafMap(X, T, comps)


def test_acceptance_01_point_factorization_is_the_literal_coproduct():
    rng = random.Random(SEED)
    start = time.monotonic()
    worst = 0
    for _ in range(50):
        g = random_set_map(rng, max_size=6)
        state = run_free(POINT, g)
        assert state.converged_at is not None and state.converged_at <= 2
        worst = max(worst, state.converged_at)
        n_src = g.source.total_size
        stage = state.stages[1]
        assert stage.left.components["0"] == {i: i for i in range(n_src)}
        expected_right = {i: g.components["0"][i] for i in range(n_src)}
        expected_right.update({n_src + j: j for j in range(g.target.total_size)})
        assert stage.right.components["0"] == expected_right
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"criterion 01: ok, 50 instances, max converged_at={worst}, {elapsed:.2f}s")


def test_acceptance_02_codiagonal_run_computes_the_image():
    rng = random.Random(SEED + 1)
    injective_seen = 0
    for _ in range(50):
        g = random_set_map(rng, max_size=6, min_source=1)
        state = run_free(CODIAG, g)
        gamma = state.converged_at
        assert gamma is not None
        stage = state.stages[gamma]
        image = set(g.components["0"].values())
        assert stage.mid.total_size == len(image)
        # the converged right half is injective, hence uniquely rigid
        assert len(enumerate_algebra_structures(onestep(CODIAG, stage.right))) == 1
        expected = 1 if is_injective(g) else 0
        if expected:
            injective_seen += 1
        assert len(enumerate_algebra_structures(onestep(CODIAG, g))) == expected
    print(f"criterion 02: ok, 50 instances, {injective_seen} injective among them")


def test_acceptance_03_successor_coequalizes_the_two_canonical_maps():
    rng = random.Random(SEED + 2)
    corpus = [random_set_map(rng, max_size=4, min_source=1) for _ in range(8)]
    corpus += [set_map(2, 2, [0, 0]), set_map(1, 2, [1]), set_map(3, 2, [1, 1, 0])]
    for g in corpus:
        for gens in (POINT, CODIAG):
            state = run_free(gens, g, budget=OrdinalBudget(2, 1), stop_at_convergence=False)
            if state.pairs[1] is None:
                continue
            first, second = state.pairs[1]
            s0 = build_onestep(gens, as_arrow(g))
            s1 = build_onestep(gens, as_arrow(state.stages[1].right))
            assert maps_equal(first, s1.left)
            expected = onestep_on_square(
                Square(
                    source=as_arrow(g),
                    target=as_arrow(state.stages[1].right),
                    top=state.links[0],
                    bottom=identity_map(g.target),
                ),
                s0,
                s1,
            )
            assert maps_equal(second, expected)
    print(f"criterion 03: ok, {len(corpus)} arrows, both generating sets")


def test_acceptance_04_free_run_beats_the_plain_one_on_the_empty_source():
    g = set_map(0, 1, [])
    start = time.monotonic()
    plain = run_plain(POINT, g, budget=OrdinalBudget(6, 1))
    free = run_free(POINT, g, budget=OrdinalBudget(6, 1))
    elapsed = time.monotonic() - start
    assert [s.mid.total_size for s in plain.stages] == [0, 1, 2, 3, 4, 5, 6]
    assert free.converged_at == 1
    assert free.stages[1].mid.total_size == 1
    assert elapsed < 1.0
    print(f"criterion 04: ok, plain grows 0..6, free stops at size 1, {elapsed:.2f}s")


def test_acceptance_05_comparison_map_is_surjective_stagewise():
    rng = random.Random(SEED + 3)
    budget = OrdinalBudget(4, 1)
    start = time.monotonic()
    for _ in range(30):
        g = random_set_map(rng, max_size=4)
        free = run_free(POINT, g, budget=budget, stop_at_convergence=False)
        plain = run_plain(POINT, g, budget=budget, stop_at_convergence=False)
        report = build_comparison(free, plain)
        assert report.ok
        assert all(report.surjective)
        assert all(report.left_commutes) and all(report.right_commutes)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"criterion 05: ok, 30 instances, every stage covered, {elapsed:.2f}s")


def test_acceptance_06_algebras_and_tables_biject():
    rng = random.Random(SEED + 4)
    checked = 0
    while checked < 12:
        g = random_set_map(rng, max_size=6)
        if g.source.total_size + g.target.total_size > 12:
            continue
        for gens in (POINT, CODIAG):
            report = check_bijection(gens, g)
            assert report.ok, report.problems
            # independent recount straight from the definition of a filler
            arrow = as_arrow(g)
            oracle = 1
            for i, sq in generating_squares(gens, arrow):
                j = gens.members[i]
                oracle *= sum(
                    1
                    for cand in enumerate_maps(j.cod, arrow.dom)
                    if maps_equal(compose_maps(cand, j.f), sq.top)
                    and maps_equal(compose_maps(arrow.f, cand), sq.bottom)
                )
            assert report.algebra_count == report.table_count == report.product_count == oracle
        checked += 1
    print(f"criterion 06: ok, {checked} instances, counts match the brute-force oracle")


def test_acceptance_07_law_battery_separates_builtins_from_mutants():
    start = time.monotonic()
    corpus = exhaustive_arrows(4)
    clean = check_laws(
        [graph_rule(), cograph_rule(), trivial_left_rule(), trivial_right_rule()], corpus
    )
    assert clean.ok
    caught = 0
    for i in range(MUTANT_COUNT):
        report = check_laws([mutant_rule(i)], corpus)
        assert not report.ok, mutant_rule(i).name
        caught += 1
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"criterion 07: ok, builtins clean on {len(corpus)} arrows, {caught}/6 mutants caught, {elapsed:.2f}s")


def test_acceptance_08_lifting_tables_compose_coherently():
    rng = random.Random(SEED + 5)
    for _ in range(20):
        f = random_surjection(rng)
        g = surjection_from(rng, f.target.total_size)
        h = surjection_from(rng, g.target.total_size)
        tf = enumerate_lifting_tables(onestep(POINT, f))[0]
        tg = enumerate_lifting_tables(onestep(POINT, g))[0]
        th = enumerate_lifting_tables(onestep(POINT, h))[0]
        assert validate_table(tf) == [] and validate_table(tg) == []
        comp = compose_tables(tf, tg)
        assert validate_table(comp) == []
        left = compose_tables(comp, th)
        right = compose_tables(tf, compose_tables(tg, th))
        assert all(maps_equal(a, b) for a, b in zip(left.fillers, right.fillers))
        t_id = enumerate_lifting_tables(onestep(POINT, identity_map(f.source)))[0]
        unit = compose_tables(t_id, tf)
        assert all(maps_equal(a, b) for a, b in zip(unit.fillers, tf.fillers))
    print("criterion 08: ok, 20 random surjection triples, associative and unital")


def test_acceptance_09_free_run_stays_smaller_on_a_presheaf_base():
    base = get_category("delta<=1")
    gens = get_gens("horns<=1")
    g = terminal_map(representable(base, "1"))
    budget = OrdinalBudget(5, 1)
    start = time.monotonic()
    free = run_free(gens, g, budget=budget, stop_at_convergence=False)
    plain = run_plain(gens, g, budget=budget, stop_at_convergence=False)
    elapsed = time.monotonic() - start
    assert free.exhausted and plain.exhausted
    for fs, ps in zip(free.cardinalities, plain.cardinalities):
        for obj in ("0", "1"):
            assert fs[obj] <= ps[obj]
    last_free, last_plain = free.cardinalities[-1], plain.cardinalities[-1]
    assert elapsed < 60.0
    print(
        "criterion 09: ok, free stays at or below plain per object per stage, "
        f"final sizes {dict(last_free)} vs {dict(last_plain)}, {elapsed:.2f}s"
    )


def test_acceptance_10_certificates_replay_byte_for_byte(tmp_path):
    g = set_map(2, 3, [0, 0])
    state = run_free(POINT, g)
    alg = extract_algebra(state)
    cert = sequence_certificate(state, alg, fillers_from_algebra(alg), seed=SEED)
    assert validate_certificate(json.loads(pretty_json(cert))) == []

    doc = tmp_path / "g.json"
    doc.write_text(json.dumps({
        "source": {"sets": {"0": [0, 1]}, "actions": {"id0": {"0": 0, "1": 1}}},
        "target": {"sets": {"0": [0, 1, 2]}, "actions": {"id0": {"0": 0, "1": 1, "2": 2}}},
        "components": {"0": {"0": 0, "1": 0}},
    }))
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        run = subprocess.run(
            [sys.executable, "-m", "nwfs.cli", "factorize", "--category", "terminal",
             "--gens", "point", "--map", str(doc), "--out", str(out), "--seed", str(SEED)],
            capture_output=True, text=True,
        )
        assert run.returncode == 0, run.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    check = subprocess.run(
        [sys.executable, "-m", "nwfs.cli", "validate", str(tmp_path / "a.json")],
        capture_output=True, text=True,
    )
    assert check.returncode == 0, check.stdout
    print("criterion 10: ok, reruns byte-identical and revalidated in a fresh process")

import hashlib
import json
import subprocess
import sys

import pytest

from conftest import edge_to_point, onestep, set_map
from nwfs import sequence
from nwfs.algebras import enumerate_algebra_structures, fillers_from_algebra, validate_algebra
from nwfs.catalog import get_category, get_gens
from nwfs.cli import main
from nwfs.colimits import quotient
from nwfs.core import maps_equal
from nwfs.jsonio import category_doc, components_doc, compare_certificate, pretty_json, sequence_body, sequence_certificate
from nwfs.sequence import OrdinalBudget, build_comparison, run_free, run_plain

MAP_DOC = {
    "source": {"sets": {"0": [0, 1]}, "actions": {"id0": {"0": 0, "1": 1}}},
    "target": {"sets": {"0": [0, 1, 2]}, "actions": {"id0": {"0": 0, "1": 1, "2": 2}}},
    "components": {"0": {"0": 1, "1": 1}},
}


def cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "nwfs.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


@pytest.fixture()
def map_file(tmp_path):
    p = tmp_path / "g.json"
    p.write_text(json.dumps(MAP_DOC))
    return p


def test_factorize_converges_and_validates_in_a_fresh_process(tmp_path, map_file):
    out = tmp_path / "cert.json"
    res = cli(
        "factorize", "--category", "terminal", "--gens", "point",
        "--map", str(map_file), "--out", str(out), "--format", "json",
    )
    assert res.returncode == 0, res.stderr
    doc = json.loads(out.read_text())
    assert doc["schema"] == "nwfs.sequence/1"
    assert doc["run"]["mode"] == "free"
    assert doc["run"]["converged_at"] == 1
    # stdout carries the same document that was written
    assert json.loads(res.stdout) == doc

    check = cli("validate", str(out))
    assert check.returncode == 0, check.stdout + check.stderr


def test_reruns_are_byte_identical(tmp_path, map_file):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        res = cli(
            "factorize", "--category", "terminal", "--gens", "point",
            "--map", str(map_file), "--out", str(out),
        )
        assert res.returncode == 0, res.stderr
    assert a.read_bytes() == b.read_bytes()


def test_plain_budget_exhaustion_signals_exit_two(tmp_path, map_file):
    out = tmp_path / "q.json"
    res = cli(
        "plain", "--category", "terminal", "--gens", "point",
        "--map", str(map_file), "--budget-successors", "3", "--out", str(out),
    )
    assert res.returncode == 2
    doc = json.loads(out.read_text())
    assert doc["run"]["exhausted"] is True
    assert doc["run"]["converged_at"] is None
    check = cli("validate", str(out))
    assert check.returncode == 0, check.stdout


def test_compare_emits_a_validating_certificate(tmp_path, map_file):
    out = tmp_path / "cmp.json"
    res = cli(
        "compare", "--category", "terminal", "--gens", "point",
        "--map", str(map_file), "--budget-successors", "3", "--out", str(out),
    )
    assert res.returncode == 0, res.stderr
    doc = json.loads(out.read_text())
    assert doc["schema"] == "nwfs.compare/1"
    assert doc["comparison"]["ok"] is True
    assert cli("validate", str(out)).returncode == 0


def test_enumerate_counts_and_validates(tmp_path, map_file):
    out = tmp_path / "enum.json"
    res = cli(
        "enumerate", "--category", "terminal", "--gens", "point",
        "--map", str(map_file), "--out", str(out),
    )
    assert res.returncode == 0, res.stderr
    doc = json.loads(out.read_text())
    assert doc["algebra_count"] == doc["table_count"] == doc["product_count"]
    assert cli("validate", str(out)).returncode == 0


def test_laws_clean_and_mutant_exit_codes(tmp_path):
    out = tmp_path / "laws.json"
    res = cli("laws", "--max-total", "3", "--out", str(out))
    assert res.returncode == 0, res.stderr
    assert json.loads(out.read_text())["ok"] is True

    res = cli("laws", "--rules", "graph,mutant3", "--max-total", "3")
    assert res.returncode == 3


def test_laws_seeded_sampling(tmp_path):
    out = tmp_path / "laws.json"
    res = cli(
        "laws", "--samples", "4", "--seed", "12", "--category", "delta<=1",
        "--out", str(out),
    )
    assert res.returncode == 0, res.stderr
    assert cli("validate", str(out)).returncode == 0


@pytest.mark.parametrize("category", ["terminal", "nonexistent.json"])
def test_laws_rejects_a_category_without_samples(tmp_path, capsys, category):
    # only a seeded sample has a base category; the exhaustive one would
    # ignore the flag and report on a sample it never named
    out = tmp_path / "laws.json"
    assert main(["laws", "--rules", "graph", "--max-total", "1", "--category", category, "--out", str(out)]) == 4
    assert not out.exists()
    err = capsys.readouterr().err
    assert "/category:" in err and "--samples" in err


def test_fill_solves_a_recorded_square(tmp_path, map_file):
    surj = tmp_path / "s.json"
    surj.write_text(json.dumps({
        "source": {"sets": {"0": [0, 1]}, "actions": {"id0": {"0": 0, "1": 1}}},
        "target": {"sets": {"0": [0]}, "actions": {"id0": {"0": 0}}},
        "components": {"0": {"0": 0, "1": 0}},
    }))
    cert = tmp_path / "cert.json"
    res = cli(
        "factorize", "--category", "terminal", "--gens", "point",
        "--map", str(surj), "--out", str(cert),
    )
    assert res.returncode == 0, res.stderr
    filler = tmp_path / "filler.json"
    res = cli("fill", str(cert), "--square", "0", "--out", str(filler))
    assert res.returncode == 0, res.stderr
    doc = json.loads(filler.read_text())
    assert doc["schema"] == "nwfs.filler/1"
    assert cli("validate", str(filler)).returncode == 0


def test_validate_flags_a_tampered_file(tmp_path, map_file):
    out = tmp_path / "cert.json"
    cli(
        "factorize", "--category", "terminal", "--gens", "point",
        "--map", str(map_file), "--out", str(out),
    )
    doc = json.loads(out.read_text())
    doc["run"]["converged_at"] = 0
    out.write_text(json.dumps(doc))
    res = cli("validate", str(out))
    assert res.returncode == 3
    assert res.stdout.strip()


def test_input_errors_exit_four(tmp_path):
    res = cli(
        "factorize", "--category", "terminal", "--gens", "point",
        "--map", str(tmp_path / "missing.json"),
    )
    assert res.returncode == 4

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    res = cli("factorize", "--category", "terminal", "--gens", "point", "--map", str(bad))
    assert res.returncode == 4

    res = cli("validate", str(bad))
    assert res.returncode == 4


def test_a_run_out_of_memory_exits_four_with_one_line(map_file, monkeypatch, capsys):
    def exhaust(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(sequence, "run_free", exhaust)
    argv = ["factorize", "--category", "terminal", "--gens", "point", "--map", str(map_file)]
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert err == "error: out of memory; try a smaller --budget-successors\n"


def test_input_nested_too_deeply_exits_four(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    assert main(["validate", str(deep)]) == 4
    assert main(["factorize", "--category", "terminal", "--gens", "point", "--map", str(deep)]) == 4
    assert "deep.json is nested too deeply to read" in capsys.readouterr().err


def test_an_integer_too_long_to_read_exits_four(tmp_path, capsys):
    # json.loads raises ValueError, not JSONDecodeError, past int()'s digit limit
    long = tmp_path / "long.json"
    long.write_text('{"source": ' + "1" * 5000 + "}")
    assert main(["validate", str(long)]) == 4
    assert main(["factorize", "--category", "terminal", "--gens", "point", "--map", str(long)]) == 4
    assert "long.json is not valid JSON: Exceeds the limit" in capsys.readouterr().err


REPEATED_MAP = """{"source": {"sets": {"0": [0, 1]}, "actions": {"id0": {"0": 0, "1": 1}}},
 "target": {"sets": {"0": [0, 1]}, "actions": {"id0": {"0": 0, "1": 1}}},
 "components": {"0": {"0": 0, "0": 1, "1": 1}}}"""


@pytest.mark.parametrize(
    "what, key, text",
    [
        ("map", "0", REPEATED_MAP),
        ("category", "objects", '{"objects": ["0"], "objects": ["0", "1"]}'),
        ("gens", "source", '[{"source": {}, "source": {}}]'),
    ],
    ids=["map", "category", "gens"],
)
def test_a_repeated_key_in_an_input_exits_four(tmp_path, capsys, what, key, text):
    # json.loads alone keeps the last value: the map above would be
    # certified as {"0": 1, "1": 1}
    (tmp_path / "doc.json").write_text(text)
    (tmp_path / "map.json").write_text(json.dumps(MAP_DOC))
    inputs = {"category": "terminal", "gens": "point", "map": str(tmp_path / "map.json"), what: str(tmp_path / "doc.json")}
    argv = ["compare"] + [a for k, v in inputs.items() for a in (f"--{k}", v)] + ["--out", str(tmp_path / "c.json")]
    assert main(argv) == 4
    assert f'error: /{what}: key "{key}" repeated in one object' in capsys.readouterr().err
    assert not (tmp_path / "c.json").exists()


@pytest.mark.parametrize(
    "argv, what",
    [
        (["validate", "RAW"], "certificate"),
        (["factorize", "--category", "terminal", "--gens", "point", "--map", "RAW"], "map"),
    ],
)
def test_input_that_is_not_utf8_exits_four(tmp_path, capsys, argv, what):
    raw = tmp_path / "raw.json"
    raw.write_bytes(b"\xff\xfe")
    assert main([str(raw) if a == "RAW" else a for a in argv]) == 4
    assert f"error: /{what}: {raw} is not UTF-8 text" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_out_that_cannot_be_written_exits_four(tmp_path, capsys, where):
    out = tmp_path / "missing" / "laws.json" if where == "missing directory" else tmp_path
    assert main(["laws", "--max-total", "1", "--out", str(out)]) == 4
    assert f"error: /out: cannot write {out}: " in capsys.readouterr().err


def test_text_format_prints_a_stage_table(map_file):
    res = cli(
        "factorize", "--category", "terminal", "--gens", "point",
        "--map", str(map_file), "--format", "text",
    )
    assert res.returncode == 0
    assert "converged" in res.stdout
    assert "0" in res.stdout


@pytest.mark.parametrize(
    "category, gens, problem",
    [
        ("terminal", "point", None),
        ("category.json", "gens.json", None),
        ("point", "point", "/category: unknown catalog key 'point'"),
        ("terminal", "terminal", "/gens: unknown catalog key 'terminal'"),
        ("missing.json", "point", "/category: cannot read "),
        ("terminal", "missing.json", "/gens: cannot read "),
    ],
)
def test_category_and_gens_are_catalog_keys_or_files(tmp_path, map_file, capsys, category, gens, problem):
    (tmp_path / "category.json").write_text(json.dumps(category_doc(get_category("terminal"))))
    (tmp_path / "gens.json").write_text(json.dumps({"arrows": ["point"]}))
    argv = ["factorize", "--category", category, "--gens", gens, "--map", str(map_file), "--format", "json"]
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    assert main(argv) == (0 if problem is None else 4)
    if problem is not None:
        assert f"error: {problem}" in capsys.readouterr().err


def _honest_factorize_cert(tmp_path, map_file):
    out = tmp_path / "cert.json"
    assert main([
        "factorize", "--category", "terminal", "--gens", "point",
        "--map", str(map_file), "--out", str(out),
    ]) == 0
    return out, json.loads(out.read_text())


@pytest.mark.parametrize("key", ["stages", "links", "steps", "folds", "pairs"])
def test_validate_reports_a_run_field_that_is_not_a_list(tmp_path, map_file, capsys, key):
    out, doc = _honest_factorize_cert(tmp_path, map_file)
    doc["run"][key] = 5
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["validate", str(out)]) == 3
    assert "/run/" + key in capsys.readouterr().out


@pytest.mark.parametrize("key", ["stages", "links", "steps", "folds", "pairs"])
def test_validate_reports_a_run_entry_that_is_not_an_object(tmp_path, map_file, capsys, key):
    out, doc = _honest_factorize_cert(tmp_path, map_file)
    doc["run"][key][0] = 5
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["validate", str(out)]) == 3
    assert f"/run/{key}/0: expected an object" in capsys.readouterr().out


@pytest.mark.parametrize("path", ["/algebra", "/lifting_table", "/run/steps/0/squares/0"])
def test_validate_reports_a_block_that_is_not_an_object(tmp_path, map_file, capsys, path):
    out, doc = _honest_factorize_cert(tmp_path, map_file)
    *parents, last = [int(k) if k.isdigit() else k for k in path.split("/")[1:]]
    holder = doc
    for key in parents:
        holder = holder[key]
    holder[last] = 5
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["validate", str(out)]) == 3
    assert f"{path}: expected an object, got int" in capsys.readouterr().out


@pytest.mark.parametrize("problems", [5, None])
def test_validate_reports_enumeration_problems_that_are_not_a_list(tmp_path, map_file, capsys, problems):
    out = tmp_path / "enum.json"
    assert main([
        "enumerate", "--category", "terminal", "--gens", "point",
        "--map", str(map_file), "--out", str(out),
    ]) == 0
    doc = json.loads(out.read_text())
    doc["problems"] = problems
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["validate", str(out)]) == 3
    assert f"/problems: expected a list, got {type(problems).__name__}" in capsys.readouterr().out


@pytest.mark.parametrize(
    "sample",
    [
        {"kind": "exhaustive", "max_total": True},
        {"kind": "seeded", "category": "delta<=1", "count": True, "seed": 12},
        {"kind": "seeded", "category": "delta<=1", "count": 4, "seed": False},
        {"kind": "seeded", "category": "delta<=1", "count": -1, "seed": 12},
        {"kind": "seeded", "category": "delta<=1", "count": 0, "seed": 12},
    ],
)
def test_validate_rejects_booleans_in_the_laws_sample(tmp_path, capsys, sample):
    out = tmp_path / "laws.json"
    assert main(["laws", "--samples", "4", "--seed", "12", "--category", "delta<=1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    doc["sample"] = sample
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["validate", str(out)]) == 3
    assert "/sample" in capsys.readouterr().out


@pytest.mark.parametrize(
    "edits, problem",
    [
        ([("run/converged_at", 1000000)], "/run/converged_at: index 1000000 out of range"),
        ([("run/converged_at", True)], "/run/converged_at: index True out of range"),
        ([("schema", {"name": "nwfs.sequence/1"})], "/schema: unknown schema"),
        ([("schema", ["nwfs.sequence/1"])], "/schema: unknown schema"),
        ([("run/steps/0/squares/0/gen", 0.0)], "/run/steps/0/squares/0/gen: recorded 0.0, expected 0"),
        ([("run/steps/0/cells/0/0", 3)], "/run/steps/0/cells/0/0: recorded 3, expected 2"),
        ([("run/stages/1/index", 2)], "/run/stages/1/index: recorded 2, expected 1"),
        ([("run/stages/2/ordinal", "ω")], "/run/stages/2/ordinal: recorded 'ω', expected '2'"),
        ([("run/exhausted", True)], "/run/exhausted: recorded True, expected False"),
        ([("run/converged_at", None), ("run/exhausted", True)], "/run/converged_at: recorded None, recomputed 1"),
        ([("run/converged_at", None), ("run/exhausted", True)], "/run/budget: the stages do not match the budget"),
        ([("run/budget/successors_per_block", 1)], "/run/budget: the stages do not match the budget"),
        ([("run/budget/omega_blocks", 0)], "/run/budget: expected positive integers"),
        ([("timing/work/elements", 13)], "/timing/work/elements: recorded 13, expected 12"),
        ([("run/pairs/1", None)], "/run/pairs/1: free mode successor stage is missing its pair"),
        # JSON tells 5.0 and true from 5, so the validator must too
        ([("run/cardinalities/1/0", 5.0)], "/run/cardinalities/1/0: recorded 5.0, expected 5"),
        ([("timing/work/stages", 3.0)], "/timing/work/stages: recorded 3.0, expected 3"),
        ([("run/steps/0/cells/0/0", 2.0)], "/run/steps/0/cells/0/0: recorded 2.0, expected 2"),
        # the replay reports the first leaf that differs from the entry it rebuilds
        ([("run/steps/0/right/0/0", 2)], "/run/steps/0/right/0/0: recorded 2, expected 1"),
        ([("run/steps/0/squares/0/top/0/0", 0)], "/run/steps/0/squares/0/top/0/0: not expected"),
        ([("run/steps/0/squares/0/cell_leg/0/0", 3)], "/run/steps/0/squares/0/cell_leg/0/0: recorded 3, expected 2"),
        ([("run/folds/1/0/0", 1)], "/run/folds/1/0/0: recorded 1, expected 0"),
        ([("run/folds/1/0/5", 3)], "/run/folds/1/0/5: recorded 3, expected 2"),
        ([("run/links/1/0/0", 1)], "/run/links/1/0/0: recorded 1, expected 0"),
        ([("run/links/1/0/2", 3)], "/run/links/1/0/2: recorded 3, expected 2"),
        ([("seed", 1.0)], "/seed: expected an integer or null, got float"),
    ],
)
def test_validate_reports_a_tampered_claim(tmp_path, map_file, capsys, edits, problem):
    out, doc = _honest_factorize_cert(tmp_path, map_file)
    for path, value in edits:
        *parents, last = path.split("/")
        holder = doc
        for key in parents:
            holder = holder[int(key)] if isinstance(holder, list) else holder[key]
        holder[int(last) if isinstance(holder, list) else last] = value
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["validate", str(out)]) == 3
    assert problem in capsys.readouterr().out


@pytest.mark.parametrize(
    "command",
    [
        ["enumerate", "--category", "terminal", "--gens", "point"],
        ["laws", "--max-total", "2"],
        ["compare", "--category", "terminal", "--gens", "point", "--budget-successors", "2"],
    ],
)
def test_validate_reports_tampered_work_counters(tmp_path, map_file, capsys, command):
    out = tmp_path / "cert.json"
    args = command + (["--map", str(map_file)] if "--gens" in command else [])
    assert main(args + ["--out", str(out)]) in (0, 2)
    doc = json.loads(out.read_text())
    doc["timing"]["work"] = {"elements": 1}
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["validate", str(out)]) == 3
    problem, summary = capsys.readouterr().out.splitlines()
    assert problem.startswith("problem: /timing/work/") and problem.endswith(": missing")


@pytest.mark.parametrize("tamper", ["counterexample", "passing"])
def test_validate_compares_law_detail_text(tmp_path, capsys, tamper):
    # mutant0 first fails at --max-total 3, so the certificate holds both
    # failing checks (with a counterexample) and passing ones (empty detail)
    out = tmp_path / "laws.json"
    assert main(["laws", "--max-total", "3", "--rules", "graph,mutant0", "--out", str(out)]) == 3
    doc = json.loads(out.read_text())
    capsys.readouterr()
    assert main(["validate", str(out)]) == 0
    ok = tamper == "passing"
    i = next(i for i, c in enumerate(doc["checks"]) if c["ok"] == ok)
    detail = doc["checks"][i]["detail"]
    assert (detail == "") == ok
    doc["checks"][i]["detail"] = "no difference found" if ok else detail.replace("!=", "==")
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["validate", str(out)]) == 3
    assert f"/checks/{i}/detail: recorded " in capsys.readouterr().out


def _edit(doc, path, value):
    *parents, last = path.split("/")
    holder = doc
    for key in parents:
        holder = holder[int(key)] if isinstance(holder, list) else holder[key]
    holder[int(last) if isinstance(holder, list) else last] = value


@pytest.mark.parametrize(
    "command, path, value, problem",
    [
        (["compare", "--budget-successors", "2"], "comparison/ok", 1, "/comparison/ok: recorded 1, expected True"),
        (["compare", "--budget-successors", "2"], "comparison/surjective/0", 1, "/comparison/surjective/0: recorded 1, expected True"),
        (["compare", "--budget-successors", "2"], "timing/work/free/stages", 3.0, "/timing/work/free/stages: recorded 3.0, expected 3"),
        (["laws", "--max-total", "2"], "checks/0/ok", 1, "/checks/0/ok: recorded 1, expected True"),
        (["laws", "--max-total", "2"], "ok", 1, "/ok: recorded 1, expected True"),
        (["enumerate"], "algebra_count", 0.0, "/algebra_count: recorded 0.0, expected 0"),
        (["enumerate"], "ok", 1, "/ok: recorded 1, expected True"),
    ],
)
def test_validate_tells_numbers_and_booleans_apart(tmp_path, map_file, capsys, command, path, value, problem):
    out = tmp_path / "cert.json"
    if command[0] != "laws":
        command = command + ["--category", "terminal", "--gens", "point", "--map", str(map_file)]
    assert main(command + ["--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    capsys.readouterr()
    assert main(["validate", str(out)]) == 0
    _edit(doc, path, value)
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["validate", str(out)]) == 3
    assert problem in capsys.readouterr().out


def test_validate_rejects_runs_whose_limit_stages_differ(tmp_path, capsys):
    # both runs validate on their own, but the plain one passes to a limit
    # at stage 2, where the free one takes a successor
    gens, g = get_gens("point"), set_map(2, 3, [1, 1])
    free = run_free(gens, g, budget=OrdinalBudget(3, 1), stop_at_convergence=False)
    aligned = run_plain(gens, g, budget=OrdinalBudget(3, 1), stop_at_convergence=False)
    plain = run_plain(gens, g, budget=OrdinalBudget(1, 2), stop_at_convergence=False)
    assert [s.kind for s in plain.stages] == ["zero", "onestep", "limit", "onestep"]
    doc = compare_certificate(free, aligned, build_comparison(free, aligned))
    doc["plain"] = sequence_body(plain)
    doc["timing"]["work"]["plain"] = plain.work
    out = tmp_path / "cmp.json"
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["validate", str(out)]) == 3
    assert "/: recomputation failed: stage 2 kinds differ between the runs" in capsys.readouterr().out


def test_validate_rejects_runs_with_different_budgets(tmp_path, capsys):
    # the stage kinds line up, so the comparison of the shorter prefix holds,
    # but `nwfs compare` spends one budget on both runs
    gens, g = get_gens("point"), set_map(2, 3, [1, 1])
    free = run_free(gens, g, budget=OrdinalBudget(2, 1), stop_at_convergence=False)
    plain = run_plain(gens, g, budget=OrdinalBudget(3, 1), stop_at_convergence=False)
    out = tmp_path / "cmp.json"
    out.write_text(json.dumps(compare_certificate(free, plain, build_comparison(free, plain))))
    capsys.readouterr()
    assert main(["validate", str(out)]) == 3
    assert capsys.readouterr().out.splitlines() == ["problem: /plain/budget: differs from the free run's budget", "1 problem(s) found"]


def test_usage_errors_exit_four(tmp_path, map_file):
    out = tmp_path / "cert.json"
    assert main(["factorize", "--category", "terminal", "--gens", "point", "--map", str(map_file), "--out", str(out)]) == 0
    assert cli("validate", str(out), "--format", "json").returncode == 4
    res = cli("factorize", "--category", "terminal", "--gens", "point", "--map", str(map_file), "--bogus")
    assert res.returncode == 4
    assert "unrecognized arguments: --bogus" in res.stderr
    assert cli("validate", "--help").returncode == 0


def test_validate_rebuilds_the_comparison_maps(tmp_path, map_file, capsys):
    # the tampered map still commutes with both halves and is surjective,
    # but it is not the map the comparison construction gives
    out = tmp_path / "cmp.json"
    assert main([
        "compare", "--category", "terminal", "--gens", "point",
        "--map", str(map_file), "--budget-successors", "2", "--out", str(out),
    ]) == 0
    doc = json.loads(out.read_text())
    assert doc["comparison"]["maps"][2]["0"]["3"] == 3
    doc["comparison"]["maps"][2]["0"]["3"] = 1
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["validate", str(out)]) == 3
    assert "/comparison/maps/2/0/3: recorded 1, expected 3" in capsys.readouterr().out


def test_validate_requires_a_plain_stage_to_be_its_steps_middle(tmp_path, map_file, capsys):
    # renaming one element of the first plain step leaves the step
    # consistent on its own, but it is not the step the validator rebuilds
    out = tmp_path / "cmp.json"
    assert main([
        "compare", "--category", "terminal", "--gens", "point",
        "--map", str(map_file), "--budget-successors", "2", "--out", str(out),
    ]) == 0
    doc = json.loads(out.read_text())
    step = doc["plain"]["steps"][0]
    assert step["mid"]["sets"]["0"] == [0, 1, 2, 3, 4] and step["cells"]["0"]["2"] == 4
    step["mid"] = {"sets": {"0": [0, 1, 2, 3, 7]}, "actions": {"id0": {"0": 0, "1": 1, "2": 2, "3": 3, "7": 7}}}
    step["right"]["0"]["7"] = step["right"]["0"].pop("4")
    step["squares"][2]["cell_leg"] = {"0": {"0": 7}}
    step["cells"]["0"]["2"] = 7
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["validate", str(out)]) == 3
    assert "/plain/steps/0/mid/sets/0/4: recorded 7, expected 4" in capsys.readouterr().out


def _glue_the_cell_over_one_to_zero(holder):
    """Replace a 5-element point middle of 2 -> 3 [1, 1] by a 4-element one.

    The cell over 1 becomes domain element 0; the cells over 0 and 2 become
    2 and 3. The right half is edited to match, so the stage still factors
    the arrow.
    """
    holder["mid"] = {"sets": {"0": [0, 1, 2, 3]}, "actions": {"id0": {"0": 0, "1": 1, "2": 2, "3": 3}}}
    holder["right"] = {"0": {"0": 1, "1": 1, "2": 0, "3": 2}}


@pytest.mark.parametrize(
    "forge_step, problem",
    [
        (True, "/run/steps/0/mid/sets/0: recorded 4 entries, expected 5"),
        (False, "/run/stages/1/mid/sets/0: recorded 4 entries, expected 5"),
    ],
)
def test_validate_checks_step_middles_against_attach(tmp_path, map_file, capsys, forge_step, problem):
    out = tmp_path / "plain.json"
    assert main([
        "plain", "--category", "terminal", "--gens", "point",
        "--map", str(map_file), "--budget-successors", "1", "--out", str(out),
    ]) == 2
    capsys.readouterr()
    assert main(["validate", str(out)]) == 0
    doc = json.loads(out.read_text())
    run = doc["run"]
    assert run["steps"][0]["mid"]["sets"]["0"] == [0, 1, 2, 3, 4]
    _glue_the_cell_over_one_to_zero(run["stages"][1])
    if forge_step:
        step = run["steps"][0]
        _glue_the_cell_over_one_to_zero(step)
        for n, cell in enumerate([2, 0, 3]):
            step["squares"][n]["cell_leg"] = {"0": {"0": cell}}
        step["cells"] = {"0": {"0": 2, "1": 0, "2": 3}}
    run["cardinalities"][1] = {"0": 4}
    doc["timing"]["work"]["elements"] = 6
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["validate", str(out)]) == 3
    assert problem in capsys.readouterr().out


def test_validate_rejects_over_collapsed_stages_whose_pairs_ask_for_it(tmp_path, monkeypatch, capsys):
    # a faulty coequalizer also identifies elements 0 and 1 at object '0'
    # of every free step's middle; each recorded pair then gets a made-up
    # element that asks for that identification, so every fold is the
    # coequalizer of its recorded pair, though not of the pair the engine builds
    def over_collapsing(first, second):
        pairs = [
            (a, first.components[a][x], second.components[a][x])
            for a in first.source.base.objects
            for x in first.source.carrier[a]
        ]
        return quotient(first.target, pairs + [("0", 0, 1)])

    with monkeypatch.context() as patch:
        patch.setattr(sequence, "coequalizer", over_collapsing)
        state = run_free(get_gens("horns<=1"), edge_to_point(), OrdinalBudget(3, 1))
    assert [stage.mid.total_size for stage in state.stages] == [5, 17, 39, 79]
    doc = json.loads(json.dumps(sequence_certificate(state)))
    for pair in doc["run"]["pairs"][1:3]:
        pair["first"]["0"]["999999"] = 0
        pair["second"]["0"]["999999"] = 1
    out = tmp_path / "forged.json"
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["validate", str(out)]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith(("problem: /run/stages/2", "problem: /run/pairs/1")) for line in lines)


def test_validate_replays_no_further_than_the_recorded_stages(tmp_path, map_file, capsys):
    out = tmp_path / "cmp.json"
    assert main([
        "compare", "--category", "terminal", "--gens", "point",
        "--map", str(map_file), "--budget-successors", "2", "--out", str(out),
    ]) == 0
    doc = json.loads(out.read_text())
    doc["free"]["budget"]["successors_per_block"] = 10**9
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["validate", str(out)]) == 3
    assert capsys.readouterr().out.splitlines()[0] == "problem: /free/budget: the stages do not match the budget"


def test_validate_rejects_unknown_keys_in_a_law_check(tmp_path, capsys):
    out = tmp_path / "laws.json"
    assert main(["laws", "--max-total", "2", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    doc["checks"][1]["extra"] = "x"
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["validate", str(out)]) == 3
    assert capsys.readouterr().out.splitlines() == ["problem: /checks/1/extra: not expected", "1 problem(s) found"]


@pytest.mark.parametrize(
    "sample",
    [
        {"kind": "exhaustive", "max_total": 40},
        {"kind": "exhaustive", "max_total": 10**9},
        {"kind": "seeded", "category": "delta<=1", "count": 10**9, "seed": 0},
    ],
)
def test_validate_bounds_a_laws_sample_by_the_recorded_checks(tmp_path, capsys, sample):
    # graph on the 4 arrows of --max-total 2 records 44 checks; every rule
    # records at least two on each arrow, so 22 arrows is the most they cover
    out = tmp_path / "laws.json"
    assert main(["laws", "--rules", "graph", "--max-total", "2", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["checks"]) == 44
    doc["sample"] = sample
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["validate", str(out)]) == 3
    assert capsys.readouterr().out.splitlines()[0] == (
        "problem: /sample: names more than 22 arrows, too many for the recorded checks"
    )


def test_validate_builds_no_sample_that_no_rule_reads(tmp_path, capsys):
    # a law check of no rules would hold vacuously, so neither side takes one
    out = tmp_path / "laws.json"
    assert main(["laws", "--rules", ",", "--max-total", "2", "--out", str(out)]) == 4
    assert not out.exists()
    assert "/rules: expected at least one rule" in capsys.readouterr().err
    assert main(["laws", "--rules", "graph", "--max-total", "2", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    doc["rules"], doc["checks"] = [], []
    # the sample is never built: the rules are rejected first
    doc["sample"]["max_total"] = 10**9
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["validate", str(out)]) == 3
    assert capsys.readouterr().out.splitlines() == ["problem: /rules: expected at least one rule", "1 problem(s) found"]


@pytest.mark.parametrize(
    "command, path",
    [
        ("factorize", "extra"),
        ("factorize", "run/extra"),
        ("factorize", "run/budget/extra"),
        ("compare", "extra"),
        ("compare", "plain/extra"),
        ("laws", "extra"),
        ("enumerate", "extra"),
        ("fill", "extra"),
    ],
)
def test_validate_rejects_an_unknown_key(tmp_path, map_file, capsys, command, path):
    inputs = ["--category", "terminal", "--gens", "point", "--map", str(map_file)]
    factorized = tmp_path / "factorize.json"
    assert main(["factorize", *inputs, "--out", str(factorized)]) == 0
    argv = {
        "factorize": None,
        "compare": ["compare", *inputs, "--budget-successors", "2"],
        "laws": ["laws", "--max-total", "2"],
        "enumerate": ["enumerate", *inputs],
        "fill": ["fill", str(factorized), "--square", "0"],
    }[command]
    out = factorized if argv is None else tmp_path / f"{command}.json"
    if argv is not None:
        assert main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["validate", str(out)]) == 0
    doc = json.loads(out.read_text())
    _edit(doc, path, 1)
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["validate", str(out)]) == 3
    assert capsys.readouterr().out.splitlines() == [f"problem: /{path}: not expected", "1 problem(s) found"]


def test_validate_rejects_another_algebra_of_the_converged_step(tmp_path, map_file, capsys):
    # every algebra structure on the converged step, with its own lifting
    # table, is a valid pair; the certificate must record the one the run's
    # fold gives
    out, doc = _honest_factorize_cert(tmp_path, map_file)
    run = run_free(get_gens("point"), set_map(2, 3, [1, 1]))
    structures = [
        alg
        for alg in enumerate_algebra_structures(onestep(run.gens, run.stages[run.converged_at].right))
        if components_doc(alg.structure) != doc["algebra"]["structure"]
    ]
    assert len(structures) == 2
    other = structures[0]
    assert not validate_algebra(other) and maps_equal(other.step.left, run.steps[run.converged_at].left)
    doc["algebra"] = {"structure": components_doc(other.structure)}
    doc["lifting_table"] = {"fillers": [components_doc(f) for f in fillers_from_algebra(other).fillers]}
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["validate", str(out)]) == 3
    problem, summary = capsys.readouterr().out.splitlines()
    assert problem.startswith("problem: /algebra/structure/0/") and summary == "1 problem(s) found"


def test_validate_requires_the_algebra_of_a_converged_run(tmp_path, map_file, capsys):
    # `nwfs factorize` records the algebra of every converged run, and
    # `nwfs fill` reads its lifting table
    out, doc = _honest_factorize_cert(tmp_path, map_file)
    doc["algebra"] = doc["lifting_table"] = None
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["validate", str(out)]) == 3
    assert capsys.readouterr().out.splitlines() == ["problem: /algebra: expected an object, got NoneType", "1 problem(s) found"]


def test_laws_writes_no_sample_spec_the_validator_rejects(tmp_path, capsys):
    out = tmp_path / "laws.json"
    assert main(["laws", "--max-total", "-1", "--out", str(out)]) == 4
    assert not out.exists()
    assert "/sample/max_total: expected a non-negative integer" in capsys.readouterr().err

    assert main(["laws", "--max-total", "2", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    doc["sample"]["max_total"] = -1
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["validate", str(out)]) == 3
    assert "problem: /sample/max_total: expected a non-negative integer" in capsys.readouterr().out

    for count in ("-1", "0"):
        assert main(["laws", "--samples", count, "--category", "terminal", "--out", str(out)]) == 4
        assert "/sample/count: expected a positive integer" in capsys.readouterr().err
        doc["sample"] = {"kind": "seeded", "category": "terminal", "count": int(count), "seed": 0}
        out.write_text(json.dumps(doc))
        assert main(["validate", str(out)]) == 3
        assert "problem: /sample/count: expected a positive integer" in capsys.readouterr().out


def test_laws_on_a_category_file_keeps_its_bytes(tmp_path):
    # the digest was recorded when `nwfs laws` still built its spec by hand
    category, out = tmp_path / "cat.json", tmp_path / "laws.json"
    category.write_text(pretty_json(category_doc(get_category("delta<=1"))))
    argv = ["laws", "--rules", "graph,cograph", "--samples", "3", "--seed", "7", "--category", str(category)]
    assert main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == "ff15e30ce3fabfdafff94fa169528869515f178b65f887eddcaf425400596375"
    assert main(["validate", str(out)]) == 0


@pytest.mark.parametrize("index", [0, -1, 1000000])
def test_validate_rejects_a_filler_generator_index(tmp_path, map_file, capsys, index):
    # the filler certificate embeds the generator arrow, not the generating
    # set an index would point into
    factorized, _ = _honest_factorize_cert(tmp_path, map_file)
    out = tmp_path / "filler.json"
    assert main(["fill", str(factorized), "--square", "0", "--out", str(out)]) == 0
    assert "(generator 0: " in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert "generator" not in doc
    doc["generator"] = index
    out.write_text(json.dumps(doc))
    assert main(["validate", str(out)]) == 3
    assert capsys.readouterr().out.splitlines() == ["problem: /generator: not expected", "1 problem(s) found"]


@pytest.mark.parametrize("key", ["00", " 0", "+0", "0_0"])
def test_a_map_key_not_written_in_decimal_form_exits_four(tmp_path, capsys, key):
    # int() reads each of these keys as element 0, which would replace the
    # value the key "0" gives
    doc = {**MAP_DOC, "target": {"sets": {"0": [0, 1]}, "actions": {"id0": {"0": 0, "1": 1}}}}
    doc["components"] = {"0": {"0": 0, key: 1, "1": 1}}
    (tmp_path / "g.json").write_text(json.dumps(doc))
    argv = ["compare", "--category", "terminal", "--gens", "point", "--map", str(tmp_path / "g.json"), "--out", str(tmp_path / "c.json")]
    assert main(argv) == 4
    assert f"error: /map/components/0/{key}: key is not an integer element id in decimal form" in capsys.readouterr().err
    assert not (tmp_path / "c.json").exists()


def test_a_repeated_element_id_exits_four(tmp_path, capsys):
    doc = {**MAP_DOC, "source": {"sets": {"0": [0, 1, 0]}, "actions": {"id0": {"0": 0, "1": 1}}}}
    (tmp_path / "g.json").write_text(json.dumps(doc))
    argv = ["compare", "--category", "terminal", "--gens", "point", "--map", str(tmp_path / "g.json"), "--out", str(tmp_path / "c.json")]
    assert main(argv) == 4
    assert "error: /map/source/sets/0/2: element id 0 repeated" in capsys.readouterr().err
    assert not (tmp_path / "c.json").exists()

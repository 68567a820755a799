import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from starspec.cli import main
from starspec.io import JSON_SCHEMAS, instance_to_dict
from starspec.transfer import make_instance

ROOT = Path(__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


GOLDEN = ROOT / "tests" / "data" / "golden"
# one "name exit-status argv..." line per command, paths relative to the
# repository root
GOLDEN_COMMANDS = [line.split() for line in
                   (GOLDEN / "commands.txt").read_text().splitlines() if line]


def write_instance(tmp_path, name, branches, gamma, **extra):
    data = instance_to_dict(make_instance(branches, gamma))
    data.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_classify_output(capsys):
    code, out, _ = run_cli(capsys, "classify", "--branches", "2,2,2")
    assert code == 0
    parsed = json.loads(out)
    assert parsed["class"] == "ExtendedDynkin"
    assert parsed["name"] == "E6~"
    assert parsed["delta"] == [1, 2, 1, 2, 1, 2, 3]


def test_classify_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "classify", "--branches", "5,2,1")
    _, out2, _ = run_cli(capsys, "classify", "--branches", "5,2,1")
    assert out1 == out2


def test_roots_table(capsys):
    code, out, _ = run_cli(capsys, "roots", "--branches", "2,2,2")
    assert code == 0
    parsed = json.loads(out)
    assert len(parsed["fundamental"]) == 36


def test_roots_series(capsys):
    code, out, _ = run_cli(capsys, "roots", "--branches", "2,2,2",
                           "--series", "K3")
    assert code == 0
    parsed = json.loads(out)
    assert len(parsed["delta_series"]) == 4
    code, out, _ = run_cli(capsys, "roots", "--branches", "2,2,2",
                           "--series", "K1")
    assert len(json.loads(out)["delta_series"]) == 12


def test_coxeter_word(capsys, tmp_path):
    pair = {"d": [1, 2, 1, 2, 1, 2, 3], "f": [1, 2, 1, 2, 1, 2, 3]}
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(pair))
    code, out, _ = run_cli(capsys, "coxeter", "--branches", "2,2,2",
                           "--word", "even,odd", "--pair", str(path))
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert len(lines) == 3
    assert lines[0]["token"] is None
    assert lines[1]["d"] == [1, 2, 1, 2, 1, 2, 3]  # radical is fixed


def test_feasible_exit_codes(capsys, tmp_path):
    feas = write_instance(tmp_path, "f.json", [[2, 1], [2, 1], [2, 1]], 3)
    code, out, _ = run_cli(capsys, "feasible", "--instance", feas)
    assert code == 0
    assert json.loads(out)["status"] == "feasible"

    infeas = write_instance(tmp_path, "i.json", [[10, 1], [2, 1], [2, 1]], "17/3")
    code, out, _ = run_cli(capsys, "feasible", "--instance", infeas,
                           "--scan-bound", "10")
    assert code == 1
    assert json.loads(out)["status"] == "infeasible"


def test_feasible_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "feasible", "--instance", str(bad))
    assert code == 64
    assert "error" in err


def test_feasible_non_utf8_file_is_bad_input(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}\n")
    code, out, err = run_cli(capsys, "feasible", "--instance", str(bad))
    assert code == 64
    assert out == ""
    assert json.loads(err)["error"] == "bad_input"


def test_construct_and_verify_closure(capsys, tmp_path):
    inst = write_instance(tmp_path, "inst.json", [[2, 1], [2, 1], [2, 1]], 3)
    out_path = tmp_path / "rep.json"
    code, out, _ = run_cli(capsys, "construct", "--instance", inst,
                           "--seed", "4", "-o", str(out_path))
    assert code == 0
    assert out_path.exists()
    code, out, _ = run_cli(capsys, "verify", "--rep", str(out_path),
                           "--instance", inst)
    assert code == 0
    report = json.loads(out)
    assert report["overall"] is True
    assert report["commutant_dimension"] == 1


def test_construct_close_spectrum(capsys, tmp_path):
    """E6~ spectrum points 2e-10 apart construct and verify (they once
    exited 64: the eigenvalue grouping claimed both points)."""
    inst = str(ROOT / "tests" / "data" / "e6_close_spectrum.json")
    out_path = tmp_path / "rep.json"
    code, out, _ = run_cli(capsys, "construct", "--instance", inst,
                           "-o", str(out_path))
    assert code == 0, out
    assert json.loads(out)["residual"] < 1e-12
    code, out, _ = run_cli(capsys, "verify", "--rep", str(out_path),
                           "--instance", inst)
    assert code == 0
    report = json.loads(out)
    assert report["overall"] is True
    assert report["commutant_dimension"] == 1


def test_construct_large_character(capsys, tmp_path):
    """A character scaled by 10^6 constructs and verifies with the default
    bounds, which scale with the instance."""
    inst = write_instance(tmp_path, "inst.json",
                          [[94 * 10**6, 35 * 10**6], [90 * 10**6, 32 * 10**6],
                           [88 * 10**6, 21 * 10**6]], 158 * 10**6)
    out_path = tmp_path / "rep.json"
    code, out, _ = run_cli(capsys, "construct", "--instance", inst,
                           "-o", str(out_path))
    assert code == 0, out
    code, out, _ = run_cli(capsys, "verify", "--rep", str(out_path))
    assert code == 0
    report = json.loads(out)
    assert report["overall"] is True
    assert report["commutant_dimension"] == 1


@pytest.mark.parametrize("name, seed", [
    ("e6_horn_near_boundary", 0), ("e6_horn_sweep_plateau", 1),
])
def test_construct_builds_hard_horn_instances(capsys, tmp_path, name, seed):
    """Horn-feasible E6~ hyperplane instances build a representation that
    verify passes with commutant 1: one with smallest Horn margin 3/10000 at
    scale 4, and one on which an eigenvector-alignment sweep from the seed-1
    start plateaus."""
    inst = str(ROOT / "tests" / "data" / f"{name}.json")
    out_path = tmp_path / "rep.json"
    code, out, err = run_cli(capsys, "construct", "--instance", inst,
                             "--seed", str(seed), "-o", str(out_path))
    assert code == 0, err
    code, out, _ = run_cli(capsys, "verify", "--rep", str(out_path),
                           "--instance", inst)
    report = json.loads(out)
    assert code == 0 and report["overall"] is True
    assert report["commutant_dimension"] == 1


def test_construct_deterministic(capsys, tmp_path):
    inst = write_instance(tmp_path, "inst.json", [[5, 2], [4, 1], [6, 3]], 7)
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run_cli(capsys, "construct", "--instance", inst, "--seed", "9", "-o", str(a))
    run_cli(capsys, "construct", "--instance", inst, "--seed", "9", "-o", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_construct_with_dimension_file(capsys, tmp_path, e6, rng):
    from conftest import random_feasible_instance
    from starspec import FAMILY_ROOT
    from starspec.io import gen_dim_to_dict
    from starspec.transfer import n_from_dim

    d, f, inst_obj = random_feasible_instance(e6, FAMILY_ROOT, 5, rng)
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(instance_to_dict(inst_obj)))
    dim = tmp_path / "dim.json"
    dim.write_text(json.dumps(gen_dim_to_dict(n_from_dim(e6, d))))
    rep = tmp_path / "rep.json"
    code, out, _ = run_cli(capsys, "construct", "--instance", str(inst),
                           "--dimension", str(dim), "-o", str(rep))
    assert code == 0
    code, out, _ = run_cli(capsys, "verify", "--rep", str(rep))
    assert code == 0
    assert json.loads(out)["overall"] is True


def test_construct_committed_e8_dimension_file(capsys, tmp_path):
    """The committed E8~ instance and dimension file at n0 = 15, which CI
    also builds and verifies, give a verified irreducible representation."""
    data = ROOT / "tests" / "data"
    rep = tmp_path / "rep.json"
    code, out, _ = run_cli(capsys, "construct",
                           "--instance", str(data / "e8_n0_15.json"),
                           "--dimension", str(data / "e8_n0_15_dimension.json"),
                           "-o", str(rep))
    assert code == 0
    assert json.loads(out)["n0"] == 15
    code, out, _ = run_cli(capsys, "verify", "--rep", str(rep))
    parsed = json.loads(out)
    assert (code, parsed["overall"], parsed["commutant_dimension"]) == (0, True, 1)


def test_construct_d4_delta_dimension_file(capsys, tmp_path):
    """The committed D4~ hyperplane instance in delta, (1;1;1;1) at root
    entry 2, which CI also builds and verifies: the optimizer route gives a
    verified irreducible representation, and at the wall gamma = a_1 the
    instance is refused with exit 64 (a FeasibilityError)."""
    data = ROOT / "tests" / "data"
    dim = str(data / "d4_plane_dimension.json")
    rep = tmp_path / "rep.json"
    code, out, err = run_cli(capsys, "construct",
                             "--instance", str(data / "d4_plane.json"),
                             "--dimension", dim, "-o", str(rep))
    assert code == 0, err
    assert json.loads(rep.read_text())["metadata"]["route"] == "hyperplane_optimizer"
    code, out, _ = run_cli(capsys, "verify", "--rep", str(rep))
    parsed = json.loads(out)
    assert (code, parsed["overall"], parsed["commutant_dimension"]) == (0, True, 1)
    wall = write_instance(tmp_path, "wall.json", [[60], [30], [20], [10]], 60)
    code, out, err = run_cli(capsys, "construct", "--instance", wall, "--dimension", dim)
    assert (code, out) == (64, "")
    assert json.loads(err)["error"] == "FeasibilityError"


@pytest.mark.parametrize("dimension", [
    ["1/2", 1, 1, 1, 1, 1, 1],
    {"n0": 3.9, "branches": [[1, 1], [1, 1], [1, 1]]},
    {"n0": True, "branches": [[1, 1], [1, 1], [1, 1]]},
    {"n0": 3, "branches": [[1, 1], [1, 1.0], [1, 1]]},
])
def test_construct_rejects_non_integer_dimension(capsys, tmp_path, dimension):
    inst = write_instance(tmp_path, "inst.json", [[5, 2], [5, 2], [5, 2]], 7)
    dim = tmp_path / "dim.json"
    dim.write_text(json.dumps(dimension))
    code, out, err = run_cli(capsys, "construct", "--instance", inst,
                             "--dimension", str(dim))
    assert code == 64
    assert out == ""
    assert json.loads(err)["error"] == "IOError_"


def test_construct_refuses_degenerate_dimension(capsys):
    """A feasible pair in the degenerate E6~ root (0,1,1,2,1,2,2) has no
    algebra representation: construct writes nothing and exits 64 with a
    RepError."""
    from starspec import build_star, char_from_chi, iterative_feasible
    from starspec.io import instance_from_dict

    data = ROOT / "tests" / "data"
    inst = instance_from_dict(json.loads((data / "e6_degenerate.json").read_text()))
    d = tuple(json.loads((data / "e6_degenerate_dimension.json").read_text()))
    e6 = build_star([2, 2, 2])
    assert iterative_feasible(e6, d, char_from_chi(e6, inst)).feasible
    code, out, err = run_cli(capsys, "construct",
                             "--instance", str(data / "e6_degenerate.json"),
                             "--dimension", str(data / "e6_degenerate_dimension.json"))
    assert (code, out) == (64, "")
    assert err == ('{"error":"RepError","message":'
                   '"representation dimension is degenerate"}\n')


def test_verify_rejects_non_integer_n0(capsys, tmp_path):
    inst = write_instance(tmp_path, "inst.json", [[2, 1], [2, 1], [2, 1]], 3)
    rep = tmp_path / "rep.json"
    run_cli(capsys, "construct", "--instance", inst, "-o", str(rep))
    data = json.loads(rep.read_text())
    data["n0"] = 3.5
    rep.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "verify", "--rep", str(rep))
    assert code == 64
    assert out == ""
    assert json.loads(err)["error"] == "IOError_"


def test_verify_rejects_zero_n0(capsys, tmp_path):
    """An empty representation is an input error (64), not a failed
    verification (1)."""
    inst = write_instance(tmp_path, "inst.json", [[2, 1], [2, 1], [2, 1]], 3)
    rep = tmp_path / "rep.json"
    run_cli(capsys, "construct", "--instance", inst, "-o", str(rep))
    data = json.loads(rep.read_text())
    data["n0"] = 0
    data["projections"] = [[[] for _ in branch] for branch in data["projections"]]
    rep.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "verify", "--rep", str(rep))
    assert code == 64
    assert out == ""
    assert json.loads(err)["error"] == "IOError_"


@pytest.mark.parametrize("command,field,value", [
    ("feasible", "scan_bound", "abc"),
    ("feasible", "scan_bound", None),
    ("feasible", "scan_bound", 3.9),
    ("construct", "seed", 2.5),
    ("construct", "seed", "abc"),
    ("construct", "seed", None),
])
def test_integer_instance_fields_reject_non_integers(capsys, tmp_path, command,
                                                     field, value):
    inst = write_instance(tmp_path, "inst.json", [[2, 1], [2, 1], [2, 1]], 3,
                          **{field: value})
    code, out, err = run_cli(capsys, command, "--instance", inst)
    assert code == 64
    assert out == ""
    assert json.loads(err)["error"] == "IOError_"


def test_coxeter_domain_error_is_an_input_error(capsys, tmp_path):
    """A word that leaves the functor domain exits 64 with a JSON error,
    and prints none of the states reached before it."""
    pair = {"d": [1, 0, 0, 0, 0, 0, 0], "f": [0, 1, 1, 1, 1, 1, -5]}
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(pair))
    code, out, err = run_cli(capsys, "coxeter", "--branches", "2,2,2",
                             "--word", "odd,even", "--pair", str(path))
    assert code == 64
    assert out == ""
    parsed = json.loads(err)
    assert parsed["error"] == "CoxeterDomainError"
    assert "vertex 6" in parsed["message"]


def test_coxeter_word_leaving_the_domain_late_prints_nothing(capsys):
    """The first token of the committed pair stays in the domain and the
    second leaves it: stdout stays empty, as after a bad token, so no
    partial trajectory reads as a complete one."""
    code, out, err = run_cli(
        capsys, "coxeter", "--branches", "2,2,2", "--word", "even,odd",
        "--pair", str(ROOT / "tests" / "data" / "e6_pair_leaves_domain.json"))
    assert (code, out) == (64, "")
    assert json.loads(err)["error"] == "CoxeterDomainError"
    code, out, _ = run_cli(
        capsys, "coxeter", "--branches", "2,2,2", "--word", "even",
        "--pair", str(ROOT / "tests" / "data" / "e6_pair_leaves_domain.json"))
    assert code == 0
    assert [json.loads(line)["token"] for line in out.splitlines()] == [None, "even"]


@pytest.mark.parametrize("word", ["", "even,", ",odd", "even,,odd"])
def test_coxeter_empty_token_is_a_bad_token(capsys, word):
    """Every comma-separated entry of --word is a token; an empty one exits
    64 before any state is printed."""
    code, out, err = run_cli(capsys, "coxeter", "--branches", "2,2,2",
                             "--word", word,
                             "--pair", str(ROOT / "tests" / "data" / "e6_pair.json"))
    assert code == 64
    assert out == ""
    assert json.loads(err) == {"error": "bad_token", "message": "unknown token ''"}


@pytest.mark.parametrize("pair", [[1, 2], "d", 3, None, {"d": [1, 2, 1, 2, 1, 2, 3]}])
def test_coxeter_pair_must_be_an_object_with_d_and_f(capsys, tmp_path, pair):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(pair))
    code, out, err = run_cli(capsys, "coxeter", "--branches", "2,2,2",
                             "--word", "even", "--pair", str(path))
    assert code == 64
    assert out == ""
    assert json.loads(err)["error"] == "IOError_"


@pytest.mark.parametrize("change", ["missing", "extra"])
def test_verify_rejects_projection_count(capsys, tmp_path, change):
    inst = write_instance(tmp_path, "inst.json", [[2, 1], [2, 1], [2, 1]], 3)
    rep = tmp_path / "rep.json"
    run_cli(capsys, "construct", "--instance", inst, "-o", str(rep))
    data = json.loads(rep.read_text())
    branch = data["projections"][0]
    if change == "missing":
        branch.pop()
    else:
        branch.append(branch[0])
    rep.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "verify", "--rep", str(rep))
    assert code == 64
    assert out == ""
    assert json.loads(err)["error"] == "IOError_"


@pytest.mark.parametrize("field,value", [
    ("gamma", None),
    ("spectrum", "abc"),
    ("spectrum", "1/0"),
])
def test_feasible_rejects_bad_rational(capsys, tmp_path, field, value):
    data = {"branches": [[2, 1], [2, 1], [2, 1]], "gamma": 3}
    if field == "gamma":
        data["gamma"] = value
    else:
        data["branches"][1][0] = value
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "feasible", "--instance", str(path))
    assert code == 64
    assert out == ""
    assert json.loads(err)["error"] == "IOError_"


def test_solve_batch(capsys, tmp_path):
    write_instance(tmp_path, "a.json", [[2, 1], [2, 1], [2, 1]], 3)
    write_instance(tmp_path, "b.json", [[10, 1], [2, 1], [2, 1]], "17/3")
    (tmp_path / "c.json").write_text("{broken")
    code, out, _ = run_cli(capsys, "solve-batch", str(tmp_path),
                           "--scan-bound", "8")
    assert code == 0
    summary = json.loads(out)
    assert summary["counts"]["feasible"] == 1
    assert summary["counts"]["infeasible"] == 1
    assert summary["counts"]["error"] == 1
    assert len(summary["results"]) == 3


def test_solve_batch_records_non_utf8_file(capsys, tmp_path):
    write_instance(tmp_path, "a.json", [[2, 1], [2, 1], [2, 1]], 3)
    (tmp_path / "b.json").write_bytes(b"\xff\xfe{}\n")
    code, out, _ = run_cli(capsys, "solve-batch", str(tmp_path),
                           "--scan-bound", "8")
    assert code == 0
    summary = json.loads(out)
    assert summary["counts"] == {"feasible": 1, "infeasible": 0,
                                 "degenerate": 0, "error": 1}
    assert [r["status"] for r in summary["results"]] == ["feasible", "error"]


def test_solve_batch_empty(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "solve-batch", str(tmp_path))
    assert code == 0
    assert json.loads(out)["results"] == []


def test_version_and_schema(capsys):
    with pytest.raises(SystemExit):
        main(["--version"])
    out = capsys.readouterr().out
    assert out.strip()
    code, out, _ = run_cli(capsys, "--json-schema")
    assert code == 0
    assert "instance" in json.loads(out)
    assert out == json.dumps(JSON_SCHEMAS, sort_keys=True, indent=2) + "\n"


def _rep_file(capsys, tmp_path):
    inst = write_instance(tmp_path, "inst.json", [[2, 1], [2, 1], [2, 1]], 3)
    rep = tmp_path / "rep.json"
    run_cli(capsys, "construct", "--instance", inst, "-o", str(rep))
    return rep


@pytest.mark.parametrize("change", ["extra", "bools", "ragged", "string", "shape"])
def test_verify_rejects_malformed_matrix(capsys, tmp_path, change):
    rep = _rep_file(capsys, tmp_path)
    data = json.loads(rep.read_text())
    mat = data["projections"][1][0]
    if change == "extra":
        mat[0][0] = [mat[0][0], 0.0]
    elif change == "bools":
        mat[0][0] = True
    elif change == "ragged":
        mat[1].pop()
    elif change == "string":
        mat[0][0] = "1.0"
    else:
        data["projections"][1][0] = [row[:2] for row in mat[:2]]
    rep.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "verify", "--rep", str(rep))
    assert code == 64
    assert out == ""
    assert json.loads(err)["error"] == "IOError_"


@pytest.mark.parametrize("entry,code", [("NaN", 64), ("Infinity", 64),
                                        ("1e308", 1)])
def test_verify_non_finite_or_overflowing_entry(capsys, tmp_path, entry, code):
    """NaN and infinities are malformed matrices (exit 64); a finite
    diagonal entry whose products overflow fails checks (exit 1), where
    eigvalsh once failed to converge (exit 3), and has no commutant
    dimension.  Neither raises."""
    rep = _rep_file(capsys, tmp_path)
    data = json.loads(rep.read_text())
    data["projections"][0][0][1][1] = "ENTRY"
    rep.write_text(json.dumps(data).replace('"ENTRY"', entry))
    got, out, err = run_cli(capsys, "verify", "--rep", str(rep))
    assert got == code
    if code == 64:
        assert out == ""
        assert json.loads(err)["error"] == "IOError_"
    else:
        assert err == ""
        report = json.loads(out)
        assert report["overall"] is False
        failed = {c["name"] for c in report["checks"] if not c["ok"]}
        assert {"idempotent P1^(1)", "weighted sum = gamma I"} <= failed
        assert report["commutant_dimension"] is None


def test_verify_overflowing_horn_rep_has_no_commutant(capsys, tmp_path):
    """Two diagonal entries of 1e308 in P1^(1) of a Horn rep: the checks
    fail, and the commutant dimension is null instead of a rank of values
    that overflow."""
    inst = write_instance(tmp_path, "inst.json", [[20, 10], [21, 9], [19, 11]], 30)
    rep = tmp_path / "rep.json"
    assert run_cli(capsys, "construct", "--instance", inst, "-o", str(rep))[0] == 0
    data = json.loads(rep.read_text())
    assert data["metadata"]["route"] == "hyperplane_optimizer"
    for i in (0, 1):
        data["projections"][0][0][i][i] = 1e308
    rep.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "verify", "--rep", str(rep))
    assert (code, err) == (1, "")
    report = json.loads(out)
    assert report["overall"] is False
    assert report["commutant_dimension"] is None
    assert '"commutant_dimension":null' in out


def test_verify_reads_pair_files_as_row_files(capsys, tmp_path):
    """A Horn rep written as [re, im] pairs, the format of real matrices
    before they became rows of numbers, still verifies irreducible, and
    its report is byte-identical to that of the same matrices as rows."""
    pairs = ROOT / "tests" / "data" / "e6_horn_rep_pairs.json"
    data = json.loads(pairs.read_text())
    data["projections"] = [[[[re for re, _ in row] for row in m] for m in branch]
                           for branch in data["projections"]]
    rows = tmp_path / "rows.json"
    rows.write_text(json.dumps(data, sort_keys=True, indent=2) + "\n")
    code, out, err = run_cli(capsys, "verify", "--rep", str(pairs))
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["overall"] is True and report["commutant_dimension"] == 1
    assert run_cli(capsys, "verify", "--rep", str(rows)) == (0, out, "")


def test_numerical_failure_exit_code(capsys, tmp_path, monkeypatch):
    """A LAPACK routine that gives up is a numerical failure (exit 3), not
    the infeasible code."""
    import numpy as np

    rep = _rep_file(capsys, tmp_path)

    def failing_svd(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", failing_svd)
    code, out, err = run_cli(capsys, "verify", "--rep", str(rep))
    assert code == 3
    assert out == ""
    assert json.loads(err) == {"error": "numerical_failure",
                               "message": "SVD did not converge"}


@pytest.mark.parametrize("command", ["construct", "verify"])
@pytest.mark.parametrize("message", ["Unable to allocate 1.54 GiB", ""],
                         ids=["numpy", "bare"])
def test_out_of_memory_exit_code(capsys, tmp_path, monkeypatch, command,
                                 message):
    """Memory that runs out in the commutant is a numerical failure (exit 3,
    error kind out_of_memory), not a traceback and the infeasible code 1."""
    from starspec import verify

    rep = _rep_file(capsys, tmp_path)

    def exhausted(rep):
        raise MemoryError(message)

    monkeypatch.setattr(verify, "commutant_dimension", exhausted)
    argv = (["verify", "--rep", str(rep)] if command == "verify" else
            ["construct", "--instance", str(tmp_path / "inst.json")])
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert json.loads(err) == {
        "error": "out_of_memory",
        "message": message or "the interpreter ran out of memory"}


def test_batch_counts_match_individual(capsys, tmp_path):
    files = {
        "a.json": ([[2, 1], [2, 1], [2, 1]], 3),
        "b.json": ([[3, 1], [3, 1], [3, 1]], 4),
        "c.json": ([[10, 1], [2, 1], [2, 1]], "17/3"),
    }
    expected = {}
    for name, (branches, gamma) in files.items():
        path = write_instance(tmp_path, name, branches, gamma)
        code, out, _ = run_cli(capsys, "feasible", "--instance", path,
                               "--scan-bound", "8")
        expected[name] = json.loads(out)["status"]
    code, out, _ = run_cli(capsys, "solve-batch", str(tmp_path),
                           "--scan-bound", "8")
    summary = json.loads(out)
    got = {r["file"]: r["status"] for r in summary["results"]}
    assert got == expected


def test_construct_real_root_route(capsys, tmp_path, e6, rng):
    """Without --dimension, construct solves first and builds through the
    reflection functors when the witness is a real-root dimension."""
    from conftest import random_feasible_instance
    from starspec import FAMILY_ROOT

    _, _, inst_obj = random_feasible_instance(e6, FAMILY_ROOT, 6, rng)
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(instance_to_dict(inst_obj)))
    rep = tmp_path / "rep.json"
    code, out, _ = run_cli(capsys, "construct", "--instance", str(inst),
                           "--scan-bound", "15", "-o", str(rep))
    assert code == 0
    data = json.loads(rep.read_text())
    assert data["metadata"]["route"] == "reflection_functors"
    code, out, _ = run_cli(capsys, "verify", "--rep", str(rep),
                           "--instance", str(inst))
    assert code == 0
    assert json.loads(out)["overall"] is True


E7_WITNESSED = ([[144, 94, 44], [156, 83, 51], [86]], 180)


def test_scan_bound_zero_is_honoured(capsys, tmp_path):
    """An explicit --scan-bound 0 scans nothing instead of falling back to
    the default bound, under which this E7~ instance has a witness."""
    inst = write_instance(tmp_path, "inst.json", *E7_WITNESSED)
    code, out, _ = run_cli(capsys, "feasible", "--instance", inst)
    assert code == 0
    code, out, _ = run_cli(capsys, "feasible", "--instance", inst,
                           "--scan-bound", "0")
    assert code == 1
    assert "root entry <= 0 (0 candidates tested)" in out


# feasible only in (4,9,5,10,5,10,15), whose root entry 15 is above the
# file's scan bound
E6_ABOVE_FILE_BOUND = ([[214, 100], [214, 97], [239, 128]], 324)


def test_construct_honours_the_file_scan_bound(capsys, tmp_path):
    """construct decides with the same bound as feasible: the file's
    scan_bound unless --scan-bound is given."""
    inst = write_instance(tmp_path, "inst.json", *E6_ABOVE_FILE_BOUND,
                          scan_bound=12)
    code, out, _ = run_cli(capsys, "feasible", "--instance", inst)
    assert code == 1
    assert "(174 candidates tested)" in out
    assert run_cli(capsys, "construct", "--instance", inst) == (code, out, "")
    rep = tmp_path / "rep.json"
    code, out, _ = run_cli(capsys, "construct", "--instance", inst,
                           "--scan-bound", "15", "-o", str(rep))
    assert code == 0
    assert json.loads(out)["n0"] == 15
    code, out, _ = run_cli(capsys, "feasible", "--instance", inst,
                           "--scan-bound", "15")
    assert code == 0
    assert json.loads(out)["witness_dimension"]["n0"] == 15


def test_batch_honours_the_file_scan_bound(capsys, tmp_path):
    """A batch entry decides with its file's scan_bound, as feasible does;
    --scan-bound overrides every file."""
    inst = write_instance(tmp_path, "inst.json", *E6_ABOVE_FILE_BOUND,
                          scan_bound=12)
    code, out, _ = run_cli(capsys, "feasible", "--instance", inst)
    verdict = json.loads(out)
    assert (code, verdict["status"]) == (1, "infeasible")
    code, out, _ = run_cli(capsys, "solve-batch", str(tmp_path))
    assert code == 0
    assert json.loads(out)["results"] == [
        {"file": "inst.json", "status": verdict["status"],
         "branch_taken": verdict["branch_taken"]}]
    code, out, _ = run_cli(capsys, "solve-batch", str(tmp_path),
                           "--scan-bound", "15")
    assert json.loads(out)["results"][0]["status"] == "feasible"


def test_negative_scan_bound_is_a_usage_error(capsys, tmp_path):
    inst = write_instance(tmp_path, "inst.json", *E7_WITNESSED)
    code, out, err = run_cli(capsys, "feasible", "--instance", inst,
                             "--scan-bound", "-3")
    assert code == 64
    assert out == ""
    assert json.loads(err)["error"] == "FeasibilityError"
    inst = write_instance(tmp_path, "neg.json", *E7_WITNESSED, scan_bound=-1)
    code, out, err = run_cli(capsys, "feasible", "--instance", inst)
    assert code == 64
    assert out == ""
    assert json.loads(err)["error"] == "FeasibilityError"


def test_negative_seed_is_a_usage_error(capsys, tmp_path):
    """The optimizer takes no negative seed (it would share its draws with a
    non-negative one): the CLI rejects one before any work, from the flag
    or the file."""
    inst = write_instance(tmp_path, "inst.json", [[2, 1], [2, 1], [2, 1]], 3)
    code, out, err = run_cli(capsys, "construct", "--instance", inst,
                             "--seed", "-1")
    assert code == 64
    assert out == ""
    assert json.loads(err)["error"] == "bad_seed"
    inst = write_instance(tmp_path, "neg.json", [[2, 1], [2, 1], [2, 1]], 3,
                          seed=-5)
    code, out, err = run_cli(capsys, "construct", "--instance", inst)
    assert code == 64
    assert out == ""
    assert json.loads(err)["error"] == "bad_seed"


@pytest.mark.parametrize("argv", [
    ["feasible"],
    ["feasible", "--instance", "x.json", "--scan-bound", "abc"],
    ["bogus"],
    ["verify", "--rep", "x.json", "--tol", "1e-6"],
    ["verify", "--rep", "x.json", "--spec-tol", "1e-6"],
], ids=["missing-instance", "scan-bound-abc", "unknown-command", "tol",
        "spec-tol"])
def test_usage_errors_exit_64(capsys, argv):
    """argparse's usage errors exit 64 like every other input error, not 2,
    the degenerate verdict; verify has no tolerance options."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage:" in captured.err


@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"], ["--version"]])
def test_help_and_version_exit_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out


def test_solve_batch_rejects_negative_bound(capsys, tmp_path):
    """A negative bound is a usage error of the whole batch, as for
    feasible, and no file is solved."""
    write_instance(tmp_path, "a.json", *E7_WITNESSED)
    write_instance(tmp_path, "b.json", [[2, 1], [2, 1], [2, 1]], 3)
    code, out, err = run_cli(capsys, "solve-batch", str(tmp_path),
                             "--scan-bound", "-2")
    assert code == 64
    assert out == ""
    assert json.loads(err) == {"error": "FeasibilityError",
                               "message": "scan bound -2 is negative"}


def run_python(*args, stdout=subprocess.PIPE):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          stdout=stdout, stderr=subprocess.PIPE, text=True,
                          timeout=120)


def run_module(*argv, stdout=subprocess.PIPE):
    return run_python("-m", "starspec", *argv, stdout=stdout)


def test_python_m_starspec(capsys):
    """`python -m starspec` is the CLI: same output and exit codes as
    main(), here on the committed E8~ instance that CI also runs."""
    inst = str(ROOT / "tests" / "data" / "e8_feasible.json")
    for argv, code in ((["roots", "--branches", "1,2,5"], 0),
                       (["feasible", "--instance", inst], 0),
                       (["feasible", "--instance", inst, "--scan-bound", "4"], 1)):
        proc = run_module(*argv)
        expected = run_cli(capsys, *argv)
        assert (proc.returncode, proc.stdout) == expected[:2]
        assert proc.returncode == code, proc.stderr


@pytest.mark.parametrize("argv", [
    ["roots", "--branches", "1,2,5"],
    ["construct", "--instance", "tests/data/e8_feasible.json"],
    ["classify", "--branches", "2,2,2"],
], ids=["roots", "construct", "classify"])
def test_closed_stdout_is_not_bad_input(argv):
    """A reader that closed the pipe (`| head -c 10`) is not bad input: exit
    141 (128 + SIGPIPE) with nothing on stderr.  The read end is closed
    before the child starts, so its first write fails every time; classify
    prints less than one buffer, so there the failure is at the flush."""
    read, write = os.pipe()
    os.close(read)
    try:
        proc = run_module(*argv, stdout=write)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (141, "")


@pytest.mark.parametrize("name,status,argv",
                         [(c[0], int(c[1]), c[2:]) for c in GOLDEN_COMMANDS],
                         ids=[c[0] for c in GOLDEN_COMMANDS])
def test_cli_stdout_matches_golden_file(capsys, monkeypatch, name, status, argv):
    """stdout is byte-identical to tests/data/golden/<name>.txt and the exit
    status is the listed one; the CI steps diff the same commands run as
    `python -m starspec`.  stderr is empty, except after a usage error
    (exit 64), where it is one JSON error line."""
    monkeypatch.chdir(ROOT)
    code, out, err = run_cli(capsys, *argv)
    assert code == status
    assert out == (GOLDEN / f"{name}.txt").read_text()
    if status == 64:
        assert set(json.loads(err)) == {"error", "message"}
    else:
        assert err == ""


# Runs construct and verify through cli.main in an interpreter where numpy
# cannot be imported, and prints each exit code and stderr line.
WITHOUT_NUMPY = """
import sys
sys.modules["numpy"] = None
import starspec.cli
for argv in (["construct", "--instance", sys.argv[1]],
             ["verify", "--rep", sys.argv[2]]):
    print(starspec.cli.main(argv))
"""


def test_numerical_commands_without_numpy_exit_3(capsys, tmp_path):
    """construct and verify need numpy: without it they report a missing
    dependency and exit 3, not a traceback and the infeasible code 1."""
    inst = str(ROOT / "tests" / "data" / "e8_feasible.json")
    rep = tmp_path / "rep.json"
    assert run_cli(capsys, "construct", "--instance", inst, "-o", str(rep))[0] == 0
    proc = run_python("-c", WITHOUT_NUMPY, inst, str(rep))
    assert proc.stdout.split() == ["3", "3"], proc.stderr
    errors = [json.loads(line) for line in proc.stderr.splitlines()]
    assert [e["error"] for e in errors] == ["missing_dependency"] * 2
    assert all("numpy" in e["message"] for e in errors)


@pytest.mark.parametrize("name, caught", [
    ("numpy", True), ("numpy.linalg", True), ("numpyx", False), (None, False),
])
def test_only_a_missing_numpy_is_a_missing_dependency(monkeypatch, capsys,
                                                       name, caught):
    """A missing numpy (or numpy submodule) exits 3; any other missing
    module is a fault of the program and propagates."""
    import starspec.cli as cli

    def missing(args):
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)

    monkeypatch.setattr(cli, "cmd_classify", missing)
    if not caught:
        with pytest.raises(ModuleNotFoundError):
            cli.main(["classify", "--branches", "2,2,2"])
        return
    code, out, err = run_cli(capsys, "classify", "--branches", "2,2,2")
    assert (code, out) == (3, "")
    assert json.loads(err)["error"] == "missing_dependency"

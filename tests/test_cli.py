import json

import pytest

from entrolab.cli import main
from entrolab.core import JointDistribution, distribution_to_json
from entrolab.network import save_problem

from suite import build_suite


@pytest.fixture(scope="module")
def suite_by_name():
    return {inst.name: inst for inst in build_suite()}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, "--format", "json", *argv)
    assert code == 0, err
    return json.loads(out)


def test_example1_base_feasible(capsys):
    report = run_json(capsys, "example1")
    assert report["status"].startswith("Feasible")
    assert report["verified"] is True
    assert "h{Y1,Y2,Y3}" not in report["witness"]  # keys are name subsets
    assert report["witness"]["Y1,Y2,Y3"] == "3"


def test_example1_rejects_unknown_mode(capsys):
    code, _, err = run(capsys, "example1", "--improved", "magic")
    assert code == 1
    assert "magic" in err


def test_bound_cutset_and_fd(capsys, tmp_path, suite_by_name):
    inst = suite_by_name["single-edge-bit"]
    path = tmp_path / "p.json"
    save_problem(inst.problem, str(path))
    report = run_json(capsys, "bound", "cutset", "--problem", str(path), "--capacities", "1/2")
    assert report["status"] == "FailsCutset"
    report = run_json(capsys, "bound", "fd", "--problem", str(path), "--capacities", "1/2")
    assert report["status"] == "FailsFD"
    report = run_json(capsys, "bound", "check", "--problem", str(path), "--capacities", "1")
    assert report["status"].startswith("Feasible")


def test_bound_check_infeasible_certificate(capsys, tmp_path, suite_by_name):
    inst = suite_by_name["single-edge-bit"]
    path = tmp_path / "p.json"
    save_problem(inst.problem, str(path))
    report = run_json(capsys, "bound", "check", "--problem", str(path), "--capacities", "1/2")
    assert report["status"].startswith("Infeasible")
    assert report["verified"] is True
    assert report["certificate"]  # nonempty multiplier list


def test_aux_gk_roundtrip_improve(capsys, tmp_path, suite_by_name):
    inst = suite_by_name["correlated-pair-one-sink"]
    ppath = tmp_path / "p.json"
    apath = tmp_path / "aux.json"
    save_problem(inst.problem, str(ppath))
    report = run_json(capsys, "aux", "gk", "--problem", str(ppath), "--out", str(apath))
    assert report["status"] == "computed"
    assert apath.exists()
    report = run_json(
        capsys,
        "bound",
        "improve",
        "--problem",
        str(ppath),
        "--aux",
        str(apath),
        "--capacities",
        "3",
    )
    assert report["status"].startswith("Feasible")
    assert str(apath) in report["inputs"]


def test_aux_delta_requires_seed(capsys, tmp_path, suite_by_name):
    inst = suite_by_name["correlated-pair-one-sink"]
    ppath = tmp_path / "p.json"
    save_problem(inst.problem, str(ppath))
    code, _, _ = run(capsys, "aux", "delta", "--problem", str(ppath))
    assert code == 1
    report = run_json(capsys, "aux", "delta", "--problem", str(ppath), "--seed", "3")
    assert report["status"] == "computed"


def test_aux_linear(capsys, tmp_path):
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"q": 2, "m": 2, "generators": {"Y1": [[1, 0]], "Y2": [[0, 1]]}}))
    report = run_json(capsys, "aux", "linear", "--model", str(model))
    assert report["status"] == "computed"
    assert report["rows"] > 0


def test_recover_self_test(capsys):
    report = run_json(capsys, "recover", "--self-test", "--n", "3", "--trials", "100", "--seed", "7")
    assert report["status"] == "all trials passed"
    assert report["failures"] == []


def test_recover_self_test_seven_atoms(capsys):
    report = run_json(capsys, "recover", "--self-test", "--n", "7", "--trials", "20", "--seed", "3")
    assert report["status"] == "all trials passed"
    assert report["failures"] == []


def test_recover_self_test_needs_seed(capsys):
    code, _, err = run(capsys, "recover", "--self-test", "--n", "3")
    assert code == 1
    assert "seed" in err


def test_recover_from_distribution(capsys, tmp_path):
    d = JointDistribution(["X"], [("a", "b", "c")], {("a",): "1/2", ("b",): "3/10", ("c",): "1/5"})
    path = tmp_path / "d.json"
    path.write_text(json.dumps(distribution_to_json(d)))
    report = run_json(capsys, "recover", "--distribution", str(path), "--shuffle-seed", "5")
    assert report["probabilities"] == pytest.approx([0.5, 0.3, 0.2], abs=1e-9)


def test_recover_from_entropies_missing_value(capsys, tmp_path):
    path = tmp_path / "h.json"
    path.write_text(json.dumps({"members": ["A", "B", "C"], "entropies": {"A": 0.5}}))
    code, _, err = run(capsys, "recover", "--entropies", str(path), "--n", "3")
    assert code == 1


def test_recover_needs_an_input(capsys):
    code, _, _ = run(capsys, "recover")
    assert code == 1


def test_verify_properties(capsys, tmp_path):
    d = JointDistribution(["X"], [("a", "b", "c")], {("a",): "1/2", ("b",): "3/10", ("c",): "1/5"})
    path = tmp_path / "d.json"
    path.write_text(json.dumps(distribution_to_json(d)))
    report = run_json(capsys, "verify-properties", "--distribution", str(path))
    assert report["status"] == "ok"
    assert report["violations"] == []


def test_dump_lp(capsys):
    report = run_json(capsys, "dump-lp", "--capacities", "1,1,1,1")
    assert report["status"] == "dumped"
    assert report["rows"] == len(report["system"])
    assert any("<=" in line or ">=" in line or "=" in line for line in report["system"])


def test_text_format(capsys):
    code, out, _ = run(capsys, "recover", "--self-test", "--n", "2", "--trials", "5", "--seed", "1")
    assert code == 0
    assert out.splitlines()[0] == "status: all trials passed"


def test_missing_file_exit_code(capsys):
    code, _, _ = run(capsys, "bound", "check", "--problem", "/nonexistent.json")
    assert code == 1


def test_bad_capacities_exit_code(capsys):
    code, _, _ = run(capsys, "example1", "--capacities", "bogus")
    assert code == 1


@pytest.mark.parametrize("capacities, named", [
    ("E1=0", "'E1', which is not an edge"),
    ("e1=1,e1=0", "'e1' given twice"),
])
def test_capacity_ids_must_name_edges_once(capsys, capacities, named):
    code, out, err = run(capsys, "example1", "--capacities", capacities)
    assert code == 1 and not out
    assert named in err


def test_unknown_flag_exit_code(capsys):
    code = main(["example1", "--frobnicate"])
    capsys.readouterr()
    assert code == 1


def test_report_deterministic_modulo_timing(capsys):
    r1 = run_json(capsys, "recover", "--self-test", "--n", "4", "--trials", "20", "--seed", "11")
    r2 = run_json(capsys, "recover", "--self-test", "--n", "4", "--trials", "20", "--seed", "11")
    r1.pop("timing")
    r2.pop("timing")
    assert r1 == r2


def test_aux_linear_model_missing_field(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"m": 2, "generators": {}}))
    code, _, err = run(capsys, "aux", "linear", "--model", str(path))
    assert code == 1
    assert "missing field 'q'" in err


def test_recover_entropies_missing_field(capsys, tmp_path):
    path = tmp_path / "e.json"
    path.write_text(json.dumps({"entropies": {}}))
    code, _, err = run(capsys, "recover", "--entropies", str(path), "--n", "3")
    assert code == 1
    assert "missing field 'members'" in err


def test_trace_block_only_when_asked(capsys):
    plain = run_json(capsys, "example1", "--improved")
    traced = run_json(capsys, "example1", "--improved", "--trace")
    assert "trace" not in plain
    trace = traced.pop("trace")
    for report in (plain, traced):
        report.pop("timing")
        report["command"] = None
    assert traced == plain
    assert trace["path"] == "reduced-float" and trace["misses"] == []
    assert trace["full"] == {"rows": 11604, "cols": 1023, "nnz": 46136}
    assert trace["reduced"]["cols"] < trace["full"]["cols"]
    assert trace["support"] == len(plain["certificate"])


@pytest.mark.parametrize("argv", [
    ("recover", "--distribution"),
    ("verify-properties", "--distribution"),
    ("aux", "linear", "--model"),
    ("recover", "--n", "3", "--entropies"),
])
def test_truncated_json_names_file_and_line(capsys, tmp_path, argv):
    path = tmp_path / "cut.json"
    path.write_text('{"variables": [\n')
    code, _, err = run(capsys, *argv, str(path))
    assert code == 1
    assert f"{path}: invalid JSON at line 2" in err

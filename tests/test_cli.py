import dataclasses
import json
import os

import numpy as np
import pytest

from retroq import cli
from retroq.scenarios import SCENARIOS, _at_most, _close


def run_cli(*argv):
    return cli.main(list(argv))


def test_list_prints_full_catalog(capsys):
    assert run_cli("list") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 7
    names = {line.split()[0] for line in lines}
    assert names == set(SCENARIOS)


def test_run_unknown_scenario_exits_2(capsys):
    assert run_cli("run", "bogus") == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_run_epr_writes_report_and_manifest(tmp_path, capsys):
    out = tmp_path / "epr"
    assert run_cli("run", "epr", "--out", str(out)) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is True
    assert abs(report["values"]["chsh"] - 2.0 ** 1.5) < 1e-12
    assert report["artifacts"] == ["epr.csv"]
    assert (out / "epr.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["results"] == {"epr": True}
    assert manifest["tool_version"]
    assert "PASS" in capsys.readouterr().out


def test_report_bytes_identical_across_reruns(tmp_path):
    """Timestamps live in the manifest only, so rerunning the same
    config+seed must reproduce report.json byte for byte."""
    out = tmp_path / "a"
    assert run_cli("run", "unsharp-qubit", "--out", str(out), "--seed", "7") == 0
    first = (out / "report.json").read_bytes()
    assert run_cli("run", "unsharp-qubit", "--out", str(out), "--seed", "7") == 0
    assert (out / "report.json").read_bytes() == first


def test_config_file_parameters_reach_the_scenario(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema_version": 1, "etas": [0.0, 0.25]}))
    out = tmp_path / "o"
    assert run_cli("run", "unsharp-qubit", "--config", str(cfg), "--out", str(out)) == 0
    report = json.loads((out / "report.json").read_text())
    assert "p_plus_postselected_eta_0.25" in report["values"]
    manifest = json.loads((out / "manifest.json").read_text())
    import hashlib

    assert manifest["config_sha256"] == hashlib.sha256(cfg.read_bytes()).hexdigest()


def test_config_is_read_once_and_hashed_as_read(tmp_path, monkeypatch):
    """The parameters that ran and the recorded hash come from the same bytes."""
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(json.dumps({"schema_version": 1, "etas": [0.5]}).encode())
    opened = []

    def spy(path, *args, **kwargs):
        opened.append(str(path))
        return open(path, *args, **kwargs)

    monkeypatch.setattr(cli, "open", spy, raising=False)
    out = tmp_path / "o"
    assert run_cli("run", "unsharp-qubit", "--config", str(cfg), "--out", str(out)) == 0
    assert opened.count(str(cfg)) == 1
    manifest = json.loads((out / "manifest.json").read_text())
    params, digest = cli._load_config(str(cfg))
    assert params == {"etas": [0.5]} and manifest["config_sha256"] == digest


def test_config_that_is_not_text_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_bytes(b'{"schema_version": 1, "etas": [0.5\xff]}')
    assert run_cli("run", "unsharp-qubit", "--config", str(cfg)) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_malformed_json_exits_2_with_position(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"schema_version": 1,\n  "etas": [0.1,]}')
    assert run_cli("run", "unsharp-qubit", "--config", str(cfg)) == 2
    err = capsys.readouterr().err
    assert "not valid JSON" in err
    assert "line 2" in err


def test_missing_schema_version_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"etas": [0.1]}')
    assert run_cli("run", "unsharp-qubit", "--config", str(cfg)) == 2
    assert "schema_version" in capsys.readouterr().err


def test_wrong_schema_version_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"schema_version": 99}')
    assert run_cli("run", "unsharp-qubit", "--config", str(cfg)) == 2
    assert "schema_version 99" in capsys.readouterr().err


def test_unknown_field_exits_2_naming_it(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema_version": 1, "etaz": [0.1]}))
    assert run_cli("run", "unsharp-qubit", "--config", str(cfg)) == 2
    err = capsys.readouterr().err
    assert "etaz" in err and "accepted" in err


@pytest.mark.parametrize("name, params", [
    pytest.param("unsharp-qubit", {"etas": [1.5]}, id="unsharp-eta-above-1"),
    pytest.param("unsharp-qubit", {"etas": []}, id="unsharp-no-etas"),
    pytest.param("weak-measurement", {"sigma_q": 0}, id="weak-sigma-q-0"),
    pytest.param("weak-measurement", {"post_selections": []}, id="weak-no-post-selections"),
    pytest.param("weak-measurement", {"gs": []}, id="weak-no-couplings"),
    pytest.param("weak-measurement", {"gs": [0.05]}, id="weak-one-coupling"),
    pytest.param("weak-measurement", {"gs": [0.05, 0.05]}, id="weak-repeated-coupling"),
    pytest.param("epr", {"alice": [0.0]}, id="epr-one-setting"),
    pytest.param("homodyne-cavity", {"n_traj": 1}, id="homodyne-n-traj-1"),
    pytest.param("homodyne-cavity", {"n_traj": 0}, id="homodyne-n-traj-0"),
    pytest.param("homodyne-cavity", {"kappa": -1}, id="homodyne-kappa-negative"),
    pytest.param("counting", {"n_traj": 1}, id="counting-n-traj-1"),
    pytest.param("counting", {"kappa": -1}, id="counting-kappa-negative"),
    pytest.param("counting", {"oracle_steps": -1}, id="counting-oracle-steps-negative"),
    pytest.param("counting", {"oracle_dt": -0.05}, id="counting-oracle-dt-negative"),
    pytest.param("thermal-qubit", {"n_traj": 1}, id="thermal-n-traj-1"),
    pytest.param("classical-limit", {"n_hmm": 0}, id="classical-n-hmm-0"),
    pytest.param("classical-limit", {"n_lg": 0}, id="classical-n-lg-0"),
])
def test_out_of_range_parameter_exits_2(name, params, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema_version": 1, **params}))
    assert run_cli("run", name, "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert "rejected" in err and err.count("\n") == 1 and "Traceback" not in err


def test_out_dir_in_a_config_is_an_unknown_field(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema_version": 1, "out_dir": str(tmp_path / "elsewhere")}))
    assert run_cli("run", "epr", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
    assert "unknown field(s) for epr: out_dir" in capsys.readouterr().err
    assert not (tmp_path / "o").exists() and not (tmp_path / "elsewhere").exists()


def test_env_var_supplies_default_out_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("RETROQ_OUT", str(tmp_path))
    monkeypatch.chdir(tmp_path)
    assert run_cli("run", "epr") == 0
    assert (tmp_path / "epr" / "report.json").exists()


def test_flag_overrides_env_out_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("RETROQ_OUT", str(tmp_path / "ignored"))
    out = tmp_path / "chosen"
    assert run_cli("run", "epr", "--out", str(out)) == 0
    assert (out / "report.json").exists()
    assert not (tmp_path / "ignored").exists()


def test_assertion_failure_exits_1_naming_the_assertion(tmp_path, capsys, monkeypatch):
    """Harness self-test: corrupt one report into failure and check the
    exit code and the printed expected/actual/tolerance line."""

    def sabotaged(name, **params):
        report = SCENARIOS["epr"].func(**params)
        broken = _close("sabotaged_tolerance", report.values["chsh"], 0.0, 0.0, "closed-form")
        return dataclasses.replace(report, assertions=report.assertions + (broken,))

    monkeypatch.setattr(cli, "run_scenario", sabotaged)
    assert run_cli("run", "epr", "--out", str(tmp_path / "o")) == 1
    out = capsys.readouterr().out
    assert "FAIL epr/sabotaged_tolerance" in out
    assert "tolerance" in out


def test_verify_all_fast_subset(tmp_path, capsys, monkeypatch):
    """End-to-end verify-all over a shrunken catalog: per-scenario reports,
    root manifest, coverage table, exit 0."""
    fast = {k: SCENARIOS[k] for k in ("unsharp-qubit", "epr")}
    monkeypatch.setattr(cli, "SCENARIOS", fast)
    assert run_cli("verify-all", "--out", str(tmp_path)) == 0
    out = capsys.readouterr().out
    assert "coverage (assertion -> derivation)" in out
    assert "epr/chsh_combination: closed-form [pass]" in out
    assert "verify-all: PASS" in out
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["results"] == {"unsharp-qubit": True, "epr": True}
    for name in fast:
        assert (tmp_path / name / "report.json").exists()


def test_verify_all_propagates_failure(tmp_path, capsys, monkeypatch):
    def failing(name, **params):
        report = SCENARIOS["epr"].func(**{k: v for k, v in params.items()})
        broken = _at_most("impossible", 1.0, 0.0, "oracle")
        return dataclasses.replace(report, assertions=(broken,))

    monkeypatch.setattr(cli, "SCENARIOS", {"epr": SCENARIOS["epr"]})
    monkeypatch.setattr(cli, "run_scenario", failing)
    assert run_cli("verify-all", "--out", str(tmp_path)) == 1
    out = capsys.readouterr().out
    assert "FAIL epr/impossible" in out
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["results"] == {"epr": False}


def test_verify_all_reports_a_rejected_seed(tmp_path, capsys):
    """A negative seed exits 2 before any scenario runs: nothing is written,
    not even the exact scenarios that take no seed."""
    assert run_cli("verify-all", "--seed", "-1", "--out", str(tmp_path)) == 2
    assert "seed -1 is negative" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_seed_flag_recorded_in_manifest(tmp_path):
    """--seed reaches a scenario that takes one and is recorded in its manifest."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema_version": 1, "n_hmm": 2, "n_lg": 1}))
    reports = []
    for seed in (42, 43):
        out = tmp_path / str(seed)
        assert run_cli("run", "classical-limit", "--config", str(cfg), "--seed", str(seed), "--out", str(out)) == 0
        assert json.loads((out / "manifest.json").read_text())["seed"] == seed
        reports.append((out / "report.json").read_bytes())
    assert reports[0] != reports[1]


@pytest.mark.parametrize("name", ["unsharp-qubit", "weak-measurement", "epr"])
def test_exact_scenarios_take_no_seed(name, tmp_path, capsys):
    """--seed passes over a scenario that draws nothing, its run manifest
    records a null seed, and a config seed is an unknown field."""
    out = tmp_path / "o"
    assert run_cli("run", name, "--seed", "42", "--out", str(out)) == 0
    assert json.loads((out / "manifest.json").read_text())["seed"] is None
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema_version": 1, "seed": 3}))
    assert run_cli("run", name, "--config", str(cfg), "--out", str(tmp_path / "p")) == 2
    assert "unknown field(s) for " + name + ": seed" in capsys.readouterr().err


def test_csv_floats_round_trip(tmp_path):
    assert run_cli("run", "unsharp-qubit", "--out", str(tmp_path / "o")) == 0
    rows = (tmp_path / "o" / "unsharp_qubit.csv").read_text().splitlines()[1:]
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    for row in rows:
        eta, post = row.split(",")[:2]
        key = f"p_plus_postselected_eta_{float(eta):g}"
        assert float(post) == report["values"][key]


def test_csv_rows_keep_the_bytes_of_a_float_repr_per_entry(tmp_path):
    """Rows are written from one float array's Python floats, byte for byte
    what repr(float(x)) of each entry gave: Python and numpy ints, -0.0,
    1e-5, 1e16 and a float32, from a list of tuples or a 2-D array."""
    rows = [(3, -0.0, 1e-5, 1e16), (np.int64(7), np.float64(-0.0), np.float32(0.1), 1.0 / 3.0)]
    for table in (rows, np.array(rows, dtype=float)):
        path = tmp_path / "t.csv"
        cli._write_csv(str(path), ["a", "b", "c", "d"], table)
        want = "a,b,c,d\n" + "".join(",".join(repr(float(x)) for x in row) + "\n" for row in table)
        assert path.read_bytes() == want.encode()
    assert path.read_text().splitlines()[1] == "3.0,-0.0,1e-05,1e+16"

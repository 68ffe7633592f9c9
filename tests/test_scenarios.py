import dataclasses
import inspect
import json
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from retroq import _accel
from retroq import dynamics as dyn
from retroq import scenarios as sc
from retroq import trajectories as tr


def test_registry_names_and_summaries():
    want = {
        "unsharp-qubit",
        "weak-measurement",
        "epr",
        "homodyne-cavity",
        "counting",
        "thermal-qubit",
        "classical-limit",
    }
    assert set(sc.SCENARIOS) == want
    for entry in sc.SCENARIOS.values():
        assert entry.summary
        assert "\n" not in entry.summary


def test_unknown_scenario_raises():
    with pytest.raises(KeyError, match="unknown scenario 'bogus'"):
        sc.run_scenario("bogus")


def test_assertion_and_report_plumbing():
    good = sc._close("a", 1.0, 1.0, 1e-12, "closed-form")
    bad = sc._close("b", 1.0, 2.0, 1e-12, "closed-form")
    rep = sc.ScenarioReport("demo", {"x": 1.0}, (good, bad), {"b.csv": ([], []), "a.csv": ([], [])})
    assert good.passed and not bad.passed
    assert not rep.passed
    assert rep.failures() == [bad]
    d = rep.as_dict()
    assert d["name"] == "demo"
    assert d["passed"] is False
    assert d["assertions"][1]["expected"] == 2.0
    assert d["artifacts"] == ["a.csv", "b.csv"]
    assert sc._at_least("c", 0.5, 0.0, "t").passed
    assert not sc._at_most("d", 0.5, 0.0, "t").passed
    checks = sc._Checks()
    kept = checks.add(sc._at_most("kept", np.float64(0.25), 1.0, "t"), value="kept_value")
    checks.add(bad)
    checks.add(good)
    checks.values["unchecked"] = 3.0
    rep = checks.report("recorded", {"r.csv": (["x"], [(1.0,)])})
    assert rep.values == {"kept_value": kept.actual, "unchecked": 3.0}
    assert type(rep.values["kept_value"]) is float
    assert rep.assertions == (kept, bad, good)
    assert [a["name"] for a in rep.as_dict()["assertions"]] == ["kept", "b", "a"]
    assert rep.name == "recorded" and rep.tables == {"r.csv": (["x"], [(1.0,)])} and not rep.passed


def test_assertion_helpers_return_plain_bools():
    """The helpers compare their converted floats, so numpy operands give a
    Python bool and the report writer can serialize every assertion."""
    for a in (sc._close("c", np.float64(1.0), np.float64(1.0), np.float64(1e-12), "t"),
              sc._at_least("l", np.float32(0.5), np.float64(0.0), "t"),
              sc._at_most("m", np.int64(1), np.float64(0.5), "t")):
        assert type(a.passed) is bool
        assert all(type(getattr(a, f)) is float for f in ("actual", "expected", "tolerance"))
        assert json.loads(json.dumps(dataclasses.asdict(a)))["passed"] is a.passed


def test_unsharp_qubit_closed_forms():
    rep = sc.run_scenario("unsharp-qubit")
    assert rep.passed
    assert abs(rep.values["p_plus_postselected_eta_0.6"] - 0.8) < 1e-12
    assert abs(rep.values["p_plus_nonselective_eta_0.6"] - 0.5) < 1e-12
    assert abs(rep.values["p_plus_postselected_eta_1"] - 1.0) < 1e-12


def test_unsharp_qubit_rejects_bad_eta():
    with pytest.raises(ValueError, match=re.escape("sharpness eta=1.3 must lie in [0, 1]")):
        sc.run_scenario("unsharp-qubit", etas=(0.5, 1.3))


def test_weak_measurement_default_sweep():
    """The three stock post-selections: unit, null, and amplified weak value.

    The first two have identically vanishing residuals; the amplified one
    must show at-least-quadratic residual scaling."""
    rep = sc.run_scenario("weak-measurement")
    assert rep.passed
    assert abs(rep.values["a_w_re_theta_0_phi_0"] - 1.0) < 1e-12
    assert abs(rep.values["a_w_re_theta_0.785398_phi_0"]) < 1e-12
    amp = np.hypot(
        rep.values["a_w_re_theta_2.26195_phi_0.3"],
        rep.values["a_w_im_theta_2.26195_phi_0.3"],
    )
    assert amp > 5.0
    assert rep.values["slope_q_theta_2.26195_phi_0.3"] > 2.5


def test_weak_measurement_validation():
    with pytest.raises(ValueError, match="couplings"):
        sc.run_scenario("weak-measurement", gs=(0.1, 0.5))
    with pytest.raises(ValueError, match="n_trunc"):
        sc.run_scenario("weak-measurement", n_trunc=10)


def test_weak_measurement_flags_truncation_leakage():
    with pytest.raises(ValueError, match="increase n_trunc"):
        sc.scenario_weak_measurement(gs=(0.1, 0.3), sigma_q=0.05, n_trunc=20)


def test_weak_measurement_fits_only_residuals_above_rounding():
    """At theta = 0 the q residuals are [0, 7.4e-9]: one residual above
    rounding level is no fit, so the exactness assertion decides, and no
    log of zero warns or turns the slope into NaN."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = sc.scenario_weak_measurement(gs=(0.1, 0.2), sigma_q=0.05, n_trunc=20)
    assert not any(np.isnan(v) for v in rep.values.values())
    exact = {a.name: a for a in rep.assertions}["first_order_exact_q_theta_0_phi_0"]
    assert not exact.passed
    assert 1e-9 < exact.actual < 1e-8


def test_weak_coupling_blocks_match_a_dense_exponential():
    """The pointer blocks come from one eigendecomposition of p; scipy's
    expm of the real antisymmetric -i p stays the second route."""
    from scipy.linalg import expm

    defaults = inspect.signature(sc.scenario_weak_measurement).parameters
    gs, sigma_q, n_trunc = (defaults[k].default for k in ("gs", "sigma_q", "n_trunc"))
    lower = np.diag(np.sqrt(np.arange(1, n_trunc)), 1)
    minus_ip = (lower.T - lower) / (2.0 * sigma_q)
    blocks = sc._coupling_blocks(1j * minus_ip, gs)
    assert list(blocks) == [float(g) for g in gs]
    for g, u in blocks.items():
        assert u.dtype == float
        assert np.max(np.abs(u - expm(g * minus_ip))) < 1e-13
        assert np.max(np.abs(u.T @ u - np.eye(n_trunc))) < 1e-13


def test_epr_chsh_maximum():
    rep = sc.run_scenario("epr")
    assert rep.passed
    assert abs(rep.values["chsh"] - 2.0 * np.sqrt(2.0)) < 1e-12
    names = {a.name for a in rep.assertions}
    assert "chsh_maximum" in names


def test_epr_off_maximum_settings_still_pass():
    """Identities hold at any angles; the 2*sqrt(2) pin only appears when
    the settings actually reach the maximum."""
    rep = sc.run_scenario("epr", alice=(0.0, 1.0), bob=(0.3, -0.9))
    assert rep.passed
    assert "chsh_maximum" not in {a.name for a in rep.assertions}
    assert abs(rep.values["correlator_a0b0"] - np.cos(0.3)) < 1e-12


def merged_moments(x, blocks):
    """(count, mean, sum of squared deviations) of x, one numpy pass per row block, merged
    by the pairwise update of Chan, Golub & LeVeque."""
    n, mean, m2 = 0, 0.0, 0.0
    for rows in blocks:
        part = x[rows]
        part_mean = part.mean()
        total = n + part.size
        delta = part_mean - mean
        mean, m2 = (mean + delta * (part.size / total),
                    m2 + ((part - part_mean) ** 2).sum() + delta * delta * (n * part.size / total))
        n = total
    return n, mean, m2


def test_homodyne_cavity_small_ensemble(monkeypatch):
    """The scenario reduces its innovations a row block at a time. As one
    block, 400 trajectories of 400 steps give the bytes of one mean and one
    variance pass; cut into blocks of 64 rows (the last of 80), they give the
    bytes of the merged moments, within 1e-13 of the one-pass values."""
    dws = np.random.Generator(np.random.Philox(sc._substreams(4, 3)[0])).normal(0.0, np.sqrt(1e-3), (400, 400))
    for row_bytes in (tr._ROW_BYTES, 8 * 400 * 64):
        monkeypatch.setattr(tr, "_ROW_BYTES", row_bytes)
        rep = sc.run_scenario("homodyne-cavity", n_traj=400, horizon=0.4, dt=1e-3, seed=4)
        assert rep.passed
        assert 0.0 < rep.values["pairing_ratio_min"] <= 1.0 + 1e-12
        assert rep.values["innovation_var_rel_err"] < 0.05
        blocks = tr._row_blocks(400, 400)
        n, mean, m2 = merged_moments(dws, blocks)
        var = m2 / (n - 1)
        assert rep.values["innovation_mean"] == mean
        assert rep.values["innovation_var"] == var
        assert rep.values["innovation_mean_z"] == abs(mean) / float(np.sqrt(var) / np.sqrt(n))
        assert rep.values["innovation_var_rel_err"] == abs(var - 1e-3) / 1e-3
        if len(blocks) == 1:  # one variance pass gives the bytes of separate std and var calls
            assert rep.values["innovation_mean_z"] == abs(float(dws.mean())) / float(dws.std(ddof=1) / np.sqrt(dws.size))
            assert rep.values["innovation_var"] == float(dws.var(ddof=1))
        else:
            assert [b.stop - b.start for b in blocks] == [64] * 5 + [80]
            assert abs(var - dws.var(ddof=1)) <= 1e-13 * var and abs(mean - dws.mean()) <= 1e-13 * np.sqrt(var)


def test_homodyne_cavity_holds_no_full_size_array(monkeypatch):
    """2000 trajectories of 1000 steps would take 16 MB per (n_traj, steps)
    array; reduced in blocks of 128 rows, the scenario peaks below half of
    one, so full-size draws, currents or a moment temporary held again fail
    here."""
    monkeypatch.setattr(tr, "_ROW_BYTES", 1 << 20)
    tracemalloc.start()
    try:
        rep = sc.run_scenario("homodyne-cavity", n_traj=2000, horizon=0.5, dt=5e-4, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed and len(tr._row_blocks(2000, 1000)) == 16
    assert peak < 0.5 * 8 * 2000 * 1000


def test_homodyne_cavity_rejects_coarse_grid():
    with pytest.raises(ValueError, match="too coarse"):
        sc.run_scenario("homodyne-cavity", dt=0.05)


def test_counting_small_grid():
    rep = sc.run_scenario("counting", oracle_steps=4, n_traj=500, seed=2)
    assert rep.passed
    assert rep.values["feasible_records"] == 8.0
    assert rep.values["oracle_max_deviation"] < 1e-10
    assert rep.values["dark_total_counts"] == 0.0


def test_counting_oracle_makes_one_replay_and_one_backward_call(monkeypatch):
    """The 21 feasible records of the default grid go through the forward
    counting kernel in one call and the adjoint loop in one call, and
    through the enumeration oracle in one conditional call; the two
    ensembles make the other forward calls, from drawn noise."""
    calls = []
    quiet_runs, paths, blocked = _accel._quiet_runs, _accel._paths, _accel._blocked
    conditional = tr.CountingEnumeration.conditional

    def spy_conditional(enum, increments, ins):
        calls.append(("oracle", True, len(increments)))
        return conditional(enum, increments, ins)

    def spy_quiet_runs(step, sec, incr, from_record, sample_indices):
        calls.append(("adjoint" if sec.adjoint else "forward", from_record, incr.shape[0]))
        return quiet_runs(step, sec, incr, from_record, sample_indices)

    def spy_paths(step, sec, incr, from_record, sample_indices):
        calls.append(("adjoint" if sec.adjoint else "loop", from_record, len(incr)))
        return paths(step, sec, incr, from_record, sample_indices)

    def spy_blocked(step, sec, incr):
        calls.append(("blocked", True, 1))
        return blocked(step, sec, incr)

    monkeypatch.setattr(_accel, "_quiet_runs", spy_quiet_runs)
    monkeypatch.setattr(_accel, "_paths", spy_paths)
    monkeypatch.setattr(_accel, "_blocked", spy_blocked)
    monkeypatch.setattr(tr.CountingEnumeration, "conditional", spy_conditional)
    rep = sc.run_scenario("counting", n_traj=500)
    assert rep.passed and rep.values["feasible_records"] == 21.0
    assert [c for c in calls if c[1]] == [("forward", True, 21), ("adjoint", True, 21), ("oracle", True, 21)]
    assert [c for c in calls if not c[1]] == [("forward", False, 500), ("forward", False, 200)]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("kappa, horizon, mean", [(50.0, 15.0, 1.0), (30.0, 1.0, 1.0), (1e-3, 1.0, 0.0)])
def test_counting_z_holds_when_the_totals_do_not_spread(kappa, horizon, mean):
    """At κ·horizon = 750 and 30 every emitter clicks once, and at 1e-3 none
    of these 100 does, so the totals have no spread. z divides by the
    closed form's own standard error, sqrt(p(1 - p)/n), not the sample's 0:
    at 30, p = 1 - 9.4e-14 is not 1.0, and at 750 it is, where the miss is
    exactly 0 and so is z."""
    rep = sc.scenario_counting(kappa=kappa, horizon=horizon, n_traj=100)
    p = 1.0 - np.exp(-kappa * horizon)
    assert rep.values["count_mean"] == mean
    assert rep.values["count_mean_z"] == (abs(mean - p) / np.sqrt(p * (1.0 - p) / 100) if p < 1.0 else 0.0)
    assert rep.passed


def test_counting_rejects_long_grid():
    with pytest.raises(ValueError, match="cap of 8"):
        sc.run_scenario("counting", oracle_steps=9)


def test_thermal_qubit_small_ensemble():
    rep = sc.run_scenario(
        "thermal-qubit", horizon=0.8, n_traj=600, monitor_horizon=0.3, seed=3
    )
    assert rep.passed
    assert rep.values["clausius_identity_max_err"] < 1e-6
    assert rep.values["first_law_max_err"] < 1e-6
    assert rep.values["conditional_clausius_min_margin"] > 0.0
    assert rep.values["production_at_sigma"] == pytest.approx(0.0, abs=1e-12)
    header, rows = rep.tables["thermal_relaxation.csv"]
    assert header == ["time", "entropy", "relative_entropy", "production_rate", "j_bath", "clausius_gap"]
    assert np.shape(rows) == (1601, 6)


def test_thermal_qubit_drives_whole_steps_of_dt():
    """The driven leg's grid is dynamics' grid: at the default dt it is the
    floats dt * arange, and a dt that does not divide the drive horizon 1.0
    is rejected instead of driving a shorter span."""
    default_dt = inspect.signature(sc.scenario_thermal_qubit).parameters["dt"].default
    times, h = dyn._grid(0.0, 1.0, default_dt)
    assert h == default_dt and np.array_equal(times, default_dt * np.arange(times.size))
    with pytest.raises(ValueError, match="span 1.0 is not an integer number of steps of dt=0.003"):
        sc.run_scenario("thermal-qubit", dt=0.003, n_traj=50, monitor_horizon=0.1)


def test_classical_limit_battery():
    rep = sc.run_scenario("classical-limit", n_hmm=12, n_lg=4, seed=9)
    assert rep.passed
    assert rep.values["hmm_embedding_max_dev"] < 1e-12
    assert rep.values["rts_max_dev"] < 1e-8


def test_stochastic_scenario_is_deterministic_given_seed():
    kw = dict(oracle_steps=3, n_traj=300, seed=17)
    a = sc.run_scenario("counting", **kw).as_dict()
    b = sc.run_scenario("counting", **kw).as_dict()
    assert a == b


def test_seed_actually_moves_monte_carlo_values():
    a = sc.run_scenario("counting", oracle_steps=3, n_traj=300, seed=1)
    b = sc.run_scenario("counting", oracle_steps=3, n_traj=300, seed=2)
    assert a.values["count_mean"] != b.values["count_mean"]


def test_report_carries_its_csv_tables():
    rep = sc.run_scenario("unsharp-qubit")
    assert list(rep.tables) == ["unsharp_qubit.csv"]
    assert rep.as_dict()["artifacts"] == ["unsharp_qubit.csv"]
    header, rows = rep.tables["unsharp_qubit.csv"]
    assert header == ["eta", "p_plus_postselected", "p_plus_nonselective", "completeness_residual"]
    assert len(rows) == 4
    row = [float(x) for x in rows[-1]]
    assert row[0] == 1.0
    assert abs(row[1] - 1.0) < 1e-12

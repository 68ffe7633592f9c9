"""Acceptance gate: thirteen numbered criteria, each a standalone test.

Every test prints one `[criterion NN] PASS/FAIL` line with the measured
figures before asserting, so a plain run leaves a complete scoreboard.
Monte Carlo criteria run at their full stated sizes; the expensive
scenario runs are shared through module-scoped fixtures.
"""

import time

import numpy as np
import pytest

from retroq import algebra as al
from retroq import channels as ch
from retroq import cli
from retroq import dynamics as dyn
from retroq import retrodiction as rd
from retroq import scenarios as sc
from retroq import thermo as th
from conftest import random_state


def rng(seed):
    return np.random.default_rng(seed)


def random_effect(g, d, lo=0.2, hi=0.8):
    a = g.normal(size=(d, d)) + 1j * g.normal(size=(d, d))
    h = 0.5 * (a + a.conj().T)
    w, v = np.linalg.eigh(h)
    w = lo + (hi - lo) * (w - w.min()) / (w.max() - w.min())
    return (v * w) @ v.conj().T


def haar_unitary(g, n):
    z = g.normal(size=(n, n)) + 1j * g.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_instrument(g, d, outcome_sizes):
    k = sum(outcome_sizes)
    u = haar_unitary(g, d * k)
    fams, a = [], 0
    for size in outcome_sizes:
        fam = []
        for _ in range(size):
            m = np.zeros((d, d), dtype=complex)
            for sp in range(d):
                for s in range(d):
                    m[sp, s] = u[sp * k + a, s * k + 0]
            fam.append(m)
            a += 1
        fams.append(tuple(fam))
    return ch.Instrument(tuple(f"m{i}" for i in range(len(outcome_sizes))), tuple(fams))


def scoreboard(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def thermal_run():
    t0 = time.perf_counter()
    rep = sc.run_scenario("thermal-qubit")
    return rep, time.perf_counter() - t0


@pytest.fixture(scope="module")
def homodyne_run():
    t0 = time.perf_counter()
    rep = sc.run_scenario("homodyne-cavity")
    return rep, time.perf_counter() - t0


def test_criterion_01_unsharp_readout_probabilities():
    t0 = time.perf_counter()
    rep = sc.run_scenario("unsharp-qubit")
    elapsed = time.perf_counter() - t0
    devs = [
        abs(rep.values[f"p_plus_postselected_eta_{eta:g}"] - (1.0 + eta) / 2.0)
        for eta in (0.0, 0.3, 0.6, 1.0)
    ] + [
        abs(rep.values[f"p_plus_nonselective_eta_{eta:g}"] - 0.5)
        for eta in (0.0, 0.3, 0.6, 1.0)
    ]
    ok = rep.passed and max(devs) <= 1e-12 and elapsed < 1.0
    scoreboard(1, ok, f"unsharp readout, max dev {max(devs):.2e} (tol 1e-12), {elapsed:.2f}s")


def test_criterion_02_chsh_statistics():
    t0 = time.perf_counter()
    rep = sc.run_scenario("epr")
    elapsed = time.perf_counter() - t0
    dev = abs(rep.values["chsh"] - 2.0 * np.sqrt(2.0))
    kinds = {"joint": [], "nonsel": [], "sel": []}
    for a in rep.assertions:
        if a.name.startswith("joint_"):
            kinds["joint"].append(abs(a.actual - a.expected))
        elif a.name.startswith("bob_nonselective"):
            kinds["nonsel"].append(abs(a.actual - a.expected))
        elif a.name.startswith("bob_selective"):
            kinds["sel"].append(abs(a.actual - a.expected))
    assert len(kinds["joint"]) == 16 and len(kinds["nonsel"]) == 4
    worst = max(dev, *(max(v) for v in kinds.values()))
    ok = rep.passed and worst <= 1e-12 and elapsed < 1.0
    scoreboard(2, ok, f"CHSH 2*sqrt(2) and tables, max dev {worst:.2e} (tol 1e-12), {elapsed:.2f}s")


def test_criterion_03_weak_value_pointer_shifts():
    t0 = time.perf_counter()
    rep = sc.run_scenario("weak-measurement")
    elapsed = time.perf_counter() - t0
    r2s = [v for k, v in rep.values.items() if k.startswith("r2_")]
    cs = [v for k, v in rep.values.items() if k.startswith("c_")]
    leaks = [a.actual for a in rep.assertions if a.name.startswith("truncation_leakage")]
    ok = (
        rep.passed
        and min(r2s) >= 0.99
        and max(leaks) <= 1e-6
        and all(np.isfinite(c) for c in cs)
        and elapsed < 30.0
    )
    scoreboard(
        3,
        ok,
        f"weak values, min fit R2 {min(r2s):.4f} (>=0.99), max C {max(cs):.3f}, "
        f"leakage {max(leaks):.1e} (<=1e-6), {elapsed:.2f}s",
    )


def test_criterion_04_pairing_conservation_and_order():
    t0 = time.perf_counter()
    g = rng(404)
    coarse, ratios = [], []
    for i in range(10):
        d = int(g.integers(2, 5))
        h = g.normal(size=(d, d)) + 1j * g.normal(size=(d, d))
        h = 4.0 * 0.5 * (h + h.conj().T)
        jumps = tuple(
            0.4 * (g.normal(size=(d, d)) + 1j * g.normal(size=(d, d))) / np.sqrt(d)
            for _ in range(2)
        )
        gen = dyn.LindbladGenerator(h, (dyn.Bath("bath", jumps),))
        rho0 = random_state(g, d)
        ef = random_effect(g, d)
        d1 = dyn.pairing_drift(gen, rho0, ef, 0.0, 1.0, 1e-3)
        d2 = dyn.pairing_drift(gen, rho0, ef, 0.0, 1.0, 5e-4)
        coarse.append(d1)
        ratios.append(d1 / d2)
    elapsed = time.perf_counter() - t0
    ok = max(coarse) <= 1e-8 and min(ratios) >= 8.0 and elapsed < 60.0
    scoreboard(
        4,
        ok,
        f"pairing drift, 10 generators, max {max(coarse):.2e} (tol 1e-8), "
        f"halving-dt ratio min {min(ratios):.1f} (>=8), {elapsed:.2f}s",
    )


def test_criterion_05_spohn_and_clausius():
    t0 = time.perf_counter()
    ham = -0.5 * al.SZ
    gen = dyn.LindbladGenerator(ham, (th.thermal_bath(1.0, 1.2, 0.8, "bath"),))
    sigma = th.gibbs_state(ham, 1.2)
    rho0 = 0.5 * (np.array([[0.08, 0.05], [0.05, 0.92]]) + sigma)
    states = dyn.propagate_forward(gen, rho0, 0.0, 1.5, 5e-4)
    rep = th.thermo_report(gen, states, sigma)
    spohn_min = float(rep.production_rate.min())
    identity = float(np.max(np.abs(rep.clausius_gap - rep.production_rate)))
    pair = dyn.LindbladGenerator(
        ham,
        (th.thermal_bath(1.0, 0.4, 1.0, "hot"), th.thermal_bath(1.0, 1.6, 0.6, "cold")),
    )
    ss = dyn.stationary_state(pair)
    flat = dyn.propagate_forward(pair, ss, 0.0, 0.02, 1e-3)
    gap = th.clausius_gap(pair, flat)
    conduction = (1.6 - 0.4) * th.heat_current(pair, "cold", ss)
    steady = float(np.max(np.abs(gap - conduction)))
    elapsed = time.perf_counter() - t0
    ok = spohn_min >= -1e-8 and identity <= 1e-6 and steady <= 1e-6 and elapsed < 30.0
    scoreboard(
        5,
        ok,
        f"Spohn min {spohn_min:.2e} (>=-1e-8), two-route identity {identity:.2e} (tol 1e-6), "
        f"steady gap {steady:.2e} (tol 1e-6), {elapsed:.2f}s",
    )


def test_criterion_06_first_law_driven_qubit():
    t0 = time.perf_counter()
    omega, amp, freq, dt = 1.0, 0.3, 1.5, 5e-4
    ham0 = -0.5 * omega * al.SZ
    bath = th.thermal_bath(omega, 1.2, 0.8, "bath")
    gen0 = dyn.LindbladGenerator(ham0, (bath,))
    n = int(round(1.0 / dt))
    times = dt * np.arange(n + 1)
    rhos = np.zeros((n + 1, 2, 2), dtype=complex)
    rhos[0] = np.array([[0.08, 0.05], [0.05, 0.92]])
    cur = rhos[0].copy()
    for k in range(n):
        mid = (k + 0.5) * dt
        gk = dyn.LindbladGenerator(ham0 + amp * np.sin(freq * mid) * al.SX, (bath,))
        cur = dyn.evolve_state(gk, cur, dt, dt)
        rhos[k + 1] = cur
    h_at = lambda t: ham0 + amp * np.sin(freq * t) * al.SX
    energy = np.array([al.pairing(h_at(t), m) for t, m in zip(times, rhos)])
    dedt = np.gradient(energy, times, edge_order=2)
    wdot = np.array(
        [th.work_rate(m, amp * freq * np.cos(freq * t) * al.SX) for t, m in zip(times, rhos)]
    )
    heat = np.array(
        [th.heat_current(gen0, "bath", m, hamiltonian=h_at(t)) for t, m in zip(times, rhos)]
    )
    worst = float(np.max(np.abs(dedt - wdot + heat)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 10.0
    scoreboard(6, ok, f"first law pointwise, max residual {worst:.2e} (tol 1e-6), {elapsed:.2f}s")


def test_criterion_07_gauge_and_covariance_invariances():
    t0 = time.perf_counter()
    g = rng(707)
    worst = {"gauge": 0.0, "preprocess": 0.0, "frame": 0.0}
    for _ in range(50):
        d = int(g.integers(2, 5))
        sizes = tuple(int(g.integers(1, 3)) for _ in range(int(g.integers(2, 4))))
        ins = random_instrument(g, d, sizes)
        rho = random_state(g, d)
        eff = random_effect(g, d)
        base = rd.abl_distribution(rd.BoundaryPair(rho, eff), ins)

        m = ins.outcomes[int(g.integers(0, len(ins.outcomes)))]
        fam = ins.kraus[ins.outcomes.index(m)]
        mixed = ins.gauge_mix(m, haar_unitary(g, len(fam)))
        got = rd.abl_distribution(rd.BoundaryPair(rho, eff), mixed)
        worst["gauge"] = max(worst["gauge"], max(abs(got[k] - base[k]) for k in base))

        lam = random_instrument(g, d, (1, 2)).nonselective()
        lifted = rd.abl_distribution(rd.BoundaryPair(lam.apply(rho), eff), ins)
        composed = rd.abl_distribution(
            rd.BoundaryPair(rho, eff), ch.compose_preprocess(ins, lam)
        )
        worst["preprocess"] = max(
            worst["preprocess"], max(abs(lifted[k] - composed[k]) for k in base)
        )

        u = haar_unitary(g, d)
        conj = ch.Instrument(
            ins.outcomes,
            tuple(tuple(u @ k @ u.conj().T for k in fam) for fam in ins.kraus),
        )
        framed = rd.abl_distribution(
            rd.BoundaryPair(u @ rho @ u.conj().T, u @ eff @ u.conj().T), conj
        )
        worst["frame"] = max(worst["frame"], max(abs(framed[k] - base[k]) for k in base))
    elapsed = time.perf_counter() - t0
    top = max(worst.values())
    ok = top <= 1e-12 and elapsed < 30.0
    scoreboard(
        7,
        ok,
        "invariances over 50 trials each, max dev "
        f"gauge {worst['gauge']:.1e} / preprocess {worst['preprocess']:.1e} / "
        f"frame {worst['frame']:.1e} (tol 1e-12), {elapsed:.2f}s",
    )


def test_criterion_08_naimark_equivalence():
    t0 = time.perf_counter()
    g = rng(808)
    worst = 0.0
    for _ in range(20):
        d = int(g.integers(2, 4))
        sizes = tuple(int(g.integers(1, 3)) for _ in range(int(g.integers(2, 4))))
        ins = random_instrument(g, d, sizes)
        dil = ch.naimark_dilate(ins)
        rho = random_state(g, d)
        for m in ins.outcomes:
            p_ins = float(np.trace(ins.apply(m, rho)).real)
            p_dil = float(np.trace(dil.apply(m, rho)).real)
            worst = max(worst, abs(p_ins - p_dil))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 30.0
    scoreboard(8, ok, f"Naimark, 20 instruments, max dev {worst:.2e} (tol 1e-10), {elapsed:.2f}s")


def test_criterion_09_counting_retrodiction_oracle():
    t0 = time.perf_counter()
    rep = sc.run_scenario("counting")
    elapsed = time.perf_counter() - t0
    dev = rep.values["oracle_max_deviation"]
    names = {a.name: a.passed for a in rep.assertions}
    ok = (
        rep.passed
        and dev <= 1e-10
        and rep.values["feasible_records"] == 21.0
        and names["zero_weight_iff_adjacent_jumps"]
        and elapsed < 60.0
    )
    scoreboard(
        9,
        ok,
        f"counting oracle over all 64 records, max dev {dev:.2e} (tol 1e-10), "
        f"21 feasible, {elapsed:.2f}s",
    )


def test_criterion_10_homodyne_ensemble(homodyne_run):
    rep, elapsed = homodyne_run
    ok = (
        rep.passed
        and rep.values["max_decay_z"] <= 3.0
        and rep.values["innovation_mean_z"] <= 3.0
        and rep.values["innovation_var_rel_err"] <= 0.05
        and elapsed < 300.0
    )
    scoreboard(
        10,
        ok,
        f"homodyne ensemble 1e4 paths, decay z {rep.values['max_decay_z']:.2f} (<=3), "
        f"innovation mean z {rep.values['innovation_mean_z']:.2f} (<=3), "
        f"var err {rep.values['innovation_var_rel_err']:.4f} (<=0.05), {elapsed:.1f}s",
    )


def test_criterion_11_classical_limit_batteries():
    t0 = time.perf_counter()
    rep = sc.run_scenario("classical-limit")
    elapsed = time.perf_counter() - t0
    ok = (
        rep.passed
        and rep.values["hmm_embedding_max_dev"] <= 1e-12
        and rep.values["hmm_enumeration_max_dev"] <= 1e-12
        and rep.values["kalman_final_max_dev"] <= 1e-10
        and rep.values["rts_max_dev"] <= 1e-8
        and elapsed < 60.0
    )
    scoreboard(
        11,
        ok,
        f"classical limit, embedding {rep.values['hmm_embedding_max_dev']:.1e} (tol 1e-12), "
        f"enumeration {rep.values['hmm_enumeration_max_dev']:.1e} (tol 1e-12), "
        f"RTS {rep.values['rts_max_dev']:.1e} (tol 1e-8), {elapsed:.2f}s",
    )


def test_criterion_12_conditional_second_law(thermal_run):
    rep, elapsed = thermal_run
    margin = rep.values["conditional_clausius_min_margin"]
    ok = rep.passed and margin >= 0.0 and elapsed < 300.0
    scoreboard(
        12,
        ok,
        f"conditional Clausius, min over times of mean+3se = {margin:.4f} (>=0), {elapsed:.1f}s",
    )


def test_criterion_13_verify_all_exit_code(tmp_path):
    t0 = time.perf_counter()
    code = cli.main(["verify-all", "--out", str(tmp_path)])
    elapsed = time.perf_counter() - t0
    ok = code == 0 and elapsed < 600.0
    scoreboard(13, ok, f"verify-all exit {code} in {elapsed:.1f}s (< 600s)")

import dataclasses
import itertools

import numpy as np
import pytest

from retroq import _accel
from retroq import algebra as al
from retroq import dynamics as dyn
from retroq import trajectories as tr
from retroq import retrodiction as rd
from retroq.channels import Instrument, projective, unsharp_z


def rng(seed=0):
    return np.random.default_rng(seed)


GROUND = np.diag([1.0, 0.0]).astype(complex)
EXCITED = np.diag([0.0, 1.0]).astype(complex)


def decay_model(kappa=1.0, eta=1.0, mode="diffusive", omega=0.0, extra=()):
    return tr.monitoring_model(
        omega * al.SX, al.SM, kappa, eta=eta, mode=mode, extra_baths=extra
    )


def proj_z():
    return projective({"g": GROUND, "e": EXCITED})


def test_monitoring_model_validation():
    with pytest.raises(ValueError, match="mode"):
        tr.monitoring_model(np.zeros((2, 2)), al.SM, 1.0, mode="laser")
    with pytest.raises(ValueError, match="kappa"):
        tr.monitoring_model(np.zeros((2, 2)), al.SM, 0.0)
    with pytest.raises(ValueError, match="eta"):
        tr.monitoring_model(np.zeros((2, 2)), al.SM, 1.0, eta=1.5)
    gen = dyn.LindbladGenerator(np.zeros((2, 2)), (dyn.Bath("b", (al.SM,)),))
    with pytest.raises(ValueError, match="monitored channel"):
        tr.MonitoringModel(gen, al.SM, 2.0, 1.0, "diffusive")


def test_unmonitored_jumps_drop_exactly_one_copy():
    # the dephasing bath deliberately repeats the monitored operator
    extra = (dyn.Bath("dephase", (0.5 * al.SZ, np.sqrt(2.0) * al.SM)),)
    m = tr.monitoring_model(np.zeros((2, 2)), al.SM, 2.0, mode="counting", extra_baths=extra)
    rest = m.unmonitored_jumps()
    assert len(rest) == 2
    assert any(np.allclose(j, 0.5 * al.SZ) for j in rest)
    assert any(np.allclose(j, np.sqrt(2.0) * al.SM) for j in rest)


def test_record_validation():
    with pytest.raises(ValueError, match="uniform"):
        tr.MeasurementRecord("diffusive", np.array([0.0, 0.1, 0.3]), np.zeros(2))
    with pytest.raises(ValueError, match="one increment per step"):
        tr.MeasurementRecord("diffusive", np.linspace(0, 1, 5), np.zeros(3))
    with pytest.raises(ValueError, match="0 or 1"):
        tr.MeasurementRecord("counting", np.linspace(0, 1, 5), np.array([0, 2, 0, 1]))
    with pytest.raises(ValueError, match="mode"):
        tr.MeasurementRecord("pointer", np.linspace(0, 1, 5), np.zeros(4))


def test_record_rejects_non_finite_increments():
    times = np.linspace(0, 1, 5)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="record increments must be finite"):
            tr.MeasurementRecord("diffusive", times, np.array([0.0, bad, 0.1, 0.0]))


def test_fixed_seed_reproduces_record_bitwise():
    model = decay_model(eta=0.8, omega=0.9)
    rho0 = 0.5 * np.eye(2) + 0.2 * al.SX
    a_states, a_rec = tr.simulate_homodyne(model, rho0, 0.2, 1e-3, seed=42)
    b_states, b_rec = tr.simulate_homodyne(model, rho0, 0.2, 1e-3, seed=42)
    assert np.array_equal(a_rec.increments, b_rec.increments)
    assert np.array_equal(a_states.mats, b_states.mats)
    _, c_rec = tr.simulate_homodyne(model, rho0, 0.2, 1e-3, seed=43)
    assert not np.array_equal(a_rec.increments, c_rec.increments)


def test_replay_homodyne_matches_simulation_exactly():
    """The stored dY drives the same arithmetic the simulator ran."""
    model = decay_model(eta=0.6, omega=1.1)
    rho0 = 0.5 * np.eye(2) + 0.15 * al.SY
    states, rec = tr.simulate_homodyne(model, rho0, 0.15, 1e-3, seed=5)
    again = tr.replay_homodyne(model, rho0, rec)
    assert np.array_equal(states.mats, again.mats)


def test_replay_counting_matches_simulation_exactly():
    model = decay_model(mode="counting", omega=1.0)
    states, rec = tr.simulate_counting(model, EXCITED, 0.3, 1e-3, seed=77)
    again = tr.replay_counting(model, EXCITED, rec)
    assert np.array_equal(states.mats, again.mats)


def test_eta_zero_homodyne_is_deterministic_lindblad():
    model = decay_model(kappa=1.0, eta=0.0, omega=0.7)
    rho0 = 0.5 * np.eye(2) + 0.3 * al.SZ
    states, rec = tr.simulate_homodyne(model, rho0, 0.3, 1e-3, seed=3)
    ref = dyn.propagate_forward(model.gen, rho0, 0.0, 0.3, 1e-3)
    assert np.max(np.abs(states.mats - ref.mats)) < 5e-3
    # the record decouples: innovations are the raw increments
    inn = tr.innovations(model, states, rec)
    assert np.array_equal(inn, rec.increments)
    # and the likelihood no longer depends on the states
    other = dyn.propagate_forward(model.gen, GROUND, 0.0, 0.3, 1e-3)
    assert tr.record_log_likelihood(model, states, rec) == tr.record_log_likelihood(
        model, other, rec
    )


def test_eta_zero_backward_matches_deterministic_adjoint():
    model = decay_model(kappa=1.0, eta=0.0, omega=0.7)
    _, rec = tr.simulate_homodyne(model, GROUND, 0.3, 1e-3, seed=11)
    effects = tr.backward_homodyne(model, rec, np.eye(2))
    assert np.max(np.abs(effects.mats - np.eye(2))) < 5e-3
    ef = np.array([[0.7, 0.1], [0.1, 0.25]], dtype=complex)
    effects = tr.backward_homodyne(model, rec, ef)
    ref = dyn.propagate_backward(model.gen, ef, 0.3, 0.0, 1e-3)
    for got, want in zip(effects.mats, ref.mats):
        a = got / al.spectral_norm_hermitian(got)
        b = want / al.spectral_norm_hermitian(want)
        assert np.max(np.abs(a - b)) < 5e-3


def test_eta_zero_smoothed_equals_filtered():
    model = decay_model(kappa=1.0, eta=0.0, omega=0.4)
    rho0 = np.array([[0.3, 0.1], [0.1, 0.7]], dtype=complex)
    states, rec = tr.simulate_homodyne(model, rho0, 0.2, 1e-3, seed=9)
    effects = tr.backward_homodyne(model, rec, np.eye(2))
    pair = tr.PqsPair(states, effects, rec)
    ins = proj_z()
    for t in (0.0, 0.1, 0.2):
        sm = tr.smoothed_probability(pair, t, ins)
        rho = states.at(t)
        assert abs(sm["g"] - rho[0, 0].real) < 5e-3
        assert abs(sm["e"] - rho[1, 1].real) < 5e-3


def test_backward_pass_is_exact_adjoint_of_linear_filter():
    """The unnormalized pairing telescopes exactly: pairing the raw backward
    recursion with the raw record-driven Kraus filter gives the same number
    at every grid point. The module's per-step rescaling only changes scale,
    so its output equals the raw recursion normalized."""
    eta, kappa = 0.5, 1.0
    model = decay_model(kappa=kappa, eta=eta, omega=0.8)
    states, rec = tr.simulate_homodyne(model, 0.5 * np.eye(2), 0.2, 1e-3, seed=21)
    effects = tr.backward_homodyne(model, rec, np.eye(2))
    dt = rec.dt
    base = np.eye(2) - (1j * model.gen.hamiltonian + 0.5 * kappa * al.SP @ al.SM) * dt
    leak = (1.0 - eta) * kappa * dt
    sq = np.sqrt(eta * kappa)
    raw_e = [np.eye(2, dtype=complex)]
    for k in range(rec.steps - 1, -1, -1):
        m = base + sq * al.SM * rec.increments[k]
        raw_e.append(m.conj().T @ raw_e[-1] @ m + leak * (al.SP @ raw_e[-1] @ al.SM))
    raw_e = raw_e[::-1]
    rho = np.array(0.5 * np.eye(2), dtype=complex)
    raw_r = [rho]
    for k in range(rec.steps):
        m = base + sq * al.SM * rec.increments[k]
        rho = m @ rho @ m.conj().T + leak * (al.SM @ rho @ al.SP)
        raw_r.append(rho)
    vals = [al.pairing(e, r) for e, r in zip(raw_e, raw_r)]
    assert np.max(np.abs(np.array(vals) / vals[-1] - 1.0)) < 1e-12
    for got, raw in zip(effects.mats, raw_e):
        assert np.max(np.abs(got - raw / al.spectral_norm_hermitian(raw))) < 1e-10


def test_backward_pass_telescopes_with_extra_baths():
    """Two unmonitored baths: the raw effect recursion, written in sandwich
    form with every term acting on the incoming effect, pairs with the raw
    forward recursion of the record step to the same number at every grid
    point, and the module's backward pass is that recursion normalized."""
    extra = (dyn.Bath("pump", (0.6 * al.SP,)), dyn.Bath("dephase", (0.5 * al.SZ,)))
    model = decay_model(kappa=1.0, eta=0.6, omega=0.9, extra=extra)
    rho0 = np.array([[0.3, 0.1 - 0.2j], [0.1 + 0.2j, 0.7]])
    _, rec = tr.simulate_homodyne(model, rho0, 0.1, 1e-3, seed=13)
    effects = tr.backward_homodyne(model, rec, np.eye(2))
    dt = rec.dt
    step = _accel.record_step(model, dt)
    jumps = [j for b in model.gen.baths for j in b.jumps]
    base = np.eye(2) - (1j * model.gen.hamiltonian + 0.5 * sum(j.conj().T @ j for j in jumps)) * dt
    sq = np.sqrt(model.eta * model.kappa)
    leak = (1.0 - model.eta) * model.kappa * dt
    others = [np.sqrt(dt) * j for j in model.unmonitored_jumps()]
    assert len(others) == 2
    raw_e = [np.eye(2, dtype=complex)]
    for k in range(rec.steps - 1, -1, -1):
        e = raw_e[-1]
        m = base + sq * al.SM * rec.increments[k]
        nxt = m.conj().T @ e @ m + leak * (al.SP @ e @ al.SM)
        for j in others:
            nxt = nxt + j.conj().T @ e @ j
        raw_e.append(nxt)
    raw_e = raw_e[::-1]
    s0, s1, s2 = step.branches
    raw_r = [rho0.reshape(-1)]
    for dy in rec.increments:
        raw_r.append((s0 + dy * s1 + dy**2 * s2) @ raw_r[-1])
    vals = np.array([al.pairing(e, r.reshape(2, 2)) for e, r in zip(raw_e, raw_r)])
    assert np.max(np.abs(vals / vals[-1] - 1.0)) < 1e-12
    for got, raw in zip(effects.mats, raw_e):
        assert np.max(np.abs(got - raw / al.spectral_norm_hermitian(raw))) < 1e-10


def test_diffusive_posterior_two_routes_agree():
    """H0: start in |+>, H1: start in |->, judged on one record of a driven
    emitter. Route one filters each hypothesis with the record step's
    unnormalized map and sums the log normalizers; route two reads the
    posterior off the backward pass at t = 0. Both evaluate the same discrete
    model, so they agree to rounding."""
    model = decay_model(kappa=1.0, eta=0.8, omega=1.5)
    plus = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
    minus = 0.5 * np.array([[1.0, -1.0], [-1.0, 1.0]], dtype=complex)
    _, rec = tr.simulate_homodyne(model, plus, 0.5, 1e-3, seed=3)
    s0, s1, s2 = _accel.record_step(model, rec.dt).branches

    def log_normalizer(rho):
        v, total = rho.reshape(-1), 0.0
        for dy in rec.increments:
            v = (s0 + dy * s1 + dy**2 * s2) @ v
            t = np.trace(v.reshape(2, 2)).real
            total += np.log(t)
            v = v / t
        return total

    log_odds = log_normalizer(plus) - log_normalizer(minus)
    forward = 1.0 / (1.0 + np.exp(-log_odds))
    pair = tr.PqsPair(
        tr.replay_homodyne(model, 0.5 * np.eye(2), rec),
        tr.backward_homodyne(model, rec, np.eye(2)),
        rec,
    )
    backward = tr.smoothed_probability(pair, 0.0, projective({"+": plus, "-": minus}))["+"]
    assert 0.1 < forward < 0.9 and abs(forward - 0.5) > 0.05
    assert abs(forward - backward) < 1e-10


def test_pairing_ratio_stays_near_one_without_post_selection():
    """With Ef = I the normalized pairing is conserved only up to the spread
    the record imprints on the effect spectrum (per-step rescaling tracks the
    top eigenvalue, the pairing tracks the state-weighted one); over a short
    weakly informative record that stays a small band around 1."""
    model = decay_model(kappa=1.0, eta=0.5, omega=0.8)
    states, rec = tr.simulate_homodyne(model, 0.5 * np.eye(2), 0.2, 1e-3, seed=21)
    effects = tr.backward_homodyne(model, rec, np.eye(2))
    pair = tr.PqsPair(states, effects, rec)
    final = pair.pairing_at(0.2)
    for t in states.times[::40]:
        ratio = pair.pairing_at(t) / final
        assert 0.75 < ratio <= 1.0 + 1e-12


def test_backward_homodyne_effects_stay_valid():
    model = decay_model(kappa=1.0, eta=0.9, omega=1.0)
    _, rec = tr.simulate_homodyne(model, EXCITED, 0.2, 1e-3, seed=6)
    effects = tr.backward_homodyne(model, rec, np.array([[0.6, 0.2], [0.2, 0.5]]))
    assert effects.kind == "effect"
    for e in effects.mats:
        w = np.linalg.eigvalsh(e)
        assert w.min() > -1e-10
        assert w.max() <= 1.0 + 1e-12


def test_dark_state_homodyne_record_is_pure_noise():
    model = decay_model(kappa=1.0, eta=1.0)
    states, rec = tr.simulate_homodyne(model, GROUND, 0.1, 1e-3, seed=8)
    assert np.allclose(states.mats, GROUND, atol=1e-12)
    inn = tr.innovations(model, states, rec)
    assert np.allclose(inn, rec.increments, atol=1e-15)


def test_dark_state_counting_yields_no_counts():
    model = decay_model(kappa=1.0, mode="counting")
    states, rec = tr.simulate_counting(model, GROUND, 0.5, 1e-3, seed=2)
    assert rec.increments.sum() == 0
    assert np.allclose(states.mats, GROUND, atol=1e-12)


def test_backward_counting_quiet_record_hand_recursion():
    """Quiet steps square the no-jump factor onto the excited subspace;
    the spectral norm stays 1 so no rescaling kicks in."""
    kappa, dt = 0.8, 0.01
    model = decay_model(kappa=kappa, mode="counting")
    rec = tr.MeasurementRecord("counting", dt * np.arange(6), np.zeros(5, dtype=int))
    effects = tr.backward_counting(model, rec, np.eye(2))
    decay = (1.0 - 0.5 * kappa * dt) ** 2
    for k in range(6):
        want = np.diag([1.0, decay ** (5 - k)])
        assert np.allclose(effects.mats[k], want, atol=1e-13)


def hand_effects(model, rec, effect_final):
    """The backward recursion in sandwich form, every term acting on the
    incoming effect, each earlier point scaled to spectral norm 1."""
    dt = rec.dt
    jumps = [j for b in model.gen.baths for j in b.jumps]
    base = np.eye(model.dim) - (1j * model.gen.hamiltonian + 0.5 * sum(j.conj().T @ j for j in jumps)) * dt
    c, cd = model.c, model.c.conj().T
    sq = np.sqrt(model.eta * model.kappa)
    leak = (1.0 - model.eta) * model.kappa * dt
    others = [np.sqrt(dt) * j for j in model.unmonitored_jumps()]
    out = [np.asarray(effect_final, dtype=complex)]
    for x in rec.increments[::-1]:
        e = out[-1]
        if model.mode == "counting" and x:
            nxt = model.eta * model.kappa * dt * (cd @ e @ c)
        else:
            m = base + sq * c * x if model.mode == "diffusive" else base
            nxt = m.conj().T @ e @ m + leak * (cd @ e @ c)
            for j in others:
                nxt = nxt + j.conj().T @ e @ j
        out.append(nxt / al.spectral_norm_hermitian(nxt))
    return np.array(out[::-1])


@pytest.mark.parametrize("sign", (1.0, -1.0), ids=("sz", "minus-sz"))
@pytest.mark.parametrize("mode", tr.MODES)
def test_backward_pass_keeps_a_traceless_terminal_effect(mode, sign):
    """±σz have zero trace, so only a norm that vanishes with the effect
    alone can rescale their backward pass, in either mode. The trace of
    S†(-σz) is negative here, so a pass that divided by the trace would
    raise or flip the effect's sign."""
    model = decay_model(kappa=1.0, eta=0.8, omega=1.1, mode=mode)
    kind = "homodyne" if mode == "diffusive" else "counting"
    _, rec = getattr(tr, f"simulate_{kind}")(model, 0.5 * np.eye(2), 2.0, 1e-2, seed=20)
    if mode == "counting":
        assert 0 < rec.increments.sum() < rec.steps
    effects = getattr(tr, f"backward_{kind}")(model, rec, sign * al.SZ)
    assert np.array_equal(effects.mats[-1], sign * al.SZ)
    assert np.max(np.abs(effects.mats - hand_effects(model, rec, sign * al.SZ))) < 1e-10


@pytest.mark.parametrize("mode", tr.MODES)
def test_backward_pass_is_the_hand_recursion_at_d8(mode):
    """At d = 8 the branches are far from self-adjoint, so a pass that
    applied S_b in place of S_b† would miss the sandwich recursion."""
    model = cavity_model(d=8, eta=0.7, mode=mode)
    simulate = tr.simulate_homodyne if mode == "diffusive" else tr.simulate_counting
    _, rec = simulate(model, np.diag(np.eye(8)[7]), 1.5, 0.01, seed=4)
    if mode == "counting":
        assert 0 < rec.increments.sum() < rec.steps
    effect = np.diag(np.linspace(0.0, 1.0, 8))
    effects = getattr(tr, f"backward_{'homodyne' if mode == 'diffusive' else 'counting'}")(model, rec, effect)
    assert np.max(np.abs(effects.mats - hand_effects(model, rec, effect))) < 1e-10


def adjoint_routes(model, effect, increments):
    """A backward pass over increments (in record order) by the loop and by the blocked route."""
    step = _accel.record_step(model, 1e-3)
    sec = _accel._on_sector(step, effect, adjoint=True)
    incr = np.asarray(increments)[::-1]
    loop = _accel._paths(step, sec, incr[None], True, range(1, incr.size + 1))[0][0]
    return sec, loop, _accel._blocked(step, sec, incr)


@pytest.mark.parametrize("mode", tr.MODES)
@pytest.mark.parametrize("d", (2, 3, 4))
def test_blocked_backward_pass_is_the_loop(d, mode):
    """Running products doubled within blocks of _BLOCK steps give the
    per-step loop's effects on the full d² sector, for records that end
    inside, at and just past a block edge, and for a long one. The count
    record fires every 29 steps, so jumps fall at every offset in a block."""
    model = cavity_model(d, mode=mode)
    if mode == "diffusive":
        increments = tr.simulate_homodyne(model, fock(d, d - 1), 2.0, 1e-3, seed=23)[1].increments
    else:
        increments = np.zeros(2000, dtype=np.int64)
        increments[2::29] = 1
    block = _accel._BLOCK
    for n in (1, block - 1, block, block + 1, 2000):
        sec, loop, blocked = adjoint_routes(model, cavity_state(d), increments[:n])
        assert sec.start.size == d * d <= _accel._BLOCKED_SECTOR
        assert blocked.shape == loop.shape == (n, d, d)
        assert np.max(np.abs(blocked - loop)) < 1e-12


def test_backward_route_follows_the_sector_size():
    """Sectors up to _BLOCKED_SECTOR coordinates run blocked, larger ones
    the loop; the d = 8 hand-recursion test covers the loop's effects."""
    for d in (4, 5):
        model = cavity_model(d)
        _, rec = tr.simulate_homodyne(model, fock(d, d - 1), 0.1, 1e-3, seed=24)
        sec, loop, blocked = adjoint_routes(model, cavity_state(d), rec.increments)
        step = _accel.record_step(model, 1e-3)
        got = _accel._backward_effects(step, cavity_state(d), rec.increments[None, ::-1])[0]
        small = sec.start.size <= _accel._BLOCKED_SECTOR
        assert small == (d == 4)
        assert np.array_equal(got, blocked if small else loop)


def test_both_backward_routes_reject_an_infeasible_count_record():
    """Two adjacent jumps of a qubit's σ- have zero weight: both routes
    collapse to the zero effect and raise."""
    model = decay_model(kappa=1.0, mode="counting", omega=1.3)
    step = _accel.record_step(model, 1e-3)
    sec = _accel._on_sector(step, np.eye(2), adjoint=True)
    assert sec.start.size <= _accel._BLOCKED_SECTOR
    for n in (6, 100):
        incr = np.zeros(n, dtype=np.int64)
        incr[n // 2:n // 2 + 2] = 1
        with pytest.raises(ValueError, match="effect collapsed to zero"):
            _accel._paths(step, sec, incr[None], True, range(1, n + 1))
        with pytest.raises(ValueError, match="effect collapsed to zero"):
            _accel._blocked(step, sec, incr)


def test_blocked_backward_pass_survives_large_currents():
    """Currents of ±1e3 make step matrices with entries near 1e6; scaled
    by powers of two, their running products stay finite and the blocked
    effects stay the loop's."""
    model = cavity_model(3)
    _, rec = tr.simulate_homodyne(model, fock(3, 2), 0.2, 1e-3, seed=25)
    incr = rec.increments.copy()
    incr[[3, 40, 41, 150]] = (1e3, -1e3, 1e3, 1e3)
    _, loop, blocked = adjoint_routes(model, cavity_state(3), incr)
    assert np.isfinite(blocked).all()
    assert np.max(np.abs(blocked - loop)) < 1e-12


@pytest.mark.parametrize("mode", tr.MODES)
def test_forward_passes_reject_invalid_initial_states(mode):
    """simulate, replay and ensemble check rho0 as propagate_forward does and
    never filter a matrix that is not a state of the model."""
    model = decay_model(mode=mode)
    kind = "homodyne" if mode == "diffusive" else "counting"
    simulate, replay, ensemble = (getattr(tr, f"{f}_{kind}") for f in ("simulate", "replay", "ensemble"))
    _, rec = simulate(model, EXCITED, 0.01, 1e-3, seed=1)
    bad = [
        (np.array([[0.5, 0.3], [0.0, 0.5]]), "state rejected: not Hermitian"),
        (2.0 * np.eye(2), "state rejected: trace 4 differs from 1"),
        (np.diag([1.5, -0.5]), "state rejected: negative eigenvalue"),
        (np.eye(3) / 3.0, "state dimension 3 does not match model 2"),
    ]
    for rho0, message in bad:
        with pytest.raises(ValueError, match=message):
            simulate(model, rho0, 0.01, 1e-3, seed=1)
        with pytest.raises(ValueError, match=message):
            replay(model, rho0, rec)
        with pytest.raises(ValueError, match=message):
            ensemble(model, rho0, 0.01, 1e-3, n_traj=4, seed=1)


@pytest.mark.parametrize("effect, message", [
    (np.ones((2, 3)), "expected a square matrix"),
    (np.eye(3), "terminal effect dimension 3 does not match model 2"),
    (np.diag([np.nan, 1.0]), "terminal effect has non-finite entries"),
    (np.diag([np.inf, 1.0]), "terminal effect has non-finite entries"),
    (np.array([[1.0, 0.5], [0.0, 1.0]]), "terminal effect is not Hermitian"),
    (np.zeros((2, 2)), "terminal effect is zero"),
], ids=["not-square", "wrong-dimension", "nan", "inf", "not-hermitian", "zero"])
def test_backward_passes_reject_invalid_terminal_effects(effect, message):
    """The record passes, the counting oracle and propagate_backward share one
    check, so a bad terminal effect fails by name (never as an incompatible
    record, a step-size problem, a RuntimeWarning or NaN weights) on every
    route."""
    for mode in tr.MODES:
        model = decay_model(mode=mode)
        kind = "homodyne" if mode == "diffusive" else "counting"
        _, rec = getattr(tr, f"simulate_{kind}")(model, EXCITED, 0.01, 1e-3, seed=1)
        with pytest.raises(ValueError, match=message):
            getattr(tr, f"backward_{kind}")(model, rec, effect)
    with pytest.raises(ValueError, match=message):
        tr.enumerate_counting(decay_model(mode="counting"), np.diag([1.0, 0.0]), effect, steps=3, dt=0.05)
    with pytest.raises(ValueError, match=message):
        dyn.propagate_backward(decay_model().gen, effect, 0.01, 0.0, 1e-3)


def test_counting_smoothed_matches_enumeration_exactly():
    """Insert a projective readout at every grid point of every feasible
    6-step record: the smoothed distribution must equal exact Bayesian
    retrodiction. Records with adjacent jumps carry weight exactly zero,
    because a jump lands on the ground state and the emitter operator
    annihilates it. At eta < 1 the undetected emissions enter the quiet
    steps, so the same 21 records stay feasible."""
    dt = 0.05
    rho0 = np.array([[0.35, 0.2 - 0.1j], [0.2 + 0.1j, 0.65]])
    ef = np.array([[0.8, 0.15], [0.15, 0.45]])
    ins = proj_z()
    for eta in (1.0, 0.6):
        model = decay_model(kappa=1.0, eta=eta, mode="counting", omega=1.3)
        oracle = tr.enumerate_counting(model, rho0, ef, steps=6, dt=dt)
        feasible = 0
        for bits in itertools.product((0, 1), repeat=6):
            w = oracle.record_weight(bits)
            if "11" in "".join(map(str, bits)):
                assert w == 0.0
                continue
            assert w > 0.0
            feasible += 1
            rec = tr.MeasurementRecord("counting", dt * np.arange(7), np.array(bits))
            pair = tr.PqsPair(
                tr.replay_counting(model, rho0, rec),
                tr.backward_counting(model, rec, ef),
                rec,
            )
            for j in range(7):
                sm = tr.smoothed_probability(pair, j * dt, ins)
                ex = oracle.conditional(bits, j, ins)
                assert abs(sm["g"] - ex["g"]) < 1e-10
                assert abs(sm["e"] - ex["e"]) < 1e-10
        assert feasible == 21


def test_enumeration_weights_sum_near_one():
    model = decay_model(kappa=1.0, mode="counting", omega=1.3)
    rho0 = 0.5 * np.eye(2) + 0.2 * al.SX
    for steps, dt in ((1, 0.01), (6, 0.01)):
        oracle = tr.enumerate_counting(model, rho0, np.eye(2), steps=steps, dt=dt)
        assert abs(sum(oracle.weights.values()) - 1.0) < 2e-3 * steps


def test_record_frequencies_match_enumeration():
    dt, steps = 0.008, 6
    model = decay_model(kappa=1.0, mode="counting", omega=1.3)
    rho0 = np.array([[0.35, 0.2 - 0.1j], [0.2 + 0.1j, 0.65]])
    oracle = tr.enumerate_counting(model, rho0, np.eye(2), steps=steps, dt=dt)
    total = sum(oracle.weights.values())
    n = 4000
    ens = tr.ensemble_counting(model, rho0, steps * dt, dt, n_traj=n, seed=19)
    seen = {}
    for row in ens.counts:
        key = tuple(int(x) for x in row)
        seen[key] = seen.get(key, 0) + 1
    for bits, w in oracle.weights.items():
        p = w / total
        freq = seen.get(bits, 0) / n
        se = np.sqrt(max(p * (1.0 - p), 1e-12) / n)
        assert abs(freq - p) < 4.0 * se + 1.5e-3


def test_infeasible_record_raises():
    model = decay_model(kappa=1.0, mode="counting", omega=1.3)
    rec = tr.MeasurementRecord("counting", 0.05 * np.arange(7), np.array([1, 1, 0, 0, 0, 0]))
    with pytest.raises(ValueError, match="zero weight"):
        tr.replay_counting(model, EXCITED, rec)
    with pytest.raises(ValueError, match="collapsed to zero"):
        tr.backward_counting(model, rec, np.eye(2))
    oracle = tr.enumerate_counting(model, EXCITED, np.eye(2), steps=6, dt=0.05)
    with pytest.raises(ValueError, match="zero weight"):
        oracle.conditional([1, 1, 0, 0, 0, 0], 3, proj_z())


def test_enumeration_guards():
    model = decay_model(mode="counting")
    with pytest.raises(ValueError, match="cap"):
        tr.enumerate_counting(model, EXCITED, np.eye(2), steps=11, dt=0.01)
    oracle = tr.enumerate_counting(model, EXCITED, np.eye(2), steps=3, dt=0.01)
    with pytest.raises(ValueError, match="record length"):
        oracle.conditional([0, 1], 1, proj_z())
    with pytest.raises(IndexError, match="step index"):
        oracle.conditional([0, 0, 0], 4, proj_z())


def test_total_count_mean_matches_emission_probability():
    """A decaying emitter emits once by T with probability 1 - exp(-kappa T);
    a detector of efficiency eta sees that photon with probability eta."""
    for eta in (1.0, 0.5):
        model = decay_model(kappa=1.0, eta=eta, mode="counting")
        ens = tr.ensemble_counting(model, EXCITED, 1.0, 2e-3, n_traj=3000, seed=31)
        totals = ens.total_counts()
        want = eta * (1.0 - np.exp(-1.0))
        se = totals.std(ddof=1) / np.sqrt(totals.size)
        assert abs(totals.mean() - want) < 3.0 * se + 2e-3


def test_ensemble_mean_reproduces_lindblad_decay():
    model = decay_model(kappa=1.0, eta=1.0)
    ens = tr.ensemble_homodyne(model, EXCITED, 0.5, 2e-3, n_traj=2000, seed=17)
    pops = ens.states[:, :, 1, 1].real
    for j, t in enumerate(ens.sample_times):
        se = pops[:, j].std(ddof=1) / np.sqrt(pops.shape[0])
        assert abs(pops[:, j].mean() - np.exp(-t)) < 3.0 * se + 5 * ens.dt


def test_innovation_increments_are_white():
    model = decay_model(kappa=1.0, eta=0.7, omega=0.6)
    ens = tr.ensemble_homodyne(model, EXCITED, 0.5, 2e-3, n_traj=2000, seed=23)
    dws = ens.innovations.ravel()
    assert abs(dws.mean()) < 3.0 * np.sqrt(ens.dt / dws.size)
    assert abs(dws.var() - ens.dt) < 0.05 * ens.dt


def test_ensemble_row_matches_single_simulation():
    model = decay_model(kappa=1.0, eta=0.7, omega=0.9)
    states, rec = tr.simulate_homodyne(model, EXCITED, 0.1, 1e-3, seed=55)
    ens = tr.ensemble_homodyne(
        model, EXCITED, 0.1, 1e-3, n_traj=1, seed=55, sample_times=(0.0, 0.05, 0.1)
    )
    assert np.array_equal(ens.dys[0], rec.increments)
    assert np.array_equal(ens.states[0, 2], states.at(0.1))


def test_homodyne_ensemble_innovations_are_its_draws():
    model = decay_model(kappa=1.0, eta=0.7, omega=0.9)
    dt, n_traj, steps = 1e-3, 5, 100
    ens = tr.ensemble_homodyne(model, EXCITED, steps * dt, dt, n_traj=n_traj, seed=61)
    want = np.random.Generator(np.random.Philox(61)).normal(0.0, np.sqrt(dt), (n_traj, steps))
    assert np.array_equal(ens.innovations, want)


@pytest.mark.parametrize("mode", ["diffusive", "counting"])
def test_ensembles_take_only_whole_positive_trajectory_counts(mode):
    model = decay_model(mode=mode)
    ensemble = tr.ensemble_homodyne if mode == "diffusive" else tr.ensemble_counting
    for bad in (0, -3, 2.5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="n_traj"):
            ensemble(model, EXCITED, 0.01, 1e-3, n_traj=bad, seed=1)
    assert ensemble(model, EXCITED, 0.01, 1e-3, n_traj=2.0, seed=1).states.shape[0] == 2


def test_ensemble_sample_times_selection():
    model = decay_model(eta=0.3)
    ens = tr.ensemble_homodyne(
        model, EXCITED, 0.1, 1e-3, n_traj=3, seed=2, sample_times=(0.0, 0.05, 0.1)
    )
    assert np.allclose(ens.sample_times, (0.0, 0.05, 0.1), atol=1e-12)
    assert ens.states.shape == (3, 3, 2, 2)
    with pytest.raises(ValueError, match="not on the integration grid"):
        tr.ensemble_homodyne(model, EXCITED, 0.1, 1e-3, n_traj=3, seed=2, sample_times=(0.0335,))


def cavity_model(d=4, eta=0.7, mode="diffusive"):
    """Driven, dephased cavity truncated at d levels, monitored through a.

    The post-jump state a rho a† / Tr[...] depends on the pre-jump state, so
    a fire branch applied to the wrong trajectory shows in the states.
    """
    a = np.diag(np.sqrt(np.arange(1.0, d)), k=1).astype(complex)
    number = np.diag(np.arange(d)).astype(complex)
    dephase = (dyn.Bath("dephase", (np.sqrt(0.3) * number,)),)
    return tr.monitoring_model(
        0.8 * (a + a.conj().T) + 0.2 * number, a, 1.0, eta=eta, mode=mode, extra_baths=dephase
    )


def cavity_state(d=4):
    g = rng(5)
    v = g.normal(size=(d, d)) + 1j * g.normal(size=(d, d))
    rho = v @ v.conj().T
    return rho / np.trace(rho).real


def test_every_grid_point_can_be_a_sample_time():
    """Sample times resolve to grid indices in one vectorized pass: all 8001
    points of an 8000-step grid map to arange, in any order, and a time off
    the grid or past its end still raises."""
    times = 1e-3 * np.arange(8001)
    assert np.array_equal(tr._resolve_samples(times, times), np.arange(8001))
    assert np.array_equal(tr._resolve_samples(times, times[::-1]), np.arange(8000, -1, -1))
    with pytest.raises(ValueError, match="sample time 0.0335 is not on the integration grid"):
        tr._resolve_samples(times, [0.0, 0.0335, 0.1])
    with pytest.raises(ValueError, match="sample time 8.5 is not on the integration grid"):
        tr._resolve_samples(times, [8.5])
    ens = tr.ensemble_homodyne(decay_model(eta=0.3), EXCITED, 8.0, 1e-3, n_traj=1, seed=3, sample_times=times)
    assert np.array_equal(ens.sample_times, times)
    assert ens.states.shape == (1, 8001, 2, 2)


def test_counting_ensemble_fires_on_the_right_rows():
    """Every row of a counting ensemble in which most rows fire, several of
    them more than once and at different steps, is its own count record
    filtered alone: by the oracle's normalized sandwich product (which does
    not read the record step) and by replay_counting."""
    dt, steps, n = 0.15, 10, 256
    model = cavity_model(eta=0.7, mode="counting")
    rho0 = cavity_state()
    times = dt * np.arange(steps + 1)
    with pytest.warns(UserWarning, match="poorly"):
        ens = tr.ensemble_counting(model, rho0, steps * dt, dt, n_traj=n, seed=29, sample_times=times)
    totals = ens.total_counts()
    assert np.mean(totals > 0) > 0.5 and np.sum(totals > 1) > 20
    assert np.all(ens.counts.sum(axis=0) > 0)  # every step fires in some row
    ops = tr._counting_ops(model, dt)
    for row, counts in zip(ens.states, ens.counts):
        rho = rho0
        assert np.max(np.abs(row[0] - rho0)) < 1e-12
        for k, fired in enumerate(counts):
            rho = tr._counting_sandwich(ops, rho, fired)
            rho = rho / np.trace(rho).real
            assert np.max(np.abs(row[k + 1] - rho)) < 1e-12
        rec = tr.MeasurementRecord("counting", times, counts)
        assert np.max(np.abs(row - tr.replay_counting(model, rho0, rec).mats)) < 1e-12


def test_homodyne_ensemble_rows_are_replays_of_their_currents():
    """Each row of a d = 4 homodyne ensemble is the replay of its own dY, and
    its innovations are dY less the drift of the replayed pre-step states."""
    dt, steps = 2e-3, 40
    model = cavity_model(eta=0.7)
    rho0 = cavity_state()
    times = dt * np.arange(steps + 1)
    ens = tr.ensemble_homodyne(model, rho0, steps * dt, dt, n_traj=64, seed=37, sample_times=times)
    assert ens.states.shape == (64, steps + 1, 4, 4)
    for row, dys, dws in zip(ens.states, ens.dys, ens.innovations):
        rec = tr.MeasurementRecord("diffusive", times, dys)
        replay = tr.replay_homodyne(model, rho0, rec)
        assert np.max(np.abs(row - replay.mats)) < 1e-12
        assert np.max(np.abs(dws - tr.innovations(model, replay, rec))) < 1e-12


def real_cavity_model(d=6, eta=0.7, mode="diffusive", hamiltonian=None):
    """Cavity monitored through a, with real number dephasing and H = 0 by
    default: its real jumps keep a real-symmetric state real-symmetric, and
    its counting steps keep a number-diagonal state number-diagonal."""
    a = np.diag(np.sqrt(np.arange(1.0, d)), k=1).astype(complex)
    number = np.diag(np.arange(d)).astype(complex)
    dephase = (dyn.Bath("dephase", (np.sqrt(0.3) * number,)),)
    h = np.zeros((d, d)) if hamiltonian is None else hamiltonian
    return tr.monitoring_model(h, a, 1.0, eta=eta, mode=mode, extra_baths=dephase)


def fock(d, n):
    return np.diag(np.eye(d)[n]).astype(complex)


def reachable(model, start, adjoint=False):
    """The record kernel's sector from start: (coordinates, diagonal count)."""
    step = _accel.record_step(model, 1e-3)
    oriented = step.real if adjoint else step.real.transpose(0, 2, 1)
    return _accel._reachable(oriented, _accel._coordinates(step.basis, start))


def test_reachable_sector_sizes():
    """The sector is d(d+1)/2 real-symmetric coordinates for a real diffusive
    model, the d diagonal ones when it counts photons, and all d² once H and
    rho0 are complex; diagonal coordinates lead."""
    d = 6
    hom, cnt = real_cavity_model(d), real_cavity_model(d, mode="counting")
    for model, size in ((hom, d * (d + 1) // 2), (cnt, d)):
        for start, adjoint in ((fock(d, 5), False), (np.eye(d), True)):
            sector, nd = reachable(model, start, adjoint)
            assert sector.size == size and nd == d
            assert np.all(sector[:nd] % (d + 1) == 0) and np.all(sector[nd:] % (d + 1) != 0)
    a = hom.c
    complex_h = 0.8 * (a + a.conj().T) + 0.3j * (a.conj().T - a)
    sector, _ = reachable(real_cavity_model(d, hamiltonian=complex_h), cavity_state(d))
    assert sector.size == d * d
    dark = decay_model(mode="counting")
    assert reachable(dark, GROUND)[0].tolist() == [0]
    assert reachable(dark, np.eye(2), adjoint=True)[0].tolist() == [0, 3]


def test_real_cavity_record_is_the_kraus_recursion():
    """On its 21-coordinate sector, a d = 6 homodyne record still replays as
    the full-matrix Kraus recursion M(dY) rho M(dY)† plus the undetected leak
    and the unmonitored sandwiches, renormalized each step; its backward pass
    is the adjoint recursion."""
    d = 6
    model = real_cavity_model(d)
    _, rec = tr.simulate_homodyne(model, fock(d, 5), 0.3, 1e-3, seed=19)
    dt, c = rec.dt, model.c
    jumps = [j for b in model.gen.baths for j in b.jumps]
    base = np.eye(d) - (1j * model.gen.hamiltonian + 0.5 * sum(j.conj().T @ j for j in jumps)) * dt
    sq = np.sqrt(model.eta * model.kappa)
    leak = (1.0 - model.eta) * model.kappa * dt
    others = [np.sqrt(dt) * j for j in model.unmonitored_jumps()]
    rho = fock(d, 5)
    want = [rho]
    for dy in rec.increments:
        m = base + sq * c * dy
        nxt = m @ rho @ m.conj().T + leak * (c @ rho @ c.conj().T)
        for j in others:
            nxt = nxt + j @ rho @ j.conj().T
        rho = nxt / np.trace(nxt).real
        want.append(rho)
    replay = tr.replay_homodyne(model, fock(d, 5), rec).mats
    assert np.max(np.abs(replay - np.array(want))) < 1e-12
    effect = np.diag(np.linspace(0.0, 1.0, d))
    effects = tr.backward_homodyne(model, rec, effect)
    assert np.max(np.abs(effects.mats - hand_effects(model, rec, effect))) < 1e-12


def test_symmetric_models_keep_their_zeros_exactly():
    """Coordinates outside the sector are never stepped, so a count ensemble
    started number-diagonal has off-diagonals exactly 0.0, and the real
    model's states and effects have imaginary parts exactly 0.0."""
    d = 6
    off = ~np.eye(d, dtype=bool)
    cnt = tr.ensemble_counting(real_cavity_model(d, mode="counting"), fock(d, 5), 1.0, 1e-2, n_traj=64, seed=8)
    assert cnt.total_counts().sum() > 0
    assert np.all(cnt.states[..., off] == 0.0)
    model = real_cavity_model(d)
    hom = tr.ensemble_homodyne(model, fock(d, 5), 0.2, 1e-3, n_traj=32, seed=9)
    assert np.all(hom.states.imag == 0.0)
    assert np.abs(hom.states[:, -1][:, off]).max() > 1e-3  # coherences do build up
    _, rec = tr.simulate_homodyne(model, fock(d, 5), 0.2, 1e-3, seed=10)
    assert np.all(tr.backward_homodyne(model, rec, np.eye(d)).mats.imag == 0.0)


def test_fixed_seed_reproduces_ensembles_bitwise():
    rho0 = cavity_state(3)
    hom = cavity_model(d=3, eta=0.6)
    a = tr.ensemble_homodyne(hom, rho0, 0.05, 1e-3, n_traj=40, seed=4)
    b = tr.ensemble_homodyne(hom, rho0, 0.05, 1e-3, n_traj=40, seed=4)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.dys, b.dys) and np.array_equal(a.innovations, b.innovations)
    cnt = cavity_model(d=3, eta=0.6, mode="counting")
    a = tr.ensemble_counting(cnt, rho0, 0.5, 1e-2, n_traj=40, seed=4)
    b = tr.ensemble_counting(cnt, rho0, 0.5, 1e-2, n_traj=40, seed=4)
    assert a.total_counts().sum() > 0
    assert np.array_equal(a.states, b.states) and np.array_equal(a.counts, b.counts)


def test_zero_innovation_record_maximizes_likelihood():
    model = decay_model(kappa=1.0, eta=0.8, omega=0.5)
    states, rec = tr.simulate_homodyne(model, EXCITED, 0.1, 1e-3, seed=14)
    xb = np.einsum("ij,kji->k", model.x_c, states.mats[:-1]).real
    flat = tr.MeasurementRecord("diffusive", rec.times, 1.0 * np.sqrt(0.8) * xb * rec.dt)
    best = tr.record_log_likelihood(model, states, flat)
    assert best == 0.0
    g = rng(3)
    for _ in range(5):
        noisy = tr.MeasurementRecord(
            "diffusive", rec.times, flat.increments + 1e-2 * g.normal(size=rec.steps)
        )
        assert tr.record_log_likelihood(model, states, noisy) < best


def test_likelihood_ratio_reweighting_recovers_means():
    """Records drawn under drive A, reweighted by exp(llB - llA), must
    estimate drive-B record expectations (the weights are an exact discrete
    likelihood ratio, so only Monte Carlo error remains)."""
    dt, horizon, n = 5e-3, 0.3, 400
    ma = decay_model(kappa=1.0, eta=0.8, omega=0.7)
    mb = decay_model(kappa=1.0, eta=0.8, omega=1.2)
    ws = np.zeros(n)
    fa = np.zeros(n)
    for i in range(n):
        states_a, rec = tr.simulate_homodyne(ma, EXCITED, horizon, dt, seed=1000 + i)
        lla = tr.record_log_likelihood(ma, states_a, rec)
        states_b = tr.replay_homodyne(mb, EXCITED, rec)
        llb = tr.record_log_likelihood(mb, states_b, rec)
        ws[i] = np.exp(llb - lla)
        fa[i] = rec.increments.sum()
    fb = np.zeros(n)
    for i in range(n):
        _, rec = tr.simulate_homodyne(mb, EXCITED, horizon, dt, seed=5000 + i)
        fb[i] = rec.increments.sum()
    assert abs(ws.mean() - 1.0) < 4.0 * ws.std(ddof=1) / np.sqrt(n)
    est = float((ws * fa).mean() / ws.mean())
    direct = float(fb.mean())
    se_est = np.std(ws * (fa - est), ddof=1) / (np.sqrt(n) * ws.mean())
    se_dir = fb.std(ddof=1) / np.sqrt(n)
    assert abs(est - direct) < 4.0 * (se_est + se_dir)


def test_trivial_instrument_gives_probability_one():
    model = decay_model(eta=0.6)
    states, rec = tr.simulate_homodyne(model, EXCITED, 0.03, 1e-3, seed=44)
    effects = tr.backward_homodyne(model, rec, np.array([[0.9, 0.0], [0.0, 0.4]]))
    pair = tr.PqsPair(states, effects, rec)
    ident = Instrument(("pass",), ((np.eye(2),),))
    p = tr.smoothed_probability(pair, 0.01, ident)
    assert abs(p["pass"] - 1.0) < 1e-12


def test_null_post_selection_surfaces():
    model = decay_model(kappa=1.0, mode="counting")
    states, rec = tr.simulate_counting(model, GROUND, 0.05, 1e-3, seed=3)
    effects = tr.backward_counting(model, rec, EXCITED)
    pair = tr.PqsPair(states, effects, rec)
    with pytest.raises(ValueError, match="null post-selection"):
        tr.smoothed_probability(pair, 0.02, proj_z())


def test_pqs_pair_grid_checks():
    model = decay_model(eta=0.5)
    states, rec = tr.simulate_homodyne(model, EXCITED, 0.05, 1e-3, seed=1)
    effects = tr.backward_homodyne(model, rec, np.eye(2))
    pair = tr.PqsPair(states, effects, rec)
    with pytest.raises(ValueError, match="state timeline and an effect"):
        tr.PqsPair(effects, states, rec)
    shifted = tr.MeasurementRecord("diffusive", rec.times + 1.0, rec.increments)
    with pytest.raises(ValueError, match="record grid"):
        tr.PqsPair(states, effects, shifted)
    with pytest.raises(ValueError, match="not on the stored grid"):
        tr.smoothed_probability(pair, 0.0123, proj_z())


def test_mode_guards_and_coarse_dt_warning():
    dm = decay_model(eta=0.5)
    cm = decay_model(mode="counting")
    with pytest.raises(ValueError, match="needs 'counting'"):
        tr.simulate_counting(dm, EXCITED, 0.1, 1e-3, seed=0)
    with pytest.raises(ValueError, match="needs 'diffusive'"):
        tr.simulate_homodyne(cm, EXCITED, 0.1, 1e-3, seed=0)
    with pytest.warns(UserWarning, match="poorly"):
        tr.simulate_homodyne(decay_model(kappa=30.0, eta=0.5), GROUND, 0.05, 5e-3, seed=0)
    coarse = decay_model(kappa=30.0, mode="counting")
    with pytest.warns(UserWarning, match="poorly"):
        with pytest.raises(ValueError, match="jump probability exceeded 1; reduce dt"):
            tr.simulate_counting(coarse, EXCITED, 0.1, 0.05, seed=0)
    with pytest.warns(UserWarning, match="poorly"):
        with pytest.raises(ValueError, match="jump probability exceeded 1; reduce dt"):
            tr.ensemble_counting(coarse, EXCITED, 0.1, 0.05, n_traj=8, seed=0)


def test_pqs_summary_csv(tmp_path):
    model = decay_model(kappa=1.0, eta=0.5, omega=0.8)
    states, rec = tr.simulate_homodyne(model, 0.5 * np.eye(2), 0.02, 1e-3, seed=12)
    effects = tr.backward_homodyne(model, rec, np.eye(2))
    pair = tr.PqsPair(states, effects, rec)
    path = tmp_path / "summary.csv"
    tr.pqs_summary_csv(pair, proj_z(), path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "time,pairing,p_g,p_e"
    assert len(rows) == rec.steps + 2
    probs = np.array([[float(x) for x in r.split(",")[2:]] for r in rows[1:]])
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    # each row is the per-point route: smoothed_probability and pairing_at
    for row in rows[1:]:
        t, pair_val, p_g, p_e = (float(x) for x in row.split(","))
        want = tr.smoothed_probability(pair, t, proj_z())
        assert abs(pair_val - pair.pairing_at(t)) < 1e-12
        assert abs(p_g - want["g"]) < 1e-12 and abs(p_e - want["e"]) < 1e-12


def test_stack_calls_equal_per_point_calls_on_a_record():
    model = decay_model(kappa=1.0, eta=0.6, omega=0.8)
    states, rec = tr.simulate_homodyne(model, 0.5 * np.eye(2), 0.05, 1e-3, seed=13)
    effects = tr.backward_homodyne(model, rec, np.array([[0.9, 0.1], [0.1, 0.3]]))
    rhos, es = states.mats, effects.mats
    ins = unsharp_z(0.6)
    pairs = al.pairing(es, rhos)
    assert pairs.shape == (rhos.shape[0],)
    assert np.max(np.abs(pairs - [al.pairing(e, r) for e, r in zip(es, rhos)])) < 1e-12
    for m in ins.outcomes:
        per_point = np.array([ins.apply(m, r) for r in rhos])
        assert np.max(np.abs(ins.apply(m, rhos) - per_point)) < 1e-12
    got = rd.abl_distribution(rd.BoundaryPair(rhos, es), ins)
    for k, (r, e) in enumerate(zip(rhos, es)):
        want = rd.abl_distribution(rd.BoundaryPair(r, e), ins)
        assert isinstance(want["+"], float)
        for m in ins.outcomes:
            assert abs(got[m][k] - want[m]) < 1e-12


def test_sample_positions_reject_bad_indices():
    """The kernel's sample slots name the first index off the grid, and a
    repeated one."""
    assert _accel._sample_positions(4, [4, 0, 2]).tolist() == [1, -1, 2, -1, 0]
    with pytest.raises(ValueError, match="sample index 5 outside the 0..4 grid"):
        _accel._sample_positions(4, [0, 5, 7])
    with pytest.raises(ValueError, match="sample index -1 outside the 0..4 grid"):
        _accel._sample_positions(4, [-1, 2])
    with pytest.raises(ValueError, match="duplicate sample index 2"):
        _accel._sample_positions(4, [2, 0, 2])


def test_record_step_is_built_once_per_model_and_dt(monkeypatch):
    """Replay and backward passes on one (model, dt) share one record step;
    a new dt, or a model made by dataclasses.replace, builds its own."""
    built = []
    build = _accel.record_step
    monkeypatch.setattr(_accel, "record_step", lambda model, dt: built.append(dt) or build(model, dt))
    model = decay_model(eta=0.6, omega=1.1)
    rec = tr.MeasurementRecord("diffusive", 1e-3 * np.arange(21), rng(1).normal(0.0, 0.03, 20))
    for _ in range(2):
        tr.replay_homodyne(model, EXCITED, rec)
        tr.backward_homodyne(model, rec, np.eye(2))
    assert built == [rec.dt]
    coarse = tr.MeasurementRecord("diffusive", 2e-3 * np.arange(11), rec.increments[:10])
    tr.replay_homodyne(model, EXCITED, coarse)
    assert built == [rec.dt, coarse.dt]
    assert model.record_step(rec.dt) is model.record_step(rec.dt)
    twin = dataclasses.replace(model)
    assert twin.record_step(rec.dt) is not model.record_step(rec.dt)
    assert len(built) == 3


def test_step_cache_leaves_equality_repr_and_replace_alone():
    model = decay_model(eta=0.6, omega=1.1)
    before = repr(model)
    model.record_step(1e-3)
    assert repr(model) == before and "_steps" not in before
    same = dataclasses.replace(model)
    assert same == model  # one with a full cache, one with an empty one
    other = dataclasses.replace(model, eta=0.5)
    assert other != model
    assert not np.array_equal(other.record_step(1e-3).branches, model.record_step(1e-3).branches)
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(model, _steps={})


def batch_of(records):
    """One batch record holding the rows of same-grid records."""
    return tr.MeasurementRecord(records[0].mode, records[0].times, np.stack([r.increments for r in records]))


def simulated_records(model, rho0, n, horizon=0.2, dt=1e-3):
    simulate = tr.simulate_homodyne if model.mode == "diffusive" else tr.simulate_counting
    return [simulate(model, rho0, horizon, dt, seed=100 + k)[1] for k in range(n)]


def passes(mode):
    kind = "homodyne" if mode == "diffusive" else "counting"
    return getattr(tr, f"replay_{kind}"), getattr(tr, f"backward_{kind}")


@pytest.mark.parametrize("mode", tr.MODES)
@pytest.mark.parametrize("d", (2, 4))
def test_batched_passes_equal_single_calls(d, mode):
    """Row k of a batched replay is the replay of record k from a shared
    start, and a batched backward pass, which runs the adjoint loop, is the
    single pass, which runs blocked. Only the summation order differs:
    numpy hands a one-column product to gemv and a wider one to gemm, so
    rows agree to rounding (about 1e-15 forward), not bit for bit."""
    model = cavity_model(d, mode=mode)
    rho0 = cavity_state(d)
    records = simulated_records(model, rho0, 5, horizon=2.0)
    if mode == "counting":
        assert len({int(r.increments.sum()) for r in records}) > 1
    batch = batch_of(records)
    replay, backward = passes(mode)
    states, effects = replay(model, rho0, batch), backward(model, batch, np.eye(d))
    assert states.mats.shape == effects.mats.shape == (5, batch.steps + 1, d, d)
    assert _accel._on_sector(model.record_step(batch.dt), np.eye(d), adjoint=True).start.size <= _accel._BLOCKED_SECTOR
    for k, rec in enumerate(records):
        assert np.max(np.abs(states.mats[k] - replay(model, rho0, rec).mats)) < 1e-14
        assert np.max(np.abs(effects.mats[k] - backward(model, rec, np.eye(d)).mats)) < 1e-13
    one = batch_of(records[:1])
    assert np.array_equal(backward(model, one, np.eye(d)).mats[0], backward(model, records[0], np.eye(d)).mats)


@pytest.mark.parametrize("mode", tr.MODES)
def test_batched_replay_takes_a_start_per_record(mode):
    """Starts with different supports step on the union of their sectors and
    agree with single calls; the batched pair smooths every record at once,
    and an ensemble takes a start per trajectory the same way."""
    d = 6
    model = real_cavity_model(d, mode=mode)
    starts = np.stack([fock(d, 5), fock(d, 3), 0.5 * (fock(d, 4) + fock(d, 2))])
    records = [simulated_records(model, s, 1, horizon=0.3)[0] for s in starts]
    batch = batch_of(records)
    replay, backward = passes(mode)
    states = replay(model, starts, batch)
    effects = backward(model, batch, np.eye(d))
    pair = tr.PqsPair(states, effects, batch)
    got = tr.smoothed_probability(pair, 0.1, proj_number(d))
    for k, (rec, start) in enumerate(zip(records, starts)):
        single = tr.PqsPair(replay(model, start, rec), backward(model, rec, np.eye(d)), rec)
        assert np.max(np.abs(states.mats[k] - single.states.mats)) < 1e-13
        assert abs(pair.pairing_at(0.1)[k] - single.pairing_at(0.1)) < 1e-13
        want = tr.smoothed_probability(single, 0.1, proj_number(d))
        assert max(abs(got[m][k] - want[m]) for m in want) < 1e-13
    if mode == "counting":  # number-diagonal starts keep a number-diagonal sector
        assert _accel._on_sector(model.record_step(batch.dt), starts).start.shape == (3, d)
    ensemble = tr.ensemble_homodyne if mode == "diffusive" else tr.ensemble_counting
    ens = ensemble(model, starts, 0.05, 1e-3, n_traj=3, seed=6)
    assert np.max(np.abs(ens.states[:, 0] - starts)) < 1e-15


def proj_number(d):
    return projective({str(n): fock(d, n) for n in range(d)})


def test_batched_and_single_calls_raise_alike():
    """A mode mismatch and an infeasible count record raise the same errors
    in a batch as alone, and so does a start stack of the wrong length."""
    hom, cnt = decay_model(eta=0.6), decay_model(kappa=1.0, mode="counting", omega=1.3)
    times = 0.05 * np.arange(7)
    bad = tr.MeasurementRecord("counting", times, np.array([1, 1, 0, 0, 0, 0]))
    good = tr.MeasurementRecord("counting", times, np.array([0, 1, 0, 0, 1, 0]))
    for rec in (bad, batch_of([good, bad])):
        with pytest.raises(ValueError, match="record mode is 'counting', operation needs 'diffusive'"):
            tr.replay_homodyne(hom, EXCITED, rec)
        with pytest.raises(ValueError, match="model mode is 'counting', operation needs 'diffusive'"):
            tr.backward_homodyne(cnt, rec, np.eye(2))
        with pytest.raises(ValueError, match="zero weight"):
            tr.replay_counting(cnt, EXCITED, rec)
        with pytest.raises(ValueError, match="collapsed to zero"):
            tr.backward_counting(cnt, rec, np.eye(2))
    with pytest.raises(ValueError, match="initial states of shape"):
        tr.replay_counting(cnt, np.stack([EXCITED] * 3), batch_of([good, good]))


def test_single_record_functions_reject_a_batch(tmp_path):
    model = decay_model(eta=0.6, omega=0.8)
    records = simulated_records(model, EXCITED, 2, horizon=0.02)
    batch = batch_of(records)
    states = tr.replay_homodyne(model, EXCITED, batch)
    effects = tr.backward_homodyne(model, batch, np.eye(2))
    with pytest.raises(ValueError, match="innovations takes one record, not a batch of 2"):
        tr.innovations(model, states, batch)
    with pytest.raises(ValueError, match="record_log_likelihood takes one record, not a batch of 2"):
        tr.record_log_likelihood(model, states, batch)
    with pytest.raises(ValueError, match="pqs_summary_csv takes one record, not a batch of 2"):
        tr.pqs_summary_csv(tr.PqsPair(states, effects, batch), proj_z(), tmp_path / "s.csv")
    single = tr.replay_homodyne(model, EXCITED, records[0])
    with pytest.raises(ValueError, match="one row per record"):
        tr.PqsPair(single, effects, batch)
    with pytest.raises(ValueError, match="one increment per step"):
        tr.MeasurementRecord("diffusive", batch.times, np.zeros((2, 2, batch.steps)))

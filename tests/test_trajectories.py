import dataclasses
import itertools
import re
import tracemalloc
import warnings

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
    """kappa is checked before its square root, so a bad rate raises by name
    and warns nothing; a non-finite c is rejected by the generator, which
    names its bath."""
    with pytest.raises(ValueError, match="mode"):
        tr.monitoring_model(np.zeros((2, 2)), al.SM, 1.0, mode="laser")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kappa in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match=rf"^monitored rate kappa={kappa!r} must be positive and finite$"):
                tr.monitoring_model(np.zeros((2, 2)), al.SM, kappa)
    with pytest.raises(ValueError, match="eta"):
        tr.monitoring_model(np.zeros((2, 2)), al.SM, 1.0, eta=1.5)
    with pytest.raises(ValueError, match="^jump operators of bath 'monitor' rejected: non-finite entries$"):
        tr.monitoring_model(np.zeros((2, 2)), np.array([[0.0, np.nan], [0.0, 0.0]]), 1.0)


def test_unmonitored_jumps_drop_exactly_one_copy():
    # the dephasing bath deliberately repeats the monitored operator
    extra = (dyn.Bath("dephase", (0.5 * al.SZ, np.sqrt(2.0) * al.SM)),)
    m = tr.monitoring_model(np.zeros((2, 2)), al.SM, 2.0, mode="counting", extra_baths=extra)
    rest = m.unmonitored_jumps()
    assert len(rest) == 2
    assert any(np.allclose(j, 0.5 * al.SZ) for j in rest)
    assert any(np.allclose(j, np.sqrt(2.0) * al.SM) for j in rest)


@pytest.mark.parametrize("mode", tr.MODES)
@pytest.mark.parametrize("eta", [1.0, 0.6])
@pytest.mark.parametrize("extra", [(), (dyn.Bath("dephase", (0.5 * al.SZ,)), dyn.Bath("again", (np.sqrt(2.0) * al.SM,)))],
                         ids=["alone", "two-baths"])
def test_monitoring_model_is_built_from_its_parts(mode, eta, extra):
    """The generator holds the monitor bath sqrt(kappa) c first and the extra
    baths after it, one of which here repeats the monitored operator; the
    unmonitored jumps are the extra baths' own, and a replaced model builds
    its generator anew with no record step kept."""
    h, kappa = 0.4 * al.SX, 2.0
    model = tr.monitoring_model(h, al.SM, kappa, eta, mode, extra)
    want = dyn.LindbladGenerator(h, (dyn.Bath("monitor", (np.sqrt(kappa) * al.SM,)),) + extra)
    assert np.array_equal(model.gen.superop, want.superop)
    assert np.array_equal(model.gen.no_jump, want.no_jump)
    assert [b.label for b in model.gen.baths] == ["monitor", *(b.label for b in extra)]
    rest = model.unmonitored_jumps()
    assert len(rest) == len(extra) and all(j is b.jumps[0] for j, b in zip(rest, extra))
    model.record_step(1e-3)
    other = dataclasses.replace(model, eta=0.5)
    assert other._steps == {} and other.gen is not model.gen and other.eta == 0.5
    assert np.array_equal(other.gen.superop, want.superop)
    assert model._steps and not np.array_equal(other.record_step(1e-3).branches, model.record_step(1e-3).branches)


def test_counts_are_int8_and_total_beyond_127():
    """Counts are stored as int8 0/1 from the record and from every counting
    pass, and a record of more than 127 clicks still totals exactly."""
    model = decay_model(kappa=1.0, mode="counting", omega=3.0)
    clicks = np.zeros(600, dtype=np.int64)
    clicks[::3] = 1  # 200 clicks, never two in a row
    record = tr.MeasurementRecord("counting", np.linspace(0.0, 0.6, 601), clicks)
    assert record.increments.dtype == np.int8
    assert int(record.increments.sum()) == 200
    _, sim = tr.simulate_counting(model, EXCITED, 0.2, 1e-3, seed=3)
    ens = tr.ensemble_counting(model, EXCITED, 0.2, 1e-3, 50, seed=4)
    _, counts = _accel.counting_paths(model.record_step(1e-3), EXCITED, np.vstack([clicks] * 2), True, [600])
    for out in (sim.increments, ens.counts, counts):
        assert out.dtype == np.int8
    assert np.array_equal(counts.sum(axis=1), [200, 200])
    fake = tr.CountingEnsemble(ens.sample_times, ens.states, np.ones((2, 300), dtype=np.int8), ens.dt)
    assert fake.total_counts().tolist() == [300, 300]


def test_record_validation():
    with pytest.raises(ValueError, match="uniform"):
        tr.MeasurementRecord("diffusive", np.array([0.0, 0.1, 0.3]), np.zeros(2))
    with pytest.raises(ValueError, match="one increment per step"):
        tr.MeasurementRecord("diffusive", np.linspace(0, 1, 5), np.zeros(3))
    with pytest.raises(ValueError, match="0 or 1"):
        tr.MeasurementRecord("counting", np.linspace(0, 1, 5), np.array([0, 2, 0, 1]))
    with pytest.raises(ValueError, match="mode"):
        tr.MeasurementRecord("pointer", np.linspace(0, 1, 5), np.zeros(4))


def test_records_and_timelines_share_one_grid_check():
    """A record and a timeline on the same times get the same verdict, so a
    record that constructs also replays and smooths: a time nudged within
    1e-9 * max(1, |t|) of the uniform grid passes both; one nudged beyond it,
    or a time that is not finite, fails both."""
    model = decay_model(eta=0.5)
    rejected = [np.array([0.0, np.nan, 0.2]), np.array([0.0, 0.1, np.inf])]
    for base, k, inside, beyond in ((10.0 * np.arange(6), 2, 7e-9, 3e-8), (0.1 * np.arange(11), 5, 3e-10, 3e-9)):
        times = base.copy()
        times[k] += inside
        rec = tr.MeasurementRecord("diffusive", times, np.zeros(times.size - 1))
        states = tr.replay_homodyne(model, EXCITED, rec)
        effects = tr.backward_homodyne(model, rec, np.eye(2))
        assert np.array_equal(tr.PqsPair(states, effects, rec).states.times, times)
        rejected.append(times.copy())
        rejected[-1][k] += beyond
    for times in rejected:
        with pytest.raises(ValueError, match="record grid must be uniform and increasing"):
            tr.MeasurementRecord("diffusive", times, np.zeros(times.size - 1))
        with pytest.raises(ValueError, match="timeline grid must be uniform and increasing"):
            dyn.Timeline(times, np.stack([np.eye(2)] * times.size), "state")


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


def test_an_offset_replay_reads_the_simulation_step():
    """A record sliced from a grid at an offset reads its dt an ulp off the
    simulation's h; the model still keeps one step for that grid step, and
    the suffix replay from the simulated state repeats the simulation."""
    model = tr.monitoring_model(0.65 * al.SX, al.SM, 1.0, 0.8)
    rho0 = 0.5 * np.eye(2) + 0.2 * al.SX
    states, rec = tr.simulate_homodyne(model, rho0, 0.6, 0.002, seed=3)
    suffix = tr.MeasurementRecord("diffusive", rec.times[200:], rec.increments[200:])
    assert suffix.dt != 0.002
    again = tr.replay_homodyne(model, states.mats[200], suffix)
    assert list(model._steps) == [0.002]
    assert np.max(np.abs(again.mats - states.mats[200:])) < 1e-12
    assert dyn._same_step(0.002 + 1e-8, model._steps) == 0.002 + 1e-8  # a distinct step is its own key


def test_seeds_are_non_negative_integers():
    """Every generator is built under one seed rule: a non-negative int or
    numpy integer, never a bool, a float or a string."""
    model = decay_model()
    for seed in (1.5, True, "7", -3, np.float64(2.0)):
        message = f"seed {seed!r} of type {type(seed).__name__} is not a non-negative integer"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            tr.simulate_homodyne(model, EXCITED, 0.01, 1e-3, seed=seed)
    a = tr.simulate_homodyne(model, EXCITED, 0.01, 1e-3, seed=np.uint64(5))[1].increments
    assert np.array_equal(a, tr.simulate_homodyne(model, EXCITED, 0.01, 1e-3, seed=5)[1].increments)
    assert np.array_equal(tr._philox(9).random(4), np.random.default_rng(np.random.Philox(9)).random(4))


def test_replay_counting_matches_simulation_exactly():
    """Replay anchors where its simulation did, so it repeats it bit for bit:
    one record, and a batch on the d = 8 number sector from |1>, whose screen
    (uniforms below the top eigenvalue 7 κ dt of R) passes many candidates
    for every click."""
    model = decay_model(mode="counting", omega=1.0)
    states, rec = tr.simulate_counting(model, EXCITED, 0.3, 1e-3, seed=77)
    again = tr.replay_counting(model, EXCITED, rec)
    assert np.array_equal(states.mats, again.mats)
    step = _accel.record_step(real_cavity_model(8, eta=1.0, mode="counting"), 2e-3)
    uniforms = rng(78).random((64, 500))
    states, counts = _accel.counting_paths(step, fock(8, 1), uniforms, False, range(501))
    again, _ = _accel.counting_paths(step, fock(8, 1), counts, True, range(501))
    assert np.array_equal(states, again)
    top = np.linalg.eigvalsh(step.readout.reshape(8, 8))[-1]
    assert 0 < 5 * counts.sum() < np.count_nonzero(uniforms < top)


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


def hand_effects(model, rec, effect_final, norm=al.spectral_norm_hermitian):
    """The backward recursion in sandwich form, every term acting on the
    incoming effect, each earlier point divided by its norm (spectral by
    default)."""
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
        out.append(nxt / norm(nxt))
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


@pytest.mark.parametrize("d", range(2, 9))
def test_coordinates_are_the_complex_product_and_invert_to_matrices(d):
    """The real-view product gives the complex product's coordinates bit for
    bit on Hermitian operators, one and stacked, and _to_matrices takes them
    back to 1e-15 of the largest entry."""
    basis, g = _accel._hermitian_basis(d), rng(d)
    for shape in [(), (7,), (3, 5)]:
        a = g.normal(size=shape + (d, d)) + 1j * g.normal(size=shape + (d, d))
        op = a + al.dagger(a)
        want = (op.reshape(shape + (-1,)) @ basis.conj().T).real
        got = _accel._coordinates(basis, op)
        assert got.shape == shape + (d * d,) and got.dtype == float
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
        assert np.max(np.abs(_accel._to_matrices(got, basis) - op)) <= 1e-15 * np.abs(op).max()


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


def hand_counts(step, rho0, incr, from_record):
    """The per-step counting recursion on vec(rho) with the complex branches:
    rho <- S_x(rho) / Tr, x = 1{u < Tr[R rho]} for a uniform u, or the
    record's count. Returns (states (n, steps+1, d, d), counts)."""
    n, steps = incr.shape
    d = rho0.shape[-1]
    quiet, fire = step.branches
    v = np.tile(np.asarray(rho0, dtype=complex).reshape(-1), (n, 1))
    states, counts = [v], np.empty((n, steps), dtype=np.int64)
    for k in range(steps):
        x = incr[:, k] != 0 if from_record else incr[:, k] < (v @ step.readout).real
        v = np.where(x[:, None], v @ fire.T, v @ quiet.T)
        v = v / v[:, :: d + 1].sum(axis=1, keepdims=True).real
        states.append(v)
        counts[:, k] = x
    return np.stack(states, axis=1).reshape(n, steps + 1, d, d), counts


def quiet_run_cases():
    """(model, start, dt, n, sector size): a qubit alone and as a batch of
    1000 (a sector of 3: the drive σx makes the coherence imaginary), the
    d = 8 number sector and a full d = 8 sector, at dt = 0.05; then a
    strongly driven qubit at κ dt = 0.5 (case STRONG), and the full d = 8
    sector again with 64 columns, whose |R|×|R| matrices would take 2 MB;
    last, free decay from |e> at κ dt = 0.05 (case LONG), whose no-click
    weight 0.95^m leaves the double range after about 14000 steps."""
    d = 8
    lower = np.diag(np.sqrt(np.arange(1.0, d)), k=1)
    number_sector = tr.monitoring_model(np.zeros((d, d)), lower, 1.0, mode="counting")
    qubit = decay_model(kappa=2.0, mode="counting", omega=2.0)
    return [
        (qubit, EXCITED, 1e-3, 1, 3),
        (qubit, EXCITED, 1e-3, 1000, 3),
        (qubit, EXCITED, 0.05, 1000, 3),
        (number_sector, fock(d, 7), 0.05, 64, d),
        (cavity_model(d, mode="counting"), cavity_state(d), 0.05, 16, d * d),
        (decay_model(kappa=10.0, mode="counting", omega=10.0), EXCITED, 0.05, 256, 3),
        (cavity_model(d, mode="counting"), cavity_state(d), 0.05, 64, d * d),
        (decay_model(kappa=1.0, mode="counting"), EXCITED, 0.05, 4, 2),
    ]


STRONG, LONG = 5, 7


@pytest.mark.parametrize("case", range(8))
def test_quiet_runs_are_the_per_step_recursion(case, monkeypatch):
    """Forward counting passes jump from one click candidate to the next; on
    drawn uniforms they fire exactly where the per-step recursion does, and
    their states match it to 1e-12, at every grid point, at a scattered few,
    or right after clicks, for passes that end inside, at and just past a
    block edge, whether the byte budget screens and samples a batch whole or
    in parts. The strongly driven case fires three times within a block and
    at a record's first and last step; a full sector's batch is larger than
    the budget would allow as one |R|×|R| matrix per column."""
    model, start, dt, n, size = quiet_run_cases()[case]
    step = _accel.record_step(model, dt)
    assert _accel._on_sector(step, start).start.size == size
    if size == model.dim ** 2:
        assert n * size ** 2 * 8 > _accel._BUDGET
    block = _accel._BLOCK
    for steps in (block + 15, 2 * block, 2 * block + 1, 40 * block, 440 * block):
        if n * steps > 60_000 and steps > 2 * block + 1:
            continue
        uniforms = rng(steps).random((n, steps))
        want, counts = hand_counts(step, start, uniforms, False)
        after = np.union1d([0, steps], np.flatnonzero(counts.any(axis=0))[:6] + 1)  # just after clicks
        for budget in (_accel._BUDGET, 100 * steps):  # the second screens 100 rows at a time
            monkeypatch.setattr(_accel, "_BUDGET", budget)
            for idx in (range(steps + 1), [steps, 0, block, block - 1, block + 1, 5], after):
                got, drawn = _accel.counting_paths(step, start, uniforms, False, idx)
                assert np.array_equal(drawn, counts)
                assert np.max(np.abs(got - want[:, list(idx)])) < 1e-12
        if case == STRONG:
            window = np.lib.stride_tricks.sliding_window_view(counts, block, axis=1)
            assert window.sum(axis=-1).max() >= 3 and counts[:, 0].any() and counts[:, -1].any()
    assert counts.any()


def test_quiet_runs_replay_clicks_at_every_block_offset():
    """Replayed records click at every offset in a block, some twice more
    in the same block, so runs start from clicks at every offset; states
    match the per-step recursion to 1e-12 for records that end inside, at
    and just past a block edge."""
    model = decay_model(kappa=1.0, mode="counting", omega=1.3)
    step = _accel.record_step(model, 0.05)
    block = _accel._BLOCK
    for steps in (block + 15, 2 * block, 2 * block + 1):
        records = np.zeros((block, steps), dtype=np.int64)
        for offset in range(block):
            for k in (offset, block + offset, block + offset + 3, block + offset + 6):
                if k < steps:
                    records[offset, k] = 1
        want, _ = hand_counts(step, EXCITED, records, True)
        got, counts = _accel.counting_paths(step, EXCITED, records, True, range(steps + 1))
        assert np.array_equal(counts, records)
        assert np.max(np.abs(got - want)) < 1e-12


def test_quiet_runs_raise_as_the_loop_did():
    """A jump probability above 1 and a record branch of zero weight raise by
    name, at a block's start, inside it and across its edge, as does a
    click-free record whose weight underflows, though its end is not
    sampled; a quiet branch that overflows raises rather than filter
    infinities."""
    block = _accel._BLOCK
    coarse = _accel.record_step(decay_model(kappa=30.0, mode="counting"), 0.05)
    for n in (1, 8):
        with pytest.raises(ValueError, match="jump probability exceeded 1; reduce dt"):
            _accel.counting_paths(coarse, EXCITED, rng(1).random((n, 40)), False, [0, 40])
    step = _accel.record_step(decay_model(kappa=1.0, mode="counting"), 1e-3)
    for k in (0, 12, block - 1, block):
        records = np.zeros((3, 2 * block + 5), dtype=np.int64)
        records[1, k:k + 2] = 1
        with pytest.raises(ValueError, match="a record branch has zero weight; the record is infeasible"):
            _accel.counting_paths(step, EXCITED, records, True, [0])
    dead = _accel.record_step(decay_model(kappa=40.0, mode="counting"), 0.05)  # A|e> = 2e-16 |e>
    with pytest.raises(ValueError, match="a record branch has zero weight; the record is infeasible"):
        _accel.counting_paths(dead, EXCITED, np.zeros((2, 40), dtype=np.int64), True, [0])
    with np.errstate(over="ignore", invalid="ignore"):
        huge = _accel.record_step(decay_model(kappa=1.0, mode="counting", omega=0.7), 1e155)
        for from_record in (False, True):
            with pytest.raises(ValueError, match="a power of the quiet branch overflowed"):
                _accel.counting_paths(huge, EXCITED, np.zeros((1, 3)), from_record, [0])


def test_quiet_runs_keep_long_click_free_stretches():
    """Click-free records far longer than the double range could carry as one
    power of the quiet branch keep their states: from (|6><6| + |7><7|)/2 on
    the d = 8 number sector, the |7> part dies away and <n> reads 6, and |7>
    alone stays |7>, as the per-block normalization of the per-step loop
    gives them."""
    lower = np.diag(np.sqrt(np.arange(1.0, 8)), k=1)
    step = _accel.record_step(tr.monitoring_model(np.zeros((8, 8)), lower, 1.0, mode="counting"), 1e-3)
    for start, end in (((fock(8, 6) + fock(8, 7)) / 2, fock(8, 6)), (fock(8, 7), fock(8, 7))):
        for steps in (50_000, 150_000):
            got, _ = _accel.counting_paths(step, start, np.zeros((1, steps), dtype=np.int64), True, [steps])
            assert np.max(np.abs(got[0, 0] - end)) < 1e-12


def hand_currents(model, dt, rho0, incr, from_record):
    """The per-step homodyne recursion in complex Kraus form: rho <- (M rho M†
    + the undetected leak + the unmonitored sandwiches) / Tr, with M = A +
    √(ηκ) c dY and dY = √(ηκ) <c + c†> dt + dW for a drawn dW, or the
    record's current. Returns (states (n, steps+1, d, d), currents)."""
    n, steps = incr.shape
    d, c = model.dim, model.c
    jumps = [j for b in model.gen.baths for j in b.jumps]
    base = np.eye(d) - (1j * model.gen.hamiltonian + 0.5 * sum(j.conj().T @ j for j in jumps)) * dt
    sq = np.sqrt(model.eta * model.kappa)
    leak = (1.0 - model.eta) * model.kappa * dt
    others = [np.sqrt(dt) * j for j in model.unmonitored_jumps()]
    rho = np.broadcast_to(np.asarray(rho0, dtype=complex), (n, d, d))
    states, currents = [rho], np.empty((n, steps))
    for k in range(steps):
        dy = incr[:, k].copy()
        if not from_record:
            dy += sq * np.trace((c + c.conj().T) @ rho, axis1=1, axis2=2).real * dt
        m = base + sq * dy[:, None, None] * c
        nxt = m @ rho @ m.conj().transpose(0, 2, 1) + leak * (c @ rho @ c.conj().T)
        for j in others:
            nxt = nxt + j @ rho @ j.conj().T
        rho = nxt / np.trace(nxt, axis1=1, axis2=2).real[:, None, None]
        states.append(rho)
        currents[:, k] = dy
    return np.stack(states, axis=1), currents


def diffusive_cases():
    """(model, start, sector size): qubit decay (3 real coordinates), a
    driven qubit (all 4), a d = 8 cavity from |7> (36 real-symmetric ones)
    and a complex d = 8 cavity (all 64)."""
    return [
        (decay_model(eta=0.7), EXCITED, 3),
        (decay_model(eta=0.7, omega=1.1), EXCITED, 4),
        (real_cavity_model(8), fock(8, 7), 36),
        (cavity_model(8), cavity_state(8), 64),
    ]


def assert_paths_are_the_recursion(got, dys, want, currents):
    """States within 1e-12, currents within 1e-12 of the largest (a current
    near zero is a difference of drift and noise, exact only to their
    rounding), and every sampled state of unit trace."""
    assert np.max(np.abs(got - want)) < 1e-12
    assert np.max(np.abs(dys - currents)) <= 1e-12 * np.max(np.abs(currents))
    assert np.max(np.abs(np.trace(got, axis1=-2, axis2=-1) - 1.0)) < 1e-14


@pytest.mark.parametrize("case", range(4))
def test_record_loop_is_the_per_step_kraus_recursion(case):
    """The loop steps unnormalized states, reads each drawn current as a ratio
    of two GEMM rows and normalizes once per block; its states, drawn and
    replayed, match the per-step normalized Kraus recursion to 1e-12, its
    currents to 1e-12 relative, and every sampled state has unit trace, for
    records that end inside, at and past a block edge."""
    model, start, size = diffusive_cases()[case]
    dt = 1e-3
    step = _accel.record_step(model, dt)
    assert _accel._on_sector(step, start).start.size == size
    block = _accel._BLOCK
    for n in (1, 1000):
        for steps in (1, block - 1, block, block + 1, 2 * block + 1):
            dws = rng(steps).normal(0.0, np.sqrt(dt), (n, steps))
            want, currents = hand_currents(model, dt, start, dws, False)
            got, dys = _accel.homodyne_paths(step, start, dws, False, range(steps + 1))
            assert_paths_are_the_recursion(got, dys, want, currents)
            got, dys = _accel.homodyne_paths(step, start, currents, True, range(steps + 1))
            assert np.array_equal(dys, currents)
            assert_paths_are_the_recursion(got, dys, want, currents)


@pytest.mark.parametrize("mode", tr.MODES)
def test_adjoint_batch_is_the_frobenius_recursion(mode):
    """A batch of records on a sector above _BLOCKED_SECTOR runs the loop
    adjoint, normalizing once per block; its effects match the per-step
    recursion that divides each effect by its Frobenius norm to 1e-12."""
    d, dt, steps = 5, 1e-3, 2 * _accel._BLOCK + 6
    model = cavity_model(d, mode=mode)
    if mode == "diffusive":
        batch = batch_of(simulated_records(model, cavity_state(d), 3, horizon=steps * dt))
    else:
        counts = np.zeros((3, steps), dtype=np.int64)
        for k, row in enumerate(counts):  # each record clicks at its own three steps
            row[[3 + k, 40 + 7 * k, steps - 2 - k]] = 1
        batch = tr.MeasurementRecord(mode, dt * np.arange(steps + 1), counts)
    effect = np.diag(np.linspace(0.0, 1.0, d))
    step = model.record_step(batch.dt)
    assert _accel._on_sector(step, effect, adjoint=True).start.size > _accel._BLOCKED_SECTOR
    got = _accel._backward_effects(step, effect, batch.increments[:, ::-1])
    for row, incr in zip(got, batch.increments):
        rec = tr.MeasurementRecord(mode, batch.times, incr)
        want = hand_effects(model, rec, effect, norm=np.linalg.norm)
        assert np.max(np.abs(row[::-1] - want[:-1])) < 1e-12


def test_both_backward_shapes_give_one_verdict_on_huge_currents():
    """Six equal currents on a driven qubit: one record runs blocked and a
    batch of two runs the loop. At 1e40 both succeed and agree. From 1e100
    the blocked products underflow and the loop overflows, and at 1e160 the
    step matrices themselves overflow: both shapes raise the loop's one
    error, and no RuntimeWarning escapes (pytest makes them errors)."""
    model = tr.monitoring_model(0.65 * al.SX, al.SM, 1.0, eta=0.8)
    times = 1e-3 * np.arange(7)
    for size in (1e40, 1e100, 1e150, 1e160):
        one = tr.MeasurementRecord("diffusive", times, np.full(6, size))
        batch = tr.MeasurementRecord("diffusive", times, np.full((2, 6), size))
        if size == 1e40:
            alone, rows = tr.backward_homodyne(model, one, np.eye(2)), tr.backward_homodyne(model, batch, np.eye(2))
            assert np.max(np.abs(alone.mats - rows.mats[1])) < 1e-12
            continue
        for rec in (one, batch):
            with pytest.raises(ValueError, match="a record step overflowed; the record's increments are too large"):
                tr.backward_homodyne(model, rec, np.eye(2))


def test_record_loop_raises_on_currents_that_overflow_a_block():
    """Normalized once per block, the loop compounds a block's growth: six
    currents of 1e60 in one block overflow, and every loop pass (a replay,
    a batch of backward passes and one record on a sector above
    _BLOCKED_SECTOR) raises by name instead of returning inf or nan.
    Currents of ±1e3 stay in range and match the per-step recursions."""
    for d, model, start in ((2, decay_model(eta=0.7, omega=1.1), EXCITED), (5, cavity_model(5), cavity_state(5))):
        _, rec = tr.simulate_homodyne(model, start, 2 * _accel._BLOCK * 1e-3, 1e-3, seed=26)
        incr = rec.increments.copy()
        incr[3:9] = 1e60
        huge = dataclasses.replace(rec, increments=incr)
        with pytest.raises(ValueError, match="a record step overflowed"):
            tr.replay_homodyne(model, start, huge)
        for loop_record in [batch_of([huge, huge])] + ([huge] if d == 5 else []):
            with pytest.raises(ValueError, match="a record step overflowed"):
                tr.backward_homodyne(model, loop_record, np.eye(d))
        incr = rec.increments.copy()
        incr[[3, 40, 41, 63]] = (1e3, -1e3, 1e3, 1e3)
        large = dataclasses.replace(rec, increments=incr)
        want, _ = hand_currents(model, rec.dt, start, incr[None], True)
        assert np.max(np.abs(tr.replay_homodyne(model, start, large).mats - want[0])) < 1e-12
        effects = tr.backward_homodyne(model, batch_of([large, large]), np.eye(d)).mats
        assert np.max(np.abs(effects - hand_effects(model, large, np.eye(d)))) < 1e-12


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
            ex = oracle.conditional(bits, ins)
            for j in range(7):
                sm = tr.smoothed_probability(pair, j * dt, ins)
                assert abs(sm["g"] - ex["g"][j]) < 1e-10
                assert abs(sm["e"] - ex["e"][j]) < 1e-10
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
        oracle.conditional([1, 1, 0, 0, 0, 0], proj_z())
    with pytest.raises(ValueError, match="zero weight"):
        oracle.conditional([[0, 1, 0, 0, 0, 0], [1, 1, 0, 0, 0, 0]], proj_z())


def test_enumeration_guards(monkeypatch):
    """A record of the wrong length or with an entry other than 0 or 1 fails
    by name in record_weight and conditional alike, and so does a start that
    is not a state of the model, a step count outside 1..10 or a dt that is
    not finite and positive, before any operator is built: not by recursion,
    a sqrt warning, a degenerate grid or a weight sum other than 1."""
    model = decay_model(mode="counting")
    oracle = tr.enumerate_counting(model, EXCITED, np.eye(2), steps=3, dt=0.01)
    for query in (oracle.record_weight, lambda bits: oracle.conditional(bits, proj_z())):
        with pytest.raises(ValueError, match="record length 2 does not match 3 steps"):
            query([0, 1])
        for bad in ([0, 2, 0], [0, 0.7, 0]):
            with pytest.raises(ValueError, match="counting increments must be 0 or 1"):
                query(bad)
    with pytest.raises(ValueError, match="counting increments must be 0 or 1"):
        oracle.conditional([[0, 0, 0], [0, -1, 0]], proj_z())
    with pytest.raises(ValueError, match="record length 6 does not match 3 steps"):
        oracle.record_weight([[0, 0, 0], [0, 1, 0]])  # a batch is not one record
    monkeypatch.setattr(tr, "_counting_ops", None)  # never reached
    for rho0, message in ((2.0 * np.eye(2), "trace 4 differs from 1"), (np.diag([1.5, -0.5]), "negative eigenvalue"),
                          (np.eye(3) / 3, "state dimension 3 does not match model 2")):
        with pytest.raises(ValueError, match=message):
            tr.enumerate_counting(model, rho0, np.eye(2), steps=3, dt=0.01)
    for steps, dt, message in ((11, 0.01, "cap"), (-1, 0.05, "whole number from 1 to 10"),
                               (0, 0.05, "whole number from 1 to 10"), (2.5, 0.05, "whole number from 1 to 10"),
                               (3, -0.05, "finite and above 0"), (3, 0.0, "finite and above 0"),
                               (3, np.nan, "finite and above 0"), (3, np.inf, "finite and above 0")):
        with pytest.raises(ValueError, match=message):
            tr.enumerate_counting(model, EXCITED, np.eye(2), steps=steps, dt=dt)


def test_batch_conditional_equals_its_single_calls_bitwise():
    """One call on the 21 feasible 6-step records gives, row by row, exactly
    the single-record calls, for a projective and an unsharp readout."""
    rho0 = np.array([[0.35, 0.2 - 0.1j], [0.2 + 0.1j, 0.65]])
    ef = np.array([[0.8, 0.15], [0.15, 0.45]])
    for eta in (1.0, 0.6):
        model = decay_model(kappa=1.0, eta=eta, mode="counting", omega=1.3)
        oracle = tr.enumerate_counting(model, rho0, ef, steps=6, dt=0.05)
        feasible = np.array([bits for bits, w in oracle.weights.items() if w > 0.0])
        assert feasible.shape == (21, 6)
        for ins in (proj_z(), unsharp_z(0.7)):
            batch = oracle.conditional(feasible, ins)
            assert {m: p.shape for m, p in batch.items()} == dict.fromkeys(ins.outcomes, (21, 7))
            for row, bits in enumerate(feasible):
                single = oracle.conditional(bits, ins)
                for m in ins.outcomes:
                    assert single[m].shape == (7,)
                    assert np.array_equal(single[m], batch[m][row])


def test_enumeration_weights_are_sequential_sandwich_products():
    """Every weight of the level-by-level enumeration is its record's
    sandwich product taken one step at a time and paired with E_f, bit for
    bit, with records in itertools.product order."""
    rho0 = np.array([[0.35, 0.2 - 0.1j], [0.2 + 0.1j, 0.65]])
    ef = np.array([[0.8, 0.15], [0.15, 0.45]])
    for eta in (1.0, 0.6):
        model = decay_model(kappa=1.0, eta=eta, mode="counting", omega=1.3)
        for steps in range(1, 7):
            oracle = tr.enumerate_counting(model, rho0, ef, steps=steps, dt=0.05)
            records = list(itertools.product((0, 1), repeat=steps))
            assert list(oracle.weights) == records
            for bits in records:
                rho = rho0.astype(complex)
                for fired in bits:
                    rho = tr._counting_sandwich(oracle.ops, rho, fired)
                assert oracle.weights[bits] == al.pairing(ef, rho)


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
    with pytest.raises(ValueError, match="time 0.0335 is not on the grid"):
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
    with pytest.raises(ValueError, match="time 0.0335 is not on the grid"):
        tr._resolve_samples(times, [0.0, 0.0335, 0.1])
    with pytest.raises(ValueError, match="time 8.5 is not on the grid"):
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
    want, _ = hand_currents(model, rec.dt, fock(d, 5), rec.increments[None], True)
    replay = tr.replay_homodyne(model, fock(d, 5), rec).mats
    assert np.max(np.abs(replay - want[0])) < 1e-12
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


def test_row_blocks_are_cut_at_multiples_of_64_rows():
    """Drawn diffusive batches run in blocks of a multiple of 64 rows whose
    (rows, steps) float arrays fit the byte budget (64 rows at least); the
    last block takes the rest, so no block is narrower than 64 rows unless
    the whole batch is."""
    assert [b.stop - b.start for b in tr._row_blocks(10_000, 2000)] == [2048] * 4 + [1808]
    assert tr._row_blocks(129, 2000) == [slice(0, 129)]
    for n in (1, 63, 64, 65, 129, 1000, 4097, 10_001):
        for steps in (1, 100, 2000, 500_000):
            blocks = tr._row_blocks(n, steps)
            rows = max(64, tr._ROW_BYTES // (8 * steps) // 64 * 64)
            assert blocks[0].start == 0 and blocks[-1].stop == n
            assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
            assert all(b.start % 64 == 0 and b.stop - b.start == rows for b in blocks[:-1])
            assert min(n, 64) <= blocks[-1].stop - blocks[-1].start < rows + 64


def dense_model(d, mode, seed=3):
    """A monitored d-level model with dense complex H and c: every coordinate is reachable."""
    g = rng(seed)
    h = g.normal(size=(d, d)) + 1j * g.normal(size=(d, d))
    c = (g.normal(size=(d, d)) + 1j * g.normal(size=(d, d))) / d
    return tr.monitoring_model(0.3 * (h + h.conj().T), c, 1.0, eta=0.8, mode=mode)


def block_cases():
    """(model maker, start, sector size of the diffusive record): qubit decay,
    a driven qubit and a seeded dense d = 5 model."""
    return [
        (lambda mode: decay_model(eta=0.7, mode=mode), EXCITED, 3),
        (lambda mode: decay_model(eta=0.7, mode=mode, omega=1.1), EXCITED, 4),
        (lambda mode: dense_model(5, mode), cavity_state(5), 25),
    ]


@pytest.mark.parametrize("case", range(3))
def test_row_blocks_give_one_block_bit_for_bit(case, monkeypatch):
    """With the byte budget cut to 64 rows of 120 steps, ensembles of 129
    trajectories (blocks of 64 and 65 rows, a one-row remainder) and of 200
    (64, 64 and 72) run a kernel call per block, and their states, currents,
    innovations and counts are those of one call bit for bit, on sectors of
    3, 4 and 25 coordinates. Counting batches run as one block."""
    make, start, size = block_cases()[case]
    steps, dt = 120, 2e-3
    times = dt * np.arange(0, steps + 1, 7)
    hom, cnt = make("diffusive"), make("counting")
    assert _accel._on_sector(hom.record_step(dt), start).start.size == size
    calls = []
    homodyne_paths = _accel.homodyne_paths

    def spy(step, rho0, incr, from_record, sample_indices):
        calls.append(len(incr))
        return homodyne_paths(step, rho0, incr, from_record, sample_indices)

    monkeypatch.setattr(_accel, "homodyne_paths", spy)
    for n, widths in ((129, [64, 65]), (200, [64, 64, 72])):
        args = (start, steps * dt, dt, n, 41, times)
        calls.clear()
        whole = tr.ensemble_homodyne(hom, *args), tr.ensemble_counting(cnt, *args)
        with pytest.MonkeyPatch.context() as budget:
            budget.setattr(tr, "_ROW_BYTES", 8 * steps * 64)
            blocked = tr.ensemble_homodyne(hom, *args), tr.ensemble_counting(cnt, *args)
        assert calls == [n] + widths
        for name in ("states", "dys", "innovations"):
            assert np.array_equal(getattr(whole[0], name), getattr(blocked[0], name))
        assert np.array_equal(whole[1].states, blocked[1].states)
        assert np.array_equal(whole[1].counts, blocked[1].counts) and whole[1].counts.any()


@pytest.mark.parametrize("case", range(3))
def test_counting_draws_are_one_philox_draw(case, monkeypatch):
    """A Uniforms source sliced in row chunks gives the values of one
    Generator(Philox(seed)).random((n, steps)) call, and the kernel's
    screen, reading 3 rows at a time from it, fires and samples exactly as
    on that whole array."""
    make, start, _ = block_cases()[case]
    n, steps, seed = 50, 300, 7
    source = tr.Uniforms(np.random.Generator(np.random.Philox(seed)), (n, steps))
    chunks = np.concatenate([source[a:a + 3] for a in range(0, n, 3)])
    assert np.array_equal(chunks, np.random.Generator(np.random.Philox(seed)).random((n, steps)))
    assert source.shape == (n, steps)
    step = _accel.record_step(make("counting"), 5e-3)
    monkeypatch.setattr(_accel, "_BUDGET", steps * 3)
    idx = [0, 17, 150, steps]
    got = _accel.counting_paths(step, start, tr.Uniforms(np.random.Generator(np.random.Philox(seed)), (n, steps)),
                                False, idx)
    want = _accel.counting_paths(step, start, chunks, False, idx)
    assert np.array_equal(got[1], want[1]) and got[1].any()
    assert np.array_equal(got[0], want[0])


def test_counting_ensemble_holds_no_uniform_array():
    """The uniforms of 2000 trajectories of 2000 steps would take 32 MB; the
    ensemble peaks at its int8 counts, its sampled states and a few MB of
    working memory, so a whole uniform array held again fails here."""
    model = decay_model(kappa=1.0, mode="counting", omega=1.3)
    tracemalloc.start()
    try:
        ens = tr.ensemble_counting(model, EXCITED, 2.0, 1e-3, n_traj=2000, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ens.counts.shape == (2000, 2000) and ens.total_counts().sum() > 0
    assert peak < 0.5 * 8 * ens.counts.size


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
    with pytest.raises(ValueError, match="time 0.0123 is not on the grid"):
        tr.smoothed_probability(pair, 0.0123, proj_z())
    # a grid off by 5e-6 at t >= 1, where a relative 1e-5 would pass it
    states, effects = tr.replay_homodyne(model, EXCITED, shifted), tr.backward_homodyne(model, shifted, np.eye(2))
    tr.PqsPair(states, effects, shifted)
    with pytest.raises(ValueError, match="different grids"):
        tr.PqsPair(states, dyn.Timeline(effects.times + 5e-6, effects.mats, "effect"), shifted)
    with pytest.raises(ValueError, match="record grid"):
        tr.innovations(model, dyn.Timeline(states.times + 5e-6, states.mats, "state"), shifted)


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


def test_pqs_summary_csv_keeps_the_bytes_of_a_float_repr_per_entry(tmp_path):
    """The summary's rows are repr(float(x)) of each time, pairing and
    probability, byte for byte, though written from one array's floats."""
    model = decay_model(mode="counting", omega=1.1)
    states, rec = tr.simulate_counting(model, EXCITED, 0.3, 1e-3, seed=4)
    pair = tr.PqsPair(states, tr.backward_counting(model, rec, np.eye(2)), rec)
    path = tmp_path / "summary.csv"
    tr.pqs_summary_csv(pair, proj_z(), path)
    p = rd.abl_distribution(rd.BoundaryPair(pair.states.mats, pair.effects.mats), proj_z())
    pairs = al.pairing(pair.effects.mats, pair.states.mats)
    want = "time,pairing,p_g,p_e\n" + "".join(
        ",".join(repr(float(x)) for x in (t, pairs[k], p["g"][k], p["e"][k])) + "\n"
        for k, t in enumerate(pair.states.times)
    )
    assert path.read_bytes() == want.encode()


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
    assert model == model and same != model  # identity, whatever the caches hold
    assert not same._steps and repr(same) == before
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


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: tr.MeasurementRecord("counting", [0.0], []), "record needs a grid of at least two times",
                 id="record-one-time"),
])
def test_trajectories_reject_malformed_input(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message

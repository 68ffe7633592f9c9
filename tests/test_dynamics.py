import numpy as np
import pytest

from retroq import algebra as al
from retroq import dynamics as dyn


def rng(seed=0):
    return np.random.default_rng(seed)


def random_state(g, d, mix=0.3):
    a = g.normal(size=(d, d)) + 1j * g.normal(size=(d, d))
    m = a @ a.conj().T
    m = m / np.trace(m)
    return (1 - mix) * m + mix * np.eye(d) / d  # keep well inside the cone


def random_effect_interior(g, d, lo=0.2, hi=0.8):
    a = g.normal(size=(d, d)) + 1j * g.normal(size=(d, d))
    h = 0.5 * (a + a.conj().T)
    w, v = np.linalg.eigh(h)
    w = lo + (hi - lo) * (w - w.min()) / (w.max() - w.min())
    return (v * w) @ v.conj().T


def random_generator(g, d, h_scale=1.0, j_scale=1.0, n_jumps=2, label="bath"):
    h = g.normal(size=(d, d)) + 1j * g.normal(size=(d, d))
    h = h_scale * 0.5 * (h + h.conj().T)
    jumps = tuple(
        j_scale * (g.normal(size=(d, d)) + 1j * g.normal(size=(d, d))) / np.sqrt(d)
        for _ in range(n_jumps)
    )
    return dyn.LindbladGenerator(h, (dyn.Bath(label, jumps),))


def amplitude_damping(gamma):
    return dyn.LindbladGenerator(np.zeros((2, 2)), (dyn.Bath("decay", (np.sqrt(gamma) * al.SM,)),))


def test_generator_matches_hand_expanded_dissipator():
    g = rng(20)
    gen = random_generator(g, 3)
    rho = random_state(g, 3)
    h = gen.hamiltonian
    want = -1j * (h @ rho - rho @ h)
    for b in gen.baths:
        for j in b.jumps:
            jd = j.conj().T
            want += j @ rho @ jd - 0.5 * (jd @ j @ rho + rho @ jd @ j)
    assert np.allclose(gen.apply(rho), want, atol=1e-13)


def test_adjoint_duality_and_unitality():
    g = rng(21)
    gen = random_generator(g, 4)
    rho = random_state(g, 4)
    x = g.normal(size=(4, 4)) + 1j * g.normal(size=(4, 4))
    lhs = np.trace(x @ gen.apply(rho))
    rhs = np.trace(gen.adjoint(x) @ rho)
    assert lhs == pytest.approx(rhs, abs=1e-12)
    assert np.max(np.abs(gen.adjoint(np.eye(4)))) < 1e-13
    assert abs(np.trace(gen.apply(rho))) < 1e-13


def test_superoperator_agrees_with_apply():
    g = rng(22)
    gen = random_generator(g, 3)
    rho = random_state(g, 3)
    vec = gen.superoperator() @ rho.ravel()
    assert np.allclose(vec.reshape(3, 3), gen.apply(rho), atol=1e-12)
    # independent expansion on row-major vec: vec(A rho B) = (A ⊗ Bᵀ) vec(rho)
    eye, h = np.eye(3), gen.hamiltonian
    want = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for j in gen.baths[0].jumps:
        jj = j.conj().T @ j
        want += np.kron(j, j.conj()) - 0.5 * (np.kron(jj, eye) + np.kron(eye, jj.T))
    assert np.max(np.abs(gen.superoperator() - want)) < 1e-12


def test_apply_and_adjoint_take_stacks_and_the_superoperator_is_read_only():
    g = rng(23)
    gen = two_bath_qutrit(g)
    stack = g.normal(size=(2, 4, 3, 3)) + 1j * g.normal(size=(2, 4, 3, 3))
    for fn in (gen.apply, gen.adjoint):
        out = fn(stack)
        assert out.shape == stack.shape
        for idx in np.ndindex(2, 4):
            assert np.max(np.abs(out[idx] - fn(stack[idx]))) < 1e-13
    with pytest.raises(ValueError, match="read-only"):
        gen.superoperator()[0, 0] = 1.0


def test_amplitude_damping_closed_form():
    gamma = 1.3
    gen = amplitude_damping(gamma)
    psi = np.array([0.6, 0.8], dtype=complex)
    rho0 = np.outer(psi, psi.conj())
    tl = dyn.propagate_forward(gen, rho0, 0.0, 1.0, 1e-3)
    for t in (0.25, 0.5, 1.0):
        r = tl.at(t)
        assert r[1, 1].real == pytest.approx(0.64 * np.exp(-gamma * t), abs=1e-10)
        assert r[0, 1] == pytest.approx(0.48 * np.exp(-gamma * t / 2), abs=1e-10)
    assert np.allclose([np.trace(m) for m in tl.mats], 1.0, atol=1e-12)


def test_pure_dephasing_closed_form():
    gamma = 0.7
    gen = dyn.LindbladGenerator(np.zeros((2, 2)), (dyn.Bath("phase", (np.sqrt(gamma) * al.SZ,)),))
    rho0 = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    tl = dyn.propagate_forward(gen, rho0, 0.0, 0.8, 1e-3)
    r = tl.at(0.8)
    assert r[0, 1].real == pytest.approx(0.5 * np.exp(-2 * gamma * 0.8), abs=1e-10)
    assert r[0, 0].real == pytest.approx(0.5, abs=1e-12)


def test_backward_identity_is_fixed_point():
    g = rng(23)
    gen = random_generator(g, 3)
    tl = dyn.propagate_backward(gen, np.eye(3), 1.0, 0.0, 1e-2)
    assert np.allclose(tl.mats, np.eye(3), atol=1e-12)


def test_forward_backward_pairing_telescopes_on_shared_grid():
    g = rng(24)
    gen = random_generator(g, 3)
    rho0 = random_state(g, 3)
    ef = random_effect_interior(g, 3)
    fwd = dyn.propagate_forward(gen, rho0, 0.0, 1.0, 2e-3)
    bwd = dyn.propagate_backward(gen, ef, 1.0, 0.0, 2e-3)
    vals = np.einsum("kij,kji->k", bwd.mats, fwd.mats).real
    assert np.max(np.abs(vals - vals[-1])) < 1e-12


def test_evolve_state_effect_are_exact_adjoints():
    g = rng(25)
    gen = random_generator(g, 4)
    rho0 = random_state(g, 4)
    ef = random_effect_interior(g, 4)
    lhs = np.trace(ef @ dyn.evolve_state(gen, rho0, 0.7, 1e-3))
    rhs = np.trace(dyn.evolve_effect(gen, ef, 0.7, 1e-3) @ rho0)
    assert lhs == pytest.approx(rhs, abs=1e-13)


def test_propagation_semigroup_composition():
    g = rng(26)
    gen = random_generator(g, 2)
    rho0 = random_state(g, 2)
    once = dyn.propagate_forward(gen, rho0, 0.0, 1.0, 1e-3)
    first = dyn.propagate_forward(gen, rho0, 0.0, 0.4, 1e-3)
    second = dyn.propagate_forward(gen, first.at(0.4), 0.4, 1.0, 1e-3)
    assert np.allclose(second.at(1.0), once.at(1.0), atol=1e-12)


def test_pairing_drift_small_and_rk4_order():
    # Weak damping keeps the truncation error from being contracted away
    # before the horizon ends, so the fourth-order step is visible.
    g = rng(27)
    drifts = {}
    for d in (2, 3):
        gen = random_generator(g, d, h_scale=4.0, j_scale=0.4)
        rho0 = random_state(g, d)
        ef = random_effect_interior(g, d)
        drifts[d] = (
            dyn.pairing_drift(gen, rho0, ef, 0.0, 1.0, 1e-3),
            dyn.pairing_drift(gen, rho0, ef, 0.0, 1.0, 5e-4),
        )
    for d, (coarse, fine) in drifts.items():
        assert coarse < 1e-8
        assert coarse / fine >= 8.0, f"dim {d}: {coarse:.3e} vs {fine:.3e}"


def test_stationary_state_thermal_qubit_detailed_balance():
    gdn, gup = 1.0, 0.5
    gen = dyn.LindbladGenerator(
        np.diag([0.0, 1.0]),
        (dyn.Bath("thermal", (np.sqrt(gdn) * al.SM, np.sqrt(gup) * al.SP), beta=np.log(2.0)),),
    )
    ss = dyn.stationary_state(gen)
    assert np.allclose(ss.mat, np.diag([2.0 / 3.0, 1.0 / 3.0]), atol=1e-10)


def test_stationary_state_degenerate_kernel_rejected():
    gen = dyn.LindbladGenerator(np.zeros((2, 2)), ())
    with pytest.raises(ValueError, match="degenerate"):
        dyn.stationary_state(gen)


def test_propagated_timelines_end_on_the_raw_evolutions():
    # no per-step projection: each pass is the plain step-matrix composition
    g = rng(31)
    gen = random_generator(g, 3)
    ef = random_effect_interior(g, 3)
    fwd = dyn.propagate_forward(gen, random_state(g, 3), 0.0, 0.6, 2e-3)
    bwd = dyn.propagate_backward(gen, ef, 0.6, 0.0, 2e-3)
    assert np.array_equal(fwd.mats[-1], dyn.evolve_state(gen, fwd.mats[0], 0.6, 2e-3))
    assert np.array_equal(bwd.mats[0], dyn.evolve_effect(gen, ef, 0.6, 2e-3))


def test_projection_failure_reported_loudly():
    excited = np.diag([0.0, 1.0]).astype(complex)
    cases = [
        lambda: dyn.propagate_forward(amplitude_damping(40.0), excited, 0.0, 1.0, 0.1),
        lambda: dyn.propagate_backward(amplitude_damping(40.0), excited, 1.0, 0.0, 0.1),
        # every step multiplies the excited population by about 1e5, so the flow overflows
        lambda: dyn.propagate_forward(amplitude_damping(400.0), excited, 0.0, 100.0, 0.1),
    ]
    for case in cases:
        with pytest.raises(ValueError, match="reduce dt"):
            case()


def test_grid_rejects_fractional_spans():
    gen = amplitude_damping(1.0)
    with pytest.raises(ValueError, match="integer number of steps"):
        dyn.propagate_forward(gen, np.eye(2) / 2, 0.0, 1.0005, 1e-2)


def test_timeline_grid_lookup():
    tl = dyn.Timeline(np.array([0.0, 0.1, 0.2]), np.stack([np.eye(2)] * 3), "effect")
    assert tl.index(0.1) == 1
    with pytest.raises(ValueError, match="not on the stored grid"):
        tl.at(0.15)


def classic_rk4(flow, y, h):
    k1 = flow(y)
    k2 = flow(y + 0.5 * h * k1)
    k3 = flow(y + 0.5 * h * k2)
    k4 = flow(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def two_bath_qutrit(g):
    h = g.normal(size=(3, 3)) + 1j * g.normal(size=(3, 3))
    baths = tuple(
        dyn.Bath(label, tuple((g.normal(size=(3, 3)) + 1j * g.normal(size=(3, 3))) / 2 for _ in range(2)))
        for label in ("a", "b")
    )
    return dyn.LindbladGenerator(0.5 * (h + h.conj().T), baths)


def test_rk4_step_is_classic_rk4_and_its_adjoint():
    g = rng(29)
    gen = two_bath_qutrit(g)
    h = 0.05
    step = dyn.rk4_step(gen.superoperator(), h)
    for _ in range(3):
        x = g.normal(size=(3, 3)) + 1j * g.normal(size=(3, 3))
        fwd = (step @ x.ravel()).reshape(3, 3)
        bwd = (step.conj().T @ x.ravel()).reshape(3, 3)
        assert np.max(np.abs(fwd - classic_rk4(gen.apply, x, h))) < 1e-13
        assert np.max(np.abs(bwd - classic_rk4(gen.adjoint, x, h))) < 1e-13


def test_rk4_step_on_a_stack_equals_per_matrix_calls():
    g = rng(30)
    supers = np.array([two_bath_qutrit(g).superoperator() for _ in range(4)])
    stacked = dyn.rk4_step(supers, 0.02)
    assert stacked.shape == supers.shape
    for s, one in zip(supers, stacked):
        assert np.max(np.abs(one - dyn.rk4_step(s, 0.02))) < 1e-13


def test_stacked_driven_timeline_equals_per_step_generators():
    # the driven qubit of the thermal-qubit scenario: H(t) = H0 + a sin(w t) SX,
    # frozen at each step's midpoint, one RK4 step per grid step
    omega, amp, freq, dt, n = 1.0, 0.3, 1.5, 5e-4, 2000
    ham0 = -0.5 * omega * al.SZ
    bath = dyn.Bath("bath", (np.sqrt(0.8) * al.SM, np.sqrt(0.8 * np.exp(-1.2)) * al.SP), beta=1.2)
    rho0 = np.array([[0.08, 0.05], [0.05, 0.92]], dtype=complex)
    want = [rho0]
    for k in range(n):
        gk = dyn.LindbladGenerator(ham0 + amp * np.sin(freq * (k + 0.5) * dt) * al.SX, (bath,))
        want.append(dyn.evolve_state(gk, want[-1], dt, dt))
    drive = amp * np.sin(freq * ((np.arange(n) + 0.5) * dt))[:, None, None]
    l_x = dyn.LindbladGenerator(al.SX).superoperator()
    steps = dyn.rk4_step(dyn.LindbladGenerator(ham0, (bath,)).superoperator() + drive * l_x, dt)
    assert np.max(np.abs(dyn.flow(steps, rho0) - np.array(want))) < 1e-12

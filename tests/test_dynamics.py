import warnings

import numpy as np
import pytest

from retroq import algebra as al
from retroq import dynamics as dyn
from conftest import random_state


def rng(seed=0):
    return np.random.default_rng(seed)


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
    rho = random_state(g, 3, mix=0.3)
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
    rho = random_state(g, 4, mix=0.3)
    x = g.normal(size=(4, 4)) + 1j * g.normal(size=(4, 4))
    lhs = np.trace(x @ gen.apply(rho))
    rhs = np.trace(gen.adjoint(x) @ rho)
    assert lhs == pytest.approx(rhs, abs=1e-12)
    assert np.max(np.abs(gen.adjoint(np.eye(4)))) < 1e-13
    assert abs(np.trace(gen.apply(rho))) < 1e-13


def test_superoperator_agrees_with_apply():
    g = rng(22)
    gen = random_generator(g, 3)
    rho = random_state(g, 3, mix=0.3)
    vec = gen.superop @ rho.ravel()
    assert np.allclose(vec.reshape(3, 3), gen.apply(rho), atol=1e-12)
    # independent expansion on row-major vec: vec(A rho B) = (A ⊗ Bᵀ) vec(rho)
    eye, h = np.eye(3), gen.hamiltonian
    want = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for j in gen.baths[0].jumps:
        jj = j.conj().T @ j
        want += np.kron(j, j.conj()) - 0.5 * (np.kron(jj, eye) + np.kron(eye, jj.T))
    assert np.max(np.abs(gen.superop - want)) < 1e-12


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
        gen.superop[0, 0] = 1.0


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
    rho0 = random_state(g, 3, mix=0.3)
    ef = random_effect_interior(g, 3)
    fwd = dyn.propagate_forward(gen, rho0, 0.0, 1.0, 2e-3)
    bwd = dyn.propagate_backward(gen, ef, 1.0, 0.0, 2e-3)
    vals = np.einsum("kij,kji->k", bwd.mats, fwd.mats).real
    assert np.max(np.abs(vals - vals[-1])) < 1e-12


def test_evolve_state_effect_are_exact_adjoints():
    g = rng(25)
    gen = random_generator(g, 4)
    rho0 = random_state(g, 4, mix=0.3)
    ef = random_effect_interior(g, 4)
    lhs = np.trace(ef @ dyn.evolve_state(gen, rho0, 0.7, 1e-3))
    rhs = np.trace(dyn.evolve_effect(gen, ef, 0.7, 1e-3) @ rho0)
    assert lhs == pytest.approx(rhs, abs=1e-13)


def test_propagation_semigroup_composition():
    g = rng(26)
    gen = random_generator(g, 2)
    rho0 = random_state(g, 2, mix=0.3)
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
        rho0 = random_state(g, d, mix=0.3)
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
    assert np.allclose(ss, np.diag([2.0 / 3.0, 1.0 / 3.0]), atol=1e-10)


def test_stationary_state_degenerate_kernel_rejected():
    gen = dyn.LindbladGenerator(np.zeros((2, 2)), ())
    with pytest.raises(ValueError, match="degenerate"):
        dyn.stationary_state(gen)


def test_propagated_timelines_end_on_the_raw_evolutions():
    # no per-step projection: each pass is the plain step-matrix composition
    g = rng(31)
    gen = random_generator(g, 3)
    ef = random_effect_interior(g, 3)
    fwd = dyn.propagate_forward(gen, random_state(g, 3, mix=0.3), 0.0, 0.6, 2e-3)
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


@pytest.mark.parametrize("t0, t1, dt", [
    (0.0, np.inf, 1e-3), (0.0, 1.0, np.nan), (np.nan, 1.0, 1e-3), (-np.inf, 0.0, 0.1), (0.0, 1.0, np.inf),
])
def test_grid_rejects_non_finite_inputs(t0, t1, dt):
    """inf and NaN ends or steps raise one named ValueError, not an
    OverflowError or numpy's message about converting a float to an int."""
    with pytest.raises(ValueError, match="^need finite t0 < t1 and dt > 0$"):
        dyn._grid(t0, t1, dt)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_generator_rejects_non_finite_operators_by_name(bad):
    """A NaN or inf entry compares as Hermitian, so finiteness is checked
    first, and a jump operator is named by its bath."""
    with pytest.raises(ValueError, match="^Hamiltonian rejected: non-finite entries$"):
        dyn.LindbladGenerator(np.array([[0.0, bad], [bad, 0.0]]))
    jumps = (al.SZ, np.array([[0.0, bad], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="^jump operators of bath 'leak' rejected: non-finite entries$"):
        dyn.LindbladGenerator(al.SZ, (dyn.Bath("decay", (al.SM,)), dyn.Bath("leak", jumps)))


def test_timeline_grid_lookup():
    tl = dyn.Timeline(np.array([0.0, 0.1, 0.2]), np.stack([np.eye(2)] * 3), "effect")
    assert tl.index(0.1) == 1
    with pytest.raises(ValueError, match="time 0.15 is not on the grid"):
        tl.at(0.15)
    for bad in (np.nan, np.inf, -np.inf):  # no nearest point stands in for them
        with pytest.raises(ValueError, match=f"time {bad} is not on the grid"):
            tl.index(bad)


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
    step = dyn.rk4_step(gen.superop, h)
    for _ in range(3):
        x = g.normal(size=(3, 3)) + 1j * g.normal(size=(3, 3))
        fwd = (step @ x.ravel()).reshape(3, 3)
        bwd = (step.conj().T @ x.ravel()).reshape(3, 3)
        assert np.max(np.abs(fwd - classic_rk4(gen.apply, x, h))) < 1e-13
        assert np.max(np.abs(bwd - classic_rk4(gen.adjoint, x, h))) < 1e-13


def test_rk4_step_on_a_stack_equals_per_matrix_calls():
    g = rng(30)
    supers = np.array([two_bath_qutrit(g).superop for _ in range(4)])
    stacked = dyn.rk4_step(supers, 0.02)
    assert stacked.shape == supers.shape
    for s, one in zip(supers, stacked):
        assert np.max(np.abs(one - dyn.rk4_step(s, 0.02))) < 1e-13


def test_rk4_step_is_the_order_4_taylor_polynomial_bit_for_bit():
    """rk4_step is the order-4 case of the one Horner polynomial, and gives
    the bits of the four-stage loop written out, on a matrix and on a stack."""
    g = rng(31)
    for shape in ((9, 9), (5, 4, 4)):
        lmat = g.normal(size=shape) + 1j * g.normal(size=shape)
        eye = np.eye(shape[-1])
        want = eye + (0.03 / 4.0) * lmat
        for k in (3.0, 2.0, 1.0):
            want = eye + (0.03 / k) * (lmat @ want)
        assert np.array_equal(dyn.rk4_step(lmat, 0.03), want)


def criterion_04_generators():
    """The ten generators of acceptance criterion 04, drawn as it draws them."""
    g = rng(404)
    gens = []
    for _ in range(10):
        d = int(g.integers(2, 5))
        gens.append(random_generator(g, d, h_scale=4.0, j_scale=0.4))
        random_state(g, d)  # the criterion draws its boundaries next
        random_effect_interior(g, d)
    return gens


def test_reference_exponential_matches_scipy():
    """pairing_drift's exp(TL) scales and squares an order-18 Taylor
    polynomial in numpy; scipy's expm, a test dependency, agrees to 1e-13 on
    criterion 04's ten generators and on a stiff one with ‖L‖₁ = 1e3. The
    zero generator gives the identity and warns of nothing."""
    from scipy.linalg import expm

    stiff = random_generator(rng(32), 3).superop
    supers = [gen.superop for gen in criterion_04_generators()] + [stiff * (1e3 / np.linalg.norm(stiff, 1))]
    for lmat in supers:
        assert np.max(np.abs(dyn._exponential(lmat, 1.0) - expm(lmat))) < 1e-13
    zero = dyn.LindbladGenerator(np.zeros((2, 2))).superop
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(dyn._exponential(zero, 1.0), np.eye(4))
        assert np.array_equal(expm(zero), np.eye(4))


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
    l_x = dyn.LindbladGenerator(al.SX).superop
    steps = dyn.rk4_step(dyn.LindbladGenerator(ham0, (bath,)).superop + drive * l_x, dt)
    assert np.max(np.abs(dyn.flow(steps, rho0) - np.array(want))) < 1e-12


def test_ladder_flow_is_the_per_step_loop():
    """A time-homogeneous flow at d² <= 16 runs a ladder of step powers, a
    block of steps per product; forward and adjoint, it is the per-step loop
    over the step matrix or its conjugate transpose to 1e-13, for flows
    shorter than a block, ending on and just past a block, and long enough
    to cap the block size."""
    g = rng(47)
    b = dyn._LADDER
    for d in (2, 3, 4):
        gen = random_generator(g, d)
        step = dyn.rk4_step(gen.superop, 1e-2)
        starts = {False: random_state(g, d, mix=0.3), True: random_effect_interior(g, d)}
        for n in (1, b - 1, b, b + 1, 3 * b + 5, b * b + 1, 3 * b * b + 5):
            for adjoint, x in starts.items():
                want = dyn.flow(np.broadcast_to(step.conj().T if adjoint else step, (n, d * d, d * d)), x)
                got = dyn._power_flow(step, n, x, adjoint)
                assert got.shape == want.shape == (n + 1, d, d)
                assert np.max(np.abs(got - want)) < 1e-13, (d, n, adjoint)


def test_flow_route_follows_the_step_size(monkeypatch):
    """Steps of at most _LADDER_SECTOR coordinates run the ladder, larger
    ones flow's per-step loop, for every time-homogeneous pass."""
    looped = []
    loop = dyn.flow
    monkeypatch.setattr(dyn, "flow", lambda steps, x: looped.append(len(steps)) or loop(steps, x))
    for d in (4, 5):
        gen = random_generator(rng(d), d)
        rho = random_state(rng(d), d, mix=0.3)
        del looped[:]
        dyn.propagate_forward(gen, rho, 0.0, 0.05, 1e-3)
        dyn.propagate_backward(gen, np.eye(d), 0.05, 0.0, 1e-3)
        dyn.evolve_state(gen, rho, 0.05, 1e-3)
        dyn.evolve_effect(gen, np.eye(d), 0.05, 1e-3)
        assert (d * d <= dyn._LADDER_SECTOR) == (d == 4)
        assert looped == ([] if d == 4 else [50] * 4)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: dyn.Bath("b", ()), "bath 'b' has no jump operators", id="bath-no-jumps"),
    pytest.param(lambda: dyn.Bath("b", (np.zeros((2, 2)), np.zeros((3, 3)))),
                 "bath 'b' jump operators must share one dimension", id="bath-two-dimensions"),
    pytest.param(lambda: dyn.LindbladGenerator(np.zeros((2, 2)), (dyn.Bath("b", (al.SM,)), dyn.Bath("b", (al.SM,)))),
                 "bath labels must be unique", id="generator-duplicate-labels"),
    pytest.param(lambda: dyn.LindbladGenerator(np.zeros((3, 3)), (dyn.Bath("b", (al.SM,)),)),
                 "bath jump operators must match the Hamiltonian dimension", id="generator-dimensions"),
    pytest.param(lambda: dyn.Timeline([0.0, 1.0], np.zeros((2, 2, 2)), "other"),
                 "timeline kind must be 'state' or 'effect', got 'other'", id="timeline-kind"),
    pytest.param(lambda: dyn.Timeline([0.0, 1.0], np.zeros((3, 2, 2)), "state"),
                 "timeline needs times (n,) and matching operators (n, d, d) or (m, n, d, d)", id="timeline-shape"),
])
def test_dynamics_rejects_malformed_input(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message

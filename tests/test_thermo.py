import numpy as np
import pytest

from retroq import algebra as al
from retroq import dynamics as dyn
from retroq import thermo as th
from conftest import random_state


def rng(seed=0):
    return np.random.default_rng(seed)


def thermal_gen(omega=1.0, beta=1.2, gamma_down=1.0, label="bath"):
    h = -0.5 * omega * al.SZ
    return dyn.LindbladGenerator(h, (th.thermal_bath(omega, beta, gamma_down, label),))


def test_entropy_closed_forms():
    assert abs(th.von_neumann_entropy(np.diag([1.0, 0.0]))) < 1e-12
    assert abs(th.von_neumann_entropy(0.5 * np.eye(2)) - np.log(2)) < 1e-12
    want = -(0.9 * np.log(0.9) + 0.1 * np.log(0.1))
    assert abs(th.von_neumann_entropy(np.diag([0.9, 0.1])) - want) < 1e-12
    with pytest.raises(ValueError, match="state rejected"):
        th.von_neumann_entropy(al.SZ)


def test_entropy_range_on_random_states():
    g = rng(1)
    for d in (2, 3, 5):
        for _ in range(10):
            s = th.von_neumann_entropy(random_state(g, d, mix=0.3))
            assert -1e-12 <= s <= np.log(d) + 1e-12


def test_relative_entropy_closed_forms_and_support():
    rho = np.diag([1.0, 0.0])
    assert abs(th.relative_entropy(rho, 0.5 * np.eye(2)) - np.log(2)) < 1e-12
    sigma = random_state(rng(2), 3, mix=0.3)
    assert abs(th.relative_entropy(sigma, sigma)) < 1e-12
    assert th.relative_entropy(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) == float("inf")


@pytest.mark.parametrize("beta", [30.0, 40.0])
def test_relative_entropy_of_a_cold_gibbs_state_is_its_closed_form(beta):
    """sigma = gibbs_state(-σz/2, β) has populations 1/(1 + e^-β) and
    e^-β/(1 + e^-β), the second far below 1e-12 at β = 30 and 40 but inside
    the support, so D(diag(0.7, 0.3) || sigma) is finite:
    0.7 ln 0.7 + 0.3 ln 0.3 + ln(1 + e^-β) + 0.3 β."""
    sigma = th.gibbs_state(-0.5 * al.SZ, beta)
    want = 0.7 * np.log(0.7) + 0.3 * np.log(0.3) + np.log1p(np.exp(-beta)) + 0.3 * beta
    assert abs(th.relative_entropy(np.diag([0.7, 0.3]), sigma) - want) <= 1e-12 * want


def test_relative_entropy_is_infinite_outside_an_exact_support():
    """A sigma with an exactly zero eigenvalue gives +inf for a rho that
    weighs its null space and a finite D for one that does not, alone and
    row by row in a stack."""
    sigma = np.diag([0.5, 0.5, 0.0])
    assert th.relative_entropy(np.eye(3) / 3.0, sigma) == float("inf")
    assert th.relative_entropy(np.diag([0.7, 0.3]), np.diag([1.0, 0.0])) == float("inf")
    inside = np.diag([0.6, 0.4, 0.0])
    want = 0.6 * np.log(1.2) + 0.4 * np.log(0.8)
    assert abs(th.relative_entropy(inside, sigma) - want) < 1e-12
    got = th.relative_entropy(np.stack([inside, np.eye(3) / 3.0]), sigma)
    assert abs(got[0] - want) < 1e-12 and got[1] == float("inf")


def test_relative_entropy_klein_nonnegativity():
    g = rng(3)
    for _ in range(50):
        d = int(g.integers(2, 5))
        val = th.relative_entropy(random_state(g, d, mix=0.3), random_state(g, d, mix=0.3))
        assert val >= 0.0
        assert np.isfinite(val)


def test_gibbs_state_populations():
    omega, beta = 1.4, 0.9
    sigma = th.gibbs_state(-0.5 * omega * al.SZ, beta)
    assert abs(np.trace(sigma) - 1.0) < 1e-12
    assert abs(sigma[1, 1].real / sigma[0, 0].real - np.exp(-beta * omega)) < 1e-12
    assert abs(sigma[0, 1]) < 1e-15
    # infinite temperature flattens
    flat = th.gibbs_state(-0.5 * omega * al.SZ, 0.0)
    assert np.allclose(flat, 0.5 * np.eye(2), atol=1e-14)


def test_thermal_bath_holds_gibbs_stationary():
    gen = thermal_gen(omega=1.3, beta=0.7, gamma_down=0.8)
    sigma = th.gibbs_state(gen.hamiltonian, 0.7)
    assert np.max(np.abs(gen.apply(sigma))) < 1e-14
    with pytest.raises(ValueError, match="omega"):
        th.thermal_bath(-1.0, 0.5, 1.0, "bath")


def test_production_rate_zero_at_stationarity_and_positive_away():
    gen = thermal_gen()
    sigma = th.gibbs_state(gen.hamiltonian, 1.2)
    assert abs(th.entropy_production_rate(gen, sigma, sigma)) < 1e-12
    rho = 0.6 * np.diag([0.2, 0.8]) + 0.4 * np.array([[0.5, 0.3], [0.3, 0.5]])
    assert th.entropy_production_rate(gen, rho, sigma) > 0.0
    with pytest.raises(ValueError, match="not stationary"):
        th.entropy_production_rate(gen, rho, 0.5 * np.eye(2) + 0.2 * al.SX)


@pytest.mark.parametrize("beta", [25.0, 40.0])
def test_production_rate_at_low_temperature_matches_its_populations(beta):
    """At βω = 40 sigma's small eigenvalue is 4e-18, and ln sigma must read
    -40 there, not a rounded 0 at the log floor, whether sigma comes alone
    or as a stack. For diagonal states the rate is -Σ_i ṗ_i (ln p_i - ln s_i)."""
    gen = thermal_gen(beta=beta)
    sigma = th.gibbs_state(gen.hamiltonian, beta)
    pe = np.array([1e-3, 0.3, 0.6])  # excited (index 1) populations
    rho = np.zeros((3, 2, 2))
    rho[:, 0, 0], rho[:, 1, 1] = 1.0 - pe, pe
    flow = np.exp(-beta) * (1.0 - pe) - pe  # dpe/dt at gamma_down = 1
    se = np.exp(-beta) / (1.0 + np.exp(-beta))
    want = -flow * (np.log(pe) - np.log(se) - np.log1p(-pe) + np.log1p(-se))
    for s in (sigma, np.broadcast_to(sigma, rho.shape)):
        assert np.allclose(th.entropy_production_rate(gen, rho, s), want, rtol=1e-12, atol=0.0)


def test_production_rate_matches_relative_entropy_slope():
    """Two routes to the same number: the algebraic rate and the central
    finite difference of D(rho_t || sigma) along a propagated timeline."""
    gen = thermal_gen(omega=1.0, beta=1.2, gamma_down=1.0)
    sigma = th.gibbs_state(gen.hamiltonian, 1.2)
    rho0 = 0.7 * sigma + 0.3 * np.array([[0.6, 0.2], [0.2, 0.4]])
    states = dyn.propagate_forward(gen, rho0, 0.0, 0.2, 1e-3)
    d_vals = np.array([th.relative_entropy(m, sigma) for m in states.mats])
    slope = np.gradient(d_vals, states.times)
    rate = np.array([th.entropy_production_rate(gen, m, sigma) for m in states.mats])
    assert np.max(np.abs(rate + slope)[1:-1]) < 1e-6


def test_relative_entropy_monotone_along_relaxation():
    gen = thermal_gen(omega=1.1, beta=0.8)
    sigma = th.gibbs_state(gen.hamiltonian, 0.8)
    states = dyn.propagate_forward(gen, np.diag([0.1, 0.9]), 0.0, 0.5, 1e-3)
    d_vals = np.array([th.relative_entropy(m, sigma) for m in states.mats])
    assert np.all(np.diff(d_vals) / 1e-3 <= 1e-8)


def test_unitary_generator_preserves_entropy_and_produces_nothing():
    gen = dyn.LindbladGenerator(0.9 * al.SX + 0.4 * al.SZ, ())
    rho0 = random_state(rng(5), 2, mix=0.3)
    states = dyn.propagate_forward(gen, rho0, 0.0, 1.0, 1e-3)
    entropies = np.array([th.von_neumann_entropy(m) for m in states.mats])
    assert np.max(np.abs(entropies - entropies[0])) < 1e-8
    assert abs(th.entropy_production_rate(gen, rho0, 0.5 * np.eye(2))) < 1e-12


def test_heat_current_signs_and_stationarity():
    omega, gamma = 1.3, 0.7
    gen = dyn.LindbladGenerator(
        -0.5 * omega * al.SZ, (dyn.Bath("decay", (np.sqrt(gamma) * al.SM,)),)
    )
    excited = np.diag([0.0, 1.0])
    assert abs(th.heat_current(gen, "decay", excited) - gamma * omega) < 1e-12
    tg = thermal_gen(omega=omega, beta=1.0, gamma_down=gamma)
    sigma = th.gibbs_state(tg.hamiltonian, 1.0)
    assert abs(th.heat_current(tg, "bath", sigma)) < 1e-12
    with pytest.raises(KeyError, match="no bath"):
        th.heat_current(gen, "pump", excited)


def test_two_bath_first_law_identity():
    """With a time-independent Hamiltonian, total heat into the baths equals
    the energy leaving the system."""
    h = -0.5 * 1.2 * al.SZ
    gen = dyn.LindbladGenerator(
        h,
        (
            th.thermal_bath(1.2, 0.4, 1.0, "hot"),
            th.thermal_bath(1.2, 1.6, 0.6, "cold"),
        ),
    )
    states = dyn.propagate_forward(gen, np.diag([0.15, 0.85]), 0.0, 0.4, 5e-4)
    energy = np.array([al.pairing(h, m) for m in states.mats])
    dedt = np.gradient(energy, states.times)
    total_j = sum(
        np.array([th.heat_current(gen, label, m) for m in states.mats])
        for label in ("hot", "cold")
    )
    assert np.max(np.abs(dedt + total_j)[1:-1]) < 1e-6


def test_clausius_gap_single_bath_relaxation():
    gen = thermal_gen(omega=1.0, beta=1.2, gamma_down=1.0)
    sigma = th.gibbs_state(gen.hamiltonian, 1.2)
    states = dyn.propagate_forward(gen, np.diag([0.2, 0.8]), 0.0, 0.4, 2.5e-4)
    gap = th.clausius_gap(gen, states)
    rate = np.array([th.entropy_production_rate(gen, m, sigma) for m in states.mats])
    assert np.all(gap[1:-1] > 0.0)
    assert np.max(np.abs(gap - rate)[1:-1]) < 1e-6


def test_clausius_gap_reads_every_bath_tag():
    """The gap sums over every bath of the generator: a bath without a beta
    tag, or one that does not hold its own Gibbs state stationary, is refused."""
    ham = -0.5 * al.SZ
    tagged = th.thermal_bath(1.0, 1.2, 1.0, "bath")
    states = dyn.propagate_forward(dyn.LindbladGenerator(ham, (tagged,)), np.diag([0.2, 0.8]), 0.0, 0.01, 1e-3)
    untagged = dyn.LindbladGenerator(ham, (tagged, dyn.Bath("decay", (al.SM,))))
    with pytest.raises(ValueError, match="untagged: decay"):
        th.clausius_gap(untagged, states)
    hot_tag = dyn.LindbladGenerator(ham, (dyn.Bath("bath", tagged.jumps, beta=0.4),))
    with pytest.raises(ValueError, match="does not hold its Gibbs state stationary"):
        th.clausius_gap(hot_tag, states)


def test_clausius_gap_two_bath_steady_conduction():
    """In the two-temperature steady state the entropy of the system is
    constant and the gap reduces to (beta_cold - beta_hot) times the
    conducted heat, which must be positive."""
    omega = 1.2
    beta_hot, beta_cold = 0.4, 1.6
    gen = dyn.LindbladGenerator(
        -0.5 * omega * al.SZ,
        (
            th.thermal_bath(omega, beta_hot, 1.0, "hot"),
            th.thermal_bath(omega, beta_cold, 0.6, "cold"),
        ),
    )
    sigma_ss = dyn.stationary_state(gen)
    states = dyn.propagate_forward(gen, sigma_ss, 0.0, 0.02, 1e-3)
    gap = th.clausius_gap(gen, states)
    j_cold = th.heat_current(gen, "cold", sigma_ss)
    want = (beta_cold - beta_hot) * j_cold
    assert want > 0.0
    assert np.max(np.abs(gap - want)) < 1e-7


def test_thermo_report_assembly():
    gen = thermal_gen(omega=1.0, beta=1.2)
    sigma = th.gibbs_state(gen.hamiltonian, 1.2)
    states = dyn.propagate_forward(gen, np.diag([0.2, 0.8]), 0.0, 0.2, 1e-3)
    rep = th.thermo_report(gen, states, sigma)
    assert rep.clausius_gap is not None
    assert np.all(rep.production_rate >= -1e-8)
    assert np.all(rep.clausius_gap[1:-1] >= -1e-6)
    assert set(rep.heat_currents) == {"bath"}
    # a bath without a beta tag drops the Clausius column
    bare = dyn.LindbladGenerator(
        gen.hamiltonian, (dyn.Bath("decay", (al.SM,)),)
    )
    ss = dyn.stationary_state(bare)
    rep2 = th.thermo_report(bare, dyn.propagate_forward(bare, np.diag([0.6, 0.4]), 0.0, 0.05, 1e-3), ss)
    assert rep2.clausius_gap is None


def test_backward_neutrality():
    gen = thermal_gen(omega=1.0, beta=1.0)
    r1 = th.backward_neutrality_check(gen, np.diag([0.3, 0.7]), np.eye(2), 0.3, 1e-3)
    r2 = th.backward_neutrality_check(gen, np.diag([0.3, 0.7]), np.diag([1.0, 0.0]), 0.3, 1e-3)
    assert r1.reports_identical and r2.reports_identical
    assert r1.pairing_drift < 1e-8
    assert r2.pairing_drift < 1e-8
    assert np.array_equal(r1.report.entropy, r2.report.entropy)
    assert np.array_equal(r1.report.production_rate, r2.report.production_rate)


def _stack_inputs():
    """A propagated qubit timeline and a random qutrit stack, each with its
    generator, a stationary reference state and a Hermitian stack."""
    g = rng(12)
    gen = thermal_gen(omega=1.0, beta=1.2, gamma_down=1.0)
    sigma = th.gibbs_state(gen.hamiltonian, 1.2)
    timeline = dyn.propagate_forward(gen, np.diag([0.2, 0.8]), 0.0, 0.2, 1e-3).mats
    yield gen, "bath", timeline, sigma, np.array([np.cos(t) * al.SX + t * al.SZ for t in range(len(timeline))])
    h = g.normal(size=(3, 3)) + 1j * g.normal(size=(3, 3))
    jump = g.normal(size=(3, 3)) + 1j * g.normal(size=(3, 3))
    gen3 = dyn.LindbladGenerator(h + h.conj().T, (dyn.Bath("b", (0.5 * jump,)),))
    stack = np.array([random_state(g, 3, mix=0.3) for _ in range(20)])
    herm = np.array([a + a.conj().T for a in g.normal(size=(20, 3, 3)) + 1j * g.normal(size=(20, 3, 3))])
    yield gen3, "b", stack, dyn.stationary_state(gen3), herm


def test_stack_calls_equal_per_state_calls():
    for gen, label, stack, sigma, herm in _stack_inputs():
        pairs = [
            (th.von_neumann_entropy(stack), [th.von_neumann_entropy(m) for m in stack]),
            (th.relative_entropy(stack, sigma), [th.relative_entropy(m, sigma) for m in stack]),
            (
                th.entropy_production_rate(gen, stack, sigma),
                [th.entropy_production_rate(gen, m, sigma) for m in stack],
            ),
            (th.heat_current(gen, label, stack), [th.heat_current(gen, label, m) for m in stack]),
            (
                th.heat_current(gen, label, stack, hamiltonian=herm),
                [th.heat_current(gen, label, m, hamiltonian=x) for m, x in zip(stack, herm)],
            ),
            (th.work_rate(stack, herm), [th.work_rate(m, x) for m, x in zip(stack, herm)]),
        ]
        for batched, single in pairs:
            assert isinstance(single[0], float)
            assert batched.shape == (len(stack),)
            assert np.max(np.abs(batched - np.array(single))) < 1e-12


def _rejection(fn, arg):
    with pytest.raises(ValueError, match="state rejected: ") as info:
        fn(arg)
    return str(info.value)


def test_stack_with_one_bad_state_raises_that_states_message():
    g = rng(13)
    gen = thermal_gen()
    sigma = th.gibbs_state(gen.hamiltonian, 1.2)
    fns = [
        th.von_neumann_entropy,
        lambda r: th.relative_entropy(r, sigma),
        lambda r: th.entropy_production_rate(gen, r, sigma),
        lambda r: th.heat_current(gen, "bath", r),
        lambda r: th.work_rate(r, al.SX),
    ]
    good = np.array([random_state(g, 2, mix=0.3) for _ in range(6)], dtype=complex)
    bad_states = (
        np.array([[0.5, 0.3], [0.0, 0.5]]),  # not Hermitian
        np.diag([1.2, -0.2]),  # negative eigenvalue
        np.diag([0.7, 0.7]),  # trace 1.4
    )
    for bad, word in zip(bad_states, ("not Hermitian", "negative eigenvalue", "trace 1.4")):
        stack = good.copy()
        stack[3] = bad
        for fn in fns:
            msg = _rejection(fn, stack)
            assert word in msg
            assert msg == _rejection(fn, bad) == _rejection(al.validate_state, bad)


def test_thermo_report_reuses_its_entropy_and_currents(monkeypatch):
    # thermo_report decomposes its timeline and sigma once each, and
    # clausius_gap its timeline once: every other state_spectrum call is
    # handed the Spectrum and passes it through. The Clausius column reuses
    # S and J instead of recomputing them, and equals the clausius_gap
    # route bit for bit.
    gen = thermal_gen(omega=1.0, beta=1.2)
    sigma = th.gibbs_state(gen.hamiltonian, 1.2)
    states = dyn.propagate_forward(gen, np.diag([0.2, 0.8]), 0.0, 0.2, 1e-3)
    decompositions = []
    spectrum = th.state_spectrum

    def counted(op, *args, **kwargs):
        if not isinstance(op, al.Spectrum):
            decompositions.append(op)
        return spectrum(op, *args, **kwargs)

    monkeypatch.setattr(th, "state_spectrum", counted)
    rep = th.thermo_report(gen, states, sigma)
    assert len(decompositions) == 2
    want = th.clausius_gap(gen, states)
    assert len(decompositions) == 3
    assert np.array_equal(rep.clausius_gap, want)
    assert np.array_equal(rep.entropy, th.von_neumann_entropy(states.mats))
    assert np.array_equal(rep.heat_currents["bath"], th.heat_current(gen, "bath", states.mats))


def test_thermo_rebuilds_a_state_stack_at_most_once(monkeypatch):
    # heat_current and work_rate read Tr[rho X] from the Spectrum without
    # rebuilding rho; entropy_production_rate rebuilds rho once, for L(rho),
    # and sigma twice, for L(sigma) and ln sigma. thermo_report adds one
    # Gibbs state per bath.
    gen = thermal_gen(omega=1.0, beta=1.2)
    sigma = th.gibbs_state(gen.hamiltonian, 1.2)
    states = dyn.propagate_forward(gen, np.diag([0.2, 0.8]), 0.0, 0.2, 1e-3)
    spec, ref = al.state_spectrum(states.mats), al.state_spectrum(sigma)
    shapes = []
    rebuild = al.Spectrum.rebuild

    def counted(self, f=None):
        shapes.append(self.w.shape)
        return rebuild(self, f)

    monkeypatch.setattr(al.Spectrum, "rebuild", counted)
    th.heat_current(gen, "bath", spec)
    th.heat_current(gen, "bath", spec, hamiltonian=al.SX)
    th.work_rate(spec, al.SX)
    assert shapes == []
    th.entropy_production_rate(gen, spec, ref)
    assert shapes == [(2,), spec.w.shape, (2,)]
    shapes.clear()
    th.thermo_report(gen, states, sigma)
    assert sorted(shapes) == [(2,), (2,), (2,), spec.w.shape]


def test_a_spectrum_gives_what_its_stack_gives():
    """Each public function of states reads a Spectrum as the state or
    stack it was made of, bit for bit, so passing one along changes no
    number."""
    for gen, label, stack, sigma, herm in _stack_inputs():
        ref = al.state_spectrum(sigma)
        calls = [
            lambda r, s, h: th.von_neumann_entropy(r),
            lambda r, s, h: th.relative_entropy(r, s),
            lambda r, s, h: th.entropy_production_rate(gen, r, s),
            lambda r, s, h: th.heat_current(gen, label, r),
            lambda r, s, h: th.heat_current(gen, label, r, hamiltonian=h),
            lambda r, s, h: th.work_rate(r, h),
        ]
        for states, h in ((stack, herm), (stack[0], herm[0])):
            spec = al.state_spectrum(states)
            for fn in calls:
                want, got = fn(states, sigma, h), fn(spec, ref, h)
                assert type(got) is type(want)
                assert np.array_equal(got, want)


def effect_timeline():
    return dyn.Timeline([0.0, 1.0], np.array([np.eye(2), np.eye(2)]), "effect")


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: th.relative_entropy(np.eye(2) / 2, np.eye(3) / 3), "dimension mismatch: 2 vs 3",
                 id="relative-entropy-dimensions"),
    pytest.param(lambda: th.clausius_gap(dyn.LindbladGenerator(np.zeros((2, 2))), effect_timeline()),
                 "clausius_gap wants a state timeline", id="clausius-gap-effects"),
    pytest.param(lambda: th.thermo_report(dyn.LindbladGenerator(np.zeros((2, 2))), effect_timeline(), np.eye(2) / 2),
                 "thermo_report wants a state timeline", id="thermo-report-effects"),
])
def test_thermo_rejects_malformed_input(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message

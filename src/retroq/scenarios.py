"""Named, configurable reproductions of the calculus' quantitative predictions.

Seven scenarios form a closed catalog: unsharp qubit readout, weak pointer
coupling, a two-qubit Bell pair, diffusive homodyne monitoring, photon
counting with an exact retrodiction oracle, thermal-qubit thermodynamics,
and the classical smoothing batteries. Each returns a ScenarioReport whose
assertions carry an expected value, a tolerance, and a derivation tag
stating how the expected value was obtained (closed-form, oracle,
exact-identity, two-route, monte-carlo-3sigma, symmetry, scaling-fit,
combinatorial, qualitative) and the CSV tables of its sweep, each a header
and rows under a file name. Scenarios write no files; the CLI writes every
report and table.

Every scenario is deterministic given its parameters. The stochastic ones
take a seed and draw from named Philox substreams of it, so reruns are
bit-identical; the exact ones take no seed.
"""

from dataclasses import asdict, dataclass

import numpy as np

from .algebra import SM, SX, SZ, eigenvalues, hermitian_eig, ket, pairing, projector, state_spectrum, tensor
from .channels import projective, unsharp_z
from .classical import (
    HmmModel,
    LinearGaussianModel,
    enumerate_hmm_smoothing,
    gaussian_batch_oracle,
    hmm_forward_backward,
    kalman_filter,
    rts_smoother,
    smoothing_chain,
)
from .dynamics import LindbladGenerator, _grid, flow, propagate_forward, rk4_step, stationary_state
from .retrodiction import BoundaryPair, abl_distribution, conditional_at_stage
from .thermo import (
    backward_neutrality_check,
    clausius_gap,
    entropy_production_rate,
    gibbs_state,
    heat_current,
    thermal_bath,
    thermo_report,
    von_neumann_entropy,
    work_rate,
)
from .trajectories import (
    MeasurementRecord,
    PqsPair,
    _collect,
    _drawn,
    backward_counting,
    backward_homodyne,
    ensemble_counting,
    enumerate_counting,
    monitoring_model,
    replay_counting,
    simulate_homodyne,
    smoothed_probability,
)


@dataclass(frozen=True)
class Assertion:
    """One checked claim: actual vs expected at a tolerance, with a tag
    recording how the expected value was derived."""

    name: str
    actual: float
    expected: float
    tolerance: float
    passed: bool
    tag: str


def _close(name, actual, expected, tol, tag) -> Assertion:
    actual = float(actual)
    expected = float(expected)
    return Assertion(name, actual, expected, float(tol), abs(actual - expected) <= tol, tag)


def _at_least(name, actual, bound, tag) -> Assertion:
    actual = float(actual)
    return Assertion(name, actual, float(bound), 0.0, actual >= bound, tag)


def _at_most(name, actual, bound, tag) -> Assertion:
    actual = float(actual)
    return Assertion(name, actual, float(bound), 0.0, actual <= bound, tag)


@dataclass(frozen=True, eq=False)
class ScenarioReport:
    name: str
    values: dict
    assertions: tuple
    tables: dict

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.assertions)

    def failures(self) -> list:
        return [a for a in self.assertions if not a.passed]

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "values": {k: self.values[k] for k in sorted(self.values)},
            "assertions": [asdict(a) for a in self.assertions],
            "artifacts": sorted(self.tables),
        }


def _substreams(seed: int, n: int) -> list:
    gen = np.random.default_rng(np.random.Philox(int(seed)))
    return [int(s) for s in gen.integers(0, 2**62, size=n)]


def _merged(moments: tuple, x: np.ndarray) -> tuple:
    """(count, mean, sum of squared deviations) of the values seen so far, with those of x merged in.

    x is overwritten by its squared deviations, so a part takes no
    temporary of its size, and the pairwise update of Chan, Golub & LeVeque
    (Am. Stat. 37, 242, 1983) merges the parts. From (0, 0.0, 0.0), one
    part gives the bytes of x.mean() and of x.var(ddof=1) times x.size - 1.
    """
    n_a, mean_a, m2_a = moments
    mean_b = x.mean()
    dev = np.subtract(x, mean_b, out=x)
    dev *= dev
    n = n_a + x.size
    delta = mean_b - mean_a
    return n, mean_a + delta * (x.size / n), m2_a + dev.sum() + delta * delta * (n_a * x.size / n)


def _check_n_traj(n_traj: int) -> None:
    if n_traj < 2:
        raise ValueError(f"n_traj={n_traj} too small; a standard error needs at least 2 trajectories")


PLUS = projector((ket(2, 0) + ket(2, 1)) / np.sqrt(2.0))
GROUND = projector(ket(2, 0))
EXCITED = projector(ket(2, 1))


def scenario_unsharp_qubit(etas=(0.0, 0.3, 0.6, 1.0)) -> ScenarioReport:
    """Unsharp Z readout between pre-selection |+> and post-selection |0>.

    Post-selected outcome probability is (1 + eta)/2 while the nonselective
    one stays 1/2 for every sharpness; the instrument's completeness residual
    is reported alongside.
    """
    if len(etas) == 0:
        raise ValueError("etas is empty; give at least one sharpness")
    values = {}
    assertions = []
    rows = []
    for eta in etas:
        ins = unsharp_z(eta)
        post = abl_distribution(BoundaryPair(PLUS, GROUND), ins)["+"]
        nonsel = abl_distribution(BoundaryPair(PLUS, np.eye(2)), ins)["+"]
        residual = ins.completeness_defect
        label = f"{eta:g}"
        values[f"p_plus_postselected_eta_{label}"] = float(post)
        values[f"p_plus_nonselective_eta_{label}"] = float(nonsel)
        assertions += [
            _close(f"postselected_eta_{label}", post, (1.0 + eta) / 2.0, 1e-12, "closed-form"),
            _close(f"nonselective_eta_{label}", nonsel, 0.5, 1e-12, "closed-form"),
            _at_most(f"completeness_residual_eta_{label}", residual, 1e-12, "exact-identity"),
        ]
        rows.append((eta, post, nonsel, residual))
    header = ["eta", "p_plus_postselected", "p_plus_nonselective", "completeness_residual"]
    return ScenarioReport(
        "unsharp-qubit", values, tuple(assertions), {"unsharp_qubit.csv": (header, rows)}
    )


def _scaling_fit(gs: np.ndarray, residuals: np.ndarray):
    """Power-law fit of residual vs g: returns (C, slope, R^2).

    C = max(residual / g^2) over the sweep, the constant in the bound
    residual <= C g^2; the bound holds on the sweep whenever the fitted
    slope is at least 2. A parity-symmetric pointer makes the residual
    exactly odd in g, so the measured slope is 3, not 2; slope 1 would
    flag a wrong first-order coefficient. Only residuals above rounding
    level enter the fit; with fewer than two of them the fit is skipped and
    reports a perfect score.
    """
    c = float((residuals / gs**2).max())
    fit = residuals > 1e-12
    if np.count_nonzero(fit) < 2:
        return c, np.inf, 1.0
    x = np.log(gs[fit])
    y = np.log(residuals[fit])
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(((y - fitted) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return c, float(slope), r2


def _coupling_blocks(p_op, gs) -> dict:
    """exp(-i g p) for each coupling g, all rebuilt from one eigendecomposition of p.

    The pointer's p is i times a real antisymmetric matrix, so each block is
    real orthogonal; its rounding-level imaginary part is dropped.
    """
    spec = hermitian_eig(p_op)
    return {float(g): spec.rebuild(lambda w: np.exp(-1j * g * w)).real for g in gs}


def scenario_weak_measurement(
    gs=(0.01, 0.02, 0.05, 0.1),
    sigma_q=1.0,
    post_selections=((0.0, 0.0), (np.pi / 4.0, 0.0), (0.72 * np.pi, 0.3)),
    n_trunc=40,
) -> ScenarioReport:
    """Exact pointer shifts against first-order weak values.

    The pointer is a truncated oscillator: q = sigma_q (a + a^dag) makes the
    vacuum a Gaussian with Var(q) = sigma_q^2 and p its exact conjugate. The
    coupling exp(-i g sigma_z x p) acts through one real orthogonal pointer
    block per coupling, each rebuilt from one eigendecomposition of p; the
    qubit is post-selected on cos(theta)|0> + e^{i phi} sin(theta)|1>, and
    both shift residuals against g Re(A_w) and g Im(A_w)/(2 sigma_q^2) must
    scale quadratically over the g sweep. The default post-selections cover
    weak value 1, weak value 0 (shift vanishes by symmetry), and a complex
    amplified weak value.
    """
    gs = np.asarray(gs, dtype=float)
    if np.unique(gs).size < 2:
        raise ValueError(f"gs={gs.tolist()} needs at least two distinct couplings to fit a slope")
    if np.any(gs <= 0.0) or np.any(gs > 0.3):
        raise ValueError("couplings must lie in (0, 0.3]")
    if len(post_selections) == 0:
        raise ValueError("post_selections is empty; give at least one post-selection")
    if n_trunc < 20:
        raise ValueError(f"n_trunc={n_trunc} too small; need at least 20")
    if sigma_q <= 0.0:
        raise ValueError(f"sigma_q={sigma_q} must be positive")
    lower = np.diag(np.sqrt(np.arange(1, n_trunc)), 1)
    q_op = sigma_q * (lower + lower.T)
    minus_ip = (lower.T - lower) / (2.0 * sigma_q)
    p_op = 1j * minus_ip
    qubit_in = (ket(2, 0) + ket(2, 1)) / np.sqrt(2.0)
    # exp(-i g sz x p) is u = exp(-i g p) on |0> and its inverse on |1>; -i p is real
    # antisymmetric, so u is real orthogonal and its transpose is the |1> block
    blocks = _coupling_blocks(p_op, gs)
    values = {}
    assertions = []
    rows = []
    for theta, phi in post_selections:
        fvec = np.array([np.cos(theta), np.exp(1j * phi) * np.sin(theta)])
        overlap = fvec.conj() @ qubit_in
        a_w = (fvec.conj() @ SZ @ qubit_in) / overlap
        tag_pair = f"theta_{theta:g}_phi_{phi:g}"
        dqs, dps, worst_leak = [], [], 0.0
        for g in gs:
            u = blocks[float(g)]  # rows: the |0> and |1> parts of U (qubit_in ⊗ |0>)
            pf = np.tensordot(fvec.conj(), qubit_in[:, None] * np.stack([u[:, 0], u[0]]), axes=(0, 0))
            norm2 = float(np.vdot(pf, pf).real)
            leak = float((abs(pf[-1]) ** 2 + abs(pf[-2]) ** 2) / norm2)
            worst_leak = max(worst_leak, leak)
            if leak > 1e-6:
                raise ValueError(
                    f"truncation leakage {leak:.2e} at g={g}; increase n_trunc"
                )
            dq = float((pf.conj() @ q_op @ pf).real / norm2)
            dp = float((pf.conj() @ p_op @ pf).real / norm2)
            dqs.append(dq)
            dps.append(dp)
            rows.append((theta, phi, g, dq, dp, g * a_w.real,
                         g * a_w.imag / (2.0 * sigma_q**2)))
        dqs, dps = np.array(dqs), np.array(dps)
        res_q = np.abs(dqs - gs * a_w.real)
        res_p = np.abs(dps - gs * a_w.imag / (2.0 * sigma_q**2))
        c_q, slope_q, r2_q = _scaling_fit(gs, res_q)
        c_p, slope_p, r2_p = _scaling_fit(gs, res_p)
        values[f"a_w_re_{tag_pair}"] = float(a_w.real)
        values[f"a_w_im_{tag_pair}"] = float(a_w.imag)
        values[f"c_q_{tag_pair}"] = c_q
        values[f"c_p_{tag_pair}"] = c_p
        values[f"slope_q_{tag_pair}"] = slope_q
        values[f"slope_p_{tag_pair}"] = slope_p
        values[f"r2_q_{tag_pair}"] = r2_q
        values[f"r2_p_{tag_pair}"] = r2_p
        assertions += [
            _at_least(f"residual_fit_r2_q_{tag_pair}", r2_q, 0.99, "scaling-fit"),
            _at_least(f"residual_fit_r2_p_{tag_pair}", r2_p, 0.99, "scaling-fit"),
            _at_most(f"truncation_leakage_{tag_pair}", worst_leak, 1e-6, "exact-identity"),
        ]
        for axis, slope, res in (("q", slope_q, res_q), ("p", slope_p, res_p)):
            if np.isfinite(slope):
                assertions.append(
                    _at_least(f"residual_slope_{axis}_{tag_pair}", slope, 2.0, "scaling-fit")
                )
            else:
                assertions.append(
                    _at_most(f"first_order_exact_{axis}_{tag_pair}",
                             float(res.max()), 1e-12, "symmetry")
                )
    header = ["theta", "phi", "g", "delta_q", "delta_p", "first_order_q", "first_order_p"]
    return ScenarioReport(
        "weak-measurement", values, tuple(assertions), {"weak_measurement.csv": (header, rows)}
    )


def _spin_projector(theta: float, sign: int) -> np.ndarray:
    axis = np.cos(theta) * SZ + np.sin(theta) * SX
    return (np.eye(2) + sign * axis) / 2.0


def scenario_epr(alice=(0.0, np.pi / 2.0), bob=(np.pi / 4.0, -np.pi / 4.0)) -> ScenarioReport:
    """Bell-pair statistics: joint tables, the CHSH combination, and the
    no-signalling structure of Bob's marginals.

    Settings are angles in the x-z plane measured on (|00> + |11>)/sqrt(2),
    for which the correlator is cos(angle difference) and the default
    settings reach 2 sqrt(2).
    """
    if len(alice) != 2 or len(bob) != 2:
        raise ValueError(f"CHSH needs two settings per side, got {len(alice)} and {len(bob)}")
    bell = projector((np.kron(ket(2, 0), ket(2, 0)) + np.kron(ket(2, 1), ket(2, 1))) / np.sqrt(2.0))
    values = {}
    assertions = []
    rows = []
    correlators = {}
    for i, ta in enumerate(alice):
        ains = projective({"+": tensor(_spin_projector(ta, +1), np.eye(2)),
                           "-": tensor(_spin_projector(ta, -1), np.eye(2))})
        for j, tb in enumerate(bob):
            dot = float(np.cos(ta - tb))
            corr = 0.0
            nonsel_plus = 0.0
            joint = {}
            for s in (+1, -1):
                branch = ains.apply("+" if s > 0 else "-", bell)
                for t in (+1, -1):
                    pr = pairing(tensor(np.eye(2), _spin_projector(tb, t)), branch)
                    joint[s, t] = pr
                    corr += s * t * pr
                    if t > 0:
                        nonsel_plus += pr
                    assertions.append(
                        _close(
                            f"joint_a{i}b{j}_{'+' if s > 0 else '-'}{'+' if t > 0 else '-'}",
                            pr, (1.0 + s * t * dot) / 4.0, 1e-12, "closed-form",
                        )
                    )
                    rows.append((ta, tb, s, t, pr))
            correlators[i, j] = corr
            selective = joint[+1, +1] / (joint[+1, +1] + joint[+1, -1])
            assertions += [
                _close(f"bob_nonselective_a{i}b{j}", nonsel_plus, 0.5, 1e-12, "closed-form"),
                _close(f"bob_selective_a{i}b{j}", selective, (1.0 + dot) / 2.0, 1e-12, "closed-form"),
            ]
            values[f"correlator_a{i}b{j}"] = float(corr)
    chsh = correlators[0, 0] + correlators[0, 1] + correlators[1, 0] - correlators[1, 1]
    expected = (
        np.cos(alice[0] - bob[0]) + np.cos(alice[0] - bob[1])
        + np.cos(alice[1] - bob[0]) - np.cos(alice[1] - bob[1])
    )
    values["chsh"] = float(chsh)
    assertions.append(_close("chsh_combination", chsh, expected, 1e-12, "closed-form"))
    if abs(expected - 2.0 * np.sqrt(2.0)) < 1e-9:
        assertions.append(
            _close("chsh_maximum", chsh, 2.0 * np.sqrt(2.0), 1e-12, "closed-form")
        )
    header = ["theta_a", "theta_b", "s", "t", "p"]
    return ScenarioReport("epr", values, tuple(assertions), {"epr.csv": (header, rows)})


def scenario_homodyne_cavity(
    kappa=1.0, eta=0.7, horizon=1.0, dt=5e-4, n_traj=10_000, seed=0
) -> ScenarioReport:
    """Diffusive monitoring of a decaying excitation.

    The cavity is truncated to the single-excitation sector, which is exact
    for a decay-only generator started with at most one photon, so the model
    is a two-level emitter. Checks: ensemble mean against the closed-form
    decay at ten sample times, innovation whiteness, and the smoothed vs
    filtered occupation for a photon-number readout at mid-horizon. The
    unmonitored limit eta=0 must reproduce the deterministic pair.

    The per-step scheme is weakly first order, so the ensemble mean carries
    an O(dt) bias; the default dt keeps that bias below one standard error
    of 10^4 trajectories.
    """
    if dt * kappa > 0.01:
        raise ValueError(f"dt*kappa = {dt * kappa:g} too coarse; need <= 0.01")
    _check_n_traj(n_traj)
    s_ens, s_path, s_eta0 = _substreams(seed, 3)
    model = monitoring_model(np.zeros((2, 2)), SM, kappa, eta)
    sample_times = [k * horizon / 10.0 for k in range(1, 11)]
    # the ensemble of ensemble_homodyne, reduced a row block at a time: a block's draws are its innovations
    times, _, n, blocks = _drawn(model, EXCITED, horizon, dt, s_ens, n_traj, sample_times)
    pops, moments = np.empty((n, times.size)), (0, 0.0, 0.0)
    for rows, states, dws, dys in blocks:
        pops[rows] = states[:, :, 1, 1].real
        moments = _merged(moments, dws)
        del dws, dys  # before the next block is drawn
    mean_pop = pops.mean(axis=0)
    se_pop = pops.std(axis=0, ddof=1) / np.sqrt(n_traj)
    exact = np.exp(-kappa * times)
    zs = np.abs(mean_pop - exact) / se_pop
    count, dw_mean, dw_m2 = moments
    dw_mean, dw_var = float(dw_mean), float(dw_m2 / (count - 1))
    dw_se = float(np.sqrt(dw_var) / np.sqrt(count))
    values = {
        "max_decay_z": float(zs.max()),
        "innovation_mean": dw_mean,
        "innovation_mean_z": abs(dw_mean) / dw_se,
        "innovation_var": dw_var,
        "innovation_var_rel_err": abs(dw_var - dt) / dt,
    }
    assertions = [
        _at_most("lindblad_mean_max_z", float(zs.max()), 3.0, "monte-carlo-3sigma"),
        _at_most("innovation_mean_z", abs(dw_mean) / dw_se, 3.0, "monte-carlo-3sigma"),
        _at_most("innovation_var_rel_err", abs(dw_var - dt) / dt, 0.05, "monte-carlo-3sigma"),
    ]
    states, record = simulate_homodyne(model, EXCITED, horizon, dt, s_path)
    effects = backward_homodyne(model, record, np.eye(2))
    pair = PqsPair(states, effects, record)
    pair_vals = pairing(effects.mats, states.mats)
    values["pairing_ratio_min"] = float((pair_vals / pair_vals[-1]).min())
    values["pairing_ratio_max"] = float((pair_vals / pair_vals[-1]).max())
    number = projective({"n0": GROUND, "n1": EXCITED})
    t_mid = round(horizon / 2.0 / dt) * dt
    smoothed = smoothed_probability(pair, t_mid, number)["n1"]
    filtered = abl_distribution(BoundaryPair(states.at(t_mid), np.eye(2)), number)["n1"]
    values["smoothed_minus_filtered_mid"] = float(smoothed - filtered)
    model0 = monitoring_model(np.zeros((2, 2)), SM, kappa, 0.0)
    states0, record0 = simulate_homodyne(model0, EXCITED, horizon, dt, s_eta0)
    effects0 = backward_homodyne(model0, record0, np.eye(2))
    pair0 = PqsPair(states0, effects0, record0)
    det = propagate_forward(model0.gen, EXCITED, 0.0, horizon, dt)
    sm0 = smoothed_probability(pair0, t_mid, number)["n1"]
    fil0 = abl_distribution(BoundaryPair(det.at(t_mid), np.eye(2)), number)["n1"]
    assertions += [
        _at_most(
            "unmonitored_forward_drift",
            float(np.max(np.abs(states0.mats - det.mats))), 5e-3, "deterministic-limit",
        ),
        _at_most("unmonitored_smoothing_gap", abs(sm0 - fil0), 5e-3, "deterministic-limit"),
    ]
    table = (["time", "mean_excited", "stderr", "exact"],
             list(zip(times, mean_pop, se_pop, exact)))
    return ScenarioReport(
        "homodyne-cavity", values, tuple(assertions), {"homodyne_cavity.csv": table}
    )


def scenario_counting(
    kappa=1.0,
    horizon=1.0,
    dt=1e-3,
    oracle_steps=6,
    oracle_dt=0.05,
    omega=1.3,
    n_traj=10_000,
    seed=0,
) -> ScenarioReport:
    """Photon-counting records against exact Bayesian retrodiction.

    A driven two-level emitter on a short grid admits brute-force
    enumeration of every record. Records with adjacent jumps have exactly
    zero weight (a jump lands in the ground state and a second jump
    annihilates it); every other record is replayed, smoothed, and compared
    against the enumeration at all grid points. Count statistics of the
    undriven emitter check the closed-form jump probability.
    """
    if oracle_steps > 8:
        raise ValueError(f"oracle_steps={oracle_steps} exceeds the cap of 8")
    _check_n_traj(n_traj)
    s_mc, s_dark = _substreams(seed, 2)
    model = monitoring_model(omega * SX, SM, kappa, 1.0, mode="counting")
    rho0 = np.array([[0.35, 0.2 - 0.1j], [0.2 + 0.1j, 0.65]])
    effect = np.array([[0.8, 0.15], [0.15, 0.45]])
    enum = enumerate_counting(model, rho0, effect, oracle_steps, oracle_dt)
    number = projective({"g": GROUND, "e": EXCITED})
    times = oracle_dt * np.arange(oracle_steps + 1)
    records = list(np.ndindex(*([2] * oracle_steps)))
    adjacent = [any(a and b for a, b in zip(bits, bits[1:])) for bits in records]
    weights = [enum.weights[bits] for bits in records]  # np.ndindex yields the dict's own tuple keys
    partition_ok = all(w == 0.0 if adj else w > 0.0 for w, adj in zip(weights, adjacent))
    feasible = [bits for bits, adj in zip(records, adjacent) if not adj]
    # every feasible record in one replay, one backward pass, one ABL call and one oracle call
    rec = MeasurementRecord("counting", times, np.array(feasible, dtype=np.int64))
    pair = PqsPair(replay_counting(model, rho0, rec), backward_counting(model, rec, effect), rec)
    got = abl_distribution(BoundaryPair(pair.states.mats, pair.effects.mats), number)
    want = enum.conditional(rec.increments, number)
    max_dev = max(float(np.max(np.abs(got[m] - want[m]))) for m in number.outcomes)
    fib = [1, 2]
    while len(fib) < oracle_steps + 1:
        fib.append(fib[-1] + fib[-2])
    values = {
        "oracle_max_deviation": max_dev,
        "feasible_records": float(len(feasible)),
    }
    assertions = [
        _at_most("retrodiction_oracle_max_deviation", max_dev, 1e-10, "oracle"),
        _close("feasible_record_count", len(feasible), fib[oracle_steps], 0.0, "combinatorial"),
        _at_least("zero_weight_iff_adjacent_jumps", 1.0 if partition_ok else 0.0, 1.0, "combinatorial"),
    ]
    free = monitoring_model(np.zeros((2, 2)), SM, kappa, 1.0, mode="counting")
    ens = ensemble_counting(free, EXCITED, horizon, dt, n_traj, s_mc)
    totals = ens.total_counts().astype(float)
    want_mean = 1.0 - np.exp(-kappa * horizon)
    # each total is 0 or 1, so under the closed form the mean has standard error sqrt(p(1 - p)/n),
    # whether or not the sample spreads; it is 0 only where p is exactly 0 or 1
    se = float(np.sqrt(want_mean * (1.0 - want_mean) / n_traj))
    miss = abs(float(totals.mean()) - want_mean)
    z = miss / se if se > 0.0 else (0.0 if miss == 0.0 else np.inf)
    values["count_mean"] = float(totals.mean())
    values["count_mean_z"] = z
    assertions.append(_at_most("count_mean_z", z, 3.0, "monte-carlo-3sigma"))
    dark = ensemble_counting(free, GROUND, horizon, dt, 200, s_dark)
    values["dark_total_counts"] = float(dark.total_counts().sum())
    assertions.append(
        _close("dark_state_counts", float(dark.total_counts().sum()), 0.0, 0.0, "closed-form")
    )
    table = (["record_as_integer", "weight"],
             [(int("".join(map(str, bits)), 2), w) for bits, w in sorted(enum.weights.items())])
    return ScenarioReport("counting", values, tuple(assertions), {"counting_oracle.csv": table})


def scenario_thermal_qubit(
    omega=1.0,
    beta=1.2,
    gamma_down=0.8,
    horizon=1.5,
    dt=5e-4,
    beta_pair=(0.4, 1.6),
    gamma_pair=(1.0, 0.6),
    drive_amp=0.3,
    drive_freq=1.5,
    monitor_kappa=0.15,
    monitor_horizon=0.5,
    n_traj=10_000,
    seed=0,
) -> ScenarioReport:
    """Thermal-qubit thermodynamics along relaxation, conduction, and driving.

    Four parts. Relaxation checks Spohn nonnegativity and the two-route
    Clausius identity (finite-difference entropy slope vs algebraic
    production); its start is the excited-leaning state mixed halfway toward
    Gibbs, since the differencing error is O(dt^2) with a constant set by
    the entropy's curvature, which diverges as the state nears purity. A
    two-bath steady state checks conduction: gap = (beta_cold - beta_hot) J.
    A sinusoidally driven qubit, propagated with the Hamiltonian frozen at
    each step midpoint, checks the first law pointwise. Finally a weak QND
    z-monitor on the relaxing qubit checks the conditional bound: the
    ensemble mean of dS/dt + beta J stays nonnegative within Monte Carlo
    resolution. The monitor rate is kept well below the relaxation rate;
    near stationarity a strong monitor's information gain can push the
    conditional mean negative, which the bound does not cover.
    """
    _check_n_traj(n_traj)
    s_mon = _substreams(seed, 1)[0]
    ham = -0.5 * omega * SZ
    bath = thermal_bath(omega, beta, gamma_down, "bath")
    gen = LindbladGenerator(ham, (bath,))
    sigma = gibbs_state(ham, beta)
    rho0 = np.array([[0.08, 0.05], [0.05, 0.92]])
    rho_relax = 0.5 * (rho0 + sigma)
    states = propagate_forward(gen, rho_relax, 0.0, horizon, dt)
    rep = thermo_report(gen, states, sigma)
    identity_gap = float(np.max(np.abs(rep.clausius_gap - rep.production_rate)))
    values = {
        "spohn_min": float(rep.production_rate.min()),
        "spohn_initial": float(rep.production_rate[0]),
        "spohn_final": float(rep.production_rate[-1]),
        "clausius_identity_max_err": identity_gap,
        "production_at_sigma": entropy_production_rate(gen, sigma, sigma),
    }
    assertions = [
        _at_least("spohn_nonnegative", float(rep.production_rate.min()), -1e-8, "inequality"),
        _at_least("production_positive_away_from_sigma", float(rep.production_rate.min()), 1e-12, "inequality"),
        _at_most("production_decays", float(rep.production_rate[-1]), float(rep.production_rate[0]), "qualitative"),
        _at_most("clausius_identity_pointwise", identity_gap, 1e-6, "two-route"),
        _at_most("production_at_sigma", abs(values["production_at_sigma"]), 1e-12, "exact-identity"),
    ]
    beta_hot, beta_cold = beta_pair
    pair_gen = LindbladGenerator(
        ham,
        (
            thermal_bath(omega, beta_hot, gamma_pair[0], "hot"),
            thermal_bath(omega, beta_cold, gamma_pair[1], "cold"),
        ),
    )
    sigma_ss = stationary_state(pair_gen)
    flat = propagate_forward(pair_gen, sigma_ss, 0.0, 0.02, 1e-3)
    gap2 = clausius_gap(pair_gen, flat)
    j_cold = heat_current(pair_gen, "cold", sigma_ss)
    j_hot = heat_current(pair_gen, "hot", sigma_ss)
    conduction = (beta_cold - beta_hot) * j_cold
    values["conduction_gap"] = float(gap2.mean())
    values["j_cold_steady"] = j_cold
    assertions += [
        _at_least("steady_conduction_positive", conduction, 1e-6, "closed-form"),
        _at_most("steady_gap_matches_conduction", float(np.max(np.abs(gap2 - conduction))), 1e-6, "closed-form"),
        _at_most("steady_first_law", abs(j_hot + j_cold), 1e-10, "exact-identity"),
    ]
    drive_times, h = _grid(0.0, 1.0, dt)  # the drive horizon, in whole steps of dt
    # L_k = L0 + a sin(w t_mid,k) L_X with L_X = -i[SX, .]: H frozen at each step's midpoint
    drive = drive_amp * np.sin(drive_freq * ((np.arange(drive_times.size - 1) + 0.5) * h))[:, None, None]
    steps = rk4_step(gen.superop + drive * LindbladGenerator(SX).superop, h)
    driven = flow(steps, rho0)
    phase = drive_freq * drive_times[:, None, None]
    h_t = ham + drive_amp * np.sin(phase) * SX
    dedt = np.gradient(pairing(h_t, driven), drive_times, edge_order=2)
    driven_spec = state_spectrum(driven)
    wdot = work_rate(driven_spec, drive_amp * drive_freq * np.cos(phase) * SX)
    heat = heat_current(gen, "bath", driven_spec, hamiltonian=h_t)
    first_law = float(np.max(np.abs(dedt - wdot + heat)))
    values["first_law_max_err"] = first_law
    assertions.append(_at_most("first_law_pointwise", first_law, 1e-6, "two-route"))
    monitor = monitoring_model(ham, SZ, monitor_kappa, 1.0, extra_baths=(bath,))
    sample_times = [k * monitor_horizon / 10.0 for k in range(11)]
    # the sampled states of ensemble_homodyne, kept a row block at a time
    times, _, n, blocks = _drawn(monitor, rho0, monitor_horizon, 1e-3, s_mon, n_traj, sample_times)
    (ens_states,) = _collect(n, blocks, (0,))
    ens_spec = state_spectrum(ens_states)
    sdots = np.gradient(von_neumann_entropy(ens_spec), times, axis=1)
    expr = sdots + beta * heat_current(gen, "bath", ens_spec)
    cond_mean = expr.mean(axis=0)
    cond_se = expr.std(axis=0, ddof=1) / np.sqrt(n_traj)
    margin = float((cond_mean + 3.0 * cond_se).min())
    values["conditional_clausius_min_mean"] = float(cond_mean.min())
    values["conditional_clausius_min_margin"] = margin
    assertions.append(
        _at_least("conditional_clausius_in_expectation", margin, 0.0, "monte-carlo-3sigma")
    )
    neutral = backward_neutrality_check(gen, rho0, GROUND, 0.5, 1e-3, sigma=sigma)
    values["backward_pairing_drift"] = neutral.pairing_drift
    assertions += [
        _at_least("backward_pass_report_identical", 1.0 if neutral.reports_identical else 0.0, 1.0, "exact-identity"),
        _at_most("backward_pairing_drift", neutral.pairing_drift, 1e-8, "exact-identity"),
    ]
    tables = {
        "thermal_relaxation.csv": (
            ["time", "entropy", "relative_entropy", "production_rate", "j_bath", "clausius_gap"],
            np.column_stack([rep.times, rep.entropy, rep.relative_entropy, rep.production_rate,
                             rep.heat_currents["bath"], rep.clausius_gap]),
        ),
        "conditional_clausius.csv": (
            ["time", "mean", "stderr"], list(zip(times, cond_mean, cond_se))
        ),
    }
    return ScenarioReport("thermal-qubit", values, tuple(assertions), tables)


def scenario_classical_limit(n_hmm=50, n_lg=10, seed=0) -> ScenarioReport:
    """Smoothing equivalence batteries in the commutative limit.

    Random HMMs: the sink-embedded quantum chain, classical
    forward-backward, and brute-force path enumeration must agree.
    Random linear-Gaussian models: Kalman/RTS must match the joint-Gaussian
    batch oracle. A degenerate uniform model must smooth to uniform.
    """
    if n_hmm < 1 or n_lg < 1:
        raise ValueError(f"n_hmm={n_hmm} and n_lg={n_lg} must each be at least 1")
    gen = np.random.default_rng(np.random.Philox(int(seed)))
    dev_embed = 0.0
    dev_enum = 0.0
    for _ in range(n_hmm):
        n = int(gen.integers(2, 5))
        steps = int(gen.integers(2, 6))
        n_sym = int(gen.integers(2, 4))
        t = gen.uniform(0.1, 1.0, size=(n, n))
        t /= t.sum(axis=1, keepdims=True)
        lk = gen.uniform(0.05, 1.0, size=(n_sym, n))
        pi = gen.uniform(0.1, 1.0, size=n)
        model = HmmModel(t, lk, pi / pi.sum())
        obs = gen.integers(0, n_sym, size=steps)
        _, _, smoothed = hmm_forward_backward(model, obs)
        dev_enum = max(dev_enum, float(np.max(np.abs(
            smoothed - enumerate_hmm_smoothing(model, obs)
        ))))
        chain = smoothing_chain(model, obs)
        j = int(gen.integers(0, steps))
        cond = conditional_at_stage(chain, j)
        got = np.array([cond[f"x{i}"] for i in range(n)])
        dev_embed = max(dev_embed, float(np.max(np.abs(got - smoothed[j]))))
    uni = HmmModel(np.full((3, 3), 1 / 3), np.ones((2, 3)), np.full(3, 1 / 3))
    cond = conditional_at_stage(smoothing_chain(uni, [0, 1]), 1)
    dev_uniform = float(max(abs(cond[f"x{i}"] - 1 / 3) for i in range(3)))
    dev_filter = 0.0
    dev_rts = 0.0
    order_min = np.inf
    for _ in range(n_lg):
        n = int(gen.integers(1, 3))
        p = int(gen.integers(1, 3))
        a = 0.9 * gen.normal(size=(n, n)) / np.sqrt(n)
        qroot = gen.normal(size=(n, n))
        rroot = gen.normal(size=(p, p))
        model = LinearGaussianModel(
            a,
            0.3 * qroot @ qroot.T + 0.05 * np.eye(n),
            gen.normal(size=(p, n)),
            0.5 * rroot @ rroot.T + 0.1 * np.eye(p),
            gen.normal(size=n),
            np.eye(n),
        )
        ys = gen.normal(size=(6, p))
        filtered = kalman_filter(model, ys)
        sm, sp = rts_smoother(model, filtered)
        bm, bp = gaussian_batch_oracle(model, ys)
        dev_filter = max(dev_filter, float(np.max(np.abs(bm[-1] - filtered[0][-1]))),
                         float(np.max(np.abs(bp[-1] - filtered[1][-1]))))
        dev_rts = max(dev_rts, float(np.max(np.abs(bm - sm))), float(np.max(np.abs(bp - sp))))
        for k in range(6):
            order_min = min(order_min, float(eigenvalues(filtered[1][k] - sp[k]).min()))
    values = {
        "hmm_embedding_max_dev": dev_embed,
        "hmm_enumeration_max_dev": dev_enum,
        "uniform_max_dev": dev_uniform,
        "kalman_final_max_dev": dev_filter,
        "rts_max_dev": dev_rts,
        "smoothing_gain_min_eig": float(order_min),
    }
    assertions = [
        _at_most("embedding_battery", dev_embed, 1e-12, "oracle"),
        _at_most("path_enumeration_battery", dev_enum, 1e-12, "oracle"),
        _at_most("uniform_degenerate", dev_uniform, 1e-12, "symmetry"),
        _at_most("kalman_vs_batch_final", dev_filter, 1e-10, "oracle"),
        _at_most("rts_vs_batch", dev_rts, 1e-8, "oracle"),
        _at_least("smoothing_never_widens", float(order_min), -1e-10, "inequality"),
    ]
    table = (["battery", "max_deviation"],
             [(0, dev_embed), (1, dev_enum), (2, dev_filter), (3, dev_rts)])
    return ScenarioReport(
        "classical-limit", values, tuple(assertions), {"classical_limit.csv": table}
    )


@dataclass(frozen=True)
class ScenarioEntry:
    func: object
    summary: str


SCENARIOS = {
    "unsharp-qubit": ScenarioEntry(
        scenario_unsharp_qubit,
        "post-selected and nonselective unsharp readout probabilities across sharpness values",
    ),
    "weak-measurement": ScenarioEntry(
        scenario_weak_measurement,
        "exact pointer shifts against first-order weak values with quadratic residual scaling",
    ),
    "epr": ScenarioEntry(
        scenario_epr,
        "Bell-pair joint tables, CHSH combination, and marginal invariance",
    ),
    "homodyne-cavity": ScenarioEntry(
        scenario_homodyne_cavity,
        "diffusive monitoring ensemble: mean decay, innovation whiteness, mid-horizon smoothing",
    ),
    "counting": ScenarioEntry(
        scenario_counting,
        "photon-counting retrodiction against exhaustive record enumeration, plus count statistics",
    ),
    "thermal-qubit": ScenarioEntry(
        scenario_thermal_qubit,
        "entropy production, Clausius gap, first law, and the monitored conditional bound",
    ),
    "classical-limit": ScenarioEntry(
        scenario_classical_limit,
        "HMM smoothing equivalence and Kalman/RTS against a joint-Gaussian oracle",
    ),
}


def run_scenario(name: str, **params) -> ScenarioReport:
    if name not in SCENARIOS:
        known = ", ".join(sorted(SCENARIOS))
        raise KeyError(f"unknown scenario {name!r}; choose one of {known}")
    return SCENARIOS[name].func(**params)

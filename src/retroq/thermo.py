"""Entropy and heat bookkeeping along forward state timelines.

All entropies are in nats. Heat currents are signed positive INTO the bath,
so the Clausius combination reads dS/dt + sum_r beta_r J^(r) and equals the
summed per-bath entropy production. Backward effects never enter any formula
here; backward_neutrality_check turns that architectural fact into a test.

State arguments take one operator (d, d), a stack (..., d, d) such as a
timeline's mats, or its Spectrum from state_spectrum, which passes through:
thermo_report and clausius_gap decompose a timeline once, in one batched
algebra.eigensystem (a closed form for qubit stacks). heat_current's hamiltonian
and work_rate's dh_dt broadcast against the states. A call returns a float
for one state and an array for a stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import LOG_FLOOR, SM, SP, Spectrum, _require_hermitian, asoperator, dagger, hermitian_eig, pairing
from .algebra import state_spectrum
from .dynamics import (
    Bath,
    LindbladGenerator,
    Timeline,
    propagate_backward,
    propagate_forward,
    stationary_state,
)

STATIONARY_TOL = 1e-8
SUPPORT_TOL = 1e-12


def _float_or_array(x):
    """A float for one state, an array for a stack of them."""
    return np.asarray(x, dtype=float) if np.ndim(x) else float(x)


def _log(w):
    return np.log(np.clip(w, LOG_FLOOR, None))


def _diagonal_in(v, x):
    """Re <v_i|X|v_i> for each column v_i of V, over broadcast stacks.

    The sum over j, k of conj(v_ji) X_jk v_ki is one einsum over an
    elementwise outer product of d³ entries per matrix, with no batched
    matrix product: at d = 2, numpy's per-matrix cost of a batched complex
    product is most of the time of one (3001, 2, 2) stack.
    """
    outer = v.conj()[..., :, None, :] * v[..., None, :, :]
    return np.einsum("...jki,...jk->...i", outer, x).real


def _expectation(spec: Spectrum, x):
    """Re Tr[rho X] = sum_i w_i <v_i|X|v_i>, read from rho's Spectrum without rebuilding rho."""
    return (spec.w * _diagonal_in(spec.v, x)).sum(axis=-1)


def von_neumann_entropy(rho) -> float | np.ndarray:
    """-Tr[rho ln rho] with 0 ln 0 = 0."""
    w, _ = state_spectrum(rho)
    return _float_or_array(-(w * _log(w)).sum(axis=-1))


def relative_entropy(rho, sigma) -> float | np.ndarray:
    """D(rho||sigma) in nats; +inf where rho leaks outside sigma's support.

    An eigenvalue of sigma lies outside its support only at or below
    LOG_FLOOR, where its log is clipped, so a cold Gibbs sigma keeps a
    finite D while its populations stay above LOG_FLOOR; rho leaks where
    more than SUPPORT_TOL of its weight lies outside the support.
    """
    wr, vr = state_spectrum(rho)
    ws, vs = state_spectrum(sigma)
    if wr.shape[-1] != ws.shape[-1]:
        raise ValueError(f"dimension mismatch: {wr.shape[-1]} vs {ws.shape[-1]}")
    # populations of rho in sigma's eigenbasis
    pops = np.einsum("...ki,...i->...k", np.abs(dagger(vs) @ vr) ** 2, wr)
    leak = np.where(ws <= LOG_FLOOR, pops, 0.0).sum(axis=-1)
    val = (wr * _log(wr)).sum(axis=-1) - (pops * _log(ws)).sum(axis=-1)
    val = np.where(val > -1e-10, np.maximum(val, 0.0), val)
    return _float_or_array(np.where(leak > SUPPORT_TOL, np.inf, val))


def gibbs_state(hamiltonian, beta: float) -> np.ndarray:
    """exp(-beta H) / Z."""
    w, v = hermitian_eig(hamiltonian)
    p = np.exp(-beta * (w - w.min()))
    return Spectrum(p / p.sum(), v).rebuild()


def thermal_bath(omega: float, beta: float, gamma_down: float, label: str) -> Bath:
    """Qubit emission/absorption pair in detailed balance at inverse temperature beta.

    Pairs with the Hamiltonian -(omega/2) sigma_z (index 1 is the excited
    level); the matching Gibbs state is then stationary for this bath alone.
    """
    if omega <= 0 or gamma_down <= 0:
        raise ValueError("need omega > 0 and gamma_down > 0")
    gamma_up = gamma_down * np.exp(-beta * omega)
    return Bath(label, (np.sqrt(gamma_down) * SM, np.sqrt(gamma_up) * SP), beta=beta)


def entropy_production_rate(gen: LindbladGenerator, rho, sigma) -> float | np.ndarray:
    """Spohn's rate -Tr[L(rho)(ln rho - ln sigma)]; nonnegative for one stationary sigma.

    Tr[L(rho) ln rho] is sum_i ln w_i <v_i|L(rho)|v_i> in rho's eigenbasis,
    so rho is rebuilt once, for L(rho), and ln rho never.
    """
    rs, ss = state_spectrum(rho), state_spectrum(sigma)
    defect = float(np.max(np.abs(gen.apply(ss.rebuild()))))
    if defect > STATIONARY_TOL:
        raise ValueError(f"sigma is not stationary: max |L(sigma)| = {defect:.3e}")
    flow = gen.apply(rs.rebuild())
    own = (_log(rs.w) * _diagonal_in(rs.v, flow)).sum(axis=-1)
    return _float_or_array(pairing(flow, ss.rebuild(_log)) - own)


def _dissipator(gen: LindbladGenerator, label: str) -> LindbladGenerator:
    """The labelled bath's dissipator alone, as a generator with no Hamiltonian part."""
    return LindbladGenerator(np.zeros_like(gen.hamiltonian), (gen.bath(label),))


def heat_current(gen: LindbladGenerator, bath_label: str, rho, hamiltonian=None) -> float | np.ndarray:
    """-Tr[H L^(r)(rho)] for one labelled dissipator: energy flowing into that bath.

    Read as -Tr[L^(r)†(H) rho] from rho's Spectrum, so rho is never rebuilt.
    """
    h = gen.hamiltonian if hamiltonian is None else np.asarray(hamiltonian, dtype=complex)
    return _float_or_array(-_expectation(state_spectrum(rho), _dissipator(gen, bath_label).adjoint(h)))


def work_rate(rho, dh_dt) -> float | np.ndarray:
    """Tr[rho dH/dt] for an explicitly driven Hamiltonian."""
    dh = np.asarray(dh_dt, dtype=complex)
    _require_hermitian(dh, "dH/dt must be Hermitian", tol=1e-10)
    return _float_or_array(_expectation(state_spectrum(rho), dh))


def _bath_betas(gen: LindbladGenerator) -> dict:
    """Each bath's beta tag, once that bath alone is checked to hold its Gibbs state stationary."""
    for b in gen.baths:
        sigma = gibbs_state(gen.hamiltonian, b.beta)
        defect = float(np.max(np.abs(_dissipator(gen, b.label).apply(sigma))))
        if defect > STATIONARY_TOL:
            raise ValueError(
                f"bath {b.label!r} does not hold its Gibbs state stationary (defect {defect:.3e})"
            )
    return {b.label: b.beta for b in gen.baths}


def clausius_gap(gen: LindbladGenerator, states: Timeline):
    """dS/dt + sum_r beta_r J^(r) per grid point, over every bath of gen.

    dS/dt comes from central differences, second-order one-sided at the ends.

    Every bath must carry a beta tag and hold its own Gibbs state stationary
    under its dissipator alone; the result is the summed per-bath Spohn
    production and is nonnegative up to discretization.
    """
    if states.kind != "state":
        raise ValueError("clausius_gap wants a state timeline")
    untagged = [b.label for b in gen.baths if b.beta is None]
    if untagged:
        raise ValueError(f"the Clausius gap needs every bath's beta; untagged: {', '.join(untagged)}")
    betas = _bath_betas(gen)
    spec = state_spectrum(states.mats)
    currents = {label: heat_current(gen, label, spec) for label in betas}
    return _clausius_gap(states.times, von_neumann_entropy(spec), currents, betas)


def _clausius_gap(times, entropy, currents: dict, betas: dict) -> np.ndarray:
    """np.gradient(S) + sum_r beta_r J_r from an entropy and heat currents already computed."""
    gap = np.gradient(entropy, times, edge_order=2)
    for label, beta in betas.items():
        gap = gap + float(beta) * currents[label]
    return gap


@dataclass(frozen=True, eq=False)
class ThermoReport:
    """Per-time entropic quantities for one forward timeline.

    heat_currents maps bath label to the per-time current into that bath.
    clausius_gap is None when some bath carries no inverse-temperature tag.
    """

    times: np.ndarray
    entropy: np.ndarray
    relative_entropy: np.ndarray
    production_rate: np.ndarray
    heat_currents: dict
    clausius_gap: np.ndarray | None


def thermo_report(gen: LindbladGenerator, states: Timeline, sigma) -> ThermoReport:
    """Assemble entropy, D(rho_t||sigma), Spohn rate, and heat currents.

    The Clausius column appears when every bath carries a beta tag, pairing
    each bath with its own Gibbs state.
    """
    if states.kind != "state":
        raise ValueError("thermo_report wants a state timeline")
    spec, ref = state_spectrum(states.mats), state_spectrum(sigma)
    entropy = von_neumann_entropy(spec)
    rel = relative_entropy(spec, ref)
    prod = entropy_production_rate(gen, spec, ref)
    currents = {b.label: heat_current(gen, b.label, spec) for b in gen.baths}
    gap = None
    if gen.baths and all(b.beta is not None for b in gen.baths):
        gap = _clausius_gap(states.times, entropy, currents, _bath_betas(gen))
    return ThermoReport(states.times.copy(), entropy, rel, prod, currents, gap)


@dataclass(frozen=True)
class NeutralityReport:
    pairing_drift: float
    reports_identical: bool
    report: ThermoReport


def backward_neutrality_check(
    gen: LindbladGenerator, rho0, effect_final, horizon: float, dt: float, sigma=None
) -> NeutralityReport:
    """Show the backward pass is thermodynamically inert.

    Propagates the state forward, assembles the ThermoReport, then runs the
    backward pass and assembles it again: the two reports must be identical
    arrays (no effect enters any formula), and the pairing Tr[E_t rho_t]
    must be conserved along the pair.
    """
    states = propagate_forward(gen, rho0, 0.0, horizon, dt)
    ref = asoperator(sigma) if sigma is not None else stationary_state(gen)
    before = thermo_report(gen, states, ref)
    effects = propagate_backward(gen, effect_final, horizon, 0.0, dt)
    after = thermo_report(gen, states, ref)
    vals = pairing(effects.mats, states.mats)
    drift = float(np.max(np.abs(vals - vals[-1])))
    same = (
        np.array_equal(before.entropy, after.entropy)
        and np.array_equal(before.relative_entropy, after.relative_entropy)
        and np.array_equal(before.production_rate, after.production_rate)
        and all(
            np.array_equal(before.heat_currents[k], after.heat_currents[k])
            for k in before.heat_currents
        )
    )
    return NeutralityReport(drift, same, after)

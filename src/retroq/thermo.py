"""Entropy and heat bookkeeping along forward state timelines.

All entropies are in nats. Heat currents are signed positive INTO the bath,
so the Clausius combination reads dS/dt + sum_r beta_r J^(r) and equals the
summed per-bath entropy production. Backward effects never enter any formula
here; backward_neutrality_check turns that architectural fact into a test.

State arguments, heat_current's hamiltonian and work_rate's dh_dt take one
operator (d, d) or a stack (..., d, d) that broadcast, such as a timeline's
mats. A call validates its states once, in one batched eigh, and returns a
float for one state and an array for a stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import LOG_FLOOR, asoperator, dagger, hermitian_eig, pairing, state_spectrum
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


def _rebuild(w, v):
    """The operators V diag(w) V† of a stack of spectra."""
    return (v * w[..., None, :]) @ dagger(v)


def _log(w):
    return np.log(np.clip(w, LOG_FLOOR, None))


def _trace_of_product(a, b):
    """Re Tr[A B] over broadcast stacks."""
    return np.einsum("...ij,...ji->...", a, b).real


def _apply(superop, mats):
    """A row-major superoperator applied to every matrix of a stack."""
    d = mats.shape[-1]
    return (mats.reshape(*mats.shape[:-2], d * d) @ superop.T).reshape(mats.shape)


def von_neumann_entropy(rho) -> float | np.ndarray:
    """-Tr[rho ln rho] with 0 ln 0 = 0."""
    w, _ = state_spectrum(rho)
    return _float_or_array(-(w * _log(w)).sum(axis=-1))


def relative_entropy(rho, sigma) -> float | np.ndarray:
    """D(rho||sigma) in nats; +inf where rho leaks outside sigma's support."""
    wr, vr = state_spectrum(rho)
    ws, vs = state_spectrum(sigma)
    if wr.shape[-1] != ws.shape[-1]:
        raise ValueError(f"dimension mismatch: {wr.shape[-1]} vs {ws.shape[-1]}")
    # populations of rho in sigma's eigenbasis
    pops = np.einsum("...ki,...i->...k", np.abs(dagger(vs) @ vr) ** 2, wr)
    leak = np.where(ws <= SUPPORT_TOL, pops, 0.0).sum(axis=-1)
    val = (wr * _log(wr)).sum(axis=-1) - (pops * _log(ws)).sum(axis=-1)
    val = np.where(val > -1e-10, np.maximum(val, 0.0), val)
    return _float_or_array(np.where(leak > SUPPORT_TOL, np.inf, val))


def gibbs_state(hamiltonian, beta: float) -> np.ndarray:
    """exp(-beta H) / Z."""
    w, v = hermitian_eig(hamiltonian)
    p = np.exp(-beta * (w - w.min()))
    p = p / p.sum()
    return (v * p) @ dagger(v)


def thermal_bath(omega: float, beta: float, gamma_down: float, label: str = "thermal") -> Bath:
    """Qubit emission/absorption pair in detailed balance at inverse temperature beta.

    Pairs with the Hamiltonian -(omega/2) sigma_z (index 1 is the excited
    level); the matching Gibbs state is then stationary for this bath alone.
    """
    if omega <= 0 or gamma_down <= 0:
        raise ValueError("need omega > 0 and gamma_down > 0")
    gamma_up = gamma_down * np.exp(-beta * omega)
    sm = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    return Bath(label, (np.sqrt(gamma_down) * sm, np.sqrt(gamma_up) * sm.conj().T), beta=beta)


def _check_stationary(gen: LindbladGenerator, sigma: np.ndarray) -> None:
    defect = float(np.max(np.abs(gen.apply(sigma))))
    if defect > STATIONARY_TOL:
        raise ValueError(f"sigma is not stationary: max |L(sigma)| = {defect:.3e}")


def entropy_production_rate(gen: LindbladGenerator, rho, sigma) -> float | np.ndarray:
    """Spohn's rate -Tr[L(rho)(ln rho - ln sigma)]; nonnegative for one stationary sigma."""
    wr, vr = state_spectrum(rho)
    ws, vs = state_spectrum(sigma)
    _check_stationary(gen, _rebuild(ws, vs))
    grad = _rebuild(_log(wr), vr) - _rebuild(_log(ws), vs)
    return _float_or_array(-_trace_of_product(_apply(gen.superoperator(), _rebuild(wr, vr)), grad))


def _dissipator(gen: LindbladGenerator, label: str) -> np.ndarray:
    """Superoperator of the labelled bath's dissipator alone, no Hamiltonian part."""
    return LindbladGenerator(np.zeros_like(gen.hamiltonian), (gen.bath(label),)).superoperator()


def heat_current(gen: LindbladGenerator, bath_label: str, rho, hamiltonian=None) -> float | np.ndarray:
    """-Tr[H L^(r)(rho)] for one labelled dissipator: energy flowing into that bath."""
    h = gen.hamiltonian if hamiltonian is None else np.asarray(hamiltonian, dtype=complex)
    w, v = state_spectrum(rho)
    return _float_or_array(-_trace_of_product(h, _apply(_dissipator(gen, bath_label), _rebuild(w, v))))


def work_rate(rho, dh_dt) -> float | np.ndarray:
    """Tr[rho dH/dt] for an explicitly driven Hamiltonian."""
    dh = np.asarray(dh_dt, dtype=complex)
    scale = np.maximum(1.0, np.abs(dh).max(axis=(-2, -1)))
    if np.any(np.abs(dh - dagger(dh)).max(axis=(-2, -1)) > 1e-10 * scale):
        raise ValueError("dH/dt must be Hermitian")
    w, v = state_spectrum(rho)
    return _float_or_array(_trace_of_product(dh, _rebuild(w, v)))


def _gibbs_check(gen: LindbladGenerator, label: str, sigma: np.ndarray, beta: float) -> None:
    want = gibbs_state(gen.hamiltonian, beta)
    if np.max(np.abs(asoperator(sigma) - want)) > 1e-8:
        raise ValueError(f"sigma for bath {label!r} is not the Gibbs state at beta={beta}")
    defect = float(np.max(np.abs(_apply(_dissipator(gen, label), sigma))))
    if defect > STATIONARY_TOL:
        raise ValueError(
            f"bath {label!r} does not hold its Gibbs state stationary (defect {defect:.3e})"
        )


def clausius_gap(gen: LindbladGenerator, states: Timeline, sigma_per_bath: dict, betas: dict):
    """dS/dt + sum_r beta_r J^(r) per grid point.

    dS/dt comes from central differences, second-order one-sided at the ends.

    Each bath's sigma must be its own Gibbs state and stationary under that
    dissipator alone; the result is the summed per-bath Spohn production and
    is nonnegative up to discretization.
    """
    if states.kind != "state":
        raise ValueError("clausius_gap wants a state timeline")
    for label, beta in betas.items():
        _gibbs_check(gen, label, asoperator(sigma_per_bath[label]), float(beta))
    currents = {label: heat_current(gen, label, states.mats) for label in betas}
    return _clausius_gap(states.times, von_neumann_entropy(states.mats), currents, betas)


def _clausius_gap(times, entropy, currents: dict, betas: dict) -> np.ndarray:
    """np.gradient(S) + sum_r beta_r J_r from an entropy and heat currents already computed."""
    gap = np.gradient(entropy, times, edge_order=2)
    for label, beta in betas.items():
        gap = gap + float(beta) * currents[label]
    return gap


@dataclass(frozen=True)
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

    def to_csv(self, path) -> None:
        labels = list(self.heat_currents)
        cols = ["time", "entropy", "relative_entropy", "production_rate"]
        cols += [f"j_{label}" for label in labels]
        if self.clausius_gap is not None:
            cols.append("clausius_gap")
        with open(path, "w") as fh:
            fh.write(",".join(cols) + "\n")
            for k, t in enumerate(self.times):
                row = [self.entropy[k], self.relative_entropy[k], self.production_rate[k]]
                row += [self.heat_currents[label][k] for label in labels]
                if self.clausius_gap is not None:
                    row.append(self.clausius_gap[k])
                fh.write(",".join([repr(float(t))] + [repr(float(x)) for x in row]) + "\n")


def thermo_report(gen: LindbladGenerator, states: Timeline, sigma) -> ThermoReport:
    """Assemble entropy, D(rho_t||sigma), Spohn rate, and heat currents.

    The Clausius column appears when every bath carries a beta tag, pairing
    each bath with its own Gibbs state.
    """
    if states.kind != "state":
        raise ValueError("thermo_report wants a state timeline")
    entropy = von_neumann_entropy(states.mats)
    rel = relative_entropy(states.mats, sigma)
    prod = entropy_production_rate(gen, states.mats, sigma)
    currents = {b.label: heat_current(gen, b.label, states.mats) for b in gen.baths}
    gap = None
    if gen.baths and all(b.beta is not None for b in gen.baths):
        for b in gen.baths:
            _gibbs_check(gen, b.label, gibbs_state(gen.hamiltonian, b.beta), float(b.beta))
        gap = _clausius_gap(states.times, entropy, currents, {b.label: b.beta for b in gen.baths})
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

"""Markovian generators and fixed-step propagation of states (forward) and effects (backward).

States follow d rho/dt = L(rho); effects follow dE/dt = -L†(E) with a terminal
condition, integrated here as dE/ds = +L†(E) in reversed time s. Every pass
runs flow over one classic RK4 step matrix (rk4_step of L's superoperator)
on vec(rho), the backward pass over its conjugate transpose, the
Hilbert-Schmidt adjoint, so the discrete backward flow is the exact adjoint
of the discrete forward flow. No step is projected or clamped: the
propagate_* passes check the whole timeline once, in one batched eigvalsh,
and raise if any point leaves the valid set by more than PROJECTION_FAIL_TOL.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .algebra import DEFAULT_TOL, asoperator, dagger, hermitian_part, hermiticity_defect, validate_state

PROJECTION_FAIL_TOL = 1e-10


@dataclass(frozen=True)
class Bath:
    """One dissipation channel: jump operators with rates absorbed (sqrt(rate) * op).

    beta is the inverse temperature tag used by thermodynamic bookkeeping; leave
    None for channels with no thermal interpretation (e.g. a monitoring port).
    """

    label: str
    jumps: tuple
    beta: float | None = None

    def __post_init__(self):
        ops = tuple(asoperator(j) for j in self.jumps)
        if not ops:
            raise ValueError(f"bath {self.label!r} has no jump operators")
        d = ops[0].shape[0]
        if any(j.shape != (d, d) for j in ops):
            raise ValueError(f"bath {self.label!r} jump operators must share one dimension")
        object.__setattr__(self, "jumps", ops)


@dataclass(frozen=True)
class LindbladGenerator:
    hamiltonian: np.ndarray
    baths: tuple = ()
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        h = asoperator(self.hamiltonian)
        if hermiticity_defect(h) > self.tol * max(1.0, float(np.max(np.abs(h)))):
            raise ValueError("Hamiltonian is not Hermitian within tolerance")
        baths = tuple(self.baths)
        labels = [b.label for b in baths]
        if len(set(labels)) != len(labels):
            raise ValueError("bath labels must be unique")
        if any(b.jumps[0].shape != h.shape for b in baths):
            raise ValueError("bath jump operators must match the Hamiltonian dimension")
        object.__setattr__(self, "hamiltonian", hermitian_part(h))
        object.__setattr__(self, "baths", baths)
        # precompute L†L per jump for the anticommutator terms
        jj = tuple((j, dagger(j) @ j) for b in baths for j in b.jumps)
        object.__setattr__(self, "_jumps_sq", jj)

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]

    def bath(self, label: str) -> Bath:
        for b in self.baths:
            if b.label == label:
                return b
        raise KeyError(f"no bath labelled {label!r}; have {[b.label for b in self.baths]}")

    def apply(self, rho) -> np.ndarray:
        """Schrodinger-picture generator L(rho), hbar = 1."""
        r = asoperator(rho)
        h = self.hamiltonian
        out = -1j * (h @ r - r @ h)
        for j, jsq in self._jumps_sq:
            out += j @ r @ dagger(j) - 0.5 * (jsq @ r + r @ jsq)
        return out

    def adjoint(self, x) -> np.ndarray:
        """Heisenberg-picture generator L†(X); annihilates the identity."""
        xm = asoperator(x)
        h = self.hamiltonian
        out = 1j * (h @ xm - xm @ h)
        for j, jsq in self._jumps_sq:
            out += dagger(j) @ xm @ j - 0.5 * (jsq @ xm + xm @ jsq)
        return out

    def superoperator(self) -> np.ndarray:
        """Dense matrix of L acting on row-major vec(rho)."""
        d = self.dim
        eye = np.eye(d, dtype=complex)
        h = self.hamiltonian
        mat = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
        for j, jsq in self._jumps_sq:
            mat += np.kron(j, j.conj()) - 0.5 * (np.kron(jsq, eye) + np.kron(eye, jsq.T))
        return mat


@dataclass(frozen=True)
class Timeline:
    """Operators sampled on a uniform grid; kind is 'state' or 'effect'."""

    times: np.ndarray
    mats: np.ndarray
    kind: str

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        m = np.asarray(self.mats, dtype=complex)
        if self.kind not in ("state", "effect"):
            raise ValueError(f"timeline kind must be 'state' or 'effect', got {self.kind!r}")
        if t.ndim != 1 or m.ndim != 3 or m.shape[0] != t.shape[0] or m.shape[1] != m.shape[2]:
            raise ValueError("timeline needs times (n,) and matching operators (n, d, d)")
        if t.size > 1:
            steps = np.diff(t)
            if steps.min() <= 0 or steps.max() - steps.min() > 1e-9 * max(1.0, steps.max()):
                raise ValueError("timeline grid must be uniform and increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "mats", m)

    @property
    def dim(self) -> int:
        return self.mats.shape[1]

    def index(self, t: float) -> int:
        k = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[k] - t) > 1e-9 * max(1.0, abs(t)):
            raise ValueError(f"time {t} is not on the stored grid")
        return k

    def at(self, t: float) -> np.ndarray:
        return self.mats[self.index(t)]

    def to_csv(self, path):
        d = self.dim
        header = ["time"]
        for i in range(d):
            for j in range(d):
                header += [f"re_{i}{j}", f"im_{i}{j}"]
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow([self.kind])
            w.writerow(header)
            for t, m in zip(self.times, self.mats):
                row = [repr(float(t))]
                flat = m.ravel()
                for z in flat:
                    row += [repr(float(z.real)), repr(float(z.imag))]
                w.writerow(row)


def timeline_from_csv(path) -> Timeline:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    kind = rows[0][0]
    ncol = len(rows[1]) - 1
    d = int(round(np.sqrt(ncol / 2)))
    times, mats = [], []
    for row in rows[2:]:
        times.append(float(row[0]))
        vals = np.array([float(x) for x in row[1:]])
        mats.append((vals[0::2] + 1j * vals[1::2]).reshape(d, d))
    return Timeline(np.array(times), np.array(mats), kind)


def _grid(t0: float, t1: float, dt: float) -> tuple[int, float]:
    span = t1 - t0
    if span <= 0 or dt <= 0:
        raise ValueError("need t1 > t0 and dt > 0")
    n = int(round(span / dt))
    if n < 1 or abs(n * dt - span) > 1e-9 * max(1.0, span):
        raise ValueError(f"span {span} is not an integer number of steps of dt={dt}")
    return n, span / n


def rk4_step(superop, h: float) -> np.ndarray:
    """RK4 step matrix I + hL(I + hL/2(I + hL/3(I + hL/4))) of one superoperator or a stack."""
    lmat = np.asarray(superop, dtype=complex)
    eye = np.eye(lmat.shape[-1])
    step = eye + (h / 4.0) * lmat
    for k in (3.0, 2.0, 1.0):
        step = eye + (h / k) * (lmat @ step)
    return step


def flow(steps, x) -> np.ndarray:
    """The (n + 1, d, d) timeline x_{k+1} = steps[k] vec(x_k) of an (n, d², d²) step stack.

    Each step is a row-major matrix on vec(x); a time-homogeneous caller
    passes one step matrix broadcast to (n, d², d²).
    """
    x = asoperator(x)
    out = np.empty((len(steps) + 1, x.size), dtype=complex)
    out[0] = x.ravel()
    for k, step in enumerate(steps):
        out[k + 1] = step @ out[k]
    return out.reshape(-1, *x.shape)


def _checked_flow(steps, x, kind: str) -> np.ndarray:
    """flow, then one batched check that every point is a valid state or effect.

    A point's magnitude is its negative eigenvalue plus |Tr - 1| for a state,
    and the amount its spectrum leaves [0, 1] for an effect; a non-finite
    point has magnitude inf. The error names the first point, in step order,
    whose magnitude exceeds PROJECTION_FAIL_TOL.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        mats = flow(steps, x)
        finite = np.isfinite(mats).all(axis=(-2, -1))
        mag = np.full(len(mats), np.inf)
        w = np.linalg.eigvalsh(mats[finite])
        excess = np.abs(w.sum(axis=-1) - 1.0) if kind == "state" else np.maximum(w[:, -1] - 1.0, 0.0)
        mag[finite] = np.maximum(-w[:, 0], 0.0) + excess
    bad = np.flatnonzero(mag > PROJECTION_FAIL_TOL)
    if bad.size:
        k = int(bad[0])
        raise ValueError(
            f"{kind} leaves the valid set by {mag[k]:.3e} at step {k} of {len(steps)}, "
            f"beyond {PROJECTION_FAIL_TOL:.0e}; reduce dt"
        )
    return mats


def propagate_forward(gen: LindbladGenerator, rho0, t0: float, t1: float, dt: float) -> Timeline:
    """RK4-integrate a state from t0 to t1 with no per-step projection; the
    run aborts if any point of the timeline leaves the states by more than 1e-10."""
    n, h = _grid(t0, t1, dt)
    step = rk4_step(gen.superoperator(), h)
    mats = _checked_flow(np.broadcast_to(step, (n, *step.shape)), validate_state(rho0).mat, "state")
    return Timeline(t0 + h * np.arange(n + 1), mats, "state")


def propagate_backward(gen: LindbladGenerator, effect_final, t1: float, t0: float, dt: float) -> Timeline:
    """Integrate an effect from its terminal condition at t1 down to t0.

    Runs dE/ds = +L†(E) in s = t1 - t with no per-step projection; the
    identity is a fixed point, and the run aborts if any point's spectrum
    leaves [0, 1] by more than 1e-10, counting steps down from t1.
    """
    n, h = _grid(t0, t1, dt)
    e = asoperator(effect_final)
    if hermiticity_defect(e) > DEFAULT_TOL:
        raise ValueError("terminal effect is not Hermitian within tolerance")
    step = rk4_step(gen.superoperator(), h).conj().T
    mats = _checked_flow(np.broadcast_to(step, (n, *step.shape)), e, "effect")
    return Timeline(t0 + h * np.arange(n + 1), mats[::-1], "effect")


def evolve_state(gen: LindbladGenerator, rho, duration: float, dt: float = 1e-3) -> np.ndarray:
    """Raw RK4 composition over a duration, with no projection and no check.

    Used for chain stages, where the matching effect evolution must be the
    exact algebraic adjoint; duration 0 is the identity.
    """
    if duration == 0.0:
        return asoperator(rho).copy()
    n, h = _grid(0.0, duration, dt)
    step = rk4_step(gen.superoperator(), h)
    return flow(np.broadcast_to(step, (n, *step.shape)), rho)[-1]


def evolve_effect(gen: LindbladGenerator, effect, duration: float, dt: float = 1e-3) -> np.ndarray:
    """Adjoint companion of evolve_state: the conjugate transpose of its step matrix."""
    if duration == 0.0:
        return asoperator(effect).copy()
    n, h = _grid(0.0, duration, dt)
    step = rk4_step(gen.superoperator(), h).conj().T
    return flow(np.broadcast_to(step, (n, *step.shape)), effect)[-1]


def stationary_state(gen: LindbladGenerator, sv_tol: float = 1e-10):
    """Null space of the vectorized generator; errors if the kernel is degenerate."""
    mat = gen.superoperator()
    _, s, vh = np.linalg.svd(mat)
    smax = float(s.max()) if s.size else 1.0
    null = [vh[i].conj() for i in range(len(s)) if s[i] < sv_tol * max(smax, 1.0)]
    if not null:
        raise ValueError("no stationary state found (empty null space)")
    if len(null) > 1:
        raise ValueError(
            f"stationary subspace is {len(null)}-fold degenerate; "
            "pick a component or perturb the generator"
        )
    d = gen.dim
    cand = null[0].reshape(d, d)
    tr = complex(np.trace(cand))
    if abs(tr) < 1e-12:
        raise ValueError("stationary null vector is traceless, cannot normalize")
    state = validate_state(hermitian_part(cand / tr), tol=1e-8)
    resid = float(np.max(np.abs(gen.apply(state.mat))))
    if resid > 1e-8:
        raise ValueError(f"stationary candidate has residual {resid:.3e}")
    return state


def pairing_drift(gen: LindbladGenerator, rho0, effect_final, t0: float, t1: float, dt: float) -> float:
    """Worst-case deviation of Tr[E_t rho_t] from the exactly conserved pairing.

    The reference value pairs the terminal effect with a dense-exponential
    propagation of the initial state, so the returned number measures true
    integrator error rather than a telescoping identity.
    """
    fwd = propagate_forward(gen, rho0, t0, t1, dt)
    bwd = propagate_backward(gen, effect_final, t1, t0, dt)
    prop = scipy.linalg.expm((t1 - t0) * gen.superoperator())
    rho_exact = (prop @ validate_state(rho0).mat.ravel()).reshape(gen.dim, gen.dim)
    ref = float(np.trace(asoperator(effect_final) @ rho_exact).real)
    vals = np.einsum("kij,kji->k", bwd.mats, fwd.mats).real
    return float(np.max(np.abs(vals - ref)))

"""Record steps as superoperators on vec(rho), and the kernels that apply them.

A record step maps a state to its unnormalized post-record state. With the
row-major convention vec(X rho Y) = (X ⊗ Yᵀ) vec(rho), ``record_step``
builds each step once per (model, dt) as a few d²×d² matrices:

- both modes share S0 = A⊗Ā + (1-η) κ dt c⊗c̄ + Σ_j dt J_j⊗J̄_j, the
  no-detection map plus the undetected leak at efficiency η;
- counting: S_quiet = S0 and S_fire = η κ dt c⊗c̄;
- diffusive: S(dY) = S0 + dY S1 + dY² S2 with S1 = √(ηκ) (c⊗Ā + A⊗c̄)
  and S2 = ηκ c⊗c̄, i.e. vec(M ρ M†) plus the undetected leak for the
  Kraus operator M(dY) = A + √(ηκ) c dY (Rouchon & Ralph, PRA 91, 012118,
  2015), read under the drift dY = √(ηκ) <c + c†> dt + dW;

here A = 1 + G dt with the generator's no-jump matrix G = -iH - ½ Σ_K K†K
over every jump K, and J_j runs over the unmonitored jumps. Both families
are completely positive, so the filter needs no eigenvalue clamp. States
are real coordinates in an orthonormal Hermitian basis, where every branch
is a real matrix. The forward kernels advance a step-major (d², n_traj)
block, a trajectory per column, with one GEMM per step into a buffer
allocated once, and apply the counting fire branch only to the columns
that fired. The backward passes of ``trajectories`` run ``dynamics.flow``
over the Hilbert-Schmidt adjoints S† (conjugate transposes) of the
per-outcome stack ``superop`` returns, so forward and backward are exact
adjoints by construction. The caller draws the noise; reductions across
trajectories happen outside the kernels.
"""

from __future__ import annotations

import importlib.util
from dataclasses import dataclass

import numpy as np

from .algebra import sandwich_superop

# Reported in benchmark machine facts only; no kernel uses numba.
HAVE_NUMBA = importlib.util.find_spec("numba") is not None


def backend() -> str:
    """The kernel flavor; numpy is the only one."""
    return "numpy"


def _vec_readout(op: np.ndarray) -> np.ndarray:
    """Column r with vec(rho) @ r = Tr[op rho]."""
    return op.T.reshape(-1)


def _hermitian_basis(d: int) -> np.ndarray:
    """Rows vec(B_a) of an orthonormal Hermitian basis, a = i*d + j in row-major order.

    B_(i,i) = |i><i|; for i < j, B_(i,j) and B_(j,i) are the symmetric and
    antisymmetric combinations of |i><j| and |j><i| over sqrt(2). The matrix
    is unitary, and a Hermitian rho has real coordinates h_a = Tr[B_a rho]
    with Tr[rho] = sum_i h_(i,i).
    """
    basis = np.zeros((d, d, d, d), dtype=complex)
    r = 1.0 / np.sqrt(2.0)
    for i in range(d):
        basis[i, i, i, i] = 1.0
        for j in range(i + 1, d):
            basis[i, j, i, j] = basis[i, j, j, i] = r
            basis[j, i, i, j], basis[j, i, j, i] = -1j * r, 1j * r
    return basis.reshape(d * d, d * d)


def _coordinates(basis: np.ndarray, op) -> np.ndarray:
    """Real coordinates Tr[B_a op] of (the Hermitian part of) op."""
    return (np.asarray(op, dtype=complex).reshape(-1) @ basis.conj().T).real


@dataclass(frozen=True)
class RecordStep:
    """Per-outcome superoperators of one record step on row-major vec(rho).

    branches stacks (S_quiet, S_fire) for counting and (S0, S1, S2) for
    diffusive records; an outcome x (a 0/1 count or a current dY) selects a
    branch or weighs them by (1, dY, dY²). readout is the column r with
    vec(rho) @ r = Tr[R rho]: the jump probability, R = η κ dt c†c, or the
    homodyne mean, R = c + c†. gain is √(ηκ) (zero for counting).
    """

    mode: str
    dt: float
    gain: float
    branches: np.ndarray
    readout: np.ndarray

    @property
    def dim(self) -> int:
        return int(round(np.sqrt(self.readout.size)))

    def real_form(self):
        """(basis, G, g): for rho's basis coordinates h, h @ G[b] is S_b(rho) and h @ g is Tr[R rho]."""
        basis = _hermitian_basis(self.dim)
        real = basis @ self.branches.transpose(0, 2, 1) @ basis.conj().T
        return basis, real.real, (basis @ self.readout).real

    def combine(self, out: np.ndarray, x) -> np.ndarray:
        """Weigh branch blocks [B_0; B_1; ...] stacked along the first axis by outcome x.

        out has first axis n_branches * d²; x broadcasts against the rest.
        """
        d2 = self.readout.size
        x = np.asarray(x, dtype=float)
        if self.mode == "counting":
            return np.where(x > 0.5, out[d2:2 * d2], out[:d2])
        return out[:d2] + x * (out[d2:2 * d2] + x * out[2 * d2:])

    def superop(self, x) -> np.ndarray:
        """The unnormalized d²×d² map of one outcome (count or dY), or (n, d², d²) for n outcomes."""
        x = np.asarray(x, dtype=float)[..., None, None]
        return self.combine(np.concatenate(list(self.branches)), x)

    def draw(self, readout: np.ndarray, noise: np.ndarray) -> np.ndarray:
        """Outcomes from the pre-step readout and the caller's noise draws."""
        if self.mode == "counting":
            if np.any(readout > 1.0):
                raise ValueError("jump probability exceeded 1; reduce dt")
            return (noise < readout).astype(float)
        return self.gain * readout * self.dt + noise


def record_step(model, dt: float) -> RecordStep:
    """Build the record step of a MonitoringModel on a grid of spacing dt."""
    d = model.dim
    c = np.asarray(model.c, dtype=complex)
    kappa, eta = model.kappa, model.eta
    a = np.eye(d) + dt * model.gen.no_jump
    cc = sandwich_superop(c, c)
    quiet = sandwich_superop(a, a) + sum(dt * sandwich_superop(j, j) for j in model.unmonitored_jumps())
    quiet = quiet + (1.0 - eta) * kappa * dt * cc  # emissions the detector misses
    if model.mode == "counting":
        branches = np.stack([quiet, eta * kappa * dt * cc])
        readout = _vec_readout(eta * kappa * dt * c.conj().T @ c)
        gain = 0.0
    else:
        gain = float(np.sqrt(eta * kappa))
        branches = np.stack([
            quiet,
            gain * (sandwich_superop(c, a) + sandwich_superop(a, c)),
            eta * kappa * cc,
        ])
        readout = _vec_readout(c + c.conj().T)
    return RecordStep(model.mode, float(dt), gain, branches.astype(complex), readout.astype(complex))


def _sample_positions(steps: int, sample_indices) -> np.ndarray:
    pos = np.full(steps + 1, -1, dtype=np.int64)
    for out_i, s in enumerate(sample_indices):
        s = int(s)
        if not 0 <= s <= steps:
            raise ValueError(f"sample index {s} outside the 0..{steps} grid")
        if pos[s] >= 0:
            raise ValueError(f"duplicate sample index {s}")
        pos[s] = out_i
    return pos


_COLLAPSE = {
    "diffusive": "a trajectory collapsed to zero trace; reduce dt",
    "counting": "a record branch has zero weight; the record is infeasible",
}


def _paths(step: RecordStep, rho0, incr, from_record, sample_indices):
    """Filter a batch of trajectories; returns (sampled states, outcomes, readouts).

    Counting outcomes are int64 counts and carry no readouts (None). The
    batch is one (d², n_traj) coordinate block, a trajectory per column,
    stepped by one GEMM into a buffer allocated once: [G_0 | G_1 | G_2 | g]ᵀ
    weighed by (1, dY, dY²), or [G_quiet | g]ᵀ with G_fireᵀ applied only to
    the columns that fired. The diagonal coordinate rows sum to each trace.
    """
    incr = np.ascontiguousarray(incr, dtype=float)
    n, steps = incr.shape
    pos = _sample_positions(steps, sample_indices)
    d, d2 = step.dim, step.readout.size
    basis, real, g = step.real_form()
    counting = step.mode == "counting"
    gemm_t = np.vstack([*real[:1 if counting else 3].transpose(0, 2, 1), g])
    fire_t = real[-1].T.copy()
    cur, nxt = np.empty((2, len(gemm_t), n))
    cur[:d2] = _coordinates(basis, rho0)[:, None]
    states = np.zeros((n, len(sample_indices), d2), dtype=complex)
    outcomes = np.zeros((n, steps), dtype=np.int64 if counting else float)
    readouts = None if counting else np.zeros((n, steps))
    if pos[0] >= 0:
        states[:, pos[0]] = cur[:d2].T @ basis
    for k in range(steps):
        np.matmul(gemm_t, cur[:d2], out=nxt)
        x = incr[:, k] if from_record else step.draw(nxt[-1], incr[:, k])
        if counting:
            fired = np.flatnonzero(x > 0.5)
            if fired.size:
                nxt[:d2, fired] = fire_t @ cur[:d2, fired]
            cur, nxt = nxt, cur  # the quiet block already holds the new state
        else:
            cur[:d2] = step.combine(nxt[:-1], x)
        h = cur[:d2]
        tr = h[:: d + 1].sum(axis=0)
        if np.any(tr <= 0.0):
            raise ValueError(_COLLAPSE[step.mode])
        h /= tr
        outcomes[:, k] = x
        if readouts is not None:
            readouts[:, k] = nxt[-1]
        if pos[k + 1] >= 0:
            states[:, pos[k + 1]] = h.T @ basis
    return states.reshape(n, -1, d, d), outcomes, readouts


def homodyne_paths(step: RecordStep, rho0, incr, from_record, sample_indices):
    """Filter diffusive trajectories; returns (sampled states, dY, <c + c†>).

    incr (n_traj, steps) holds per-step dW draws, or recorded dY when
    from_record is true.
    """
    return _paths(step, rho0, incr, from_record, sample_indices)


def counting_paths(step: RecordStep, rho0, incr, from_record, sample_indices):
    """Filter jump trajectories; returns (sampled states, counts).

    incr (n_traj, steps) holds per-step uniform draws, or a recorded 0/1
    count sequence when from_record is true.
    """
    states, counts, _ = _paths(step, rho0, incr, from_record, sample_indices)
    return states, counts

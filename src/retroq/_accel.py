"""Record steps as superoperators on vec(rho), and the kernels that apply them.

A record step maps a state to its unnormalized post-record state. With the
row-major convention vec(X rho Y) = (X ⊗ Yᵀ) vec(rho), ``record_step``
builds the step of a (model, dt) as a few d²×d² matrices:

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
is a real matrix; a RecordStep builds this real form once, and
``MonitoringModel.record_step`` keeps one RecordStep per dt, so every pass
on a (model, dt) after the first reuses it. One kernel, ``_paths``, applies
every record step. It advances a step-major (|R|, n_traj) block over the
reachable coordinates R (below), a trajectory per column, with one GEMM
per step into a buffer allocated once, and applies the counting fire
branch only to the columns that fired. A column is a drawn trajectory or
one record of a batch, and every column starts from a shared start or its
own, an (n, d, d) stack. The backward passes of
``trajectories`` step the transposed real branches, which in an
orthonormal basis are the Hilbert-Schmidt adjoints S†, so forward and
backward are exact adjoints by construction. A backward pass knows its
whole record, so for one record on a sector of at most _BLOCKED_SECTOR
coordinates it runs blocked (``_blocked``): the running products of a
block of _BLOCK step matrices, formed by log-depth doubling, meet the
effect once per block instead of once per step. Doubling costs |R|³ per
step against the loop's |R|², so larger sectors run the loop of
``_paths``, and so does a batch of records, a record per column, which
shares each step's Python overhead. The caller draws the noise;
reductions across trajectories happen outside the kernels.

The kernel steps only the reachable sector of its start, ρ0 forward or E_f
backward, or of the union of its starts' supports: the coordinates that
some product of the branch matrices carries a start into, found from their
nonzero patterns (``_reachable``). Every
other coordinate is exactly 0.0 at every step, so slicing the branches, the
readout row and the basis rows to the sector changes nothing but the
summation order inside the GEMM. Symmetric models gain most: a count record
from a Fock state stays number-diagonal (d of d² coordinates), and a model
with real H, jumps and start stays real-symmetric (d(d+1)/2); a model with
no such symmetry steps all d². The sector lists its diagonal coordinates
first, so the trace is one contiguous sum. The per-trajectory columns of the
noise and outcomes are staged through contiguous (_BLOCK, n_traj) buffers,
one strided copy per block of steps instead of one per step. Sampled
coordinates stay real until the kernel returns, and become complex
matrices in one product.
"""

from __future__ import annotations

import importlib.util
from dataclasses import dataclass, field
from typing import NamedTuple

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
    """Real coordinates Tr[B_a op] of (the Hermitian part of) op, or of each op in a stack (..., d, d)."""
    op = np.asarray(op, dtype=complex)
    return (op.reshape(op.shape[:-2] + (-1,)) @ basis.conj().T).real


@dataclass(frozen=True)
class RecordStep:
    """Per-outcome superoperators of one record step on row-major vec(rho), and their real form.

    branches stacks (S_quiet, S_fire) for counting and (S0, S1, S2) for
    diffusive records; an outcome x (a 0/1 count or a current dY) selects a
    branch or weighs them by (1, dY, dY²). readout is the column r with
    vec(rho) @ r = Tr[R rho]: the jump probability, R = η κ dt c†c, or the
    homodyne mean, R = c + c†. gain is √(ηκ) (zero for counting).

    The real form is built once, at construction. It acts on a state's
    coordinates h in the orthonormal Hermitian basis whose rows vec(B_a)
    basis holds: h @ real[b] is S_b(rho) and h @ real_readout is Tr[R rho].
    """

    mode: str
    dt: float
    gain: float
    branches: np.ndarray
    readout: np.ndarray
    basis: np.ndarray = field(init=False, repr=False)
    real: np.ndarray = field(init=False, repr=False)
    real_readout: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        basis = _hermitian_basis(int(round(np.sqrt(self.readout.size))))
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "real", (basis @ self.branches.transpose(0, 2, 1) @ basis.conj().T).real)
        object.__setattr__(self, "real_readout", (basis @ self.readout).real)


def record_step(model, dt: float) -> RecordStep:
    """Build the record step of a MonitoringModel on a grid of spacing dt.

    ``MonitoringModel.record_step`` keeps what this builds, once per dt.
    """
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
    return RecordStep(model.mode, float(dt), gain, branches, readout)


def _sample_positions(steps: int, sample_indices) -> np.ndarray:
    """pos[s] = the output slot of grid index s, or -1 where s is not sampled."""
    idx = np.asarray(sample_indices, dtype=np.int64).reshape(-1)
    outside = (idx < 0) | (idx > steps)
    if outside.any():
        raise ValueError(f"sample index {idx[outside][0]} outside the 0..{steps} grid")
    pos = np.full(steps + 1, -1, dtype=np.int64)
    slots = np.arange(idx.size)
    pos[idx] = slots
    if not np.array_equal(pos[idx], slots):
        values, counts = np.unique(idx, return_counts=True)
        raise ValueError(f"duplicate sample index {values[counts > 1][0]}")
    return pos


_BLOCK = 32  # steps per staged block of record columns

_COLLAPSE = {
    "diffusive": "a trajectory collapsed to zero trace; reduce dt",
    "counting": "a record branch has zero weight; the record is infeasible",
    "adjoint": "effect collapsed to zero; record incompatible with the effect",
}


def _reachable(real: np.ndarray, start: np.ndarray):
    """The coordinate sector a record can reach from start, diagonal coordinates first.

    real stacks the branch matrices as the kernel applies them, new = G_b @ h;
    start is a start's coordinates, or the union of several starts' supports.
    The sector R is the closure of start's support under the union of their
    nonzero patterns, tested with != 0 and no tolerance: outside R every
    product that feeds a coordinate has a 0.0 factor, so the coordinate is
    exactly 0.0 at every step. Returns (R, number of diagonal coordinates in
    R); the diagonal coordinates a = i*d + i lead, so they sum to the trace
    as one contiguous slice.
    """
    pattern = (real != 0).any(axis=0)
    reach = start != 0
    size = np.count_nonzero(reach)
    while True:  # the sector only grows, so an unchanged size means closure
        reach = reach | (pattern @ reach)
        grown = np.count_nonzero(reach)
        if grown == size:
            break
        size = grown
    d = int(round(np.sqrt(start.size)))
    diagonal = np.zeros(start.size, dtype=bool)
    diagonal[:: d + 1] = True
    head = np.flatnonzero(reach & diagonal)
    return np.concatenate([head, np.flatnonzero(reach & ~diagonal)]), head.size


class _Sector(NamedTuple):
    """A kernel's operands on the reachable sector R of its start (``_reachable``)."""

    basis: np.ndarray  # rows vec(B_a) for a in R
    real: np.ndarray  # branch matrices on R, oriented as applied: new = real[b] @ h
    readout: np.ndarray  # the readout row g on R
    start: np.ndarray  # the start's coordinates on R, (|R|,), or (n, |R|) for a start per column
    diagonal: int  # number of leading diagonal coordinates
    adjoint: bool  # effects stepped by S_b†, or states by S_b


def _on_sector(step: RecordStep, start, adjoint=False) -> _Sector:
    """Slice the real form of step to the sector start reaches: ρ0 forward, E_f with adjoint set.

    start is one operator (d, d) or a stack (n, d, d), one per column; a
    stack's sector is the closure of the union of its supports.
    """
    real = step.real if adjoint else step.real.transpose(0, 2, 1)
    h = _coordinates(step.basis, start)
    sector, nd = _reachable(real, (h != 0).reshape(-1, h.shape[-1]).any(axis=0))
    return _Sector(step.basis[sector], real[:, sector[:, None], sector], step.real_readout[sector],
                   h[..., sector], nd, adjoint)


def _to_matrices(coords: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Complex matrices of real sector coordinates (..., |R|), in one real product.

    Each basis column has at most two nonzeros, one real and one imaginary,
    so each part of each entry is a single product: the same numbers a
    complex product would give, without a complex copy of coords.
    """
    out = np.empty(coords.shape[:-1] + basis.shape[1:], dtype=complex)
    np.matmul(coords, basis.view(float), out=out.view(float))
    d = int(round(np.sqrt(basis.shape[1])))
    return out.reshape(coords.shape[:-1] + (d, d))


def _paths(step: RecordStep, sec: _Sector, incr, from_record, sample_indices):
    """Filter a batch of trajectories; returns (sampled states, outcomes).

    Outcomes are drawn from incr, which is left as it is (a count fires when
    its uniform draw is below the pre-step jump probability, a current is
    dY = √(ηκ) <c + c†> dt + dW), or are incr itself when from_record is
    true; counts are int64. The batch is one (|R|, n_traj)
    coordinate block over the reachable sector R of the start (``_on_sector``),
    a trajectory per column from a shared start or its own, stepped by one
    GEMM into a buffer allocated
    once: [G_0 | G_1 | G_2 | g]ᵀ weighed by (1, dY, dY²), or [G_quiet | g]ᵀ
    with G_fireᵀ applied only to the columns that fired, each sliced to R.
    The leading diagonal coordinate rows sum to each trace, which divides
    each new state. Columns of incr and outcomes pass through contiguous
    (_BLOCK, n_traj) buffers, copied once per block of steps. Sampled
    coordinates are kept real and become matrices once, after the loop.

    On an adjoint sector, the block holds effects and every branch matrix is
    its transpose, which in an orthonormal basis is its Hilbert-Schmidt
    adjoint: a step is E -> S_b†(E). Each effect is divided by its Euclidean
    norm, its Frobenius norm, as the trace would vanish for a valid
    traceless effect such as σz.
    """
    incr = np.ascontiguousarray(incr, dtype=float)
    n, steps = incr.shape
    pos = _sample_positions(steps, sample_indices).tolist()
    r, nd = len(sec.basis), sec.diagonal
    counting = step.mode == "counting"
    gemm = np.vstack([*sec.real[:1 if counting else 3], sec.readout])
    fire = sec.real[-1]
    cur, nxt = np.empty((2, len(gemm), n))
    cur[:r] = np.atleast_2d(sec.start).T
    coords = np.empty((n, len(sample_indices), r))
    dtype = np.int64 if counting else float
    outcomes = incr.astype(dtype) if from_record else np.empty((n, steps), dtype=dtype)
    block = min(_BLOCK, steps)
    staged_in = np.empty((block, n))
    staged_out = None if from_record else np.empty((block, n), dtype=dtype)
    if pos[0] >= 0:
        coords[:, pos[0]] = cur[:r].T
    for k0 in range(0, steps, _BLOCK):
        b = min(_BLOCK, steps - k0)
        np.copyto(staged_in[:b], incr[:, k0:k0 + b].T)
        for j in range(b):
            h = cur[:r]
            np.matmul(gemm, h, out=nxt)
            u = staged_in[j]
            x = u if from_record else staged_out[j]  # drawn in place unless the record is given
            if counting and not from_record:
                if nxt[-1].max() > 1.0:
                    raise ValueError("jump probability exceeded 1; reduce dt")
                np.less(u, nxt[-1], out=x)
            elif not from_record:
                np.add(step.gain * nxt[-1] * step.dt, u, out=x)
            if counting:
                fired = x.nonzero()[0]
                if fired.size:
                    nxt[:r, fired] = fire @ h[:, fired]
                cur, nxt = nxt, cur  # the quiet block already holds the new state
                h = cur[:r]
            else:  # h = G_0 h + x (G_1 h + x G_2 h), in the GEMM's buffer
                w = nxt[2 * r:-1]
                w *= x
                w += nxt[r:2 * r]
                w *= x
                np.add(nxt[:r], w, out=h)
            scale = np.hypot.reduce(h) if sec.adjoint else np.add.reduce(h[:nd])
            if not scale.min() > 0.0:
                raise ValueError(_COLLAPSE["adjoint" if sec.adjoint else step.mode])
            h /= scale
            if pos[k0 + j + 1] >= 0:
                coords[:, pos[k0 + j + 1]] = h.T
        if not from_record:
            outcomes[:, k0:k0 + b] = staged_out[:b].T
    return _to_matrices(coords, sec.basis), outcomes


_BLOCKED_SECTOR = 16  # largest sector whose backward pass runs blocked (crossover near 21)
_STAGE = 8 * _BLOCK  # steps whose matrices are built and doubled together, 0.5 MB at |R| = 16


def _blocked(step: RecordStep, sec: _Sector, incr) -> np.ndarray:
    """The adjoint pass of ``_paths`` over one record, a block of _BLOCK steps per iteration.

    Returns the effects after each step of incr, which the caller reverses.
    The step matrices M_k (G_0 + x (G_1 + x G_2) at a current x, or the
    branch a count selects) of a stage of blocks are built in one
    expression, each scaled by an exact power of two to a largest entry in
    [1/2, 1), and padded with identities to whole blocks. Within each block
    log-depth doubling (P[s:] = P[s:] @ P[:-s], s = 1, 2, 4, ...) turns them
    into running products M_k ⋯ M_0. A block then costs one product with
    its starting effect, one Frobenius normalization of every column, and
    the hand-off of the last one. Normalization is scale-free, so the
    effects are the loop's up to rounding. A product of _BLOCK scaled
    matrices has entries below |R|^_BLOCK, far inside the double range; a
    step matrix that itself overflows raises, and a product that
    underflows to zero raises as a collapsed effect.
    """
    r, steps = len(sec.basis), incr.size
    padded = -(-steps // _BLOCK) * _BLOCK
    coords = np.empty((padded // _BLOCK, _BLOCK, r))
    h = sec.start
    for s0 in range(0, padded, _STAGE):
        x = incr[s0:s0 + _STAGE]
        m = np.empty((min(_STAGE, padded - s0), r, r))
        if step.mode == "counting":
            m[:x.size] = sec.real[x]
        else:
            xs = x[:, None, None]
            m[:x.size] = sec.real[0] + xs * (sec.real[1] + xs * sec.real[2])
        m[x.size:] = np.eye(r)
        if not np.isfinite(m).all():
            raise ValueError("a record step overflowed; the record's increments are too large")
        _, e = np.frexp(np.abs(m).max(axis=(1, 2)))
        np.ldexp(m, -e[:, None, None], out=m)
        p = m.reshape(-1, _BLOCK, r, r)
        s = 1
        while s < _BLOCK:
            p[:, s:] = p[:, s:] @ p[:, :-s]
            s *= 2
        for prod, u in zip(p, coords[s0 // _BLOCK:]):
            np.matmul(prod, h, out=u)
            scale = np.hypot.reduce(u, axis=1)
            if not scale.min() > 0.0:
                raise ValueError(_COLLAPSE["adjoint"])
            u /= scale[:, None]
            h = u[-1]
    return _to_matrices(coords.reshape(padded, r)[:steps], sec.basis)


def _backward_effects(step: RecordStep, ef, incr) -> np.ndarray:
    """Effects after each adjoint step over incr, (n, steps) reversed records, from E_f; (n, steps, d, d).

    One record on a sector of at most _BLOCKED_SECTOR coordinates runs
    ``_blocked``; larger sectors and batches run the loop of ``_paths``, a
    record per column. Doubling costs |R|³ per step where the loop's
    matrix-vector product costs |R|², and the loop's Python overhead per
    step stops mattering once |R|² is large or is shared by a batch.
    """
    sec = _on_sector(step, ef, adjoint=True)
    n, steps = incr.shape
    if n == 1 and len(sec.basis) <= _BLOCKED_SECTOR:
        return _blocked(step, sec, incr[0])[None]
    return _paths(step, sec, incr, True, range(1, steps + 1))[0]


def homodyne_paths(step: RecordStep, rho0, incr, from_record, sample_indices):
    """Filter diffusive trajectories; returns (sampled states, dY).

    rho0 is one state or a stack (n_traj, d, d), a start per trajectory.
    incr (n_traj, steps) holds per-step dW draws, or recorded dY when
    from_record is true.
    """
    return _paths(step, _on_sector(step, rho0), incr, from_record, sample_indices)


def counting_paths(step: RecordStep, rho0, incr, from_record, sample_indices):
    """Filter jump trajectories; returns (sampled states, counts).

    rho0 is one state or a stack (n_traj, d, d), a start per trajectory.
    incr (n_traj, steps) holds per-step uniform draws, or recorded 0/1
    count sequences when from_record is true.
    """
    return _paths(step, _on_sector(step, rho0), incr, from_record, sample_indices)

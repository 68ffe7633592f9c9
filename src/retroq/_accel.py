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
on a (model, dt) after the first reuses it. Every kernel holds a batch
over the reachable coordinates R (below), a trajectory per column. A
column is a drawn trajectory or one record of a batch, and every column
starts from a shared start or its own, an (n, d, d) stack. The loop
``_paths`` advances a step-major (|R|, n_traj) block with one GEMM per
step into a buffer allocated once, and applies the counting fire branch
only to the columns that fired; it runs diffusive passes forward and
every adjoint batch. A record step is linear in the state, the linear
filter of Wiseman & Milburn (Quantum Measurement and Control, ch. 4), so
the loop steps unnormalized states and divides each column by its trace
(adjoint: its Frobenius norm) once per block of _BLOCK steps, which only
keeps numbers in range; a drawn current reads its drift as the ratio of
two more GEMM rows, the readout and the trace. Forward counting passes
run ``_quiet_runs``: between clicks the filter applies the one matrix
S_quiet, so its powers over a block of _BLOCK steps are built once per
call, and a block costs a few products per set of columns instead of a
Python iteration per step.
The backward passes of ``trajectories`` step the transposed real branches,
which in an orthonormal basis are the Hilbert-Schmidt adjoints S†, so
forward and backward are exact adjoints by construction. A backward pass
knows its whole record, so for one record on a sector of at most
_BLOCKED_SECTOR coordinates it runs blocked (``_blocked``): the running
products of a block of _BLOCK step matrices, formed by log-depth
doubling, meet the effect once per block instead of once per step.
Doubling costs |R|³ per step against the loop's |R|², so larger sectors
run the loop of ``_paths``, and so does a batch of records, a record per
column, which shares each step's Python overhead. Quiet runs run adjoint
measured slower than both adjoint routes, so backward passes keep them.
The caller draws the noise; reductions across trajectories happen
outside the kernels.

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
first, so the trace is one contiguous sum. The loop stages the
per-trajectory columns of the noise and outcomes through contiguous
(_BLOCK, n_traj) buffers, one strided copy per block of steps instead of
one per step. Sampled
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
_OVERFLOW = "a record step overflowed; the record's increments are too large"


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
    """Filter a batch of trajectories, normalizing once per block; returns (sampled states, outcomes).

    Runs diffusive records forward, drawn or given, and every adjoint batch
    (forward counts run ``_quiet_runs``). Outcomes are drawn from incr,
    which is left as it is (a current is dY = √(ηκ) <c + c†> dt + dW), or
    are incr itself when from_record is true; counts are int64. The batch
    is one (|R|, n_traj) coordinate block over the reachable sector R of
    the start (``_on_sector``), a trajectory per column from a shared start
    or its own, stepped by one GEMM into a buffer allocated once:
    [G_0 | G_1 | G_2 | √(ηκ) dt g | 1_diag]ᵀ, each sliced to R, whose first
    three blocks are weighed by (1, dY, dY²). The step is linear, so the
    loop steps unnormalized states ρ̃, and a drawn current is the ratio of
    the last two rows plus dW: its drift √(ηκ) dt Tr[(c + c†)ρ̃] / Tr[ρ̃]
    needs no normalized state. Each column is divided by its trace once per
    block of _BLOCK steps, which only keeps numbers in range; the block
    scales multiply to Π_k Tr_k, the per-step traces. Simulation and
    replay run the same GEMM operand, so replay reproduces simulation bit
    for bit. Columns of incr and outcomes pass through contiguous
    (_BLOCK, n_traj) buffers, copied once per block of steps. Sampled
    coordinates are kept real and unnormalized, each is divided by its own
    trace after the loop, and they become matrices once.

    On an adjoint sector, the block holds effects and every branch matrix is
    its transpose, which in an orthonormal basis is its Hilbert-Schmidt
    adjoint: a step is E -> S_b†(E), by [G_0 | G_1 | G_2]ᵀ, or by G_quiet
    with G_fireᵀ applied only to the columns that fired. Effects are
    divided by their Euclidean norm, their Frobenius norm, as the trace
    would vanish for a valid traceless effect such as σz.

    Growth compounds over a block, so a floating-point overflow raises, and
    so do a zero divisor (a collapsed state or effect) and a block that
    ends non-finite: the kernel never returns inf or nan.
    """
    incr = np.ascontiguousarray(incr, dtype=float)
    n, steps = incr.shape
    pos = _sample_positions(steps, sample_indices).tolist()
    r, nd = len(sec.basis), sec.diagonal
    counting = step.mode == "counting"
    collapse = _COLLAPSE["adjoint" if sec.adjoint else step.mode]
    rows = [*sec.real[:1 if counting else 3]]
    if not sec.adjoint:
        rows += [step.gain * step.dt * sec.readout, np.repeat([1.0, 0.0], [nd, r - nd])]
    gemm = np.vstack(rows)
    fire = sec.real[-1]
    h = np.empty((r, n))
    h[:] = np.atleast_2d(sec.start).T
    nxt = np.empty((len(gemm), n))
    q0, q1, q2 = nxt[:r], nxt[r:2 * r], nxt[2 * r:3 * r]
    drift, trace = nxt[-2], nxt[-1]  # read only forward, where they are the last two rows
    coords = np.empty((n, len(sample_indices), r))
    outcomes = incr.astype(np.int64 if counting else float) if from_record else np.empty((n, steps))
    block = min(_BLOCK, steps)
    staged_in = np.empty((block, n))
    staged_out = staged_in if from_record else np.empty((block, n))
    ins, outs = list(staged_in), list(staged_out)
    if pos[0] >= 0:
        coords[:, pos[0]] = h.T

    def fail(kind, _):  # a floating-point error in the loop names its cause
        raise ValueError(_OVERFLOW if kind == "overflow" else collapse)

    with np.errstate(over="call", divide="call", invalid="call", call=fail):
        for k0 in range(0, steps, _BLOCK):
            b = min(_BLOCK, steps - k0)
            np.copyto(staged_in[:b], incr[:, k0:k0 + b].T)
            for j in range(b):
                np.matmul(gemm, h, out=nxt)
                x = ins[j]
                if not from_record:  # the drawn current, in place
                    x = np.divide(drift, trace, out=outs[j])
                    x += ins[j]
                if counting:
                    fired = x.nonzero()[0]
                    if fired.size:
                        nxt[:, fired] = fire @ h[:, fired]
                    h, nxt = nxt, h  # the quiet block already holds the new state
                else:  # h = G_0 h + x (G_1 h + x G_2 h), in the GEMM's buffer
                    q2 *= x
                    q2 += q1
                    q2 *= x
                    np.add(q0, q2, out=h)
                if pos[k0 + j + 1] >= 0:
                    coords[:, pos[k0 + j + 1]] = h.T
            if not np.isfinite(h).all():
                raise ValueError(_OVERFLOW)
            scale = np.hypot.reduce(h) if sec.adjoint else np.add.reduce(h[:nd])
            if not scale.min() > 0.0:
                raise ValueError(collapse)
            h /= scale
            if not from_record:
                outcomes[:, k0:k0 + b] = staged_out[:b].T
        norms = np.hypot.reduce(coords, axis=-1) if sec.adjoint else np.add.reduce(coords[..., :nd], axis=-1)
        coords /= norms[..., None]
    return _to_matrices(coords, sec.basis), outcomes


def _quiet_runs(step: RecordStep, sec: _Sector, incr, from_record, sample_indices):
    """Filter count trajectories a block of quiet steps per product; returns (sampled states, counts).

    Between clicks every step applies the one matrix Q = S_quiet, so the
    powers Q^0..Q^_BLOCK on the sector are built once, each scaled by an
    exact power of two: the scale cancels in every ratio and trace
    division, and no product can overflow. A block of _BLOCK steps runs in
    three parts.

    - Every column takes Q^m h from its start state h at the block's
      sampled steps and its end only, in one product.
    - A column can click only where its record holds a count, or where its
      uniform lies below the top eigenvalue of R, which bounds every jump
      probability Tr[R ρ]. Those columns meet the stacked rows g Q^m and
      1_diag Q^m in one product, which gives a_m and τ_m, the jump
      probability and the trace after m quiet steps, both unnormalized:
      step m fires when u τ_m < a_m. A column that clicks takes F Q^c h at
      its first click c and runs on from there, with the others that
      clicked, each at its own step, until none clicks again.
    - Each run that starts at a click takes its quiet states up to its
      column's next click, in one product for the block, and they replace
      the first part's states after the click.

    Each state is divided by its trace, as in ``_paths``, so states are the
    per-step loop's to rounding, and so are the outcomes unless a uniform
    lies within rounding of its probability. A jump probability above 1
    always fires, so it is tested at clicks. A quiet branch that overflows
    and a taken branch of zero weight raise.
    """
    incr = np.ascontiguousarray(incr, dtype=float)
    n, steps = incr.shape
    pos = _sample_positions(steps, sample_indices)
    r, nd = len(sec.basis), sec.diagonal
    quiet, fire = sec.real
    powers = np.empty((_BLOCK + 1, r, r))
    powers[0] = np.eye(r)
    for m in range(_BLOCK):
        power = quiet @ powers[m]
        np.ldexp(power, -np.frexp(np.abs(power).max())[1], out=powers[m + 1])
    if not np.isfinite(powers).all():
        raise ValueError("a power of the quiet branch overflowed; reduce dt")
    rows = np.concatenate([sec.readout @ powers[:-1], powers[:-1, :nd].sum(axis=1)]).T  # a_m, then τ_m
    wide = powers.transpose(2, 0, 1).copy()  # h @ wide[:, m] = Q^m h
    fires = fire @ powers[:-1]  # F Q^c: a click after c quiet steps
    starts = range(0, steps, _BLOCK)
    if from_record:  # (blocks, n): may click in the block
        candidates = np.maximum.reduceat(incr, starts, axis=1).T > 0.0
    else:
        d = int(round(np.sqrt(step.readout.size)))
        top = np.linalg.eigvalsh(step.readout.reshape(d, d))[-1]
        candidates = np.minimum.reduceat(incr, starts, axis=1).T < top * (1.0 + 1e-9)

    def traced(states):  # each state divided by its trace, which must be positive
        trace = np.add.reduce(states[..., :nd], axis=-1)
        if trace.size and not trace.min() > 0.0:
            raise ValueError(_COLLAPSE["counting"])
        states /= trace[..., None]
        return states

    ahead = np.arange(_BLOCK)
    cur = np.empty((n, r))
    cur[:] = sec.start
    coords = np.empty((n, len(sample_indices), r))
    if pos[0] >= 0:
        coords[:, pos[0]] = cur
    outcomes = incr.astype(np.int64) if from_record else np.zeros((n, steps), dtype=np.int64)
    for k0, may in zip(starts, candidates):
        b = min(_BLOCK, steps - k0)
        listed = np.flatnonzero(pos[k0 + 1:k0 + b + 1] >= 0) + 1  # the block's sampled steps, then its end
        if not listed.size or listed[-1] != b:
            listed = np.append(listed, b)
        slots = pos[k0 + listed]
        cand = np.flatnonzero(may)
        h = cur[cand]
        states = traced((cur @ wide[:, listed].reshape(r, -1)).reshape(n, -1, r))
        coords[:, slots[slots >= 0]] = states[:, slots >= 0]
        cur[:] = states[:, -1]
        if not cand.size:
            continue
        u_blk = np.zeros((cand.size, 2 * _BLOCK))  # zero past the block's end, where no step is taken
        u_blk[:, :b] = incr[cand, k0:k0 + b]
        runs = []  # (candidate, step, state) at each click, the state after it
        idx, off = np.arange(cand.size), np.zeros(cand.size, dtype=np.int64)
        while idx.size:
            u = u_blk[idx[:, None], off[:, None] + ahead]
            if from_record:
                x = u != 0
            else:
                blk = h @ rows
                a, tau = blk[:, :_BLOCK], blk[:, _BLOCK:]
                x = u * tau < a
            x &= ahead < (b - off)[:, None]
            fi = np.flatnonzero(x.any(axis=1))
            if not fi.size:
                break
            first = x[fi].argmax(axis=1)
            if not from_record and (a[fi, first] > tau[fi, first]).any():
                raise ValueError("jump probability exceeded 1; reduce dt")
            idx, off = idx[fi], off[fi] + first + 1
            h = traced(np.matmul(fires[first], h[fi, :, None])[:, :, 0])
            if not from_record:
                outcomes[cand[idx], k0 + off - 1] = 1
            runs.append((idx, off, h))
            idx, h, off = idx[off < b], h[off < b], off[off < b]
        if not runs:
            continue
        idx, off, h = (np.concatenate(part) for part in zip(*runs))
        order = np.lexsort((off, idx))  # each run ends where its column's next run starts, or past the block
        idx, off, h = idx[order], off[order], h[order]
        stop = np.append(np.where(idx[1:] == idx[:-1], off[1:], b + 1), b + 1)
        quiet_steps = listed - off[:, None]
        jj, ll = np.nonzero((quiet_steps >= 0) & (listed < stop[:, None]))
        pick = quiet_steps[jj, ll]
        states = traced((h @ wide[:, :pick.max() + 1].reshape(r, -1)).reshape(len(h), -1, r)[jj, pick])
        at, slot = cand[idx[jj]], slots[ll]
        coords[at[slot >= 0], slot[slot >= 0]] = states[slot >= 0]
        end = ll == len(listed) - 1
        cur[at[end]] = states[end]
    return _to_matrices(coords, sec.basis), outcomes


_BLOCKED_SECTOR = 16  # largest sector whose backward pass runs blocked (crossover near 16)
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
    matrices has entries below |R|^_BLOCK, far inside the double range;
    a step matrix that itself overflows raises. An effect that vanishes is
    collapsed or underflowed under huge currents, so the record reruns on
    the loop of ``_paths``, whose error names which.
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
            with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below, by name
                m[:x.size] = sec.real[0] + xs * (sec.real[1] + xs * sec.real[2])
        m[x.size:] = np.eye(r)
        if not np.isfinite(m).all():
            raise ValueError(_OVERFLOW)
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
                return _paths(step, sec, incr[None], True, range(1, steps + 1))[0][0]
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
    """Filter jump trajectories, a block of quiet steps at a time; returns (sampled states, counts).

    rho0 is one state or a stack (n_traj, d, d), a start per trajectory.
    incr (n_traj, steps) holds per-step uniform draws, or recorded 0/1
    count sequences when from_record is true.
    """
    return _quiet_runs(step, _on_sector(step, rho0), incr, from_record, sample_indices)

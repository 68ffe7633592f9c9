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
S_quiet, so a trajectory jumps from one click candidate to the next by
precomputed powers of it, forming states only where it clicks or is sampled.
The backward passes of ``trajectories`` step the transposed real branches,
which in an orthonormal basis are the Hilbert-Schmidt adjoints S†, so
forward and backward are exact adjoints by construction. A backward pass
knows its whole record, so for one record on a sector of at most
_BLOCKED_SECTOR coordinates it runs blocked (``_blocked``): the running
products of a block of _BLOCK step matrices, formed by log-depth
doubling, meet the effect once per block instead of once per step.
Doubling costs |R|³ per step against the loop's |R|², so larger sectors
run the loop of ``_paths``, and so does a batch of records, a record per
column, which shares each step's Python overhead. A backward pass keeps
the effect at every step, so jumping between clicks would skip nothing.
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

from .algebra import eigenvalues, sandwich_superop

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
# Quiet steps a counting anchor may lie behind its column. A quiet step keeps at least (1 - p/2)² ≥ 1/4
# of a state's trace at a total jump probability p ≤ 1, so 4^-_RENEW of it stays inside the double range.
_RENEW = 8 * _BLOCK
_BUDGET = 1 << 17  # bytes of screened draws, or of sampled states, a counting pass holds at once

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


def _to_matrices(coords: np.ndarray, basis: np.ndarray, out=None) -> np.ndarray:
    """Complex matrices of real sector coordinates (..., |R|), in one real product, into out if given.

    Each basis column has at most two nonzeros, one real and one imaginary,
    so each part of each entry is a single product: the same numbers a
    complex product would give, without a complex copy of coords.
    """
    d = int(round(np.sqrt(basis.shape[1])))
    out = np.empty(coords.shape[:-1] + (d, d), dtype=complex) if out is None else out
    np.matmul(coords, basis.view(float), out=out.reshape(coords.shape[:-1] + basis.shape[1:]).view(float))
    return out


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
    """Filter count trajectories from one click candidate to the next; returns (sampled states, counts).

    Between clicks every step applies the one matrix Q = S_quiet, so a column
    whose anchor h, its state at its start, its latest click or its latest
    renewal, lies m steps back is Q^m h. Q^m = Q^(_BLOCK j) Q^i for
    m = _BLOCK j + i, from two ladders scaled by exact powers of two, which
    cancel in every ratio and trace division; ``advance`` applies them with
    one product per factor in use. A column's anchor is renewed, Q^m h over
    its trace, once it lies _RENEW steps back with no click between, so m
    never exceeds _RENEW and the ladders do not grow with the record.

    A column can click only at a candidate: where its record holds a count,
    or where its uniform lies below the top eigenvalue of R, which bounds
    every jump probability Tr[R ρ]. Each round reads a and τ, the jump
    probability and the trace m steps on, both unnormalized, for every
    column's candidates within _RENEW steps of its anchor, from precomputed
    rows g Q^m and 1_diag Q^m, and a candidate fires when u τ < a. A
    column's first firing candidate moves its anchor to F Q^m h over its
    trace; one that does not fire changes no state. A replay's candidates
    are its clicks, which all fire, so it moves and renews its anchors where
    its simulation did, in the same rounds, and repeats it bit for bit.
    Sampled states, and each column's end state, are read from the last
    anchor at or before them. The screen for candidates and the sampled
    states take _BUDGET bytes at a time.

    States are the per-step loop's to rounding, and so are the outcomes
    unless a uniform lies within rounding of its probability. A firing jump
    probability above 1 raises, as do a power of Q that overflows and a
    taken branch of zero weight.
    """
    incr = np.ascontiguousarray(incr, dtype=float)
    n, steps = incr.shape
    _sample_positions(steps, sample_indices)  # checks the indices
    grid = np.append(np.asarray(sample_indices, dtype=np.int64).reshape(-1), steps)  # each end is checked too
    r, nd = len(sec.basis), sec.diagonal
    d = int(round(np.sqrt(step.readout.size)))
    quiet, fire = sec.real

    def ladder(base, size):  # base^0..base^size, each scaled to a largest entry in [1/2, 1)
        rungs = [np.eye(r)]
        for _ in range(size):
            power = rungs[-1] @ base
            rungs.append(np.ldexp(power, -np.frexp(np.abs(power).max())[1]))
        return np.array(rungs)

    powers = ladder(quiet.T, _BLOCK)  # (Q^i)ᵀ: a row h @ powers[i] is Q^i h
    if not np.isfinite(powers).all():
        raise ValueError("a power of the quiet branch overflowed; reduce dt")
    strides = ladder(powers[-1], _RENEW // _BLOCK)  # (Q^(_BLOCK j))ᵀ, finite as products of finite rungs

    def advance(h, m):  # Q^m h for each row of h, at its own m
        done = np.arange(len(h))  # the rows of h in the order they are stepped
        for factors, which in ((powers, m % _BLOCK), (strides, m // _BLOCK)):
            which = which.astype(np.uint8).take(done)
            order = np.argsort(which, kind="stable")  # a radix sort on small integers
            done = done.take(order)
            which = which.take(order)
            h = h.take(order, axis=0)
            out = np.empty_like(h)
            cuts = [0, *(np.flatnonzero(np.diff(which)) + 1).tolist(), len(h)]
            for a, b in zip(cuts, cuts[1:]):
                np.matmul(h[a:b], factors[which[a]], out=out[a:b])
            h = out
        back = np.empty_like(done)
        back[done] = np.arange(len(h))
        return h.take(back, axis=0)

    def traced(states):  # each state divided by its trace, which must be positive
        trace = np.add.reduce(states[..., :nd], axis=-1, keepdims=True)
        if not (trace > 0.0).all():
            raise ValueError(_COLLAPSE["counting"])
        return np.divide(states, trace, out=states)

    if from_record:
        outcomes = incr.astype(np.int64)
        test, edge = np.greater, 0.0
    else:
        outcomes = np.zeros((n, steps), dtype=np.int64)
        test, edge = np.less, eigenvalues(step.readout.reshape(d, d))[-1] * (1.0 + 1e-9)
        lead = strides[:-1] @ np.stack([sec.readout, np.repeat([1.0, 0.0], [nd, r - nd])], axis=1)
        probes = (powers[None, :-1] @ lead[:, None]).reshape(_RENEW, r, 2)  # [(Q^m)ᵀ g, (Q^m)ᵀ 1_diag]
    chunk = max(1, _BUDGET // max(steps, 1))  # rows whose screen fits the budget
    flat = np.concatenate([np.flatnonzero(test(incr[c0:c0 + chunk], edge)) + c0 * steps
                           for c0 in range(0, n, chunk)])
    col, k = np.divmod(flat, max(steps, 1))  # candidates by column, then step
    u = incr.ravel().take(flat)

    anchor = np.broadcast_to(sec.start, (n, r)).copy()
    since = np.zeros(n, dtype=np.int64)  # each anchor's grid index
    history = [(np.arange(n) * (steps + 1), anchor.copy())]  # (column·(steps + 1) + grid index, state) of each anchor
    while True:
        m = k - since[col]
        near = np.flatnonzero(m < _RENEW)  # candidates before their column's renewal
        if not from_record:
            a, tau = np.einsum("crp,cr->pc", probes.take(m[near], axis=0), anchor.take(col[near], axis=0))
            fires = u[near] * tau < a
            near, a, tau = near[fires], a[fires], tau[fires]
        heads = np.diff(col[near], prepend=-1) != 0  # each column's first firing candidate
        if not from_record and (a[heads] > tau[heads]).any():
            raise ValueError("jump probability exceeded 1; reduce dt")
        first = near[heads]
        at = col[first]
        due = since + _RENEW < steps  # no click before the renewal, and steps left after it
        due[at] = False
        moved = np.concatenate([at, np.flatnonzero(due)])
        if not moved.size:
            break
        new = advance(anchor[moved], np.concatenate([m[first], np.full(moved.size - at.size, _RENEW)]))
        new[:at.size] = new[:at.size] @ fire.T
        anchor[moved] = traced(new)
        when = np.concatenate([k[first] + 1, since[due] + _RENEW])
        since[col] = steps + 1  # a column that neither fires nor is renewed now never will
        since[moved] = when
        outcomes[at, k[first]] = 1  # already set on a replay
        history.append((moved * (steps + 1) + when, anchor[moved]))
        keep = k >= since[col]
        col, k, u = col[keep], k[keep], u[keep]

    key, state = (np.concatenate(part) for part in zip(*history))
    del history
    order = np.argsort(key)
    key = key.take(order)
    state = state.take(order, axis=0)
    states = np.empty((n, len(sample_indices), d, d), dtype=complex)
    batch = max(1, _BUDGET // (8 * r * grid.size))
    for c0 in range(0, n, batch):  # each sampled state from the last anchor at or before it
        cols = np.arange(c0, min(n, c0 + batch))
        points = np.tile(grid, cols.size)
        last = np.searchsorted(key, np.repeat(cols, grid.size) * (steps + 1) + points, "right") - 1
        coords = traced(advance(state[last], points - key[last] % (steps + 1))).reshape(cols.size, grid.size, r)
        _to_matrices(coords[:, :len(sample_indices)], sec.basis, out=states[c0:c0 + batch])
    return states, outcomes


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
    """Filter jump trajectories from one click candidate to the next; returns (sampled states, counts).

    rho0 is one state or a stack (n_traj, d, d), a start per trajectory.
    incr (n_traj, steps) holds per-step uniform draws, or recorded 0/1
    count sequences when from_record is true.
    """
    return _quiet_runs(step, _on_sector(step, rho0), incr, from_record, sample_indices)

"""Stochastic unravellings and their backward passes.

Forward filtering (diffusive homodyne or photon counting) conditions the
state on a measurement record; the backward pass conditions an effect on
the same record. Per-step renormalization keeps both well scaled and drops
out of every conditional probability, so the smoothed distributions from a
simulated pair equal the exact Bayesian retrodiction of the discretized
model wherever that retrodiction is enumerable.

Every pass reads one record-step object (``_accel.record_step``), which
the model builds once per dt and keeps (``MonitoringModel.record_step``).
The forward filter, replay and the ensembles share one body (``_filter``)
and their mode's forward kernel. This module draws the noise and the
kernels only apply the record steps: drawn passes (``_drawn``) take it
from one counter-based generator per seed and hold no (n_traj, steps)
array they do not return. Diffusive ensembles run in row blocks of at
most _ROW_BYTES per (rows, steps) float array, cut at multiples of
_ROW_CUT rows, and counting ones hand the kernel a ``Uniforms`` source,
which draws each row slice as the kernel's screen reads it. The
ensembles join the blocks; a scenario can reduce them one at a time
instead. The kernels step the real branch matrices:
the per-step loop ``_accel._paths`` for currents, and for counts
``_accel._quiet_runs``, which jumps each trajectory from one click
candidate to the next by precomputed powers of the no-click branch. A
replay runs the kernel of its simulation, and anchors where it clicked
and renewed, so it reproduces it bit for bit. The backward passes
step the transposes, the exact adjoints, over the reversed record: for
one record on a small coordinate sector a block of steps at a time
(``_accel._blocked``), where one step's work is too small to pay for a
Python iteration, and otherwise through the loop.

Replay and the backward passes take one record or a batch of same-grid
records, a ``MeasurementRecord`` with (n, steps) increments, and run the
batch in one kernel call, a record per column; the timelines they return
then have a leading record axis, (n, steps+1, d, d), which ``Timeline.at``,
``PqsPair.pairing_at`` and ``smoothed_probability`` carry through. Replay
takes one start or one per record. A batch row agrees with the single call
to rounding: only the summation order inside the products differs.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import _accel
from .algebra import (
    asoperator,
    asstack,
    dagger,
    eigenvalues,
    pairing,
    spectral_norm_hermitian,
    state_spectrum,
)
from .channels import Instrument
from .dynamics import Bath, LindbladGenerator, Timeline, _check_uniform, _grid, _grid_indices, _same_grid, _same_step
from .dynamics import _terminal_effect
from .retrodiction import BoundaryPair, abl_distribution

MODES = ("diffusive", "counting")


@dataclass(frozen=True, eq=False)
class MonitoringModel:
    """Open system with one monitored channel sqrt(kappa) c, detected at efficiency eta.

    The model builds its generator ``gen`` from its parts: the "monitor"
    bath sqrt(kappa) c first, then the unmonitored extra_baths in order, so
    the monitored channel is known by construction and never looked up.
    ``gen`` is kept outside repr, and so are the record steps, kept per dt
    (``record_step``); ``dataclasses.replace`` rebuilds ``gen`` and starts
    with no step. Like every frozen class here whose fields hold arrays, a
    model compares and hashes by identity. ``monitoring_model`` names this
    class.
    """

    hamiltonian: np.ndarray
    c: np.ndarray
    kappa: float
    eta: float = 1.0
    mode: str = "diffusive"
    extra_baths: tuple = ()
    gen: LindbladGenerator = field(init=False, repr=False)
    _steps: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode {self.mode!r} is not one of {MODES}")
        kappa, eta = float(self.kappa), float(self.eta)
        if not 0.0 < kappa < np.inf:  # before the square root, which would warn on a negative rate
            raise ValueError(f"monitored rate kappa={kappa!r} must be positive and finite")
        if not 0.0 <= eta <= 1.0:
            raise ValueError(f"efficiency eta={eta} must lie in [0, 1]")
        h, c, extra = asoperator(self.hamiltonian), asoperator(self.c), tuple(self.extra_baths)
        gen = LindbladGenerator(h, (Bath("monitor", (np.sqrt(kappa) * c,)),) + extra)
        for name, value in (("hamiltonian", h), ("c", c), ("kappa", kappa), ("eta", eta),
                            ("extra_baths", extra), ("gen", gen)):
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return self.gen.dim

    @property
    def x_c(self) -> np.ndarray:
        return self.c + dagger(self.c)

    def record_step(self, dt: float) -> _accel.RecordStep:
        """The record step on a grid of spacing dt (``_accel.record_step``), built once per grid step.

        A dt on the grid step of a kept one under ``_GRID_TOL``, as the ends
        of a grid sliced at an offset give, reads that step.
        """
        h = dt if dt in self._steps else _same_step(dt, self._steps)
        if h not in self._steps:
            self._steps[h] = _accel.record_step(self, h)
        return self._steps[h]

    def unmonitored_jumps(self) -> list:
        """The jumps of the extra baths, in order: every generator jump but the monitored channel."""
        return [j for b in self.extra_baths for j in b.jumps]


monitoring_model = MonitoringModel


@dataclass(frozen=True, eq=False)
class MeasurementRecord:
    """Uniform-grid record: real dY per step (diffusive) or 0/1 counts, stored as int8 (counting).

    increments (steps,) hold one record; (n, steps) hold a batch of n
    records on the same grid, one per row, which the replay and backward
    passes take in one call.
    """

    mode: str
    times: np.ndarray
    increments: np.ndarray

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode {self.mode!r} is not one of {MODES}")
        times = np.asarray(self.times, dtype=float)
        if times.ndim != 1 or times.size < 2:
            raise ValueError("record needs a grid of at least two times")
        _check_uniform(times, "record")
        if self.mode == "counting":
            incr = np.asarray(self.increments)
            if not np.isin(incr, (0, 1)).all():
                raise ValueError("counting increments must be 0 or 1")
            incr = incr.astype(np.int8)
        else:
            incr = np.asarray(self.increments, dtype=float)
            if not np.isfinite(incr).all():
                raise ValueError("record increments must be finite")
        if incr.ndim not in (1, 2) or incr.shape[-1] != times.size - 1:
            raise ValueError(
                f"need one increment per step, a row per record: shape {incr.shape} given, "
                f"{times.size - 1} steps"
            )
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "increments", incr)

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def steps(self) -> int:
        return self.times.size - 1


def _one_record(record: MeasurementRecord, operation: str) -> None:
    if record.increments.ndim != 1:
        raise ValueError(f"{operation} takes one record, not a batch of {record.increments.shape[0]}")


@dataclass(frozen=True)
class PqsPair:
    """Forward state timeline and backward effect timeline on one record, or on each of a batch."""

    states: Timeline
    effects: Timeline
    record: MeasurementRecord

    def __post_init__(self):
        if self.states.kind != "state" or self.effects.kind != "effect":
            raise ValueError("PqsPair wants a state timeline and an effect timeline")
        if not _same_grid(self.states.times, self.effects.times):
            raise ValueError("state and effect timelines live on different grids")
        if not _same_grid(self.states.times, self.record.times):
            raise ValueError("timelines do not match the record grid")
        batch = self.record.increments.shape[:-1]
        if self.states.mats.shape[:-3] != batch or self.effects.mats.shape[:-3] != batch:
            raise ValueError("timelines do not hold one row per record of the batch")

    def pairing_at(self, t):
        """Tr[E rho] at grid time t: a float, or an array over a batch of records."""
        return pairing(self.effects.at(t), self.states.at(t))


def _require_mode(model: MonitoringModel, mode: str, record=None) -> None:
    if model.mode != mode:
        raise ValueError(f"model mode is {model.mode!r}, operation needs {mode!r}")
    if record is not None and record.mode != mode:
        raise ValueError(f"record mode is {record.mode!r}, operation needs {mode!r}")


def _initial_state(model: MonitoringModel, rho0, n: int) -> np.ndarray:
    """rho0 as given, once it is checked to be a state, or a stack of n states, of the model's dimension."""
    rho = asstack(rho0)
    if rho.shape[-1] != model.dim:
        raise ValueError(f"state dimension {rho.shape[-1]} does not match model {model.dim}")
    if rho.ndim > 2 and rho.shape[:-2] != (n,):
        raise ValueError(f"initial states of shape {rho.shape} for {n} trajectories; "
                         "give one state or one per trajectory")
    state_spectrum(rho)
    return rho


def _warn_coarse(model: MonitoringModel, dt: float) -> None:
    if model.mode == "diffusive":
        rough = model.kappa * dt
    else:
        rough = dt * spectral_norm_hermitian(model.kappa * dagger(model.c) @ model.c)
    if rough > 0.1:
        warnings.warn(f"dt resolves the monitored rate poorly (kappa-scale*dt = {rough:.3f})")


def _resolve_samples(times: np.ndarray, sample_times) -> np.ndarray:
    """Grid indices of sample_times, or of 11 evenly spaced grid points when it is None."""
    if sample_times is None:
        return np.unique(np.linspace(0, times.size - 1, 11).round().astype(int))
    return _grid_indices(times, sample_times)


def _trajectory_count(n_traj) -> int:
    """n_traj as an int, once it is checked to be a whole number of at least 1 (1e4 passes)."""
    count = float(n_traj)
    if not (count >= 1.0 and count.is_integer()):
        raise ValueError(f"n_traj={n_traj!r} must be a whole number of at least 1")
    return int(count)


_ROW_BYTES = 32 << 20  # bytes of each (rows, steps) float array a drawn row block holds
_ROW_CUT = 64  # blocks are cut at multiples of this many rows, where GEMM columns keep their bits (``_drawn``)


def _row_blocks(n: int, steps: int) -> list:
    """Row slices of a drawn batch of n trajectories over steps steps, in row order.

    Each block but the last holds a multiple of _ROW_CUT rows whose
    (rows, steps) float arrays fit _ROW_BYTES; the last takes the rest,
    including the n % _ROW_CUT rows that would make a narrow block.
    """
    rows = max(1, _ROW_BYTES // (8 * steps * _ROW_CUT)) * _ROW_CUT
    starts = list(range(0, max(n - n % _ROW_CUT, 1), rows))
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


def _filter(model, step, rho, incr, from_record, sample_indices):
    """Run the mode's record kernel over a batch, a trajectory per row of incr; returns (states, outcomes)."""
    kernel = _accel.homodyne_paths if model.mode == "diffusive" else _accel.counting_paths
    return kernel(step, rho, incr, from_record, sample_indices)


@dataclass(frozen=True)
class Uniforms:
    """The uniform draws of an (n, steps) batch of count trajectories, made as they are read.

    It slices like the (n, steps) array it stands for: ``source[a:b]`` draws
    rows a..b-1 from noise now, and each slice must start where the last
    one stopped. ``_accel._quiet_runs`` reads each row once, in row order,
    so the draws are those of one ``noise.random(shape)`` call bit for bit,
    and it holds about ``_accel._BUDGET`` of them at a time.
    """

    noise: np.random.Generator
    shape: tuple

    def __getitem__(self, rows: slice) -> np.ndarray:
        start, stop, _ = rows.indices(self.shape[0])
        return self.noise.random((stop - start, self.shape[1]))


def _philox(seed) -> np.random.Generator:
    """The counter-based generator of a seed, a non-negative int or numpy integer.

    Every draw of the package starts here. A bool, float or str seed is
    refused by its type, not rounded or parsed.
    """
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed {seed!r} of type {type(seed).__name__} is not a non-negative integer")
    return np.random.Generator(np.random.Philox(seed))


def _drawn(model, rho0, horizon, dt, seed, n_traj=None, sample_times=None):
    """Filter trajectories drawn from seed, a row block at a time; returns (times, dt, n, blocks).

    The grid runs from 0 to horizon in steps of dt, and the outcomes are
    drawn from the mode's noise by a counter-based generator, so a seed
    pins every trajectory: dW ~ Normal(0, dt) per step for diffusive
    records, a uniform per step for counting ones, drawn as the kernel's
    screen slices them (``Uniforms``). A single path (n_traj None) keeps
    the state at every grid point, an ensemble of n_traj paths keeps it at
    sample_times (``_resolve_samples``); times are those of the kept states.
    rho0 is one state, or a stack with one state per trajectory.

    blocks yields (rows, states, draws, outcomes) for each row block in
    order, the rows a slice. Diffusive batches run in the blocks of
    ``_row_blocks``, each drawn from the one generator after the last, so
    the draws are one (n, steps) draw's bit for bit, and so is every
    trajectory: the kernel's GEMM computes a column alike in any block cut
    at a multiple of 8 columns, and no block is one column wide (a gemv).
    The one exception measured (OpenBLAS 0.3.31) is a batch's n % 8 last
    columns on a sector of 16 coordinates or more, when the whole batch's
    product and its last block's fall on two sides of the BLAS's
    small-matrix cut-off, near 10⁶ multiply-adds; they agree to rounding.
    So do blocks with per-trajectory starts, which step their own starts'
    sector. Counting batches run as one block: their uniforms are drawn as
    the kernel slices them (``Uniforms``), so no (n, steps) float
    array is held, and their kernel groups columns by their power of the
    quiet branch, which a block would regroup. The arguments are checked
    before the first block is drawn.
    """
    _warn_coarse(model, dt)
    times, h = _grid(0.0, horizon, dt)
    n, steps = 1 if n_traj is None else _trajectory_count(n_traj), times.size - 1
    idx = np.arange(times.size) if n_traj is None else _resolve_samples(times, sample_times)
    rho = _initial_state(model, rho0, n)
    step = model.record_step(h)
    noise = _philox(seed)

    def block(rows):  # holds nothing once it returns, so a block is freed as soon as its reader drops it
        shape = (rows.stop - rows.start, steps)
        draws = (noise.normal(0.0, np.sqrt(h), size=shape) if model.mode == "diffusive"
                 else Uniforms(noise, shape))
        states, outcomes = _filter(model, step, rho if rho.ndim == 2 else rho[rows], draws, False, idx)
        return rows, states, draws, outcomes

    return times[idx], h, n, map(block, _row_blocks(n, steps) if model.mode == "diffusive" else [slice(0, n)])


def _collect(n: int, blocks, fields) -> list:
    """The fields of each (rows, states, draws, outcomes) block of ``_drawn``, each joined into one (n, ...) array.

    fields indexes (states, draws, outcomes). A single block's arrays are
    returned as they are, without a copy; otherwise a block is dropped once
    it is copied, before the next is drawn.
    """
    whole = None
    for rows, *arrays in blocks:
        arrays = [arrays[f] for f in fields]
        if rows == slice(0, n):
            return arrays
        if whole is None:
            whole = [np.empty((n,) + a.shape[1:], a.dtype) for a in arrays]
        for i, out in enumerate(whole):
            out[rows] = arrays[i]
        del arrays
    return whole


def simulate_homodyne(model, rho0, horizon, dt, seed):
    """Kraus-form integration of the diffusive filtering equation.

    Returns the state timeline and the record of measured currents
    dY = sqrt(eta kappa) <X_c> dt + dW with dW ~ Normal(0, dt) drawn from
    a counter-based generator, so a seed pins the whole trajectory.
    """
    _require_mode(model, "diffusive")
    times, _, _, blocks = _drawn(model, rho0, horizon, dt, seed)
    ((_, states, _, dys),) = blocks
    return Timeline(times, states[0], "state"), MeasurementRecord("diffusive", times, dys[0])


def _replay(model, rho0, record: MeasurementRecord) -> Timeline:
    """States on the record's grid: (steps+1, d, d), or (n, steps+1, d, d) for a batch of n records.

    The mode's kernel filters a record per row and reads the model's record
    step for the record's dt, built on the first pass.
    """
    incr = np.atleast_2d(record.increments)
    states, _ = _filter(model, model.record_step(record.dt), _initial_state(model, rho0, len(incr)),
                        incr, True, np.arange(record.times.size))
    return Timeline(record.times, states if record.increments.ndim == 2 else states[0], "state")


def replay_homodyne(model, rho0, record: MeasurementRecord) -> Timeline:
    """Deterministically re-filter a stored record, or a batch of them, from a fresh initial state.

    rho0 is one state, or one per record of a batch.
    """
    _require_mode(model, "diffusive", record)
    return _replay(model, rho0, record)


def _backward(model, record: MeasurementRecord, effect_final) -> Timeline:
    """Effects E_k = S_k†(E_{k+1}): the record kernel run adjoint over the reversed record.

    A batch of n records returns (n, steps+1, d, d) effects, one row per
    record, from one call of the adjoint loop. One record on a sector of at
    most ``_accel._BLOCKED_SECTOR`` coordinates (any model at d <= 4, or a
    count record from a number-diagonal effect at any d) runs blocked, a
    block of steps per iteration, because one step's work there is too
    small to pay for a Python iteration. A larger one runs the per-step
    loop, as doubling's |R|³ per step would cost more than the loop's |R|²
    (``_accel._backward_effects``).
    """
    ef = _terminal_effect(effect_final, model.dim)
    incr = np.atleast_2d(record.increments)[:, ::-1]
    body = _accel._backward_effects(model.record_step(record.dt), ef, incr)[:, ::-1]
    body /= np.abs(eigenvalues(body)).max(axis=-1)[..., None, None]
    mats = np.concatenate([body, np.broadcast_to(ef, (len(body), 1) + ef.shape)], axis=1)
    return Timeline(record.times, mats if record.increments.ndim == 2 else mats[0], "effect")


def backward_homodyne(model, record: MeasurementRecord, effect_final) -> Timeline:
    """Backward effect pass conditioned on a homodyne record.

    Each step applies the exact adjoint of the forward Kraus step at the
    recorded current: E <- M(dY)† E M(dY) + (1-eta) kappa dt c†Ec plus the
    unmonitored sandwiches, all acting on the incoming effect. Entries are
    scaled to spectral norm 1; the terminal entry is the final effect itself.
    A batch of records gives one effect timeline per record.
    """
    _require_mode(model, "diffusive", record)
    return _backward(model, record, effect_final)


def _counting_ops(model: MonitoringModel, dt: float):
    """Kraus operators of one counting step in sandwich form (the oracle's route)."""
    flat = [j for b in model.gen.baths for j in b.jumps]
    kk = sum(dagger(j) @ j for j in flat)
    a0 = np.eye(model.dim) - (1j * model.gen.hamiltonian + 0.5 * kk) * dt
    a1 = np.sqrt(model.eta * model.kappa * dt) * model.c
    sjumps = [np.sqrt(dt) * j for j in model.unmonitored_jumps()]
    if model.eta < 1.0:  # undetected emissions join the quiet branch
        sjumps.append(np.sqrt((1.0 - model.eta) * model.kappa * dt) * model.c)
    return a0, a1, sjumps


def _counting_sandwich(ops, rho, fired) -> np.ndarray:
    """One oracle step per state of a stack (..., d, d): fire where its flag is 1, else quiet plus the other jumps."""
    a0, a1, sjumps = ops
    quiet = a0 @ rho @ dagger(a0)
    for j in sjumps:
        quiet = quiet + j @ rho @ dagger(j)
    return np.where(np.asarray(fired, dtype=bool)[..., None, None], a1 @ rho @ dagger(a1), quiet)


def simulate_counting(model, rho0, horizon, dt, seed):
    """Jump unravelling: fire with probability eta kappa Tr[c†c rho] dt per step.

    Undetected emissions, at rate (1 - eta) kappa, enter the quiet branch.
    """
    _require_mode(model, "counting")
    times, _, _, blocks = _drawn(model, rho0, horizon, dt, seed)
    ((_, states, _, counts),) = blocks
    return Timeline(times, states[0], "state"), MeasurementRecord("counting", times, counts[0])


def replay_counting(model, rho0, record: MeasurementRecord) -> Timeline:
    """Re-filter a stored count record, or a batch of them (the forward half of a PQS pair).

    rho0 is one state, or one per record of a batch.
    """
    _require_mode(model, "counting", record)
    return _replay(model, rho0, record)


def backward_counting(model, record: MeasurementRecord, effect_final) -> Timeline:
    """Backward effect pass on a count record.

    Jump steps apply eta kappa dt c†Ec, quiet steps the adjoint no-jump
    sandwich plus the undetected leak; entries are scaled to spectral norm
    1, which cancels in every smoothed probability. The terminal entry is
    the final effect itself. A batch of records gives one effect timeline
    per record.
    """
    _require_mode(model, "counting", record)
    return _backward(model, record, effect_final)


def smoothed_probability(pair: PqsPair, t, ins: Instrument) -> dict:
    """Conditional distribution of an instrument inserted at grid time t: floats, or arrays over a batch."""
    return abl_distribution(BoundaryPair(pair.states.at(t), pair.effects.at(t)), ins)


def record_log_likelihood(model, states: Timeline, record: MeasurementRecord) -> float:
    """Girsanov exponent of a diffusive record against a filtered state path.

    Returns -(1/2) sum_k (dY_k - sqrt(eta kappa) <X_c>_k dt)^2 / dt, up to
    a record-independent constant; only differences between models on the
    same grid are meaningful.
    """
    _one_record(record, "record_log_likelihood")
    dws = innovations(model, states, record)
    return float(-0.5 * np.sum(dws**2) / record.dt)


def innovations(model, states: Timeline, record: MeasurementRecord) -> np.ndarray:
    """Per-step innovation dW = dY - sqrt(eta kappa) <X_c> dt."""
    _require_mode(model, "diffusive", record)
    _one_record(record, "innovations")
    if not _same_grid(states.times, record.times):
        raise ValueError("state timeline does not match the record grid")
    xbars = pairing(model.x_c, states.mats[:-1])
    return record.increments - np.sqrt(model.eta * model.kappa) * xbars * record.dt


@dataclass(frozen=True, eq=False)
class CountingEnumeration:
    """Exact joint weights of every count record on a short grid."""

    model: MonitoringModel
    rho0: np.ndarray
    effect_final: np.ndarray
    dt: float
    steps: int
    weights: dict
    ops: tuple  # the step's Kraus operators in sandwich form (``_counting_ops``)

    def _records(self, increments) -> np.ndarray:
        """A record (steps,) or a batch (n, steps) as (n, steps), once its length and 0/1 entries are checked."""
        batch = np.atleast_2d(increments)
        if batch.ndim != 2 or batch.shape[1] != self.steps:
            raise ValueError(f"record length {batch.shape[-1]} does not match {self.steps} steps")
        if not np.isin(batch, (0, 1)).all():
            raise ValueError("counting increments must be 0 or 1")
        return batch

    def record_weight(self, increments) -> float:
        """Joint weight Tr[E_f K_record(rho0)] of one record (steps,)."""
        (bits,) = self._records(np.reshape(increments, (1, -1)))
        return self.weights[tuple(bits.tolist())]

    def conditional(self, increments, ins: Instrument) -> dict:
        """Exact retrodiction of ins inserted at every grid point of a record (steps,) or a batch (n, steps).

        Each outcome maps to (steps+1,) or (n, steps+1) probabilities: I_m of
        each prefix state, carried forward by sandwiches to E_f (forward only).
        """
        batch = self._records(increments)
        prefix = [np.broadcast_to(self.rho0, (len(batch),) + self.rho0.shape)]
        for k in range(self.steps):
            prefix.append(_counting_sandwich(self.ops, prefix[-1], batch[:, k]))
        states = np.stack(prefix, axis=1)
        branches = np.stack([ins.apply(m, states) for m in ins.outcomes])
        for k in range(self.steps):  # branches inserted at grid points 0..k take step k
            branches[:, :, :k + 1] = _counting_sandwich(self.ops, branches[:, :, :k + 1], batch[:, k, None])
        nums = dict(zip(ins.outcomes, pairing(self.effect_final, branches)))
        total = sum(nums.values())
        if np.any(total <= 0.0):
            raise ValueError("record has zero weight; retrodiction undefined")
        shape = np.shape(increments)[:-1] + (self.steps + 1,)
        return {m: (nums[m] / total).reshape(shape) for m in ins.outcomes}


def enumerate_counting(model, rho0, effect_final, steps, dt) -> CountingEnumeration:
    """Brute-force the 2^steps record weights Tr[E_f K_record(rho0)], 1 <= steps <= 10.

    Level k is one (2^k, d, d) stack of states in ``itertools.product`` order.
    """
    _require_mode(model, "counting")
    count, h = float(steps), float(dt)
    if not (count.is_integer() and 1 <= count <= 10):
        raise ValueError(f"steps={steps!r} must be a whole number from 1 to 10, the cap of 2^10 records")
    if not (np.isfinite(h) and h > 0.0):
        raise ValueError(f"dt={dt!r} must be finite and above 0")
    rho0 = _initial_state(model, asoperator(rho0), 1)
    ef = _terminal_effect(effect_final, model.dim)
    ops = _counting_ops(model, h)
    states = rho0[None]
    for _ in range(int(count)):
        states = _counting_sandwich(ops, states[:, None], [0, 1]).reshape((-1,) + rho0.shape)
    weights = dict(zip(itertools.product((0, 1), repeat=int(count)), pairing(ef, states).tolist()))
    return CountingEnumeration(model, rho0, ef, h, int(count), weights, ops)


@dataclass(frozen=True, eq=False)
class HomodyneEnsemble:
    """Sampled states, currents, and the drawn innovations dW of many trajectories.

    Each current is dY = sqrt(eta kappa) <X_c> dt + dW at the pre-step
    state the filter reports, so the draw it filtered is its innovation.
    """

    sample_times: np.ndarray
    states: np.ndarray  # (n_traj, n_samples, d, d)
    dys: np.ndarray  # (n_traj, steps)
    innovations: np.ndarray  # (n_traj, steps)
    dt: float


@dataclass(frozen=True, eq=False)
class CountingEnsemble:
    sample_times: np.ndarray
    states: np.ndarray
    counts: np.ndarray  # (n_traj, steps) int8
    dt: float

    def total_counts(self) -> np.ndarray:
        """Clicks per trajectory; the int8 counts sum as int64."""
        return self.counts.sum(axis=1)


def ensemble_homodyne(model, rho0, horizon, dt, n_traj, seed, sample_times=None):
    """Many diffusive trajectories, filtered a row block at a time and joined (``_drawn``)."""
    _require_mode(model, "diffusive")
    times, h, n, blocks = _drawn(model, rho0, horizon, dt, seed, n_traj, sample_times)
    states, dws, dys = _collect(n, blocks, (0, 1, 2))
    return HomodyneEnsemble(times, states, dys, dws, h)


def ensemble_counting(model, rho0, horizon, dt, n_traj, seed, sample_times=None):
    """Many jump trajectories filtered as one batch, their uniforms drawn as they are screened (``_drawn``)."""
    _require_mode(model, "counting")
    times, h, n, blocks = _drawn(model, rho0, horizon, dt, seed, n_traj, sample_times)
    states, counts = _collect(n, blocks, (0, 2))
    return CountingEnsemble(times, states, counts, h)


def pqs_summary_csv(pair: PqsPair, ins: Instrument, path) -> None:
    """Per-time pairing values and smoothed distributions, one row per grid point."""
    _one_record(pair.record, "pqs_summary_csv")
    labels = list(ins.outcomes)
    p = abl_distribution(BoundaryPair(pair.states.mats, pair.effects.mats), ins)
    pairs = pairing(pair.effects.mats, pair.states.mats)
    rows = np.column_stack([pair.states.times, pairs, *(p[m] for m in labels)]).astype(float).tolist()
    with open(path, "w") as fh:
        fh.write("time,pairing," + ",".join(f"p_{m}" for m in labels) + "\n")
        for row in rows:
            fh.write(",".join(map(repr, row)) + "\n")

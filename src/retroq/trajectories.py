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
and their mode's forward kernel, which steps the real branch matrices:
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
from .dynamics import Bath, LindbladGenerator, Timeline, _check_uniform, _grid, _grid_indices, _same_grid
from .dynamics import _terminal_effect
from .retrodiction import BoundaryPair, abl_distribution

MODES = ("diffusive", "counting")


@dataclass(frozen=True)
class MonitoringModel:
    """Open system with one designated monitored channel.

    The generator carries the monitored jump operator with weight
    sqrt(kappa) alongside any unmonitored baths; eta is the detection
    efficiency of the monitored channel. Record steps are kept per dt
    (``record_step``), outside comparison and repr, and a model made by
    ``dataclasses.replace`` starts with none.
    """

    gen: LindbladGenerator
    c: np.ndarray
    kappa: float
    eta: float
    mode: str
    _steps: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        c = asoperator(self.c)
        if self.mode not in MODES:
            raise ValueError(f"mode {self.mode!r} is not one of {MODES}")
        if self.kappa <= 0.0:
            raise ValueError("monitored rate kappa must be positive")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"efficiency eta={self.eta} must lie in [0, 1]")
        scaled = np.sqrt(self.kappa) * c
        flat = [j for b in self.gen.baths for j in b.jumps]
        if not any(np.allclose(j, scaled, atol=1e-12) for j in flat):
            raise ValueError(
                "the generator does not contain the monitored channel sqrt(kappa)*c"
            )
        object.__setattr__(self, "c", c)

    @property
    def dim(self) -> int:
        return self.gen.dim

    @property
    def x_c(self) -> np.ndarray:
        return self.c + dagger(self.c)

    def record_step(self, dt: float) -> _accel.RecordStep:
        """The record step on a grid of spacing dt (``_accel.record_step``), built once per dt."""
        step = self._steps.get(dt)
        if step is None:
            step = self._steps[dt] = _accel.record_step(self, dt)
        return step

    def unmonitored_jumps(self) -> list:
        """Every generator jump except one copy of the monitored channel."""
        scaled = np.sqrt(self.kappa) * self.c
        out, dropped = [], False
        for b in self.gen.baths:
            for j in b.jumps:
                if not dropped and np.allclose(j, scaled, atol=1e-12):
                    dropped = True
                    continue
                out.append(j)
        return out


def monitoring_model(hamiltonian, c, kappa, eta=1.0, mode="diffusive", extra_baths=()):
    """Assemble a MonitoringModel, giving the monitored channel its own bath."""
    if kappa <= 0.0:  # before the square root, which would warn on a negative rate
        raise ValueError("monitored rate kappa must be positive")
    cop = asoperator(c)
    monitor = Bath("monitor", (np.sqrt(kappa) * cop,))
    gen = LindbladGenerator(asoperator(hamiltonian), (monitor,) + tuple(extra_baths))
    return MonitoringModel(gen, cop, float(kappa), float(eta), mode)


@dataclass(frozen=True)
class MeasurementRecord:
    """Uniform-grid record: real dY per step (diffusive) or 0/1 counts.

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
            incr = incr.astype(np.int64)
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


def _filter(model, rho0, horizon=None, dt=None, seed=None, n_traj=None, sample_times=None, record=None):
    """Run the mode's record kernel; returns (times, dt, states, draws, outcomes).

    A record gives the grid and the outcomes. Otherwise the grid runs from 0
    to horizon in steps of dt and the outcomes are drawn from the mode's
    noise, which a counter-based generator draws from seed, so a seed pins
    every trajectory: dW ~ Normal(0, dt) per step for diffusive records, a
    uniform per step for counting ones. A single path (n_traj None) keeps
    the state at every grid point, an ensemble of n_traj paths keeps it at
    sample_times (``_resolve_samples``); times are those of the kept states.
    A batch record filters a trajectory per row; rho0 is one state, or a
    stack with one state per trajectory. Every call reads the model's
    record step for its dt, built on the first.
    """
    if record is None:
        _warn_coarse(model, dt)
        times, h = _grid(0.0, horizon, dt)
        shape = (1 if n_traj is None else _trajectory_count(n_traj), times.size - 1)
        noise = np.random.Generator(np.random.Philox(int(seed)))
        draws = (noise.normal(0.0, np.sqrt(h), size=shape) if model.mode == "diffusive"
                 else noise.random(size=shape))
    else:
        times, h, draws = record.times, record.dt, np.atleast_2d(record.increments)
    idx = np.arange(times.size) if n_traj is None else _resolve_samples(times, sample_times)
    kernel = _accel.homodyne_paths if model.mode == "diffusive" else _accel.counting_paths
    states, outcomes = kernel(
        model.record_step(h), _initial_state(model, rho0, len(draws)), draws, record is not None, idx
    )
    return times[idx], h, states, draws, outcomes


def simulate_homodyne(model, rho0, horizon, dt, seed):
    """Kraus-form integration of the diffusive filtering equation.

    Returns the state timeline and the record of measured currents
    dY = sqrt(eta kappa) <X_c> dt + dW with dW ~ Normal(0, dt) drawn from
    a counter-based generator, so a seed pins the whole trajectory.
    """
    _require_mode(model, "diffusive")
    times, _, states, _, dys = _filter(model, rho0, horizon, dt, seed)
    return Timeline(times, states[0], "state"), MeasurementRecord("diffusive", times, dys[0])


def _replay(model, rho0, record: MeasurementRecord) -> Timeline:
    """States on the record's grid: (steps+1, d, d), or (n, steps+1, d, d) for a batch of n records."""
    times, _, states, _, _ = _filter(model, rho0, record=record)
    return Timeline(times, states if record.increments.ndim == 2 else states[0], "state")


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
    times, _, states, _, counts = _filter(model, rho0, horizon, dt, seed)
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
    xc = model.x_c
    xbars = np.einsum("ij,kji->k", xc, states.mats[:-1]).real
    return record.increments - np.sqrt(model.eta * model.kappa) * xbars * record.dt


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class CountingEnsemble:
    sample_times: np.ndarray
    states: np.ndarray
    counts: np.ndarray  # (n_traj, steps)
    dt: float

    def total_counts(self) -> np.ndarray:
        return self.counts.sum(axis=1)


def ensemble_homodyne(model, rho0, horizon, dt, n_traj, seed, sample_times=None):
    """Many diffusive trajectories filtered as one batch."""
    _require_mode(model, "diffusive")
    times, h, states, dws, dys = _filter(model, rho0, horizon, dt, seed, n_traj, sample_times)
    return HomodyneEnsemble(times, states, dys, dws, h)


def ensemble_counting(model, rho0, horizon, dt, n_traj, seed, sample_times=None):
    """Many jump trajectories filtered as one batch."""
    _require_mode(model, "counting")
    times, h, states, _, counts = _filter(model, rho0, horizon, dt, seed, n_traj, sample_times)
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

"""Stochastic unravellings and their backward passes.

Forward filtering (diffusive homodyne or photon counting) conditions the
state on a measurement record; the backward pass conditions an effect on
the same record. Per-step renormalization keeps both well scaled and drops
out of every conditional probability, so the smoothed distributions from a
simulated pair equal the exact Bayesian retrodiction of the discretized
model wherever that retrodiction is enumerable.

Every pass reads one record-step object (``_accel.record_step``): the
forward filter, replay and the ensembles step it in the ``_accel`` kernels
(so a replay reproduces its simulation bit for bit), and the backward
passes run ``dynamics.flow`` over its maps' exact adjoints.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import _accel
from .algebra import (
    DEFAULT_TOL,
    asoperator,
    dagger,
    hermitian_part,
    hermiticity_defect,
    pairing,
    spectral_norm_hermitian,
    state_spectrum,
)
from .channels import Instrument
from .dynamics import Bath, LindbladGenerator, Timeline, _grid, flow
from .retrodiction import BoundaryPair, abl_distribution

MODES = ("diffusive", "counting")

# Byte budget for the step maps a backward pass holds at once: a 4000-step
# record at d = 8 would otherwise hold 262 MB of maps.
_STACK_BYTES = 1 << 22


@dataclass(frozen=True)
class MonitoringModel:
    """Open system with one designated monitored channel.

    The generator carries the monitored jump operator with weight
    sqrt(kappa) alongside any unmonitored baths; eta is the detection
    efficiency of the monitored channel.
    """

    gen: LindbladGenerator
    c: np.ndarray
    kappa: float
    eta: float
    mode: str

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
    """Uniform-grid record: real dY per step (diffusive) or 0/1 counts."""

    mode: str
    times: np.ndarray
    increments: np.ndarray
    seed: int
    kappa: float
    eta: float

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode {self.mode!r} is not one of {MODES}")
        times = np.asarray(self.times, dtype=float)
        if times.ndim != 1 or times.size < 2:
            raise ValueError("record needs a grid of at least two times")
        h = np.diff(times)
        if not np.allclose(h, h[0], rtol=1e-9, atol=1e-12) or h[0] <= 0:
            raise ValueError("record grid must be uniform and increasing")
        if self.mode == "counting":
            incr = np.asarray(self.increments)
            if not np.isin(incr, (0, 1)).all():
                raise ValueError("counting increments must be 0 or 1")
            incr = incr.astype(np.int64)
        else:
            incr = np.asarray(self.increments, dtype=float)
            if not np.isfinite(incr).all():
                raise ValueError("record increments must be finite")
        if incr.shape != (times.size - 1,):
            raise ValueError(
                f"need one increment per step: {incr.shape[0]} given, "
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

    def to_csv(self, path) -> None:
        """Header line mode,dt,steps,seed,kappa,eta, then one increment per line."""
        with open(path, "w") as fh:
            fh.write(f"{self.mode},{self.dt!r},{self.steps},{self.seed},")
            fh.write(f"{self.kappa!r},{self.eta!r}\n")
            for x in self.increments:
                fh.write(f"{int(x) if self.mode == 'counting' else repr(float(x))}\n")


def record_from_csv(path) -> MeasurementRecord:
    with open(path) as fh:
        head = fh.readline().strip().split(",")
        if len(head) != 6:
            raise ValueError("malformed record file: header needs 6 fields")
        mode, dt, steps, seed, kappa, eta = head
        vals = [float(line) for line in fh if line.strip()]
    dt, steps = float(dt), int(steps)
    if len(vals) != steps:
        raise ValueError(f"record file lists {len(vals)} increments, header says {steps}")
    return MeasurementRecord(
        mode, dt * np.arange(steps + 1), np.asarray(vals), int(seed), float(kappa), float(eta)
    )


@dataclass(frozen=True)
class PqsPair:
    """Forward state timeline and backward effect timeline on one record."""

    states: Timeline
    effects: Timeline
    record: MeasurementRecord

    def __post_init__(self):
        if self.states.kind != "state" or self.effects.kind != "effect":
            raise ValueError("PqsPair wants a state timeline and an effect timeline")
        if not np.allclose(self.states.times, self.effects.times, atol=1e-12):
            raise ValueError("state and effect timelines live on different grids")
        if not np.allclose(self.states.times, self.record.times, atol=1e-12):
            raise ValueError("timelines do not match the record grid")

    def pairing_at(self, t) -> float:
        k = self.states.index(t)
        return pairing(self.effects.mats[k], self.states.mats[k])


def _require_mode(model: MonitoringModel, mode: str, record=None) -> None:
    if model.mode != mode:
        raise ValueError(f"model mode is {model.mode!r}, operation needs {mode!r}")
    if record is not None and record.mode != mode:
        raise ValueError(f"record mode is {record.mode!r}, operation needs {mode!r}")


def _noise(seed: int):
    return np.random.Generator(np.random.Philox(int(seed)))


def _initial_state(model: MonitoringModel, rho0) -> np.ndarray:
    """rho0 as given, once it is checked to be a state of the model's dimension."""
    rho = asoperator(rho0)
    if rho.shape[0] != model.dim:
        raise ValueError(f"state dimension {rho.shape[0]} does not match model {model.dim}")
    state_spectrum(rho)
    return rho


def _warn_coarse(model: MonitoringModel, dt: float) -> None:
    if model.mode == "diffusive":
        rough = model.kappa * dt
    else:
        rough = dt * spectral_norm_hermitian(model.kappa * dagger(model.c) @ model.c)
    if rough > 0.1:
        warnings.warn(f"dt resolves the monitored rate poorly (kappa-scale*dt = {rough:.3f})")


def _sq(model: MonitoringModel) -> float:
    return float(np.sqrt(model.eta * model.kappa))


def simulate_homodyne(model, rho0, horizon, dt, seed):
    """Kraus-form integration of the diffusive filtering equation.

    Returns the state timeline and the record of measured currents
    dY = sqrt(eta kappa) <X_c> dt + dW with dW ~ Normal(0, dt) drawn from
    a counter-based generator, so a seed pins the whole trajectory.
    """
    _require_mode(model, "diffusive")
    _warn_coarse(model, dt)
    n, h = _grid(0.0, horizon, dt)
    dws = _noise(seed).normal(0.0, np.sqrt(h), size=(1, n))
    states, dys, _ = _accel.homodyne_paths(
        _accel.record_step(model, h), _initial_state(model, rho0), dws, False, range(n + 1)
    )
    times = h * np.arange(n + 1)
    record = MeasurementRecord("diffusive", times, dys[0], int(seed), model.kappa, model.eta)
    return Timeline(times, states[0], "state"), record


def replay_homodyne(model, rho0, record: MeasurementRecord) -> Timeline:
    """Deterministically re-filter a stored record from a fresh initial state."""
    _require_mode(model, "diffusive", record)
    states, _, _ = _accel.homodyne_paths(
        _accel.record_step(model, record.dt), _initial_state(model, rho0),
        record.increments[None, :], True, range(record.steps + 1),
    )
    return Timeline(record.times, states[0], "state")


def _backward(model, record: MeasurementRecord, effect_final) -> Timeline:
    """Effects E_k = S_k†(E_{k+1}): flow over the adjoint step maps, blocked under _STACK_BYTES.

    The Frobenius norm rescales each step, as the trace would vanish for a
    valid traceless effect such as σz.
    """
    ef = asoperator(effect_final)
    if ef.shape[0] != model.dim:
        raise ValueError(f"effect dimension {ef.shape[0]} does not match model {model.dim}")
    if hermiticity_defect(ef) > DEFAULT_TOL:
        raise ValueError("terminal effect is not Hermitian")
    step = _accel.record_step(model, record.dt)
    incr = record.increments[::-1]
    block = max(1, _STACK_BYTES // step.branches[0].nbytes)
    points = [ef[None]]
    for lo in range(0, incr.size, block):
        maps = step.superop(incr[lo:lo + block]).conj().transpose(0, 2, 1)
        mats, norms = flow(maps, points[-1][-1], lambda v: np.sqrt(np.vdot(v, v).real))
        if not np.all(norms > 0.0):
            raise ValueError("effect collapsed to zero; record incompatible with the effect")
        points.append(mats[1:])
    body = hermitian_part(np.concatenate(points[1:])[::-1])
    body /= np.abs(np.linalg.eigvalsh(body)).max(axis=1)[:, None, None]
    return Timeline(record.times, np.concatenate([body, ef[None]]), "effect")


def backward_homodyne(model, record: MeasurementRecord, effect_final) -> Timeline:
    """Backward effect pass conditioned on a homodyne record.

    Each step applies the exact adjoint of the forward Kraus step at the
    recorded current: E <- M(dY)† E M(dY) + (1-eta) kappa dt c†Ec plus the
    unmonitored sandwiches, all acting on the incoming effect. Entries are
    scaled to spectral norm 1; the terminal entry is the final effect itself.
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
    """One oracle step: the fire sandwich, or the quiet one plus the undetected and unmonitored jumps."""
    a0, a1, sjumps = ops
    if fired:
        return a1 @ rho @ dagger(a1)
    out = a0 @ rho @ dagger(a0)
    for j in sjumps:
        out = out + j @ rho @ dagger(j)
    return out


def simulate_counting(model, rho0, horizon, dt, seed):
    """Jump unravelling: fire with probability eta kappa Tr[c†c rho] dt per step.

    Undetected emissions, at rate (1 - eta) kappa, enter the quiet branch.
    """
    _require_mode(model, "counting")
    _warn_coarse(model, dt)
    n, h = _grid(0.0, horizon, dt)
    us = _noise(seed).random(size=(1, n))
    states, counts = _accel.counting_paths(
        _accel.record_step(model, h), _initial_state(model, rho0), us, False, range(n + 1)
    )
    times = h * np.arange(n + 1)
    record = MeasurementRecord("counting", times, counts[0], int(seed), model.kappa, model.eta)
    return Timeline(times, states[0], "state"), record


def replay_counting(model, rho0, record: MeasurementRecord) -> Timeline:
    """Re-filter a stored count record (the forward half of a PQS pair)."""
    _require_mode(model, "counting", record)
    states, _ = _accel.counting_paths(
        _accel.record_step(model, record.dt), _initial_state(model, rho0),
        record.increments[None, :], True, range(record.steps + 1),
    )
    return Timeline(record.times, states[0], "state")


def backward_counting(model, record: MeasurementRecord, effect_final) -> Timeline:
    """Backward effect pass on a count record.

    Jump steps apply eta kappa dt c†Ec, quiet steps the adjoint no-jump
    sandwich plus the undetected leak; entries are scaled to spectral norm
    1, which cancels in every smoothed probability. The terminal entry is
    the final effect itself.
    """
    _require_mode(model, "counting", record)
    return _backward(model, record, effect_final)


def smoothed_probability(pair: PqsPair, t, ins: Instrument, eps: float = 0.0) -> dict:
    """Conditional distribution of an instrument inserted at grid time t."""
    k = pair.states.index(t)
    return abl_distribution(
        BoundaryPair(pair.states.mats[k], pair.effects.mats[k], eps=eps), ins
    )


def record_log_likelihood(model, states: Timeline, record: MeasurementRecord) -> float:
    """Girsanov exponent of a diffusive record against a filtered state path.

    Returns -(1/2) sum_k (dY_k - sqrt(eta kappa) <X_c>_k dt)^2 / dt, up to
    a record-independent constant; only differences between models on the
    same grid are meaningful.
    """
    dws = innovations(model, states, record)
    return float(-0.5 * np.sum(dws**2) / record.dt)


def innovations(model, states: Timeline, record: MeasurementRecord) -> np.ndarray:
    """Per-step innovation dW = dY - sqrt(eta kappa) <X_c> dt."""
    _require_mode(model, "diffusive", record)
    if not np.allclose(states.times, record.times, atol=1e-12):
        raise ValueError("state timeline does not match the record grid")
    xc = model.x_c
    xbars = np.einsum("ij,kji->k", xc, states.mats[:-1]).real
    return record.increments - _sq(model) * xbars * record.dt


@dataclass(frozen=True)
class CountingEnumeration:
    """Exact joint weights of every count record on a short grid."""

    model: MonitoringModel
    rho0: np.ndarray
    effect_final: np.ndarray
    dt: float
    steps: int
    weights: dict

    def record_weight(self, increments) -> float:
        return self.weights[tuple(int(x) for x in increments)]

    def conditional(self, increments, step_index, ins: Instrument) -> dict:
        """Exact Bayesian retrodiction of an instrument inserted at a grid point."""
        incr = tuple(int(x) for x in increments)
        if len(incr) != self.steps:
            raise ValueError(f"record length {len(incr)} does not match {self.steps} steps")
        if not 0 <= step_index <= self.steps:
            raise IndexError(f"step index {step_index} outside 0..{self.steps}")
        ops = _counting_ops(self.model, self.dt)
        rho = self.rho0
        for k in range(step_index):
            rho = _counting_sandwich(ops, rho, incr[k])
        nums = {}
        for m in ins.outcomes:
            br = ins.apply(m, rho)
            for k in range(step_index, self.steps):
                br = _counting_sandwich(ops, br, incr[k])
            nums[m] = pairing(self.effect_final, br)
        total = sum(nums.values())
        if total <= 0.0:
            raise ValueError("record has zero weight; retrodiction undefined")
        return {m: nums[m] / total for m in ins.outcomes}


def enumerate_counting(model, rho0, effect_final, steps, dt) -> CountingEnumeration:
    """Brute-force the 2^steps record weights Tr[E_f K_record(rho0)]."""
    _require_mode(model, "counting")
    if steps > 10:
        raise ValueError(f"{steps} steps means {2**steps} records; 10 is the cap")
    rho0 = asoperator(rho0)
    ef = asoperator(effect_final)
    ops = _counting_ops(model, dt)
    weights = {}

    def walk(rho, prefix):
        if len(prefix) == steps:
            weights[prefix] = pairing(ef, rho)
            return
        for fired in (0, 1):
            walk(_counting_sandwich(ops, rho, fired), prefix + (fired,))

    walk(rho0, ())
    return CountingEnumeration(model, rho0, ef, float(dt), int(steps), weights)


@dataclass(frozen=True)
class HomodyneEnsemble:
    """Sampled states, currents, and filtered means for many trajectories."""

    model: MonitoringModel
    sample_times: np.ndarray
    states: np.ndarray  # (n_traj, n_samples, d, d)
    dys: np.ndarray  # (n_traj, steps)
    xbars: np.ndarray  # (n_traj, steps)
    dt: float
    seed: int

    def innovations(self) -> np.ndarray:
        return self.dys - _sq(self.model) * self.xbars * self.dt


@dataclass(frozen=True)
class CountingEnsemble:
    model: MonitoringModel
    sample_times: np.ndarray
    states: np.ndarray
    counts: np.ndarray  # (n_traj, steps)
    dt: float
    seed: int

    def total_counts(self) -> np.ndarray:
        return self.counts.sum(axis=1)


def _sample_indices(n_steps: int, n_samples: int) -> np.ndarray:
    return np.unique(np.linspace(0, n_steps, n_samples).round().astype(int))


def _resolve_samples(times: np.ndarray, sample_times) -> np.ndarray:
    n = times.size - 1
    if sample_times is None:
        return _sample_indices(n, 11)
    idx = []
    for t in sample_times:
        k = int(np.argmin(np.abs(times - t)))
        if abs(times[k] - t) > 1e-9 * max(1.0, abs(t)):
            raise ValueError(f"sample time {t} is not on the integration grid")
        idx.append(k)
    return np.asarray(idx, dtype=int)


def ensemble_homodyne(model, rho0, horizon, dt, n_traj, seed, sample_times=None):
    """Many diffusive trajectories filtered as one batch."""
    _require_mode(model, "diffusive")
    _warn_coarse(model, dt)
    n, h = _grid(0.0, horizon, dt)
    times = h * np.arange(n + 1)
    idx = _resolve_samples(times, sample_times)
    dws = _noise(seed).normal(0.0, np.sqrt(h), size=(int(n_traj), n))
    states, dys, xbars = _accel.homodyne_paths(
        _accel.record_step(model, h), _initial_state(model, rho0), dws, False, idx
    )
    return HomodyneEnsemble(model, times[idx], states, dys, xbars, h, int(seed))


def ensemble_counting(model, rho0, horizon, dt, n_traj, seed, sample_times=None):
    """Many jump trajectories filtered as one batch."""
    _require_mode(model, "counting")
    _warn_coarse(model, dt)
    n, h = _grid(0.0, horizon, dt)
    times = h * np.arange(n + 1)
    idx = _resolve_samples(times, sample_times)
    us = _noise(seed).random(size=(int(n_traj), n))
    states, counts = _accel.counting_paths(
        _accel.record_step(model, h), _initial_state(model, rho0), us, False, idx
    )
    return CountingEnsemble(model, times[idx], states, counts, h, int(seed))


def pqs_summary_csv(pair: PqsPair, ins: Instrument, path) -> None:
    """Per-time pairing values and smoothed distributions, one row per grid point."""
    labels = list(ins.outcomes)
    p = abl_distribution(BoundaryPair(pair.states.mats, pair.effects.mats), ins)
    pairs = pairing(pair.effects.mats, pair.states.mats)
    with open(path, "w") as fh:
        fh.write("time,pairing," + ",".join(f"p_{m}" for m in labels) + "\n")
        for k, t in enumerate(pair.states.times):
            row = [repr(float(t)), repr(float(pairs[k]))]
            row += [repr(float(p[m][k])) for m in labels]
            fh.write(",".join(row) + "\n")

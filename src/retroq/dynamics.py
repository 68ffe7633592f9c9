"""Markovian generators and fixed-step propagation of states (forward) and effects (backward).

States follow d rho/dt = L(rho); effects follow dE/dt = -L†(E) with a terminal
condition, integrated here as dE/ds = +L†(E) in reversed time s. A generator
builds the superoperator of L once; every pass steps vec(rho) by one
classic RK4 step matrix of it (rk4_step), the backward pass by its
conjugate transpose, the Hilbert-Schmidt adjoint, so the discrete backward
flow is the exact adjoint of the discrete forward flow. A pass at d <= 4
takes a block of steps per product, from a ladder of the step's powers
built once, whose adjoint is the forward ladder's exact conjugate
transpose (_power_flow); a larger d, and a time-dependent stack of steps
such as a driven system's, take one product per step (flow). No step is projected
or clamped: the propagate_* passes check the whole timeline once, in one
batched algebra.eigenvalues, and raise if any point leaves the valid set by
more than PROJECTION_FAIL_TOL. pairing_drift measures both passes against
exp(TL), from the RK4 step's Taylor polynomial taken at order 18 and
squared (scaling and squaring).

Every time grid of the package is built, checked, compared and looked up
here, and grid steps are matched here, under one tolerance (_GRID_TOL).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import _require_finite, _require_hermitian, apply_adjoint, apply_superop, asoperator, dagger, eigenvalues
from .algebra import hermitian_part, pairing, sandwich_superop, validate_state

PROJECTION_FAIL_TOL = 1e-10
_GRID_TOL = 1e-9  # a time t is on grid point g when |t - g| <= _GRID_TOL * max(1, |g|)


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class LindbladGenerator:
    """L(rho) = G rho + rho G† + sum_K K rho K† over every bath's jumps K, hbar = 1.

    no_jump is G = -iH - ½ sum_K K†K and superop the d²×d² matrix of L on row-major
    vec(rho), both read-only; adjoint reads its conjugate transpose, the exact L†.
    """

    hamiltonian: np.ndarray
    baths: tuple = ()
    no_jump: np.ndarray = field(init=False, repr=False)
    superop: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        h = asoperator(self.hamiltonian)
        _require_finite(h, "Hamiltonian")
        _require_hermitian(h, "Hamiltonian is not Hermitian within tolerance")
        baths = tuple(self.baths)
        for b in baths:
            _require_finite(np.array(b.jumps), f"jump operators of bath {b.label!r}")
        labels = [b.label for b in baths]
        if len(set(labels)) != len(labels):
            raise ValueError("bath labels must be unique")
        if any(b.jumps[0].shape != h.shape for b in baths):
            raise ValueError("bath jump operators must match the Hamiltonian dimension")
        h = hermitian_part(h)
        eye = np.eye(h.shape[0], dtype=complex)
        jumps = np.array([j for b in baths for j in b.jumps], dtype=complex).reshape(-1, *h.shape)
        g = -1j * h - 0.5 * (dagger(jumps) @ jumps).sum(axis=0)
        superop = sandwich_superop(g, eye) + sandwich_superop(eye, g) + sandwich_superop(jumps, jumps)
        g.flags.writeable = superop.flags.writeable = False
        for name, value in (("hamiltonian", h), ("baths", baths), ("no_jump", g), ("superop", superop)):
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]

    def bath(self, label: str) -> Bath:
        for b in self.baths:
            if b.label == label:
                return b
        raise KeyError(f"no bath labelled {label!r}; have {[b.label for b in self.baths]}")

    def apply(self, rho) -> np.ndarray:
        """Schrodinger-picture L(rho) of one operator or a stack (..., d, d)."""
        return apply_superop(self.superop, rho)

    def adjoint(self, x) -> np.ndarray:
        """Heisenberg-picture L†(X) of one operator or a stack; annihilates the identity."""
        return apply_adjoint(self.superop, x)


@dataclass(frozen=True, eq=False)
class Timeline:
    """Operators sampled on a uniform grid; kind is 'state' or 'effect'.

    mats is (n, d, d) for n grid times, or (m, n, d, d) for one timeline
    per record of a batch of m; ``index`` and ``at`` read the time axis.
    """

    times: np.ndarray
    mats: np.ndarray
    kind: str

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        m = np.asarray(self.mats, dtype=complex)
        if self.kind not in ("state", "effect"):
            raise ValueError(f"timeline kind must be 'state' or 'effect', got {self.kind!r}")
        if t.ndim != 1 or m.ndim not in (3, 4) or m.shape[-3] != t.shape[0] or m.shape[-1] != m.shape[-2]:
            raise ValueError("timeline needs times (n,) and matching operators (n, d, d) or (m, n, d, d)")
        _check_uniform(t, "timeline")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "mats", m)

    def index(self, t: float) -> int:
        return int(_grid_indices(self.times, t))

    def at(self, t: float) -> np.ndarray:
        return self.mats[..., self.index(t), :, :]


def _off_grid(t, grid) -> np.ndarray:
    """Mask of the times t that are not on their grid points under _GRID_TOL; a NaN or inf never is."""
    return ~(np.abs(t - grid) <= _GRID_TOL * np.maximum(1.0, np.abs(grid)))


def _check_uniform(t: np.ndarray, kind: str) -> None:
    """Raise unless a 1-D grid is finite and increasing, with each time on the uniform grid between its ends."""
    uniform = t.size < 2 or (np.isfinite(t).all() and np.diff(t).min() > 0
                             and not _off_grid(t, np.linspace(t[0], t[-1], t.size)).any())
    if not uniform:
        raise ValueError(f"{kind} grid must be uniform and increasing")


def _grid_indices(times: np.ndarray, t) -> np.ndarray:
    """Indices of a time or an array of times on an increasing grid; raises naming the first time off it."""
    t = np.asarray(t, dtype=float)
    idx = np.rint(np.nan_to_num(np.interp(t, times, np.arange(times.size)))).astype(int)
    off = _off_grid(t, times[idx])
    if off.any():
        raise ValueError(f"time {t[off][0]} is not on the grid")
    return idx


def _same_grid(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two grids hold as many times and agree at each."""
    return a.shape == b.shape and not _off_grid(a, b).any()


def _same_step(dt: float, steps) -> float:
    """The first of steps that lies on dt's grid step under _GRID_TOL, else dt."""
    return next((h for h in steps if not _off_grid(dt, h)), dt)


def _grid(t0: float, t1: float, dt: float) -> tuple[np.ndarray, float]:
    """The grid t0 + h * arange(n + 1) and its step h, once t1 - t0 is checked to be n >= 1 steps of dt."""
    span = t1 - t0
    if not (np.isfinite((t0, t1, dt)).all() and span > 0 and dt > 0):
        raise ValueError("need finite t0 < t1 and dt > 0")
    n = int(round(span / dt))
    if n < 1 or _off_grid(n * dt, span):
        raise ValueError(f"span {span} is not an integer number of steps of dt={dt}")
    h = span / n
    return t0 + h * np.arange(n + 1), h


def _taylor(lmat: np.ndarray, h: float, order: int) -> np.ndarray:
    """The Taylor polynomial I + hL(I + hL/2(… (I + hL/order))) of one matrix or a stack, by Horner."""
    eye = np.eye(lmat.shape[-1])
    poly = eye + (h / order) * lmat
    for k in range(order - 1, 0, -1):
        poly = eye + (h / k) * (lmat @ poly)
    return poly


def rk4_step(superop, h: float) -> np.ndarray:
    """RK4 step matrix of one superoperator or a stack: the order-4 Taylor
    polynomial I + hL(I + hL/2(I + hL/3(I + hL/4))) of exp(hL), the same
    Horner polynomial (_taylor) that pairing_drift's reference takes at order 18."""
    return _taylor(np.asarray(superop, dtype=complex), h, 4)


def flow(steps, x):
    """The (n + 1, d, d) timeline x_{k+1} = steps[k] vec(x_k) of an (n, d², d²) step stack, one product per step.

    Each step is a row-major matrix on vec(x). This loop runs a genuinely
    time-dependent stack, such as the driven qubit of thermal-qubit, and a
    time-homogeneous step too large for the ladder of ``_power_flow``.
    Only Lindblad step matrices run here: record steps, forward and
    backward, run the record kernel of ``_accel``, the backward passes on
    its transposed real branches.
    """
    x = asoperator(x)
    out = np.empty((len(steps) + 1, x.size), dtype=complex)
    out[0] = x.ravel()
    for k, step in enumerate(steps):
        out[k + 1] = step @ out[k]
    return out.reshape(-1, *x.shape)


_LADDER = 32  # most powers in a ladder, so most steps per block of a ladder flow
_LADDER_SECTOR = 16  # largest d² whose time-homogeneous flow runs the ladder (measured crossover d² = 16-25)


def _power_flow(step, n: int, x, adjoint: bool) -> np.ndarray:
    """The (n + 1, d, d) timeline of x under n steps of one step matrix S, or of S† when adjoint.

    At d² <= _LADDER_SECTOR the powers S¹…S^B, B = min(_LADDER, ⌈√n⌉), are
    built once as P_{i+1} = S P_i, and the adjoint's as their conjugate
    transposes, P′_{i+1} = P′_i S†, so within a block the backward map is
    the exact adjoint of the forward one. A block of B steps is then one
    product of the stacked (B d², d²) powers with the point that starts it.
    The ladder costs B d⁶ to build against n d⁴ for the loop, so a larger
    d² runs the per-step loop of ``flow``.
    """
    x = asoperator(x)
    d2 = step.shape[0]
    if d2 > _LADDER_SECTOR:
        return flow(np.broadcast_to(step.conj().T if adjoint else step, (n, d2, d2)), x)
    size = min(_LADDER, int(np.ceil(np.sqrt(n))))  # B builds and n/B blocks cost least near B = √n
    ladder = np.empty((size, d2, d2), dtype=complex)
    ladder[0] = step
    for i in range(1, size):
        np.matmul(step, ladder[i - 1], out=ladder[i])
    if adjoint:
        ladder = ladder.conj().swapaxes(-1, -2)
    rows = np.ascontiguousarray(ladder).reshape(size * d2, d2)  # block row i is P_(i+1)
    out = np.empty((n + 1, d2), dtype=complex)
    out[0] = x.ravel()
    for k in range(0, n, size):
        b = min(size, n - k)
        np.matmul(rows[:b * d2], out[k], out=out[k + 1:k + 1 + b].reshape(-1))
    return out.reshape(-1, *x.shape)


def _checked_flow(step, n: int, x, kind: str) -> np.ndarray:
    """_power_flow, forward for a state and adjoint for an effect, then one
    batched check that every point is a valid state or effect.

    A point's magnitude is its negative eigenvalue plus |Tr - 1| for a state,
    and the amount its spectrum leaves [0, 1] for an effect; a non-finite
    point has magnitude inf. The error names the first point, in step order,
    whose magnitude exceeds PROJECTION_FAIL_TOL.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        mats = _power_flow(step, n, x, adjoint=kind == "effect")
        finite = np.isfinite(mats).all(axis=(-2, -1))
        mag = np.full(len(mats), np.inf)
        w = eigenvalues(mats[finite])
        excess = np.abs(w.sum(axis=-1) - 1.0) if kind == "state" else np.maximum(w[:, -1] - 1.0, 0.0)
        mag[finite] = np.maximum(-w[:, 0], 0.0) + excess
    bad = np.flatnonzero(mag > PROJECTION_FAIL_TOL)
    if bad.size:
        k = int(bad[0])
        raise ValueError(
            f"{kind} leaves the valid set by {mag[k]:.3e} at step {k} of {n}, "
            f"beyond {PROJECTION_FAIL_TOL:.0e}; reduce dt"
        )
    return mats


def _steps(gen: LindbladGenerator, t0: float, t1: float, dt: float):
    """The grid from t0 to t1, the RK4 step matrix of gen on its spacing, and the step count."""
    times, h = _grid(t0, t1, dt)
    return times, rk4_step(gen.superop, h), times.size - 1


def propagate_forward(gen: LindbladGenerator, rho0, t0: float, t1: float, dt: float) -> Timeline:
    """RK4-integrate a state from t0 to t1 with no per-step projection; the
    run aborts if any point of the timeline leaves the states by more than 1e-10."""
    times, step, n = _steps(gen, t0, t1, dt)
    return Timeline(times, _checked_flow(step, n, validate_state(rho0), "state"), "state")


def _terminal_effect(effect, dim: int) -> np.ndarray:
    """effect as a complex matrix, once it is checked to be a finite, nonzero Hermitian d×d operator."""
    e = asoperator(effect)
    if e.shape[0] != dim:
        raise ValueError(f"terminal effect dimension {e.shape[0]} does not match model {dim}")
    if not np.isfinite(e).all():
        raise ValueError("terminal effect has non-finite entries")
    _require_hermitian(e, "terminal effect is not Hermitian within tolerance")
    if not np.any(e):
        raise ValueError("terminal effect is zero")
    return e


def propagate_backward(gen: LindbladGenerator, effect_final, t1: float, t0: float, dt: float) -> Timeline:
    """Integrate an effect from its terminal condition at t1 down to t0.

    Runs dE/ds = +L†(E) in s = t1 - t with no per-step projection; the
    identity is a fixed point, and the run aborts if any point's spectrum
    leaves [0, 1] by more than 1e-10, counting steps down from t1.
    """
    times, step, n = _steps(gen, t0, t1, dt)
    mats = _checked_flow(step, n, _terminal_effect(effect_final, gen.dim), "effect")
    return Timeline(times, mats[::-1], "effect")


def evolve_state(gen: LindbladGenerator, rho, duration: float, dt: float) -> np.ndarray:
    """Raw RK4 composition over a duration, with no projection and no check.

    Used for chain stages, where the matching effect evolution must be the
    exact algebraic adjoint; duration 0 is the identity.
    """
    if duration == 0.0:
        return asoperator(rho).copy()
    return _power_flow(*_steps(gen, 0.0, duration, dt)[1:], rho, adjoint=False)[-1]


def evolve_effect(gen: LindbladGenerator, effect, duration: float, dt: float) -> np.ndarray:
    """Adjoint companion of evolve_state: the conjugate transpose of its step matrix."""
    if duration == 0.0:
        return asoperator(effect).copy()
    return _power_flow(*_steps(gen, 0.0, duration, dt)[1:], effect, adjoint=True)[-1]


def stationary_state(gen: LindbladGenerator) -> np.ndarray:
    """Null space of the vectorized generator; errors if the kernel is degenerate."""
    mat = gen.superop
    _, s, vh = np.linalg.svd(mat)
    smax = float(s.max()) if s.size else 1.0
    null = [vh[i].conj() for i in range(len(s)) if s[i] < 1e-10 * max(smax, 1.0)]
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
    resid = float(np.max(np.abs(gen.apply(state))))
    if resid > 1e-8:
        raise ValueError(f"stationary candidate has residual {resid:.3e}")
    return state


def _exponential(lmat: np.ndarray, span: float) -> np.ndarray:
    """exp(span L) by scaling and squaring: the order-18 Taylor polynomial of
    A / 2^s, A = span L, squared s times by matrix_power's binary ladder
    (Moler & Van Loan, SIAM Rev. 45, 3, 2003).

    s = max(e + 1, 0) from np.frexp's ‖A‖₁ = m 2^e, 1/2 <= m < 1, so
    ‖A / 2^s‖₁ <= 1/2 and the series' tail is below 1e-22; A = 0 reads
    e = 0, so s = 1, with no logarithm of zero. It shares only the Horner
    polynomial with rk4_step, not the steps or the ladder it checks.
    """
    s = max(int(np.frexp(span * np.linalg.norm(lmat, 1))[1]) + 1, 0)
    return np.linalg.matrix_power(_taylor(lmat, span / 2.0**s, 18), 2**s)


def pairing_drift(gen: LindbladGenerator, rho0, effect_final, t0: float, t1: float, dt: float) -> float:
    """Worst-case deviation of Tr[E_t rho_t] from the exactly conserved pairing.

    The reference value pairs the terminal effect with a dense-exponential
    propagation of the initial state, so the returned number measures true
    integrator error rather than a telescoping identity. The exponential
    exp((t1 - t0) L) scales and squares an order-18 Taylor polynomial
    (_exponential) in numpy alone, a route independent of the RK4 steps and
    of the ladder of _power_flow that it checks.
    """
    fwd = propagate_forward(gen, rho0, t0, t1, dt)
    bwd = propagate_backward(gen, effect_final, t1, t0, dt)
    prop = _exponential(gen.superop, t1 - t0)
    rho_exact = (prop @ validate_state(rho0).ravel()).reshape(gen.dim, gen.dim)
    return float(np.max(np.abs(pairing(bwd.mats, fwd.mats) - pairing(effect_final, rho_exact))))

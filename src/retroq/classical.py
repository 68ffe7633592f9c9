"""Commutative limit of the bidirectional calculus.

Three ingredients live here. Discrete hidden-Markov smoothing (forward
filter, backward message, pointwise product, and a path-enumeration
oracle), the sink embedding (smoothing_chain) that maps an HMM onto a
measurement chain of density matrices, instruments, and a final effect so
the quantum chain machinery reproduces the classical answer, and
linear-Gaussian Kalman/RTS smoothing with a brute-force joint-Gaussian
oracle.

Conventions: an observation fires at every step, including step 0 on the
prior itself; the transition matrix acts between consecutive steps and is
row stochastic, ``transition[x, y] = P(y | x)``. All smoothed marginals are
normalized per step.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .algebra import eigenvalues, sandwich_superop
from .channels import Channel, _families, _preprocessed, _stack
from .dynamics import LindbladGenerator
from .retrodiction import ChainSpec, Stage

PROB_TOL = 1e-12
ENUMERATION_CAP = 10


@dataclass(frozen=True, eq=False)
class HmmModel:
    """Hidden Markov model with per-symbol likelihood weights.

    likelihood[m, x] is the weight of symbol m in state x; rows need not
    normalize, only stay nonnegative.
    """

    transition: np.ndarray
    likelihood: np.ndarray
    prior: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.transition, dtype=float)
        lk = np.asarray(self.likelihood, dtype=float)
        pi = np.asarray(self.prior, dtype=float)
        if t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise ValueError("transition must be a square matrix")
        n = t.shape[0]
        if np.any(t < 0.0):
            raise ValueError("transition entries must be nonnegative")
        worst = float(np.max(np.abs(t.sum(axis=1) - 1.0)))
        if worst > PROB_TOL:
            raise ValueError(f"transition rows must sum to 1 (defect {worst:.3e})")
        if lk.ndim != 2 or lk.shape[1] != n:
            raise ValueError("likelihood must have one column per state")
        if np.any(lk < 0.0):
            raise ValueError("likelihood weights must be nonnegative")
        if pi.shape != (n,) or np.any(pi < 0.0):
            raise ValueError("prior must be a nonnegative vector over states")
        if abs(float(pi.sum()) - 1.0) > PROB_TOL:
            raise ValueError("prior must sum to 1")
        object.__setattr__(self, "transition", t)
        object.__setattr__(self, "likelihood", lk)
        object.__setattr__(self, "prior", pi)

    @property
    def n_states(self) -> int:
        return self.transition.shape[0]

    @property
    def n_symbols(self) -> int:
        return self.likelihood.shape[0]


def _check_observations(model: HmmModel, observations) -> np.ndarray:
    obs = np.asarray(observations)
    if obs.ndim != 1 or obs.size == 0:
        raise ValueError("observations must be a nonempty 1-d sequence")
    if not np.issubdtype(obs.dtype, np.integer):
        raise ValueError("observations must be integer symbol indices")
    if np.any(obs < 0) or np.any(obs >= model.n_symbols):
        raise ValueError(
            f"observation symbols must lie in 0..{model.n_symbols - 1}"
        )
    return obs


def hmm_forward_backward(model: HmmModel, observations):
    """Scaled forward-backward smoothing.

    Returns (alphas, betas, smoothed), each of shape (steps, n_states).
    Alphas are normalized per step and so are the filtered marginals
    P(x_k | y_0..y_k); betas are normalized per step too, which is harmless
    because the smoothed product renormalizes. Raises when the observation
    sequence is impossible under the model, and, by its own message, when
    the backward message of a sequence the forward pass accepted underflows
    to zero (a likelihood near the smallest subnormal).
    """
    obs = _check_observations(model, observations)
    k_steps = obs.size
    n = model.n_states
    alphas = np.zeros((k_steps, n))
    betas = np.zeros((k_steps, n))
    cur = model.prior * model.likelihood[obs[0]]
    for k in range(k_steps):
        if k > 0:
            cur = (model.transition.T @ alphas[k - 1]) * model.likelihood[obs[k]]
        total = float(cur.sum())
        if total <= 0.0:
            raise ValueError(f"observation sequence has zero likelihood at step {k}")
        alphas[k] = cur / total
    betas[-1] = np.full(n, 1.0 / n)
    for k in range(k_steps - 2, -1, -1):
        cur = model.transition @ (model.likelihood[obs[k + 1]] * betas[k + 1])
        total = float(cur.sum())
        if total <= 0.0:
            raise ValueError(f"backward message underflowed to zero at step {k}")
        betas[k] = cur / total
    smoothed = alphas * betas
    smoothed /= smoothed.sum(axis=1, keepdims=True)
    return alphas, betas, smoothed


def enumerate_hmm_smoothing(model: HmmModel, observations) -> np.ndarray:
    """Smoothed marginals by explicit weight over every hidden path.

    Exponential in the step count, hence capped at ENUMERATION_CAP steps;
    exists as an oracle for the recursive smoother.
    """
    obs = _check_observations(model, observations)
    n = model.n_states
    if obs.size > ENUMERATION_CAP:
        raise ValueError(f"{obs.size} steps means {n ** obs.size} paths; {ENUMERATION_CAP} is the cap")
    steps = obs.size
    w = model.prior * model.likelihood[obs[0]]
    for k in range(1, steps):  # w[x_0, ..., x_k] is the weight of that path
        w = w[..., None] * (model.transition * model.likelihood[obs[k]])
    out = np.array([w.sum(axis=tuple(j for j in range(steps) if j != k)) for k in range(steps)])
    total = out.sum(axis=1, keepdims=True)
    if np.any(total <= 0.0):
        raise ValueError("observation sequence has zero likelihood")
    return out / total


def _transition_channel(t: np.ndarray, dim: int) -> Channel:
    """One Kraus per (x -> y) move, sqrt(T[x, y]) |y><x|; zero moves dropped."""
    xs, ys = np.nonzero(t)
    sinks = np.arange(t.shape[0], dim)
    ops = np.zeros((xs.size + sinks.size, dim, dim), dtype=complex)
    ops[np.arange(xs.size), ys, xs] = np.sqrt(t[xs, ys])
    ops[xs.size + np.arange(sinks.size), sinks, sinks] = 1.0
    return Channel(ops)


@functools.cache
def _idle(dim: int) -> LindbladGenerator:
    """The zero generator on dim levels, built once per dim: every smoothing chain's stages run it for duration 0."""
    return LindbladGenerator(np.zeros((dim, dim)), ())


def smoothing_chain(model: HmmModel, observations) -> ChainSpec:
    """Measurement chain whose stage conditionals are the HMM smoothed marginals.

    A plain diagonal embedding, one outcome per symbol plus a discard outcome
    restoring completeness, cannot condition on the observed symbols once a
    chain sums the other stages out nonselectively. This chain adds one
    auxiliary basis state acting as a sink: each stage keeps state x with
    weight L_y(x)/s under an outcome of its own and routes the complement
    into the sink, and the final effect annihilates the sink. Summing a
    stage's outcomes then reproduces exactly the conditioning on its observed
    symbol, so conditional_at_stage(chain, k) returns the smoothed
    distribution over states (plus a zero-weight discard entry). Every stage
    and the closing evolution have duration 0, so no RK4 step is taken.
    """
    obs = _check_observations(model, observations)
    n = model.n_states
    dim = n + 1
    gen = _idle(dim)
    lam = _transition_channel(model.transition, dim)
    weights = model.likelihood[obs]
    scale = weights.max(axis=1, keepdims=True)
    if np.any(scale <= 0.0):
        raise ValueError(f"observed symbol {obs[np.argmax(scale <= 0.0)]} has zero weight everywhere")
    ratio = weights / scale
    states = np.arange(n)
    kraus = np.zeros((obs.size, n + 1, dim, dim, dim), dtype=complex)  # stage, outcome, operator
    kraus[:, states, 0, states, states] = np.sqrt(ratio)
    kraus[:, n, states, n, states] = np.sqrt(1.0 - ratio)
    kraus[:, n, n, n, n] = 1.0
    maps = sandwich_superop(kraus, kraus)
    ops = np.concatenate([kraus[:, :n, 0], kraus[:, n]], axis=1)  # each stage's operators without the padding
    later_ops, maps[1:] = _preprocessed(ops[1:], maps[1:], lam)
    lengths = [1] * n + [dim]
    fams = _families(ops[:1], lengths) + _families(later_ops, [k * len(lam.kraus) for k in lengths])
    labels = tuple(f"x{x}" for x in range(n)) + ("discard",)
    stages = tuple(Stage(gen, 0.0, ins) for ins in _stack(labels, fams, maps))
    rho = np.zeros((dim, dim), dtype=complex)
    rho[:n, :n] = np.diag(model.prior)
    effect = np.eye(dim, dtype=complex)
    effect[n, n] = 0.0
    return ChainSpec(rho, stages, gen, 0.0, effect)


@dataclass(frozen=True, eq=False)
class LinearGaussianModel:
    """Discrete-time linear-Gaussian state space.

    x_{k+1} = a x_k + process noise with covariance q, observed through
    y_k = c x_k + noise with covariance r; the prior is N(mean0, cov0).
    """

    a: np.ndarray
    q: np.ndarray
    c: np.ndarray
    r: np.ndarray
    mean0: np.ndarray
    cov0: np.ndarray

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.a, dtype=float))
        q = np.atleast_2d(np.asarray(self.q, dtype=float))
        c = np.atleast_2d(np.asarray(self.c, dtype=float))
        r = np.atleast_2d(np.asarray(self.r, dtype=float))
        mean0 = np.atleast_1d(np.asarray(self.mean0, dtype=float))
        cov0 = np.atleast_2d(np.asarray(self.cov0, dtype=float))
        n = a.shape[0]
        if a.shape != (n, n):
            raise ValueError("a must be square")
        p = c.shape[0]
        if c.shape != (p, n):
            raise ValueError("c must have one column per state dimension")
        if mean0.shape != (n,):
            raise ValueError("mean0 must match the state dimension")
        for name, mat, size in (("q", q, n), ("r", r, p), ("cov0", cov0, n)):
            if mat.shape != (size, size):
                raise ValueError(f"{name} must be {size}x{size}")
            if np.max(np.abs(mat - mat.T)) > 1e-10:
                raise ValueError(f"{name} must be symmetric")
            if float(eigenvalues(mat).min()) < -1e-10:
                raise ValueError(f"{name} must be positive semidefinite")
        for field, value in (
            ("a", a), ("q", q), ("c", c), ("r", r), ("mean0", mean0), ("cov0", cov0)
        ):
            object.__setattr__(self, field, value)

    @property
    def n_state(self) -> int:
        return self.a.shape[0]

    @property
    def n_obs(self) -> int:
        return self.c.shape[0]


def _observation_array(model: LinearGaussianModel, ys) -> np.ndarray:
    arr = np.asarray(ys, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] != model.n_obs:
        raise ValueError(
            f"observations must have shape (steps, {model.n_obs})"
        )
    return arr


def kalman_filter(model: LinearGaussianModel, ys):
    """Predict/update recursion; returns (means, covs) per step."""
    arr = _observation_array(model, ys)
    k_steps = arr.shape[0]
    n = model.n_state
    means = np.zeros((k_steps, n))
    covs = np.zeros((k_steps, n, n))
    m, p = model.mean0, model.cov0
    for k in range(k_steps):
        if k > 0:
            m = model.a @ m
            p = model.a @ p @ model.a.T + model.q
        s = model.c @ p @ model.c.T + model.r
        if float(eigenvalues(s).min()) <= 0.0:
            raise ValueError(f"innovation covariance is singular at step {k}")
        gain = np.linalg.solve(s, model.c @ p).T
        m = m + gain @ (arr[k] - model.c @ m)
        p = p - gain @ model.c @ p
        p = 0.5 * (p + p.T)
        means[k] = m
        covs[k] = p
    return means, covs


def rts_smoother(model: LinearGaussianModel, filtered):
    """Backward gain recursion refining a filter pass; returns (means, covs).

    The final step is the filter's own posterior; earlier steps blend in the
    future through the smoother gain, and the covariance can only shrink.
    """
    means, covs = filtered
    k_steps = means.shape[0]
    sm = np.array(means, dtype=float, copy=True)
    sp = np.array(covs, dtype=float, copy=True)
    for k in range(k_steps - 2, -1, -1):
        pred_m = model.a @ means[k]
        pred_p = model.a @ covs[k] @ model.a.T + model.q
        if float(eigenvalues(pred_p).min()) <= 0.0:
            raise ValueError(
                f"predicted covariance is singular between steps {k} and {k + 1}"
            )
        gain = np.linalg.solve(pred_p, model.a @ covs[k]).T
        sm[k] = means[k] + gain @ (sm[k + 1] - pred_m)
        sp[k] = covs[k] + gain @ (sp[k + 1] - pred_p) @ gain.T
        sp[k] = 0.5 * (sp[k] + sp[k].T)
    return sm, sp


BATCH_CAP = 60


def gaussian_batch_oracle(model: LinearGaussianModel, ys):
    """Exact smoothing by conditioning the full joint Gaussian.

    Assembles the covariance of the whole state path, conditions on every
    observation at once by block solve, and reads off per-step marginals.
    Wholly independent of the filter recursions, hence usable as an oracle;
    capped at a total path dimension of 60.
    """
    arr = _observation_array(model, ys)
    k_steps = arr.shape[0]
    n, p = model.n_state, model.n_obs
    if n * k_steps > BATCH_CAP:
        raise ValueError(
            f"path dimension {n * k_steps} exceeds the batch-oracle cap of {BATCH_CAP}"
        )
    prior_means = np.zeros((k_steps, n))
    prior_covs = np.zeros((k_steps, n, n))
    prior_means[0] = model.mean0
    prior_covs[0] = model.cov0
    for k in range(1, k_steps):
        prior_means[k] = model.a @ prior_means[k - 1]
        prior_covs[k] = model.a @ prior_covs[k - 1] @ model.a.T + model.q
    big = np.zeros((k_steps * n, k_steps * n))
    for j in range(k_steps):
        prop = np.eye(n)
        for k in range(j, k_steps):
            block = prior_covs[j] @ prop.T
            big[j * n:(j + 1) * n, k * n:(k + 1) * n] = block
            big[k * n:(k + 1) * n, j * n:(j + 1) * n] = block.T
            prop = model.a @ prop
    c_big = np.kron(np.eye(k_steps), model.c)
    r_big = np.kron(np.eye(k_steps), model.r)
    mean_x = prior_means.reshape(-1)
    cov_y = c_big @ big @ c_big.T + r_big
    if float(eigenvalues(cov_y).min()) <= 0.0:
        raise ValueError("observation covariance is singular")
    cross = big @ c_big.T
    resid = arr.reshape(-1) - c_big @ mean_x
    mean_post = mean_x + cross @ np.linalg.solve(cov_y, resid)
    cov_post = big - cross @ np.linalg.solve(cov_y, cross.T)
    means = mean_post.reshape(k_steps, n)
    covs = np.zeros((k_steps, n, n))
    for k in range(k_steps):
        blk = cov_post[k * n:(k + 1) * n, k * n:(k + 1) * n]
        covs[k] = 0.5 * (blk + blk.T)
    return means, covs

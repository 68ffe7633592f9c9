import itertools

import numpy as np
import pytest

from retroq import classical as cl
from retroq.retrodiction import conditional_at_stage


def rng(seed=0):
    return np.random.default_rng(seed)


def random_hmm(g, n_states, n_symbols):
    t = g.uniform(0.1, 1.0, size=(n_states, n_states))
    t /= t.sum(axis=1, keepdims=True)
    lk = g.uniform(0.05, 1.0, size=(n_symbols, n_states))
    pi = g.uniform(0.1, 1.0, size=n_states)
    pi /= pi.sum()
    return cl.HmmModel(t, lk, pi)


def enumerate_paths(model, obs):
    """Smoothed marginals by explicit weight over every hidden path."""
    k_steps = len(obs)
    n = model.n_states
    out = np.zeros((k_steps, n))
    for path in itertools.product(range(n), repeat=k_steps):
        w = model.prior[path[0]] * model.likelihood[obs[0], path[0]]
        for k in range(1, k_steps):
            w *= model.transition[path[k - 1], path[k]] * model.likelihood[obs[k], path[k]]
        for k, x in enumerate(path):
            out[k, x] += w
    return out / out.sum(axis=1, keepdims=True)


def test_hmm_model_validation():
    eye = np.eye(2)
    ones = np.ones((2, 2))
    with pytest.raises(ValueError, match="rows must sum to 1"):
        cl.HmmModel(ones, ones, np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="nonnegative"):
        cl.HmmModel(eye, np.array([[1.0, -0.1]]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="prior must sum to 1"):
        cl.HmmModel(eye, ones, np.array([0.5, 0.6]))
    model = cl.HmmModel(eye, ones, np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="symbols must lie"):
        cl.hmm_forward_backward(model, [0, 3])
    with pytest.raises(ValueError, match="integer"):
        cl.hmm_forward_backward(model, [0.5])


def test_uninformative_likelihoods_reduce_to_prior_propagation():
    g = rng(1)
    model = random_hmm(g, 3, 2)
    flat = cl.HmmModel(model.transition, np.ones((2, 3)), model.prior)
    _, betas, smoothed = cl.hmm_forward_backward(flat, [0, 1, 0, 1])
    want = flat.prior.copy()
    for k in range(4):
        assert np.allclose(smoothed[k], want, atol=1e-12)
        want = flat.transition.T @ want
    assert np.allclose(betas, 1.0 / 3.0, atol=1e-12)


def test_deterministic_cycle_gives_indicator_marginals():
    t = np.array([[0.0, 1.0], [1.0, 0.0]])
    model = cl.HmmModel(t, np.eye(2), np.array([1.0, 0.0]))
    _, _, smoothed = cl.hmm_forward_backward(model, [0, 1, 0])
    assert np.allclose(smoothed, [[1, 0], [0, 1], [1, 0]], atol=1e-12)


def test_impossible_sequence_raises():
    model = cl.HmmModel(np.eye(2), np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="zero likelihood at step 1"):
        cl.hmm_forward_backward(model, [0, 1])


def test_forward_backward_matches_path_enumeration():
    for seed in (7, 8, 9):
        g = rng(seed)
        model = random_hmm(g, 3, 2)
        obs = g.integers(0, 2, size=5)
        _, _, smoothed = cl.hmm_forward_backward(model, obs)
        assert np.max(np.abs(smoothed - enumerate_paths(model, obs))) < 1e-12
        assert np.allclose(smoothed.sum(axis=1), 1.0, atol=1e-12)


def test_module_path_enumeration_matches_forward_backward():
    g = rng(11)
    for _ in range(40):
        n, n_sym = int(g.integers(1, 5)), int(g.integers(1, 4))
        model = random_hmm(g, n, n_sym)
        obs = g.integers(0, n_sym, size=int(g.integers(1, 7)))
        _, _, smoothed = cl.hmm_forward_backward(model, obs)
        assert np.max(np.abs(cl.enumerate_hmm_smoothing(model, obs) - smoothed)) < 1e-12
    model = random_hmm(g, 2, 2)
    with pytest.raises(ValueError, match="10 is the cap"):
        cl.enumerate_hmm_smoothing(model, [0] * 11)
    blind = cl.HmmModel(np.eye(2), np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="zero likelihood"):
        cl.enumerate_hmm_smoothing(blind, [0, 1])


def test_uniform_model_smooths_to_uniform():
    n = 3
    model = cl.HmmModel(np.full((n, n), 1.0 / n), np.ones((2, n)), np.full(n, 1.0 / n))
    chain = cl.smoothing_chain(model, [0, 1, 0])
    for j in range(3):
        cond = conditional_at_stage(chain, j)
        for i in range(n):
            assert abs(cond[f"x{i}"] - 1.0 / n) < 1e-12


def test_smoothing_chain_matches_forward_backward():
    """The key equivalence: a nonselective quantum chain over the sink
    embedding reproduces classical forward-backward smoothing exactly."""
    g = rng(21)
    model = random_hmm(g, 4, 3)
    obs = g.integers(0, 3, size=4)
    _, _, smoothed = cl.hmm_forward_backward(model, obs)
    chain = cl.smoothing_chain(model, obs)
    for j in range(obs.size):
        cond = conditional_at_stage(chain, j)
        assert cond["discard"] < 1e-15
        got = np.array([cond[f"x{i}"] for i in range(4)])
        assert np.max(np.abs(got - smoothed[j])) < 1e-12


def test_smoothing_chain_battery_over_random_models():
    for seed in range(50):
        g = rng(100 + seed)
        n = int(g.integers(2, 5))
        steps = int(g.integers(2, 6))
        n_sym = int(g.integers(2, 4))
        model = random_hmm(g, n, n_sym)
        obs = g.integers(0, n_sym, size=steps)
        _, _, smoothed = cl.hmm_forward_backward(model, obs)
        chain = cl.smoothing_chain(model, obs)
        j = int(g.integers(0, steps))
        cond = conditional_at_stage(chain, j)
        got = np.array([cond[f"x{i}"] for i in range(n)])
        assert np.max(np.abs(got - smoothed[j])) < 1e-12


def test_linear_gaussian_validation():
    with pytest.raises(ValueError, match="symmetric"):
        cl.LinearGaussianModel(np.eye(2), [[1.0, 0.2], [0.0, 1.0]], np.eye(2), np.eye(2), np.zeros(2), np.eye(2))
    with pytest.raises(ValueError, match="positive semidefinite"):
        cl.LinearGaussianModel([[1.0]], [[1.0]], [[1.0]], [[-0.5]], [0.0], [[1.0]])
    with pytest.raises(ValueError, match="column per state"):
        cl.LinearGaussianModel(np.eye(2), np.eye(2), np.eye(3), np.eye(3), np.zeros(2), np.eye(2))


def static_mean_model(r=2.0, cov0=1e12):
    return cl.LinearGaussianModel([[1.0]], [[0.0]], [[1.0]], [[r]], [0.0], [[cov0]])


def test_static_mean_variance_and_average():
    g = rng(11)
    model = static_mean_model()
    ys = g.normal(3.0, 1.0, size=10)
    means, covs = cl.kalman_filter(model, ys)
    for k in range(10):
        assert abs(covs[k, 0, 0] - 2.0 / (k + 1)) < 1e-9 * (2.0 / (k + 1))
        assert abs(means[k, 0] - ys[: k + 1].mean()) < 1e-6


def test_zero_observation_matrix_gives_open_loop():
    model = cl.LinearGaussianModel([[0.9]], [[0.3]], [[0.0]], [[1.0]], [2.0], [[0.5]])
    means, covs = cl.kalman_filter(model, np.zeros(5))
    m, p = 2.0, 0.5
    for k in range(5):
        if k > 0:
            m, p = 0.9 * m, 0.81 * p + 0.3
        assert abs(means[k, 0] - m) < 1e-14
        assert abs(covs[k, 0, 0] - p) < 1e-14


def test_uninformative_noise_keeps_prior():
    model = cl.LinearGaussianModel([[0.8]], [[0.1]], [[1.0]], [[1e14]], [1.5], [[0.4]])
    means, _ = cl.kalman_filter(model, rng(12).normal(size=6))
    open_loop = 1.5 * 0.8 ** np.arange(6)
    assert np.max(np.abs(means[:, 0] - open_loop)) < 1e-8


def test_singular_innovation_raises():
    model = cl.LinearGaussianModel([[1.0]], [[1.0]], [[0.0]], [[0.0]], [0.0], [[1.0]])
    with pytest.raises(ValueError, match="innovation covariance is singular at step 0"):
        cl.kalman_filter(model, [1.0])


def random_lg(g, n=2, p=2):
    a = 0.9 * g.normal(size=(n, n)) / np.sqrt(n)
    qroot = g.normal(size=(n, n))
    rroot = g.normal(size=(p, p))
    c = g.normal(size=(p, n))
    return cl.LinearGaussianModel(
        a,
        0.3 * qroot @ qroot.T + 0.05 * np.eye(n),
        c,
        0.5 * rroot @ rroot.T + 0.1 * np.eye(p),
        g.normal(size=n),
        np.eye(n),
    )


def test_filter_covariances_stay_symmetric_psd():
    g = rng(13)
    model = random_lg(g)
    _, covs = cl.kalman_filter(model, g.normal(size=(8, 2)))
    for p in covs:
        assert np.max(np.abs(p - p.T)) < 1e-12
        assert float(np.linalg.eigvalsh(p).min()) > -1e-12


def test_smoother_boundary_and_psd_order():
    g = rng(14)
    model = random_lg(g)
    ys = g.normal(size=(8, 2))
    filtered = cl.kalman_filter(model, ys)
    sm, sp = cl.rts_smoother(model, filtered)
    assert np.array_equal(sm[-1], filtered[0][-1])
    assert np.array_equal(sp[-1], filtered[1][-1])
    for k in range(8):
        gap = filtered[1][k] - sp[k]
        assert float(np.linalg.eigvalsh(gap).min()) > -1e-10


def test_static_state_smooths_to_batch_average():
    g = rng(15)
    model = static_mean_model(r=1.0)
    ys = g.normal(-1.0, 1.0, size=7)
    sm, _ = cl.rts_smoother(model, cl.kalman_filter(model, ys))
    assert np.ptp(sm[:, 0]) < 1e-9
    assert abs(sm[0, 0] - ys.mean()) < 1e-6


def test_singular_prediction_raises():
    model = cl.LinearGaussianModel([[0.0]], [[0.0]], [[1.0]], [[1.0]], [0.0], [[1.0]])
    filtered = cl.kalman_filter(model, [0.3, -0.2])
    with pytest.raises(ValueError, match="predicted covariance is singular"):
        cl.rts_smoother(model, filtered)


def test_batch_oracle_single_step_is_gaussian_update():
    g = rng(16)
    model = random_lg(g)
    ys = g.normal(size=(1, 2))
    bm, bp = cl.gaussian_batch_oracle(model, ys)
    fm, fp = cl.kalman_filter(model, ys)
    assert np.max(np.abs(bm - fm)) < 1e-12
    assert np.max(np.abs(bp - fp)) < 1e-12


def test_batch_oracle_agrees_with_filter_and_smoother():
    for seed, (n, p) in ((17, (1, 1)), (18, (2, 2))):
        g = rng(seed)
        model = random_lg(g, n, p)
        ys = g.normal(size=(6, p))
        filtered = cl.kalman_filter(model, ys)
        sm, sp = cl.rts_smoother(model, filtered)
        bm, bp = cl.gaussian_batch_oracle(model, ys)
        assert np.max(np.abs(bm[-1] - filtered[0][-1])) < 1e-10
        assert np.max(np.abs(bp[-1] - filtered[1][-1])) < 1e-10
        assert np.max(np.abs(bm - sm)) < 1e-8
        assert np.max(np.abs(bp - sp)) < 1e-8


def test_batch_oracle_dimension_cap():
    model = random_lg(rng(19))
    with pytest.raises(ValueError, match="cap"):
        cl.gaussian_batch_oracle(model, np.zeros((31, 2)))

import itertools

import numpy as np
import pytest

from retroq import channels as ch
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


def stage_instruments(model, obs):
    """smoothing_chain's instruments built one stage at a time: an Instrument
    of the stage's Kraus families, preprocessed by the transition channel
    after the first stage through compose_preprocess."""
    n = model.n_states
    dim = n + 1
    lam = cl._transition_channel(model.transition, dim)
    weights = model.likelihood[np.asarray(obs)]
    ratio = weights / weights.max(axis=1, keepdims=True)
    labels = tuple(f"x{x}" for x in range(n)) + ("discard",)
    out = []
    for k, r in enumerate(ratio):
        fams = []
        leak = np.zeros((dim, dim, dim), dtype=complex)
        for x in range(n):
            keep = np.zeros((1, dim, dim), dtype=complex)
            keep[0, x, x] = np.sqrt(r[x])
            fams.append(keep)
            leak[x, n, x] = np.sqrt(1.0 - r[x])
        leak[n, n, n] = 1.0
        ins = ch.Instrument(labels, (*fams, leak))
        out.append(ins if k == 0 else ch.compose_preprocess(ins, lam))
    return out


def test_smoothing_chain_stages_are_the_per_stage_build():
    """The stacked build of all stages, one sandwich, one product with the
    transition map and one Kraus product, gives every stage bit for bit the
    instrument the per-stage build gives."""
    for seed in range(20):
        g = rng(300 + seed)
        n, n_sym = int(g.integers(2, 5)), int(g.integers(2, 4))
        model = random_hmm(g, n, n_sym)
        obs = g.integers(0, n_sym, size=int(g.integers(1, 6)))
        stages = cl.smoothing_chain(model, obs).stages
        want = stage_instruments(model, obs)
        assert len(stages) == len(want)
        for st, ins in zip(stages, want):
            got = st.instrument
            assert got.outcomes == ins.outcomes
            assert got.completeness_defect == ins.completeness_defect
            assert np.array_equal(got.superops, ins.superops) and np.array_equal(got.superop, ins.superop)
            assert len(got.kraus) == len(ins.kraus)
            assert all(np.array_equal(a, b) for a, b in zip(got.kraus, ins.kraus))


def test_stacked_instruments_check_completeness_once_for_all():
    """A stack of instruments is checked in one pass: a defect in any one
    of them raises, naming the worst."""
    g = rng(61)
    model = random_hmm(g, 3, 2)
    stages = cl.smoothing_chain(model, [0, 1, 1]).stages
    labels = stages[0].instrument.outcomes
    fams = [st.instrument.kraus for st in stages]
    maps = np.array([st.instrument.superops for st in stages])
    assert len(ch._stack(labels, fams, maps)) == 3
    maps[1, 0] *= 1.001
    with pytest.raises(ValueError, match="completeness defect .* exceeds tolerance"):
        ch._stack(labels, fams, maps)


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


def small_hmm(**fields):
    return cl.HmmModel(**{"transition": [[0.9, 0.1], [0.2, 0.8]], "likelihood": [[0.7, 0.3], [0.4, 0.6]],
                          "prior": [0.5, 0.5], **fields})


def scalar_lg(**fields):
    return cl.LinearGaussianModel(**{"a": [[0.9]], "q": [[0.1]], "c": [[1.0]], "r": [[0.2]], "mean0": [0.0],
                                     "cov0": [[1.0]], **fields})


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: cl.hmm_forward_backward(small_hmm(), []),
                 "observations must be a nonempty 1-d sequence", id="no-observations"),
    pytest.param(lambda: small_hmm(transition=[[0.5, 0.5]]), "transition must be a square matrix",
                 id="transition-not-square"),
    pytest.param(lambda: small_hmm(transition=[[1.1, -0.1], [0.2, 0.8]]), "transition entries must be nonnegative",
                 id="transition-negative"),
    pytest.param(lambda: small_hmm(likelihood=[[0.7, 0.3, 0.1]]), "likelihood must have one column per state",
                 id="likelihood-columns"),
    pytest.param(lambda: small_hmm(prior=[1.0]), "prior must be a nonnegative vector over states",
                 id="prior-size"),
    pytest.param(lambda: cl.smoothing_chain(small_hmm(likelihood=[[0.7, 0.3], [0.0, 0.0]]), [0, 1]),
                 "observed symbol 1 has zero weight everywhere", id="chain-zero-weight-symbol"),
    pytest.param(lambda: scalar_lg(a=[[0.9, 0.1]]), "a must be square", id="lg-a-not-square"),
    pytest.param(lambda: scalar_lg(mean0=[0.0, 1.0]), "mean0 must match the state dimension", id="lg-mean0"),
    pytest.param(lambda: scalar_lg(q=np.eye(2)), "q must be 1x1", id="lg-q-size"),
    pytest.param(lambda: cl.kalman_filter(scalar_lg(), np.zeros((3, 2))),
                 "observations must have shape (steps, 1)", id="kalman-observation-shape"),
    pytest.param(lambda: cl.gaussian_batch_oracle(scalar_lg(a=[[0.0]], q=[[0.0]], r=[[0.0]], cov0=[[0.0]]),
                                                  [0.0, 0.0]),
                 "observation covariance is singular", id="oracle-singular-covariance"),
])
def test_classical_rejects_malformed_input(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message

import numpy as np
import pytest

from retroq import algebra as al


def rng(seed=0):
    return np.random.default_rng(seed)


def random_herm(g, d, scale=1.0):
    a = g.normal(size=(d, d)) + 1j * g.normal(size=(d, d))
    return scale * 0.5 * (a + a.conj().T)


def random_state(g, d):
    a = g.normal(size=(d, d)) + 1j * g.normal(size=(d, d))
    m = a @ a.conj().T
    return m / np.trace(m)


def random_effect(g, d):
    h = random_herm(g, d)
    w, v = np.linalg.eigh(h)
    w = (w - w.min()) / (w.max() - w.min())  # spectrum into [0, 1]
    return (v * w) @ v.conj().T


def test_tensor_index_convention():
    # left factor varies slowest: (A (x) B)[(i k),(j l)] = A[i,j] B[k,l]
    g = rng(1)
    a = g.normal(size=(2, 2)) + 1j * g.normal(size=(2, 2))
    b = g.normal(size=(3, 3)) + 1j * g.normal(size=(3, 3))
    t = al.tensor(a, b)
    for i in range(2):
        for j in range(2):
            for k in range(3):
                for l in range(3):
                    assert t[i * 3 + k, j * 3 + l] == pytest.approx(a[i, j] * b[k, l])


def test_pairing_is_real_probability_for_state_effect_pairs():
    g = rng(4)
    for d in (2, 3, 5):
        for _ in range(20):
            p = al.pairing(random_effect(g, d), random_state(g, d))
            assert -1e-12 <= p <= 1.0 + 1e-12


def test_pairing_rejects_dimension_mismatch_and_complex_trace():
    g = rng(5)
    with pytest.raises(ValueError, match="dimension mismatch"):
        al.pairing(np.eye(2), random_state(g, 3))
    with pytest.raises(ValueError, match="imaginary"):
        al.pairing(np.array([[0, 1j], [0, 0]]), np.array([[0, 0], [1, 0]]))


def test_hermitian_eig_rejects_nonhermitian():
    with pytest.raises(ValueError, match="not Hermitian"):
        al.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_dagger_and_hermitian_part_act_on_last_two_axes():
    g = rng(10)
    stack = g.normal(size=(4, 3, 3)) + 1j * g.normal(size=(4, 3, 3))
    want = np.array([m.conj().T for m in stack])
    assert np.array_equal(al.dagger(stack), want)
    assert np.array_equal(al.hermitian_part(stack), 0.5 * (stack + want))
    herm = np.array([random_herm(g, 3) for _ in range(4)])
    assert al.hermiticity_defect(herm) == 0.0
    herm[2, 0, 1] += 1e-3
    assert al.hermiticity_defect(herm) == pytest.approx(1e-3, rel=1e-9)


def test_state_spectrum_cleans_a_stack_like_single_states():
    g = rng(11)
    stack = np.array([random_state(g, 3) for _ in range(5)])
    w, v = al.state_spectrum(stack)
    assert w.shape == (5, 3) and v.shape == (5, 3, 3)
    for k, m in enumerate(stack):
        assert np.allclose((v[k] * w[k]) @ v[k].conj().T, al.validate_state(m), atol=1e-14)


def test_a_spectrum_passes_through_and_rebuilds_its_states():
    g = rng(14)
    stack = np.array([random_state(g, 2) for _ in range(4)])
    spec = al.state_spectrum(stack)
    assert al.state_spectrum(spec) is spec
    assert al.state_spectrum(spec, tol=0.0) is spec
    w, v = spec
    assert w is spec.w and v is spec.v
    assert np.allclose(spec.rebuild(), stack, atol=1e-14)
    assert np.allclose(spec.rebuild(np.sqrt) @ spec.rebuild(np.sqrt), stack, atol=1e-14)
    assert np.allclose(spec.rebuild()[2], al.validate_state(stack[2]), atol=1e-14)


def test_a_plain_tuple_of_states_is_a_stack():
    """A Spectrum is a tuple, but only a Spectrum passes through: a tuple
    of two 2×2 states is read as a stack of two states."""
    pair = (np.diag([0.25, 0.75]), np.diag([1.0, 0.0]))
    w, v = al.state_spectrum(pair)
    assert w.shape == (2, 2) and v.shape == (2, 2, 2)
    assert np.allclose(w, [[0.25, 0.75], [0.0, 1.0]])
    with pytest.raises(ValueError, match="negative eigenvalue"):
        al.state_spectrum((np.diag([0.25, 0.75]), np.diag([1.5, -0.5])))


def test_validate_state_accepts_and_cleans():
    g = rng(9)
    raw = random_state(g, 3)
    noisy = raw + 1e-12 * np.eye(3)  # slightly off-trace
    dm = al.validate_state(noisy, tol=1e-9)
    assert np.trace(dm) == pytest.approx(1.0, abs=1e-14)
    assert dm.shape == (3, 3)


def test_validate_state_distinct_failures():
    with pytest.raises(ValueError, match="not Hermitian"):
        al.validate_state(np.array([[1.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="negative eigenvalue"):
        al.validate_state(np.diag([1.5, -0.5]))
    with pytest.raises(ValueError, match="trace"):
        al.validate_state(np.diag([0.7, 0.7]))


def test_pauli_constants():
    assert np.allclose(al.SX @ al.SX, np.eye(2))
    assert np.allclose(al.SM, (al.SX + 1j * al.SY) / 2)
    assert np.allclose(al.SM @ al.ket(2, 1), al.ket(2, 0))

import numpy as np
import pytest

from retroq import algebra as al
from conftest import random_state


def rng(seed=0):
    return np.random.default_rng(seed)


def random_herm(g, d, scale=1.0):
    a = g.normal(size=(d, d)) + 1j * g.normal(size=(d, d))
    return scale * 0.5 * (a + a.conj().T)


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
    al._require_hermitian(herm, "not Hermitian")
    herm[2, 0, 1] += 1e-3
    with pytest.raises(ValueError, match="not Hermitian"):
        al._require_hermitian(herm, "not Hermitian")


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


def qubit_stacks(g, n):
    """(name, stack) pairs of Hermitian (n, 2, 2) stacks, complex and real,
    with the inputs where a closed form can go wrong."""
    out = []
    for kind in ("complex", "real"):
        a = g.normal(size=(n, 2, 2)) + (1j * g.normal(size=(n, 2, 2)) if kind == "complex" else 0.0)
        a = a + al.dagger(a)
        diag = a * np.eye(2)  # b = 0 with either diagonal entry the larger
        flat = diag[..., :1, :1] * np.eye(2)  # A ∝ I, and the zero matrix
        flat[0] = 0.0
        psi = g.normal(size=(n, 2)) + (1j * g.normal(size=(n, 2)) if kind == "complex" else 0.0)
        psi /= np.linalg.norm(psi, axis=-1, keepdims=True)
        eps = 10.0 ** g.uniform(-18.0, -12.0, size=(n, 1, 1))  # λ_min ≤ 1e-12
        pure = (1.0 - eps) * psi[:, :, None] * psi.conj()[:, None, :] + 0.5 * eps * np.eye(2)
        # Gibbs states of -ω/2 σz at βω from 20 to 60 (populations 1 : e^-βω), then diag(1, 1e-20),
        # in either order: LAPACK returns a diagonal exactly, to every relative digit
        tail = np.exp(-g.uniform(20.0, 60.0, size=n))
        gibbs = np.zeros((n, 2, 2), a.dtype)
        gibbs[:, 0, 0], gibbs[:, 1, 1] = 1.0 / (1.0 + tail), tail / (1.0 + tail)
        gibbs[0, 0, 0], gibbs[0, 1, 1] = 1.0, 1e-20
        gibbs[1::2] = gibbs[1::2, ::-1, ::-1]
        out += [(f"{kind}", a), (f"{kind} diagonal", diag), (f"{kind} ∝ I", flat), (f"{kind} near-pure", pure),
                (f"{kind} diagonal Gibbs", gibbs), (f"{kind} × 1e150", 1e150 * a), (f"{kind} × 1e-150", 1e-150 * a)]
    return out


def test_closed_form_qubit_spectrum_matches_lapack():
    g = rng(21)
    for name, a in qubit_stacks(g, 10_000):
        w, v = al.eigensystem(a)
        ref = np.linalg.eigvalsh(a)
        norm = np.abs(ref).max(axis=-1)
        # bounds relative to the norm on the scaled stacks, where max(1, ‖A‖) would say nothing below 1
        bound = 1e-14 * (norm if "×" in name else np.maximum(1.0, norm))
        assert np.array_equal(al.eigenvalues(a), w), name
        assert w.dtype == ref.dtype and v.dtype == a.dtype, name
        assert (np.diff(w, axis=-1) >= 0.0).all(), name
        assert (np.abs(w - ref).max(axis=-1) <= bound).all(), name
        if "diagonal" in name or "∝ I" in name:  # each eigenvalue to a few ulps of itself, however small
            assert (np.abs(w - ref) <= 1e-15 * np.abs(ref)).all(), name
        assert np.abs(al.dagger(v) @ v - np.eye(2)).max() <= 1e-14, name
        assert (np.abs((v * w[..., None, :]) @ al.dagger(v) - a).max(axis=(-2, -1)) <= bound).all(), name


def test_closed_form_reads_the_lower_triangle_of_a_stack():
    """Like LAPACK, the upper triangle and the imaginary diagonal are never read."""
    g = rng(22)
    a = np.stack([random_herm(g, 2) for _ in range(3)])
    junk = a + np.triu(g.normal(size=(3, 2, 2)), 1) + 1j * g.normal(size=(3, 2))[..., None] * np.eye(2)
    assert np.array_equal(al.eigenvalues(junk), al.eigenvalues(a))
    w, v = al.eigensystem(junk)
    assert w.shape == (3, 2) and v.shape == (3, 2, 2)
    assert np.allclose(w, np.linalg.eigvalsh(junk), rtol=0.0, atol=1e-14)
    assert np.allclose((v * w[..., None, :]) @ al.dagger(v), a, rtol=0.0, atol=1e-14)


def test_one_qubit_matrix_is_lapack_bit_for_bit():
    """One LAPACK call costs less than the closed form's numpy calls on scalars."""
    a = random_herm(rng(23), 2)
    w, v = al.eigensystem(a)
    want_w, want_v = np.linalg.eigh(a)
    assert np.array_equal(w, want_w) and np.array_equal(v, want_v)
    assert np.array_equal(al.eigenvalues(a), np.linalg.eigvalsh(a))


@pytest.mark.parametrize("d", [3, 4, 8])
def test_other_dimensions_are_lapack_bit_for_bit(d):
    g = rng(23 + d)
    for kind in ("complex", "real"):
        a = g.normal(size=(50, d, d)) + (1j * g.normal(size=(50, d, d)) if kind == "complex" else 0.0)
        a = a + al.dagger(a)
        w, v = al.eigensystem(a)
        want_w, want_v = np.linalg.eigh(a)
        assert np.array_equal(w, want_w) and np.array_equal(v, want_v)
        assert np.array_equal(al.eigenvalues(a), np.linalg.eigvalsh(a))
        assert np.array_equal(al.eigenvalues(a[0]), np.linalg.eigvalsh(a[0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("d", [2, 3])
def test_non_finite_operators_are_rejected_before_decomposition(d, bad):
    """A NaN passes silently through a decomposition (LAPACK's eigvalsh of
    diag(nan, 1) is [0, -0]), so it is refused by name first."""
    op = np.eye(d, dtype=complex) / d
    op[0, 0] = bad
    for call in (al.state_spectrum, al.validate_state):
        with pytest.raises(ValueError, match="state rejected: non-finite"):
            call(op)
    with pytest.raises(ValueError, match="state rejected: non-finite"):
        al.state_spectrum(np.stack([np.eye(d) / d, op]))
    with pytest.raises(ValueError, match="operator rejected: non-finite"):
        al.hermitian_eig(op)


def test_apply_adjoint_is_the_conjugate_transpose_applied():
    """The Heisenberg map X -> S†(X) equals apply_superop of S's conjugate
    transpose bit for bit, for one operator and for a stack."""
    g = np.random.default_rng(53)
    for d in (2, 3, 5):
        s = g.normal(size=(d * d, d * d)) + 1j * g.normal(size=(d * d, d * d))
        x = g.normal(size=(4, d, d)) + 1j * g.normal(size=(4, d, d))
        for op in (x[0], x):
            assert np.array_equal(al.apply_adjoint(s, op), al.apply_superop(s.conj().T, op))


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: al.asstack(np.zeros(2)), "expected a square matrix or a stack of them, got shape (2,)",
                 id="asstack-vector"),
    pytest.param(lambda: al.projector(np.zeros(2)), "cannot project onto the zero vector", id="projector-zero"),
])
def test_algebra_rejects_malformed_input(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message

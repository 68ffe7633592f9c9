"""Hermitian operator primitives: pairings, tensors, superoperators on vec(rho), and validated states."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

DEFAULT_TOL = 1e-9
LOG_FLOOR = 1e-300

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SM = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # sigma_minus, |0><1|
SP = SM.conj().T


def asoperator(x) -> np.ndarray:
    """Coerce an array-like to a complex square matrix."""
    mat = np.asarray(x, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    return mat


def asstack(x) -> np.ndarray:
    """Like asoperator, but also accepts a stack (..., d, d) of square matrices."""
    mats = np.asarray(x, dtype=complex)
    if mats.ndim < 2 or mats.shape[-1] != mats.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {mats.shape}")
    return mats


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose over the last two axes, so stacks (..., d, d) work too."""
    return np.conj(a.swapaxes(-1, -2))


def hermitian_part(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + dagger(a))


def hermiticity_defect(a: np.ndarray) -> float:
    """Largest entrywise deviation of A (or of any matrix in a stack) from its Hermitian part."""
    return float(np.max(np.abs(a - dagger(a)))) if a.size else 0.0


def sandwich_superop(x, y) -> np.ndarray:
    """Row-major matrix of rho -> sum_a x_a rho y_a†, so vec(x rho y†) = (x ⊗ ȳ) vec(rho).

    x and y are one operator each, aligned stacks (a, d, d) summed over a,
    or batches (..., a, d, d) giving one matrix per batch entry; the sum over
    a is one matrix product. vec(rho) is rho.reshape(-1).
    """
    x = np.asarray(x, dtype=complex)
    d, lead = x.shape[-1], x.shape[:-3]
    s = np.swapaxes(x.reshape(*lead, -1, d * d), -1, -2) @ np.conj(y).reshape(*lead, -1, d * d)
    return s.reshape(*lead, d, d, d, d).swapaxes(-3, -2).reshape(*lead, d * d, d * d)


def apply_superop(s, x) -> np.ndarray:
    """unvec(S vec(x)) for a d²×d² superoperator and one operator or a stack (..., d, d)."""
    x = asstack(x)
    return (x.reshape(*x.shape[:-2], -1) @ np.transpose(s)).reshape(x.shape)


def ket(dim: int, i: int) -> np.ndarray:
    v = np.zeros(dim, dtype=complex)
    v[i] = 1.0
    return v


def projector(psi: np.ndarray) -> np.ndarray:
    """Rank-1 projector |psi><psi| / <psi|psi>."""
    psi = np.asarray(psi, dtype=complex).ravel()
    n2 = float(np.vdot(psi, psi).real)
    if n2 <= 0.0:
        raise ValueError("cannot project onto the zero vector")
    return np.outer(psi, psi.conj()) / n2


def tensor(*ops) -> np.ndarray:
    """Kronecker product; the leftmost factor owns the slowest-varying index."""
    out = asoperator(ops[0])
    for op in ops[1:]:
        out = np.kron(out, asoperator(op))
    return out


def pairing(effect, state) -> float | np.ndarray:
    """Tr[E rho] as a float, or an array over broadcast stacks; rejects imaginary parts.

    The trace is summed entrywise, O(d²) per pair, without forming E rho.
    """
    e = asstack(effect)
    r = asstack(state)
    if e.shape[-1] != r.shape[-1]:
        raise ValueError(f"dimension mismatch: effect {e.shape[-1]} vs state {r.shape[-1]}")
    val = np.einsum("...ij,...ji->...", e, r)
    bad = np.abs(val.imag) > DEFAULT_TOL * np.maximum(1.0, np.abs(val))
    if np.any(bad):
        raise ValueError(f"pairing has imaginary part {val[bad][0].imag:.3e} beyond tolerance")
    return val.real if val.ndim else float(val.real)


def _qubit_spectrum(a, vectors: bool):
    """Closed-form spectrum of a (..., 2, 2) stack, read from its lower triangle.

    With m = (a+d)/2, δ = (a-d)/2 and b = A[1,0] the eigenvalues are
    m ∓ r, r = hypot(δ, |b|). The one of larger magnitude, m + sign(m) r,
    is taken as it stands and the other as det A over it, written as
    a (d/·) - |b| (|b|/·) so that neither product leaves the range of A:
    m - r itself would lose the small eigenvalue of diag(1, 1e-20) to
    rounding, where this keeps it to a few ulps. The top eigenvector spans
    the range of A - w_lo I, whose column 0, (δ + r, b), does not cancel
    when δ >= 0 and whose column 1, (b̄, r - δ), does not when δ < 0; the
    other eigenvector is its orthogonal complement. A ∝ I has a zero range
    and takes V = [[0, 1], [-1, 0]].
    """
    p, q, b = a[..., 0, 0].real, a[..., 1, 1].real, a[..., 1, 0]
    m, delta, size = 0.5 * (p + q), 0.5 * (p - q), np.abs(b)
    r = np.hypot(delta, size)
    outer = m + np.copysign(r, m)  # |outer| = ‖A‖ bounds every entry, and is 0 only for A = 0
    safe = outer + (outer == 0.0)
    inner = p * (q / safe) - size * (size / safe)
    w = np.empty((*np.shape(m), 2))
    np.minimum(outer, inner, out=w[..., 0])
    np.maximum(outer, inner, out=w[..., 1])
    if not vectors:
        return w
    first = delta >= 0.0
    big = np.abs(delta) + r
    n = np.hypot(big, size)
    flat = n == 0.0  # then big = 0 too, and both become 1
    big, n = big + flat, n + flat
    x = np.where(first, big, np.conj(b)) / n
    y = np.where(first, b, big) / n
    v = np.empty(a.shape, np.result_type(x, y))
    v[..., 0, 0], v[..., 1, 0] = np.conj(y), -np.conj(x)
    v[..., 0, 1], v[..., 1, 1] = x, y
    return w, v


def eigenvalues(a) -> np.ndarray:
    """Ascending eigenvalues (..., d) of a Hermitian matrix or stack (..., d, d).

    Like np.linalg.eigvalsh it reads only the lower triangle. With
    eigensystem, this is the one place in retroq that solves an
    eigenproblem: in closed form for a stack of 2×2 matrices, where LAPACK
    would be called once per matrix, and through np.linalg for one matrix
    and at every other d, where one call costs less than the closed
    form's numpy calls on scalars.
    """
    a = np.asarray(a)
    return _qubit_spectrum(a, False) if a.ndim > 2 and a.shape[-2:] == (2, 2) else np.linalg.eigvalsh(a)


def eigensystem(a):
    """(w, V) with A = V diag(w) V† for a Hermitian matrix or stack, w ascending; see eigenvalues."""
    a = np.asarray(a)
    return _qubit_spectrum(a, True) if a.ndim > 2 and a.shape[-2:] == (2, 2) else np.linalg.eigh(a)


def _require_finite(a: np.ndarray, what: str) -> None:
    if not np.isfinite(a).all():
        raise ValueError(f"{what} rejected: non-finite entries")


def hermitian_eig(op):
    """Eigendecomposition of a Hermitian operator; returns (w, V) with A = V diag(w) V†."""
    a = asoperator(op)
    _require_finite(a, "operator")
    if hermiticity_defect(a) > DEFAULT_TOL * max(1.0, float(np.max(np.abs(a)))):
        raise ValueError("operator is not Hermitian within tolerance")
    return eigensystem(hermitian_part(a))


def spectral_norm_hermitian(op) -> float:
    return float(np.max(np.abs(eigenvalues(hermitian_part(asoperator(op))))))


class Spectrum(NamedTuple):
    """Eigenvalues w (..., d) and eigenvectors V (..., d, d): A = V diag(w) V†.

    state_spectrum makes one for a state or a stack it checked, and
    Spectrum(*hermitian_eig(op)) one for any Hermitian operator, whose
    functions f(A) then come from rebuild(f).
    """

    w: np.ndarray
    v: np.ndarray

    def rebuild(self, f=None) -> np.ndarray:
        """V diag(f(w)) V†, or the states themselves when f is None."""
        w = self.w if f is None else f(self.w)
        return (self.v * w[..., None, :]) @ dagger(self.v)


def state_spectrum(op, tol: float = DEFAULT_TOL) -> Spectrum:
    """Check and clean one state (d, d) or a stack (..., d, d); returns its Spectrum.

    Each state is V diag(w) V† with its eigenvalues in [-tol, 0) clamped to
    zero and its trace renormalized to 1. Violations beyond tol raise with
    a message naming the broken invariant. A Spectrum was checked when it
    was made, so it comes back as it is, and one stack is decomposed once.
    """
    if isinstance(op, Spectrum):
        return op
    mats = asstack(op)
    _require_finite(mats, "state")
    if hermiticity_defect(mats) > tol:
        raise ValueError("state rejected: not Hermitian within tolerance")
    w, v = eigensystem(hermitian_part(mats))
    if w.size and float(w.min()) < -tol:
        raise ValueError(f"state rejected: negative eigenvalue {w.min():.3e}")
    w = np.clip(w, 0.0, None)
    tr = w.sum(axis=-1, keepdims=True)
    bad = np.abs(tr - 1.0) > tol
    if np.any(bad):
        raise ValueError(f"state rejected: trace {float(tr[bad][0]):.12g} differs from 1")
    return Spectrum(w / tr, v)


def validate_state(op, tol: float = DEFAULT_TOL) -> np.ndarray:
    """A raw matrix cleaned through state_spectrum: symmetrized, tiny negatives clamped, trace 1."""
    return state_spectrum(asoperator(op), tol).rebuild()

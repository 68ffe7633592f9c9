"""Hermitian operator primitives: traces, tensors, matrix functions, validated states and effects."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-9
LOG_FLOOR = 1e-300

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SM = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # sigma_minus, |0><1|
SP = SM.conj().T


def asoperator(x) -> np.ndarray:
    """Coerce a DensityMatrix, Effect, or array-like to a complex square matrix."""
    mat = np.asarray(getattr(x, "mat", x), dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    return mat


def asstack(x) -> np.ndarray:
    """Like asoperator, but also accepts a stack (..., d, d) of square matrices."""
    mats = np.asarray(getattr(x, "mat", x), dtype=complex)
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


def partial_trace(op, dims: list[int] | tuple[int, ...], keep) -> np.ndarray:
    """Trace out all tensor factors except those in `keep` (int or sequence of ints).

    `dims` lists the factor dimensions, leftmost factor slowest, and must
    multiply to the operator dimension. The kept factors retain their order.
    """
    mat = asoperator(op)
    dims = list(int(d) for d in dims)
    if int(np.prod(dims)) != mat.shape[0]:
        raise ValueError(f"dims {dims} do not factor dimension {mat.shape[0]}")
    keep = [keep] if np.isscalar(keep) else list(keep)
    if not all(0 <= k < len(dims) for k in keep) or len(set(keep)) != len(keep):
        raise ValueError(f"bad keep indices {keep} for {len(dims)} factors")
    n = len(dims)
    resh = mat.reshape(dims + dims)
    # pair up row/column indices of every traced-out factor
    letters = "abcdefghijklmnopqrstuvwxyz"
    row = list(letters[:n])
    col = [letters[i] if i not in keep else letters[n + i] for i in range(n)]
    out_sub = "".join(letters[k] for k in keep) + "".join(letters[n + k] for k in keep)
    res = np.einsum("".join(row) + "".join(col) + "->" + out_sub, resh)
    d_keep = int(np.prod([dims[k] for k in keep]))
    return res.reshape(d_keep, d_keep)


def pairing(effect, state, tol: float = DEFAULT_TOL) -> float | np.ndarray:
    """Tr[E rho] as a float, or an array over broadcast stacks; rejects imaginary parts."""
    e = asstack(effect)
    r = asstack(state)
    if e.shape[-1] != r.shape[-1]:
        raise ValueError(f"dimension mismatch: effect {e.shape[-1]} vs state {r.shape[-1]}")
    val = np.trace(e @ r, axis1=-2, axis2=-1)
    bad = np.abs(val.imag) > tol * np.maximum(1.0, np.abs(val))
    if np.any(bad):
        raise ValueError(f"pairing has imaginary part {val[bad][0].imag:.3e} beyond tolerance")
    return val.real if val.ndim else float(val.real)


def hermitian_eig(op, tol: float = DEFAULT_TOL):
    """Eigendecomposition of a Hermitian operator; returns (w, V) with A = V diag(w) V†."""
    a = asoperator(op)
    if hermiticity_defect(a) > tol * max(1.0, float(np.max(np.abs(a)))):
        raise ValueError("operator is not Hermitian within tolerance")
    return np.linalg.eigh(hermitian_part(a))


def herm_fn(op, fn, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Apply a scalar function to a Hermitian operator through its spectrum."""
    w, v = hermitian_eig(op, tol)
    return (v * fn(w)) @ dagger(v)


def herm_exp(op, scale: float = 1.0) -> np.ndarray:
    """exp(scale * A) for Hermitian A."""
    return herm_fn(op, lambda w: np.exp(scale * w))


def herm_unitary(op, t: float = 1.0) -> np.ndarray:
    """exp(-i t A) for Hermitian A."""
    w, v = hermitian_eig(op)
    return (v * np.exp(-1j * t * w)) @ dagger(v)


def psd_sqrt(op, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Principal square root of a PSD operator; eigenvalues in [-tol, 0) clamp to 0."""
    w, v = hermitian_eig(op, tol)
    if w.size and float(w.min()) < -tol:
        raise ValueError(f"operator has negative eigenvalue {w.min():.3e}, not PSD within tolerance")
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ dagger(v)


def psd_log(op, floor: float = LOG_FLOOR, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Matrix logarithm of a PSD operator with spectrum floored at `floor`."""
    w, v = hermitian_eig(op, tol)
    if w.size and float(w.min()) < -tol:
        raise ValueError(f"operator has negative eigenvalue {w.min():.3e}, log undefined")
    return (v * np.log(np.clip(w, floor, None))) @ dagger(v)


def spectral_norm_hermitian(op) -> float:
    return float(np.max(np.abs(np.linalg.eigvalsh(hermitian_part(asoperator(op))))))


@dataclass(frozen=True)
class DensityMatrix:
    """Unit-trace PSD operator. Construction re-checks the invariants; use validate_state
    to adopt a raw matrix (symmetrize, clamp tiny negatives, renormalize)."""

    mat: np.ndarray
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        mat = asoperator(self.mat)
        object.__setattr__(self, "mat", mat)
        if hermiticity_defect(mat) > self.tol:
            raise ValueError("density matrix is not Hermitian within tolerance")
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > self.tol:
            raise ValueError(f"density matrix trace {tr:.12g} differs from 1 beyond tolerance")
        wmin = float(np.linalg.eigvalsh(hermitian_part(mat)).min())
        if wmin < -self.tol:
            raise ValueError(f"density matrix has negative eigenvalue {wmin:.3e}")

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


@dataclass(frozen=True)
class Effect:
    """Operator with spectrum in [0, 1] up to tolerance (a POVM element)."""

    mat: np.ndarray
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        mat = asoperator(self.mat)
        object.__setattr__(self, "mat", mat)
        if hermiticity_defect(mat) > self.tol:
            raise ValueError("effect is not Hermitian within tolerance")
        w = np.linalg.eigvalsh(hermitian_part(mat))
        if w.size and (float(w.min()) < -self.tol or float(w.max()) > 1.0 + self.tol):
            raise ValueError(
                f"effect spectrum [{w.min():.3e}, {w.max():.3e}] leaves [0, 1] beyond tolerance"
            )

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


def state_spectrum(op, tol: float = DEFAULT_TOL):
    """Check and clean one state (d, d) or a stack (..., d, d); returns (w, V).

    Each state is V diag(w) V† with its eigenvalues in [-tol, 0) clamped to
    zero and its trace renormalized to 1. Violations beyond tol raise with
    a message naming the broken invariant.
    """
    mats = asstack(op)
    if hermiticity_defect(mats) > tol:
        raise ValueError("state rejected: not Hermitian within tolerance")
    w, v = np.linalg.eigh(hermitian_part(mats))
    if w.size and float(w.min()) < -tol:
        raise ValueError(f"state rejected: negative eigenvalue {w.min():.3e}")
    w = np.clip(w, 0.0, None)
    tr = w.sum(axis=-1, keepdims=True)
    bad = np.abs(tr - 1.0) > tol
    if np.any(bad):
        raise ValueError(f"state rejected: trace {float(tr[bad][0]):.12g} differs from 1")
    return w / tr, v


def validate_state(op, tol: float = DEFAULT_TOL) -> DensityMatrix:
    """Adopt a raw matrix as a DensityMatrix through state_spectrum."""
    w, v = state_spectrum(asoperator(op), tol)
    return DensityMatrix((v * w) @ dagger(v), tol=tol)


def validate_effect(op, tol: float = DEFAULT_TOL) -> Effect:
    """Adopt a raw matrix as an Effect, clamping spectrum onto [0, 1] within tol."""
    mat = asoperator(op)
    if hermiticity_defect(mat) > tol:
        raise ValueError("effect rejected: not Hermitian within tolerance")
    w, v = np.linalg.eigh(hermitian_part(mat))
    if w.size and float(w.min()) < -tol:
        raise ValueError(f"effect rejected: negative eigenvalue {w.min():.3e}")
    if w.size and float(w.max()) > 1.0 + tol:
        raise ValueError(f"effect rejected: eigenvalue {w.max():.12g} exceeds 1")
    w = np.clip(w, 0.0, 1.0)
    return Effect((v * w) @ dagger(v), tol=tol)

"""Instruments, channels, and ancilla dilations.

An instrument maps a state to one unnormalized branch per outcome,
I_m(rho) = sum_a M_ma rho M_ma†, with sum_m I_m trace preserving. Each
outcome is held as its Kraus family and as its d²×d² superoperator
S_m = sum_a M_ma ⊗ M̄_ma on row-major vec(rho), the convention of the
record step (algebra.sandwich_superop). Branches are S_m vec(rho); effects
travel the other way through the adjoint S_m†, I_m†(X) = sum_a M_ma† X M_ma.
Composition is a matrix product, and a channel is a one-outcome instrument.
Every instrument, built alone, by composition or as one of a stack (the
stages of classical.smoothing_chain), is filled by _settle, which checks
the completeness of a whole stack in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import DEFAULT_TOL, apply_adjoint, apply_superop, asoperator, dagger, sandwich_superop, tensor


@dataclass(frozen=True, eq=False)
class Instrument:
    """Outcome-labelled Kraus families, complete as a whole.

    kraus holds one (a_m, d, d) array per outcome, superops the (n, d², d²)
    stack of the S_m and superop their sum, the nonselective map.
    completeness_defect is max |sum_m S_m† vec(I) - vec(I)|.
    """

    outcomes: tuple
    kraus: tuple
    superops: np.ndarray = field(init=False, repr=False)
    superop: np.ndarray = field(init=False, repr=False)
    completeness_defect: float = field(init=False, repr=False)

    def __post_init__(self):
        labels = tuple(str(m) for m in self.outcomes)
        if len(set(labels)) != len(labels):
            raise ValueError("instrument outcome labels must be unique")
        if len(labels) != len(self.kraus):
            raise ValueError("instrument needs one Kraus family per outcome")
        fams = tuple(np.asarray(fam, dtype=complex) for fam in self.kraus)
        d = fams[0].shape[-1]
        if any(fam.ndim != 3 or len(fam) == 0 or fam.shape[1:] != (d, d) for fam in fams):
            raise ValueError("instrument needs a nonempty Kraus family per outcome, all d x d")
        padded = np.zeros((1, len(fams), max(map(len, fams)), d, d), dtype=complex)
        for i, fam in enumerate(fams):  # zero operators add nothing to S_m
            padded[0, i, :len(fam)] = fam
        _settle((self,), labels, (fams,), sandwich_superop(padded, padded))

    @property
    def dim(self) -> int:
        return self.kraus[0].shape[-1]

    def _index(self, m) -> int:
        try:
            return self.outcomes.index(str(m))
        except ValueError:
            raise KeyError(f"unknown outcome {m!r}; have {self.outcomes}") from None

    def apply(self, m, rho) -> np.ndarray:
        """Unnormalized post-measurement branch for outcome m, of one state or a stack."""
        return apply_superop(self.superops[self._index(m)], rho)

    def adjoint(self, m, x) -> np.ndarray:
        """Heisenberg-picture branch I_m†(X) of one operator or a stack."""
        return apply_adjoint(self.superops[self._index(m)], x)

    def povm(self) -> dict:
        """Outcome label -> effect I_m†(I); effects sum to the identity."""
        eye = np.eye(self.dim)
        return {m: self.adjoint(m, eye) for m in self.outcomes}

    def nonselective(self) -> Channel:
        return Channel(np.concatenate(self.kraus))

    def gauge_mix(self, m, u) -> "Instrument":
        """Replace outcome m's Kraus family {K_a} by {sum_a u[b,a] K_a}; u unitary."""
        u = np.asarray(u, dtype=complex)
        i = self._index(m)
        n = len(self.kraus[i])
        if u.shape != (n, n):
            raise ValueError(f"mixing matrix shape {u.shape} does not fit {n} operators")
        if np.max(np.abs(u @ dagger(u) - np.eye(n))) > DEFAULT_TOL:
            raise ValueError("gauge mixing matrix is not unitary within tolerance")
        mixed = np.einsum("ba,aij->bij", u, self.kraus[i])
        return Instrument(self.outcomes, self.kraus[:i] + (mixed,) + self.kraus[i + 1:])


@dataclass(frozen=True, eq=False)
class Channel:
    """Trace-preserving Kraus map: the one-outcome instrument of its (a, d, d) Kraus family."""

    kraus: tuple
    superop: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        ins = Instrument(("channel",), (self.kraus,))
        object.__setattr__(self, "kraus", ins.kraus[0])
        object.__setattr__(self, "superop", ins.superop)

    @property
    def dim(self) -> int:
        return self.kraus.shape[-1]

    def apply(self, rho) -> np.ndarray:
        return apply_superop(self.superop, rho)

    def adjoint(self, x) -> np.ndarray:
        """Heisenberg-picture action: sum_k K† X K (unital when the map is TP)."""
        return apply_adjoint(self.superop, x)


def projective(labels_to_projectors: dict) -> Instrument:
    """Instrument of one projector per outcome."""
    items = list(labels_to_projectors.items())
    return Instrument(tuple(k for k, _ in items), tuple((asoperator(p),) for _, p in items))


def unsharp_z(eta: float) -> Instrument:
    """Unsharp Z readout with sharpness eta: effects (I ± eta sigma_z)/2, Kraus their roots.

    The square roots come out as a I ± b sigma_z with a, b the half-sum and
    half-difference of sqrt((1 ± eta)/2).
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"sharpness eta={eta} must lie in [0, 1]")
    sp = np.sqrt((1.0 + eta) / 2.0)
    sm = np.sqrt((1.0 - eta) / 2.0)
    a, b = (sp + sm) / 2.0, (sp - sm) / 2.0
    eye = np.eye(2, dtype=complex)
    sz = np.diag([1.0, -1.0]).astype(complex)
    return Instrument(("+", "-"), ((a * eye + b * sz,), (a * eye - b * sz,)))


def _families(ops, lengths) -> list:
    """The Kraus families of each entry of a (K, A, d, d) stack of operators, listed outcome by outcome.

    Outcome m owns the next lengths[m] operators of its entry's row.
    """
    ends = np.cumsum(lengths).tolist()
    return [tuple(row[a:b] for a, b in zip([0, *ends], ends)) for row in ops]


def _preprocessed(ops, maps, lam: Channel) -> tuple:
    """Operators (..., A, d, d) and outcome maps (..., n, d², d²) composed after the channel, each in one product.

    The operators become (..., A·b, d, d), K_a L_b with b fastest, and each
    map S_m becomes S_m S_lam.
    """
    d, b = lam.dim, len(lam.kraus)
    right = lam.kraus.transpose(1, 0, 2).reshape(d, b * d)  # [L_1 | L_2 | ...]
    lead, a = ops.shape[:-3], ops.shape[-3]
    ops = (ops.reshape(-1, d) @ right).reshape(*lead, a, d, b, d).swapaxes(-3, -2).reshape(*lead, a * b, d, d)
    return ops, (maps.reshape(-1, d * d) @ lam.superop).reshape(maps.shape)


def _settle(outs, labels, fams, superops) -> None:
    """Fill K instruments from checked parts, then check their completeness in one pass.

    fams holds each instrument's Kraus families and superops the (K, n, d², d²)
    stack of their outcome maps. Instrument construction, compose_preprocess
    and classical.smoothing_chain all end here, so a stack of instruments
    costs one completeness check, not one per instrument.
    """
    d = fams[0][0].shape[-1]
    total = superops.sum(axis=1)
    resid = total[:, :: d + 1].sum(axis=1)  # vec(I) @ S, the conjugate of S† vec(I)
    resid[:, :: d + 1] -= 1.0
    defects = np.abs(resid).max(axis=1)
    for out, fam, ops, tot, defect in zip(outs, fams, superops, total, defects.tolist()):
        for name, value in (("outcomes", labels), ("kraus", fam), ("superops", ops),
                            ("superop", tot), ("completeness_defect", defect)):
            object.__setattr__(out, name, value)
    worst = float(defects.max())
    if worst > DEFAULT_TOL:
        raise ValueError(f"completeness defect {worst:.3e} exceeds tolerance {DEFAULT_TOL:.1e}")


def _stack(labels, fams, superops) -> tuple:
    """K new instruments from checked parts (see _settle)."""
    outs = tuple(object.__new__(Instrument) for _ in fams)
    _settle(outs, labels, fams, superops)
    return outs


def compose_preprocess(ins: Instrument, lam: Channel) -> Instrument:
    """Instrument that first applies the channel, then measures: branches K_ma L_b, maps S_m S_lam."""
    if ins.dim != lam.dim:
        raise ValueError(f"dimension mismatch: instrument {ins.dim} vs channel {lam.dim}")
    ops, maps = _preprocessed(np.concatenate(ins.kraus)[None], ins.superops[None], lam)
    return _stack(ins.outcomes, _families(ops, [len(fam) * len(lam.kraus) for fam in ins.kraus]), maps)[0]


@dataclass(frozen=True, eq=False)
class Dilation:
    """Unitary ancilla model of an instrument.

    U acts on system (x) ancilla (ancilla index fastest), the ancilla starts in
    |0>, and outcome m is read by the ancilla projector `projectors[m]`.
    """

    unitary: np.ndarray
    ancilla_dim: int
    projectors: dict
    outcomes: tuple

    def apply(self, m, rho) -> np.ndarray:
        """Tr_ancilla[(I (x) P_m) U (rho (x) |0><0|) U†], unnormalized branch."""
        r = asoperator(rho)
        d = r.shape[0]
        k = self.ancilla_dim
        anc0 = np.zeros((k, k), dtype=complex)
        anc0[0, 0] = 1.0
        big = self.unitary @ tensor(r, anc0) @ dagger(self.unitary)
        sel = tensor(np.eye(d), self.projectors[str(m)]) @ big
        # partial trace over the fast (ancilla) factor
        return np.einsum("ikjk->ij", sel.reshape(d, k, d, k))


def naimark_dilate(ins: Instrument) -> Dilation:
    """Build a unitary-with-ancilla realization of an instrument.

    Stacks all Kraus operators into the isometry V|psi> = sum_a (M_a|psi>)(x)|a>,
    completes V to a unitary by QR, and reads outcomes with ancilla projectors
    over each outcome's block of Kraus indices.
    """
    d = ins.dim
    flat = np.concatenate(ins.kraus)
    kdim = max(len(flat), 2)  # a 1-operator instrument still needs a nontrivial ancilla
    # row index (s', a): system slow, ancilla fast
    v = np.zeros((d, kdim, d), dtype=complex)
    v[:, :len(flat)] = flat.transpose(1, 0, 2)
    v = v.reshape(d * kdim, d)
    # complete to a unitary: V is an isometry, so QR gives Q whose first d
    # columns equal V up to the diagonal phases of R
    q, r = np.linalg.qr(v, mode="complete")
    phases = np.ones(d * kdim, dtype=complex)
    phases[:d] = np.diagonal(r)[:d]
    u_first = q * phases  # now u_first[:, :d] == V
    if np.max(np.abs(u_first[:, :d] - v)) > 1e-10:
        raise ValueError("dilation completion failed to reproduce the isometry")
    # route the isometry columns to input ancilla index 0: column (s, 0) <- V[:, s]
    first = np.arange(d * kdim) % kdim == 0
    u = np.empty_like(u_first)
    u[:, first], u[:, ~first] = u_first[:, :d], u_first[:, d:]
    owner = np.full(kdim, -1)  # outcome index of each ancilla level
    owner[:len(flat)] = np.repeat(np.arange(len(ins.outcomes)), [len(f) for f in ins.kraus])
    projs = {m: np.diag(owner == i).astype(complex) for i, m in enumerate(ins.outcomes)}
    return Dilation(unitary=u, ancilla_dim=kdim, projectors=projs, outcomes=ins.outcomes)

"""Instruments, channels, and ancilla dilations.

An instrument maps a state to one unnormalized branch per outcome,
I_m(rho) = sum_a M_ma rho M_ma†, with sum_m I_m trace preserving. Effects
travel the other way through the adjoint, I_m†(X) = sum_a M_ma† X M_ma.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import DEFAULT_TOL, asoperator, asstack, dagger, tensor


def _check_kraus_sum(kraus_flat, dim, tol, what):
    acc = np.zeros((dim, dim), dtype=complex)
    for m in kraus_flat:
        acc += dagger(m) @ m
    defect = float(np.max(np.abs(acc - np.eye(dim))))
    if defect > tol:
        raise ValueError(f"{what}: completeness defect {defect:.3e} exceeds tolerance {tol:.1e}")


@dataclass(frozen=True)
class Channel:
    """Trace-preserving Kraus map."""

    kraus: tuple
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        ops = tuple(asoperator(k) for k in self.kraus)
        if not ops:
            raise ValueError("channel needs at least one Kraus operator")
        d = ops[0].shape[0]
        if any(k.shape != (d, d) for k in ops):
            raise ValueError("channel Kraus operators must share one dimension")
        object.__setattr__(self, "kraus", ops)
        _check_kraus_sum(ops, d, self.tol, "channel")

    @property
    def dim(self) -> int:
        return self.kraus[0].shape[0]

    def apply(self, rho) -> np.ndarray:
        r = asoperator(rho)
        return sum(k @ r @ dagger(k) for k in self.kraus)

    def adjoint(self, x) -> np.ndarray:
        """Heisenberg-picture action: sum_k K† X K (unital when the map is TP)."""
        xm = asoperator(x)
        return sum(dagger(k) @ xm @ k for k in self.kraus)


@dataclass(frozen=True)
class Instrument:
    """Outcome-labelled Kraus families, complete as a whole."""

    outcomes: tuple
    kraus: tuple  # tuple of tuples of matrices, aligned with outcomes
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        labels = tuple(str(m) for m in self.outcomes)
        if len(set(labels)) != len(labels):
            raise ValueError("instrument outcome labels must be unique")
        if len(labels) != len(self.kraus):
            raise ValueError("instrument needs one Kraus family per outcome")
        fams = tuple(tuple(asoperator(k) for k in fam) for fam in self.kraus)
        if any(len(fam) == 0 for fam in fams):
            raise ValueError("instrument outcome with empty Kraus family")
        d = fams[0][0].shape[0]
        if any(k.shape != (d, d) for fam in fams for k in fam):
            raise ValueError("instrument Kraus operators must share one dimension")
        object.__setattr__(self, "outcomes", labels)
        object.__setattr__(self, "kraus", fams)
        _check_kraus_sum([k for fam in fams for k in fam], d, self.tol, "instrument")

    @property
    def dim(self) -> int:
        return self.kraus[0][0].shape[0]

    def _family(self, m):
        try:
            return self.kraus[self.outcomes.index(str(m))]
        except ValueError:
            raise KeyError(f"unknown outcome {m!r}; have {self.outcomes}") from None

    def apply(self, m, rho) -> np.ndarray:
        """Unnormalized post-measurement branch for outcome m, of one state or a stack."""
        r = asstack(rho)
        return sum(k @ r @ dagger(k) for k in self._family(m))

    def adjoint(self, m, x) -> np.ndarray:
        xm = asoperator(x)
        return sum(dagger(k) @ xm @ k for k in self._family(m))

    def povm(self) -> dict:
        """Outcome label -> effect I_m†(I); effects sum to the identity."""
        eye = np.eye(self.dim, dtype=complex)
        return {m: self.adjoint(m, eye) for m in self.outcomes}

    def nonselective(self) -> Channel:
        return Channel(tuple(k for fam in self.kraus for k in fam), tol=self.tol)

    def gauge_mix(self, m, u) -> "Instrument":
        """Replace outcome m's Kraus family {K_a} by {sum_a u[b,a] K_a}; u unitary."""
        u = np.asarray(u, dtype=complex)
        fam = self._family(m)
        if u.shape != (len(fam), len(fam)):
            raise ValueError(f"mixing matrix shape {u.shape} does not fit {len(fam)} operators")
        if np.max(np.abs(u @ dagger(u) - np.eye(len(fam)))) > self.tol:
            raise ValueError("gauge mixing matrix is not unitary within tolerance")
        mixed = tuple(sum(u[b, a] * fam[a] for a in range(len(fam))) for b in range(len(fam)))
        fams = tuple(
            mixed if lbl == str(m) else self.kraus[i] for i, lbl in enumerate(self.outcomes)
        )
        return Instrument(self.outcomes, fams, tol=self.tol)


def projective(labels_to_projectors: dict, tol: float = DEFAULT_TOL) -> Instrument:
    """Instrument of one projector per outcome."""
    items = list(labels_to_projectors.items())
    return Instrument(
        tuple(k for k, _ in items), tuple((asoperator(p),) for _, p in items), tol=tol
    )


def unsharp_z(eta: float, tol: float = DEFAULT_TOL) -> Instrument:
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
    return Instrument(("+", "-"), ((a * eye + b * sz,), (a * eye - b * sz,)), tol=tol)


def compose_preprocess(ins: Instrument, lam: Channel) -> Instrument:
    """Instrument that first applies the channel, then measures: branches K_ma L_b."""
    if ins.dim != lam.dim:
        raise ValueError(f"dimension mismatch: instrument {ins.dim} vs channel {lam.dim}")
    fams = tuple(
        tuple(k @ l for k in fam for l in lam.kraus) for fam in ins.kraus
    )
    return Instrument(ins.outcomes, fams, tol=max(ins.tol, lam.tol))


@dataclass(frozen=True)
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
    flat = [(m, k) for m, fam in zip(ins.outcomes, ins.kraus) for k in fam]
    kdim = len(flat)
    if kdim < 2:
        kdim = 2  # a 1-operator instrument still needs a nontrivial ancilla
    v = np.zeros((d * kdim, d), dtype=complex)
    for a, (_, kop) in enumerate(flat):
        # row index (s', a): system slow, ancilla fast
        for sp in range(d):
            v[sp * kdim + a, :] = v[sp * kdim + a, :] + kop[sp, :]
    # complete to a unitary: V is an isometry, so QR gives Q whose first d
    # columns equal V up to the diagonal phases of R
    q, r = np.linalg.qr(v, mode="complete")
    phases = np.ones(d * kdim, dtype=complex)
    phases[:d] = np.diagonal(r)[:d]
    u_first = q * phases  # now u_first[:, :d] == V
    if np.max(np.abs(u_first[:, :d] - v)) > 1e-10:
        raise ValueError("dilation completion failed to reproduce the isometry")
    # route the isometry columns to input ancilla index 0: column (s, 0) <- V[:, s]
    u = np.zeros_like(u_first)
    spare = list(range(d, d * kdim))
    for col in range(d * kdim):
        s, a = divmod(col, kdim)
        u[:, col] = u_first[:, s] if a == 0 else u_first[:, spare.pop(0)]
    projs = {}
    for m in ins.outcomes:
        p = np.zeros((kdim, kdim), dtype=complex)
        for a, (lbl, _) in enumerate(flat):
            if lbl == m:
                p[a, a] = 1.0
        projs[m] = p
    return Dilation(unitary=u, ancilla_dim=kdim, projectors=projs, outcomes=ins.outcomes)

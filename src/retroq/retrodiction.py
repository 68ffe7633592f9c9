"""Conditional statistics between a forward state and a backward effect.

One law lives here: the outcome probability is the ratio of two trace
pairings, a measurement branch in the numerator and the completeness sum in
the denominator. Effective effects, multitime chains, and coarse-graining
are all reshapings of that ratio.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import apply_adjoint, apply_superop, asoperator, asstack, pairing
from .channels import Instrument
from .dynamics import LindbladGenerator, evolve_effect, evolve_state

NULL_TOL = 1e-12
CHAIN_DT = 1e-3  # the RK4 step of every evolution of a chain


@dataclass(frozen=True, eq=False)
class BoundaryPair:
    """Forward-propagated state at t- together with the backward effect at t+.

    Either side may be one operator or a stack (..., d, d); stacks broadcast.
    """

    rho_pre: np.ndarray
    E_post: np.ndarray

    def __post_init__(self):
        r = asstack(self.rho_pre)
        e = asstack(self.E_post)
        if r.shape[-1] != e.shape[-1]:
            raise ValueError(f"dimension mismatch: state {r.shape[-1]} vs effect {e.shape[-1]}")
        object.__setattr__(self, "rho_pre", r)
        object.__setattr__(self, "E_post", e)

    @property
    def dim(self) -> int:
        return self.rho_pre.shape[-1]


def abl_distribution(b: BoundaryPair, ins: Instrument) -> dict:
    """Outcome distribution conditioned on both boundaries.

    p(m) = Tr[E(t+) I_m(rho(t-))] / sum_k Tr[E(t+) I_k(rho(t-))]. Every
    outcome's branch comes from one product of vec(rho) with the outcome
    maps stacked into one m·d² × d² operand, and every numerator from one
    pairing over the (m, ..., d, d) branch stack. The probabilities are returned as the
    exact ratio of the two evaluations, never renormalized afterwards:
    floats for one boundary pair, arrays over the points of a stacked one.
    A null post-selection, a denominator that is not positive, raises.
    """
    if ins.dim != b.dim:
        raise ValueError(f"dimension mismatch: instrument {ins.dim} vs boundary {b.dim}")
    d, m, rho = b.dim, len(ins.outcomes), b.rho_pre
    # row (m, i) of the stacked maps is row i of S_m; the points run along the product's columns
    branches = (ins.superops.reshape(m * d * d, d * d) @ rho.reshape(-1, d * d).T).reshape(m, d, d, -1)
    pad = (1,) * max(0, b.E_post.ndim - rho.ndim)  # so that a stack of effects broadcasts past the outcome axis
    num = pairing(b.E_post, np.moveaxis(branches, -1, 1).reshape(m, *pad, *rho.shape[:-2], d, d))
    denom = num.sum(axis=0)
    if np.any(denom <= NULL_TOL):
        raise ValueError(
            f"null post-selection: conditioning denominator {np.min(denom):.3e} is not "
            "positive, so the conditional distribution is undefined"
        )
    probs = num / denom
    return dict(zip(ins.outcomes, probs.tolist() if probs.ndim == 1 else probs))


def effective_effects(ins: Instrument, effect) -> dict:
    """Pull the effect through each outcome branch: O_m = sum_a M_ma† E M_ma.

    The O_m are PSD, invariant under Kraus gauge mixing, and reproduce the
    conditional distribution as Tr[O_m rho] / Tr[(sum_k O_k) rho]. The
    effect may be a stack (..., d, d).
    """
    e = asstack(effect)
    if e.shape[-1] != ins.dim:
        raise ValueError(f"dimension mismatch: instrument {ins.dim} vs effect {e.shape[-1]}")
    return {m: ins.adjoint(m, e) for m in ins.outcomes}


def coarse_grain(ins: Instrument, partition: dict) -> Instrument:
    """Merge outcomes into blocks named by the partition values.

    Each block's Kraus family is the concatenation of its members', so block
    superoperators and probabilities are the sums of the members'. Blocks
    appear in order of first membership.
    """
    lookup = {str(k): v for k, v in partition.items()}
    missing = [m for m in ins.outcomes if m not in lookup]
    if missing:
        raise ValueError(f"partition does not cover outcomes {missing}")
    blocks: dict = {}
    for m, fam in zip(ins.outcomes, ins.kraus):
        blocks.setdefault(str(lookup[m]), []).append(fam)
    return Instrument(tuple(blocks), tuple(np.concatenate(f) for f in blocks.values()))


@dataclass(frozen=True)
class Stage:
    """One chain segment: evolve for duration under generator, then measure."""

    generator: LindbladGenerator
    duration: float
    instrument: Instrument

    def __post_init__(self):
        if self.duration < 0.0:
            raise ValueError("stage duration must be nonnegative")
        if self.generator.dim != self.instrument.dim:
            raise ValueError(
                f"stage dimension mismatch: generator {self.generator.dim} "
                f"vs instrument {self.instrument.dim}"
            )


@dataclass(frozen=True, eq=False)
class ChainSpec:
    """Initial state, measured stages, closing evolution, final effect.

    Every evolution runs on the shared step CHAIN_DT, which keeps the
    backward effect pass the exact algebraic adjoint of the forward state
    pass.
    """

    rho_i: np.ndarray
    stages: tuple
    final_generator: LindbladGenerator
    final_duration: float
    effect_final: np.ndarray

    def __post_init__(self):
        r = asoperator(self.rho_i)
        e = asoperator(self.effect_final)
        stages = tuple(self.stages)
        if not stages:
            raise ValueError("chain needs at least one stage")
        d = r.shape[0]
        if any(s.generator.dim != d for s in stages):
            raise ValueError("chain stages must share the initial state's dimension")
        if self.final_duration < 0.0:
            raise ValueError("final duration must be nonnegative")
        if self.final_generator.dim != d or e.shape[0] != d:
            raise ValueError("final evolution and effect must share the chain dimension")
        object.__setattr__(self, "rho_i", r)
        object.__setattr__(self, "effect_final", e)
        object.__setattr__(self, "stages", stages)


def chain_joint(spec: ChainSpec, outcomes) -> float:
    """Joint probability of one full outcome tuple by forward composition."""
    labels = tuple(outcomes)
    if len(labels) != len(spec.stages):
        raise ValueError(f"need {len(spec.stages)} outcomes, got {len(labels)}")
    rho = spec.rho_i
    for st, m in zip(spec.stages, labels):
        rho = evolve_state(st.generator, rho, st.duration, CHAIN_DT)
        rho = st.instrument.apply(m, rho)
    rho = evolve_state(spec.final_generator, rho, spec.final_duration, CHAIN_DT)
    return pairing(spec.effect_final, rho)


def _effects_after(spec: ChainSpec, first: int) -> list:
    """Effect just after the measurement of each stage from first on, by one backward sweep."""
    e = evolve_effect(spec.final_generator, spec.effect_final, spec.final_duration, CHAIN_DT)
    rev = [e]
    for st in reversed(spec.stages[first + 1:]):
        e = apply_adjoint(st.instrument.superop, e)
        e = evolve_effect(st.generator, e, st.duration, CHAIN_DT)
        rev.append(e)
    return rev[::-1]


def backward_effect_chain(spec: ChainSpec) -> list:
    """Effect just after each stage's measurement, by one backward sweep.

    The last entry pulls the final effect through the closing evolution;
    each earlier entry crosses one later stage through the adjoint of its
    nonselective superoperator and the adjoint of its evolution.
    """
    return _effects_after(spec, 0)


def conditional_at_stage(spec: ChainSpec, j: int) -> dict:
    """Outcome distribution of stage j with every other stage summed out.

    Stages before j act on the forward state through their nonselective
    superoperators; stages after j, and only those, are absorbed into the
    backward effect.
    """
    n = len(spec.stages)
    if not 0 <= j < n:
        raise IndexError(f"stage index {j} outside 0..{n - 1}")
    rho = spec.rho_i
    for st in spec.stages[:j]:
        rho = evolve_state(st.generator, rho, st.duration, CHAIN_DT)
        rho = apply_superop(st.instrument.superop, rho)
    st = spec.stages[j]
    rho = evolve_state(st.generator, rho, st.duration, CHAIN_DT)
    return abl_distribution(BoundaryPair(rho, _effects_after(spec, j)[0]), st.instrument)

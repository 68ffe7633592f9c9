import itertools

import numpy as np
import pytest

from retroq import algebra as al
from retroq import channels as ch
from retroq import dynamics as dyn
from retroq import retrodiction as rd
from conftest import random_state


def rng(seed=0):
    return np.random.default_rng(seed)


def random_effect(g, d, lo=0.1, hi=0.9):
    a = g.normal(size=(d, d)) + 1j * g.normal(size=(d, d))
    h = 0.5 * (a + a.conj().T)
    w, v = np.linalg.eigh(h)
    w = lo + (hi - lo) * (w - w.min()) / (w.max() - w.min())
    return (v * w) @ v.conj().T


def haar_unitary(g, n):
    z = g.normal(size=(n, n)) + 1j * g.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_instrument(g, d, outcome_sizes):
    k = sum(outcome_sizes)
    u = haar_unitary(g, d * k)
    fams, a = [], 0
    for size in outcome_sizes:
        fam = []
        for _ in range(size):
            m = np.zeros((d, d), dtype=complex)
            for sp in range(d):
                for s in range(d):
                    m[sp, s] = u[sp * k + a, s * k + 0]
            fam.append(m)
            a += 1
        fams.append(tuple(fam))
    return ch.Instrument(tuple(f"m{i}" for i in range(len(outcome_sizes))), tuple(fams))


def random_generator(g, d, h_scale=1.0, j_scale=1.0):
    h = g.normal(size=(d, d)) + 1j * g.normal(size=(d, d))
    h = h_scale * 0.5 * (h + h.conj().T)
    jumps = tuple(
        j_scale * (g.normal(size=(d, d)) + 1j * g.normal(size=(d, d))) / np.sqrt(d)
        for _ in range(2)
    )
    return dyn.LindbladGenerator(h, (dyn.Bath("bath", jumps),))


def zero_generator(d):
    return dyn.LindbladGenerator(np.zeros((d, d)), ())


def projective_z():
    return ch.projective({"0": al.projector(al.ket(2, 0)), "1": al.projector(al.ket(2, 1))})


def enumerate_joint(spec):
    grids = [st.instrument.outcomes for st in spec.stages]
    return {tup: rd.chain_joint(spec, tup) for tup in itertools.product(*grids)}


def conditional_from_enumeration(spec, j):
    joint = enumerate_joint(spec)
    total = sum(joint.values())
    return {
        m: sum(p for tup, p in joint.items() if tup[j] == m) / total
        for m in spec.stages[j].instrument.outcomes
    }


def random_chain(g, d, n_stages, outcome_sizes=(1, 1)):
    stages = tuple(
        rd.Stage(random_generator(g, d), 0.1, random_instrument(g, d, outcome_sizes))
        for _ in range(n_stages)
    )
    return rd.ChainSpec(
        rho_i=random_state(g, d),
        stages=stages,
        final_generator=random_generator(g, d),
        final_duration=0.15,
        effect_final=random_effect(g, d),
    )


def test_unsharp_qubit_conditional_probabilities():
    plus = al.projector((al.ket(2, 0) + al.ket(2, 1)) / np.sqrt(2))
    zero = al.projector(al.ket(2, 0))
    for eta in (0.3, 0.6, 0.9):
        p = rd.abl_distribution(rd.BoundaryPair(plus, zero), ch.unsharp_z(eta))
        assert abs(p["+"] - (1 + eta) / 2) < 1e-12
        assert abs(p["-"] - (1 - eta) / 2) < 1e-12
    sharp = rd.abl_distribution(rd.BoundaryPair(plus, zero), ch.unsharp_z(1.0))
    assert abs(sharp["+"] - 1.0) < 1e-12


def test_identity_effect_reduces_to_born_rule():
    g = rng(1)
    rho = random_state(g, 3)
    ins = random_instrument(g, 3, (1, 2, 1))
    p = rd.abl_distribution(rd.BoundaryPair(rho, np.eye(3)), ins)
    povm = ins.povm()
    for m in ins.outcomes:
        assert abs(p[m] - al.pairing(povm[m], rho)) < 1e-12
    assert abs(sum(p.values()) - 1.0) < 1e-12


def test_projective_closed_system_amplitude_ratio():
    g = rng(2)
    d = 3
    u1 = haar_unitary(g, d)
    u2 = haar_unitary(g, d)
    psi = g.normal(size=d) + 1j * g.normal(size=d)
    psi /= np.linalg.norm(psi)
    fin = g.normal(size=d) + 1j * g.normal(size=d)
    fin /= np.linalg.norm(fin)
    ins = ch.projective({str(k): al.projector(al.ket(d, k)) for k in range(d)})
    pair = rd.BoundaryPair(
        u1 @ al.projector(psi) @ u1.conj().T,
        u2.conj().T @ al.projector(fin) @ u2,
    )
    p = rd.abl_distribution(pair, ins)
    amps = np.array([(fin.conj() @ u2[:, k]) * (u1[k, :] @ psi) for k in range(d)])
    want = np.abs(amps) ** 2 / np.sum(np.abs(amps) ** 2)
    for k in range(d):
        assert abs(p[str(k)] - want[k]) < 1e-12


def test_null_postselection_raises():
    zero = al.projector(al.ket(2, 0))
    one = al.projector(al.ket(2, 1))
    with pytest.raises(ValueError, match="null post-selection"):
        rd.abl_distribution(rd.BoundaryPair(zero, one), projective_z())


def _error(fn):
    with pytest.raises(ValueError) as info:
        fn()
    return str(info.value)


def test_stack_with_one_null_point_raises_that_points_message():
    zero = al.projector(al.ket(2, 0))
    one = al.projector(al.ket(2, 1))
    plus = al.projector((al.ket(2, 0) + al.ket(2, 1)) / np.sqrt(2))
    states = np.array([plus, zero, plus])
    effects = np.array([zero, one, np.eye(2)])
    ins = projective_z()
    single = _error(lambda: rd.abl_distribution(rd.BoundaryPair(zero, one), ins))
    assert "null post-selection" in single
    assert _error(lambda: rd.abl_distribution(rd.BoundaryPair(states, effects), ins)) == single


def test_stack_with_one_complex_pairing_raises_the_pairing_message():
    g = rng(31)
    rhos = np.array([random_state(g, 2) for _ in range(4)])
    effects = np.array([random_effect(g, 2) for _ in range(4)])
    effects[2] = np.array([[0.0, 1j], [0.0, 0.0]])
    rhos[2] = np.array([[0.0, 0.0], [1.0, 0.0]])
    single = _error(lambda: al.pairing(effects[2], rhos[2]))
    assert single == "pairing has imaginary part 1.000e+00 beyond tolerance"
    assert _error(lambda: al.pairing(effects, rhos)) == single
    ins = ch.projective({"a": np.eye(2)})
    assert _error(lambda: rd.abl_distribution(rd.BoundaryPair(rhos, effects), ins)) == single


def abl_reference(b, ins):
    """The per-outcome route: each branch by Instrument.apply, each numerator by its own pairing."""
    num = np.array([al.pairing(b.E_post, ins.apply(m, b.rho_pre)) for m in ins.outcomes])
    return dict(zip(ins.outcomes, num / num.sum(axis=0)))


def test_abl_distribution_is_the_per_outcome_route():
    """One product for every branch and one pairing for every numerator give
    the per-outcome route's probabilities to 1e-15, in its shapes: floats for
    one pair, arrays for stacked states, effects or both, broadcast."""
    g = rng(43)
    for d in (2, 3, 4, 5):
        ins = random_instrument(g, d, (1, 2, 1, 3))
        rhos = np.array([random_state(g, d) for _ in range(6)])
        effects = np.array([random_effect(g, d) for _ in range(6)])
        grid = np.array([[random_effect(g, d) for _ in range(6)] for _ in range(2)])
        cases = [(rhos[0], effects[0]), (rhos, effects), (rhos[0], effects), (rhos, effects[0]),
                 (rhos, grid), (rhos[0], grid), (grid, effects[0])]
        for rho, e in cases:
            b = rd.BoundaryPair(rho, e)
            got, want = rd.abl_distribution(b, ins), abl_reference(b, ins)
            assert list(got) == list(ins.outcomes)
            for m in ins.outcomes:
                assert np.shape(got[m]) == np.shape(want[m])
                assert np.max(np.abs(np.asarray(got[m]) - want[m])) <= 1e-15
            assert all(isinstance(p, float) for p in got.values()) == (rho.ndim == e.ndim == 2)


def test_effective_effects_of_a_stack_equal_per_effect_calls():
    g = rng(17)
    d = 3
    ins = random_instrument(g, d, (2, 1, 2))
    effects = np.stack([random_effect(g, d) for _ in range(6)]).reshape(3, 2, d, d)
    stacked = rd.effective_effects(ins, effects)
    for idx in np.ndindex(3, 2):
        single = rd.effective_effects(ins, effects[idx])
        for m in ins.outcomes:
            assert stacked[m].shape == effects.shape
            assert np.max(np.abs(stacked[m][idx] - single[m])) < 1e-12
            assert np.max(np.abs(single[m] - ins.adjoint(m, effects[idx]))) < 1e-12


def test_effective_effects_limits_and_ratio_identity():
    g = rng(3)
    d = 3
    ins = random_instrument(g, d, (2, 1, 1))
    povm = ins.povm()
    for m, om in rd.effective_effects(ins, np.eye(d)).items():
        assert np.allclose(om, povm[m], atol=1e-12)
        assert np.linalg.eigvalsh(om).min() > -1e-12
    pf = al.projector(al.ket(2, 0))
    proj = projective_z()
    eff = rd.effective_effects(proj, pf)
    for m in proj.outcomes:
        pm = proj.kraus[proj.outcomes.index(m)][0]
        assert np.allclose(eff[m], pm @ pf @ pm, atol=1e-14)
    rho = random_state(g, d)
    epost = random_effect(g, d)
    om = rd.effective_effects(ins, epost)
    total = al.pairing(sum(om.values()), rho)
    p = rd.abl_distribution(rd.BoundaryPair(rho, epost), ins)
    for m in ins.outcomes:
        assert abs(p[m] - al.pairing(om[m], rho) / total) < 1e-12


def test_gauge_mixing_changes_nothing_observable():
    g = rng(4)
    d = 2
    ins = random_instrument(g, d, (2, 2))
    u = haar_unitary(g, 2)
    mixed = ins.gauge_mix("m0", u)
    rho = random_state(g, d)
    epost = random_effect(g, d)
    pair = rd.BoundaryPair(rho, epost)
    p0 = rd.abl_distribution(pair, ins)
    p1 = rd.abl_distribution(pair, mixed)
    for m in ins.outcomes:
        assert abs(p0[m] - p1[m]) < 1e-12
    o0 = rd.effective_effects(ins, epost)
    o1 = rd.effective_effects(mixed, epost)
    for m in ins.outcomes:
        assert np.allclose(o0[m], o1[m], atol=1e-12)


def test_preprocessing_channel_covariance():
    g = rng(5)
    d = 3
    ins = random_instrument(g, d, (1, 2))
    lam_ops = random_instrument(g, d, (2, 2)).nonselective()
    rho = random_state(g, d)
    epost = random_effect(g, d)
    left = rd.abl_distribution(rd.BoundaryPair(rho, epost), ch.compose_preprocess(ins, lam_ops))
    right = rd.abl_distribution(rd.BoundaryPair(lam_ops.apply(rho), epost), ins)
    for m in ins.outcomes:
        assert abs(left[m] - right[m]) < 1e-12


def test_unitary_frame_covariance():
    g = rng(6)
    d = 3
    ins = random_instrument(g, d, (1, 1, 1))
    rho = random_state(g, d)
    epost = random_effect(g, d)
    u = haar_unitary(g, d)
    rotated = ch.Instrument(
        ins.outcomes,
        tuple(tuple(u @ k @ u.conj().T for k in fam) for fam in ins.kraus),
    )
    p = rd.abl_distribution(rd.BoundaryPair(rho, epost), ins)
    q = rd.abl_distribution(
        rd.BoundaryPair(u @ rho @ u.conj().T, u @ epost @ u.conj().T), rotated
    )
    for m in ins.outcomes:
        assert abs(p[m] - q[m]) < 1e-12


def test_born_probabilities_match_naimark_dilation():
    g = rng(7)
    for d, sizes in ((2, (1, 1)), (2, (2, 1)), (3, (2, 2))):
        ins = random_instrument(g, d, sizes)
        rho = random_state(g, d)
        dil = ch.naimark_dilate(ins)
        p = rd.abl_distribution(rd.BoundaryPair(rho, np.eye(d)), ins)
        for m in ins.outcomes:
            born = float(np.trace(dil.apply(m, rho)).real)
            assert abs(p[m] - born) < 1e-10


def test_chain_joint_hand_value_and_total():
    plus = al.projector((al.ket(2, 0) + al.ket(2, 1)) / np.sqrt(2))
    stage = rd.Stage(zero_generator(2), 0.0, projective_z())
    spec = rd.ChainSpec(plus, (stage, stage), zero_generator(2), 0.0, np.eye(2))
    assert abs(rd.chain_joint(spec, ("0", "0")) - 0.5) < 1e-14
    assert abs(rd.chain_joint(spec, ("0", "1"))) < 1e-14
    total = sum(enumerate_joint(spec).values())
    assert abs(total - 1.0) < 1e-12
    with pytest.raises(KeyError, match="unknown outcome"):
        rd.chain_joint(spec, ("0", "x"))
    with pytest.raises(ValueError, match="outcomes"):
        rd.chain_joint(spec, ("0",))


def test_chain_total_probability_with_dissipative_evolution():
    spec = random_chain(rng(8), 2, 2, outcome_sizes=(1, 2))
    spec = rd.ChainSpec(
        spec.rho_i, spec.stages, spec.final_generator, spec.final_duration, np.eye(2)
    )
    total = sum(enumerate_joint(spec).values())
    assert abs(total - 1.0) < 1e-12


def test_backward_chain_trivial_and_unital_cases():
    g = rng(9)
    d = 2
    idins = ch.Instrument(("a",), ((np.eye(d),),))
    ef = random_effect(g, d)
    spec = rd.ChainSpec(
        random_state(g, d),
        (rd.Stage(zero_generator(d), 0.0, idins), rd.Stage(zero_generator(d), 0.0, idins)),
        zero_generator(d),
        0.0,
        ef,
    )
    for e in rd.backward_effect_chain(spec):
        assert np.allclose(e, ef, atol=1e-14)
    busy = random_chain(g, d, 3, outcome_sizes=(1, 2))
    busy = rd.ChainSpec(
        busy.rho_i, busy.stages, busy.final_generator, busy.final_duration, np.eye(d)
    )
    for e in rd.backward_effect_chain(busy):
        assert np.allclose(e, np.eye(d), atol=1e-12)


def test_backward_chain_entries_are_effects():
    spec = random_chain(rng(10), 3, 2, outcome_sizes=(2, 1))
    for e in rd.backward_effect_chain(spec):
        assert np.abs(e - e.conj().T).max() < 1e-12
        w = np.linalg.eigvalsh(al.hermitian_part(e))
        assert w.min() > -1e-10 and w.max() < 1.0 + 1e-10


def composite_chain(g, d, n_stages):
    """random_chain whose instruments are compose_preprocess composites."""
    spec = random_chain(g, d, n_stages, outcome_sizes=(2, 1))
    stages = tuple(
        rd.Stage(st.generator, st.duration, ch.compose_preprocess(
            st.instrument, random_instrument(g, d, (2, 2)).nonselective()
        ))
        for st in spec.stages
    )
    return rd.ChainSpec(
        spec.rho_i, stages, spec.final_generator, spec.final_duration, spec.effect_final
    )


def test_conditional_at_stage_matches_enumeration():
    g = rng(11)
    cases = [(2, 2, (1, 1)), (2, 3, (1, 2)), (3, 2, (2, 1)), (3, 3, "composite")]
    for d, n_stages, sizes in cases:
        if sizes == "composite":
            spec = composite_chain(g, d, n_stages)
            assert [len(f) for f in spec.stages[0].instrument.kraus] == [8, 4]
        else:
            spec = random_chain(g, d, n_stages, outcome_sizes=sizes)
        for j in range(n_stages):
            got = rd.conditional_at_stage(spec, j)
            want = conditional_from_enumeration(spec, j)
            for m in want:
                assert abs(got[m] - want[m]) < 1e-12, (d, n_stages, j, m)
            assert abs(sum(got.values()) - 1.0) < 1e-12


def test_conditional_single_stage_is_plain_abl():
    g = rng(12)
    spec = random_chain(g, 2, 1, outcome_sizes=(1, 1))
    got = rd.conditional_at_stage(spec, 0)
    st = spec.stages[0]
    pair = rd.BoundaryPair(
        dyn.evolve_state(st.generator, spec.rho_i, st.duration, rd.CHAIN_DT),
        dyn.evolve_effect(
            spec.final_generator, spec.effect_final, spec.final_duration, rd.CHAIN_DT
        ),
    )
    want = rd.abl_distribution(pair, st.instrument)
    for m in want:
        assert abs(got[m] - want[m]) < 1e-14
    with pytest.raises(IndexError, match="stage index"):
        rd.conditional_at_stage(spec, 1)


def test_coarse_grain_blocks_add_up():
    g = rng(13)
    d = 3
    ins = random_instrument(g, d, (1, 2, 1))
    rho = random_state(g, d)
    epost = random_effect(g, d)
    pair = rd.BoundaryPair(rho, epost)
    fine = rd.abl_distribution(pair, ins)

    same = rd.coarse_grain(ins, {m: m for m in ins.outcomes})
    assert same.outcomes == ins.outcomes
    for m, p in rd.abl_distribution(pair, same).items():
        assert abs(p - fine[m]) < 1e-14

    merged = rd.coarse_grain(ins, {"m0": "a", "m1": "a", "m2": "b"})
    coarse = rd.abl_distribution(pair, merged)
    assert abs(coarse["a"] - (fine["m0"] + fine["m1"])) < 1e-12
    assert abs(coarse["b"] - fine["m2"]) < 1e-12

    lump = rd.coarse_grain(ch.unsharp_z(0.6), {"+": "any", "-": "any"})
    assert lump.outcomes == ("any",)
    assert np.allclose(lump.povm()["any"], np.eye(2), atol=1e-13)
    plus = al.projector((al.ket(2, 0) + al.ket(2, 1)) / np.sqrt(2))
    p = rd.abl_distribution(rd.BoundaryPair(plus, al.projector(al.ket(2, 0))), lump)
    assert abs(p["any"] - 1.0) < 1e-12

    with pytest.raises(ValueError, match="cover"):
        rd.coarse_grain(ins, {"m0": "a"})


def test_coarse_grain_block_superoperators_are_member_sums():
    ins = random_instrument(rng(16), 3, (2, 1, 3, 1))
    merged = rd.coarse_grain(ins, {"m0": "a", "m1": "b", "m2": "a", "m3": "a"})
    assert merged.outcomes == ("a", "b")
    s = ins.superops
    assert np.max(np.abs(merged.superops[0] - (s[0] + s[2] + s[3]))) < 1e-12
    assert np.max(np.abs(merged.superops[1] - s[1])) < 1e-12
    assert np.max(np.abs(merged.superop - ins.superop)) < 1e-12


def test_refining_a_stage_keeps_the_denominator():
    # Splitting one stage's outcomes must not change the normalizer, so the
    # block probabilities of the refined chain add back to the coarse ones.
    g = rng(14)
    d = 2
    fine_ins = random_instrument(g, d, (1, 1, 1))
    merged = rd.coarse_grain(fine_ins, {"m0": "a", "m1": "a", "m2": "b"})
    gen = random_generator(g, d)
    other = rd.Stage(random_generator(g, d), 0.1, random_instrument(g, d, (1, 1)))
    ef = random_effect(g, d)
    rho = random_state(g, d)
    spec_fine = rd.ChainSpec(rho, (rd.Stage(gen, 0.1, fine_ins), other), gen, 0.1, ef)
    spec_merged = rd.ChainSpec(rho, (rd.Stage(gen, 0.1, merged), other), gen, 0.1, ef)
    pf = rd.conditional_at_stage(spec_fine, 0)
    pm = rd.conditional_at_stage(spec_merged, 0)
    assert abs(pm["a"] - (pf["m0"] + pf["m1"])) < 1e-12
    assert abs(pm["b"] - pf["m2"]) < 1e-12
    ps = rd.conditional_at_stage(spec_fine, 1)
    qs = rd.conditional_at_stage(spec_merged, 1)
    for m in ps:
        assert abs(ps[m] - qs[m]) < 1e-12


def lift(ins, side, dim_other=2):
    eye = np.eye(dim_other)
    pad = (lambda k: np.kron(k, eye)) if side == "left" else (lambda k: np.kron(eye, k))
    return ch.Instrument(ins.outcomes, tuple(tuple(pad(k) for k in fam) for fam in ins.kraus))


def test_bipartite_total_probability_and_order_invariance():
    g = rng(15)
    ins_a = lift(random_instrument(g, 2, (1, 2)), "left")
    ins_b = lift(random_instrument(g, 2, (1, 1)), "right")
    rho = random_state(g, 4)
    z4 = zero_generator(4)
    ab = rd.ChainSpec(
        rho, (rd.Stage(z4, 0.0, ins_a), rd.Stage(z4, 0.0, ins_b)), z4, 0.0, np.eye(4)
    )
    marg = {
        b: sum(rd.chain_joint(ab, (a, b)) for a in ins_a.outcomes) for b in ins_b.outcomes
    }
    after_a = ins_a.nonselective().apply(rho)
    for b in ins_b.outcomes:
        assert abs(marg[b] - al.pairing(ins_b.povm()[b], after_a)) < 1e-12

    ef = random_effect(g, 4)
    ab = rd.ChainSpec(
        rho, (rd.Stage(z4, 0.0, ins_a), rd.Stage(z4, 0.0, ins_b)), z4, 0.0, ef
    )
    ba = rd.ChainSpec(
        rho, (rd.Stage(z4, 0.0, ins_b), rd.Stage(z4, 0.0, ins_a)), z4, 0.0, ef
    )
    for a in ins_a.outcomes:
        for b in ins_b.outcomes:
            assert abs(rd.chain_joint(ab, (a, b)) - rd.chain_joint(ba, (b, a))) < 1e-12


def test_chain_spec_validation():
    g = rng(16)
    with pytest.raises(ValueError, match="duration"):
        rd.Stage(zero_generator(2), -0.1, projective_z())
    with pytest.raises(ValueError, match="dimension"):
        rd.Stage(zero_generator(3), 0.1, projective_z())
    stage = rd.Stage(zero_generator(2), 0.0, projective_z())
    with pytest.raises(ValueError, match="at least one stage"):
        rd.ChainSpec(random_state(g, 2), (), zero_generator(2), 0.0, np.eye(2))
    with pytest.raises(ValueError, match="dimension"):
        rd.ChainSpec(random_state(g, 3), (stage,), zero_generator(3), 0.0, np.eye(3))


def one_stage_chain(**fields):
    gen = zero_generator(2)
    return rd.ChainSpec(**{"rho_i": np.eye(2) / 2, "stages": (rd.Stage(gen, 0.0, ch.unsharp_z(0.5)),),
                           "final_generator": gen, "final_duration": 0.0, "effect_final": np.eye(2), **fields})


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: rd.BoundaryPair(np.eye(2) / 2, np.eye(3)), "dimension mismatch: state 2 vs effect 3",
                 id="boundary-pair"),
    pytest.param(lambda: rd.abl_distribution(rd.BoundaryPair(np.eye(3) / 3, np.eye(3)), ch.unsharp_z(0.5)),
                 "dimension mismatch: instrument 2 vs boundary 3", id="abl-distribution"),
    pytest.param(lambda: rd.effective_effects(ch.unsharp_z(0.5), np.eye(3)),
                 "dimension mismatch: instrument 2 vs effect 3", id="effective-effects"),
    pytest.param(lambda: one_stage_chain(final_duration=-0.1), "final duration must be nonnegative",
                 id="chain-negative-final-duration"),
    pytest.param(lambda: one_stage_chain(effect_final=np.eye(3)),
                 "final evolution and effect must share the chain dimension", id="chain-effect-dimension"),
])
def test_retrodiction_rejects_malformed_input(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message

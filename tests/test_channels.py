import numpy as np
import pytest

from retroq import _accel
from retroq import algebra as al
from retroq import channels as ch
from retroq import trajectories as tr
from conftest import random_state


def rng(seed=0):
    return np.random.default_rng(seed)


def haar_unitary(g, n):
    z = g.normal(size=(n, n)) + 1j * g.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_instrument(g, d, outcome_sizes):
    """Complete instrument from columns of a Haar-ish unitary on system x ancilla."""
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
    labels = tuple(f"m{i}" for i in range(len(outcome_sizes)))
    return ch.Instrument(labels, tuple(fams))


def test_unsharp_z_kraus_square_to_stated_effects():
    for eta in (0.0, 0.3, 0.7, 1.0):
        ins = ch.unsharp_z(eta)
        e_plus = (np.eye(2) + eta * al.SZ) / 2
        e_minus = (np.eye(2) - eta * al.SZ) / 2
        m_plus = ins.kraus[0][0]
        m_minus = ins.kraus[1][0]
        assert np.allclose(m_plus @ m_plus, e_plus, atol=1e-13)
        assert np.allclose(m_minus @ m_minus, e_minus, atol=1e-13)
        povm = ins.povm()
        assert np.allclose(povm["+"] + povm["-"], np.eye(2), atol=1e-13)
        assert np.allclose(povm["+"], e_plus, atol=1e-13)


def test_unsharp_z_limits():
    sharp = ch.unsharp_z(1.0)
    assert np.allclose(sharp.kraus[0][0], np.diag([1.0, 0.0]), atol=1e-13)
    blind = ch.unsharp_z(0.0)
    assert np.allclose(blind.povm()["+"], np.eye(2) / 2, atol=1e-13)
    with pytest.raises(ValueError, match="eta"):
        ch.unsharp_z(1.5)


def test_instrument_completeness_enforced():
    half = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(ValueError, match="completeness defect"):
        ch.Instrument(("a",), ((half,),))
    with pytest.raises(ValueError, match="unique"):
        ch.Instrument(("a", "a"), ((half,), (np.diag([0.0, 1.0]).astype(complex),)))


def test_apply_adjoint_duality():
    # Tr[X I_m(rho)] == Tr[I_m†(X) rho], both sides computed independently
    g = rng(10)
    for d, sizes in ((2, [1, 2]), (3, [2, 2, 1]), (4, [3, 1])):
        ins = random_instrument(g, d, sizes)
        rho = random_state(g, d)
        x = g.normal(size=(d, d)) + 1j * g.normal(size=(d, d))
        for m in ins.outcomes:
            lhs = np.trace(x @ ins.apply(m, rho))
            rhs = np.trace(ins.adjoint(m, x) @ rho)
            assert lhs == pytest.approx(rhs, abs=1e-12)


def test_povm_sums_to_identity_and_branch_traces_match():
    g = rng(11)
    ins = random_instrument(g, 3, [2, 1, 3])
    povm = ins.povm()
    assert np.allclose(sum(povm.values()), np.eye(3), atol=1e-11)
    rho = random_state(g, 3)
    for m in ins.outcomes:
        assert np.trace(ins.apply(m, rho)) == pytest.approx(
            al.pairing(povm[m], rho), abs=1e-12
        )
    total = sum(np.trace(ins.apply(m, rho)).real for m in ins.outcomes)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_nonselective_channel_trace_preserving():
    g = rng(12)
    ins = random_instrument(g, 2, [2, 2])
    lam = ins.nonselective()
    rho = random_state(g, 2)
    out = lam.apply(rho)
    assert np.trace(out) == pytest.approx(1.0, abs=1e-12)
    acc = sum(ins.apply(m, rho) for m in ins.outcomes)
    assert np.allclose(out, acc, atol=1e-12)


def test_gauge_mix_preserves_branches_and_povm():
    g = rng(13)
    ins = random_instrument(g, 3, [3, 2])
    rho = random_state(g, 3)
    u = haar_unitary(g, 3)
    mixed = ins.gauge_mix("m0", u)
    for m in ins.outcomes:
        assert np.allclose(mixed.apply(m, rho), ins.apply(m, rho), atol=1e-12)
        assert np.allclose(mixed.povm()[m], ins.povm()[m], atol=1e-12)
    with pytest.raises(ValueError, match="not unitary"):
        ins.gauge_mix("m0", np.ones((3, 3)))


def test_gauge_mix_leaves_every_superoperator_unchanged():
    g = rng(17)
    ins = random_instrument(g, 3, [3, 2, 1])
    for i, size in enumerate((3, 2, 1)):
        mixed = ins.gauge_mix(f"m{i}", haar_unitary(g, size))
        assert not np.allclose(mixed.kraus[i], ins.kraus[i])
        assert np.max(np.abs(mixed.superops - ins.superops)) < 1e-12
        assert np.max(np.abs(mixed.superop - ins.superop)) < 1e-12


def test_compose_preprocess_equals_sequential_action():
    g = rng(14)
    ins = random_instrument(g, 2, [1, 2])
    lam_ops = random_instrument(g, 2, [2, 2]).nonselective()
    composed = ch.compose_preprocess(ins, lam_ops)
    rho = random_state(g, 2)
    for m in ins.outcomes:
        assert np.allclose(composed.apply(m, rho), ins.apply(m, lam_ops.apply(rho)), atol=1e-12)


def test_compose_preprocess_superoperators_are_products():
    # S_m S_lam, and the superoperators rebuilt from the composite Kraus families
    g = rng(18)
    ins = random_instrument(g, 3, [2, 3])
    lam = random_instrument(g, 3, [2, 1]).nonselective()
    composed = ch.compose_preprocess(ins, lam)
    assert [len(f) for f in composed.kraus] == [6, 9]
    rebuilt = ch.Instrument(composed.outcomes, composed.kraus)
    for i in range(len(ins.outcomes)):
        assert np.max(np.abs(composed.superops[i] - ins.superops[i] @ lam.superop)) < 1e-12
        assert np.max(np.abs(composed.superops[i] - rebuilt.superops[i])) < 1e-12
    assert composed.completeness_defect < 1e-12


def test_stack_calls_equal_per_matrix_calls():
    g = rng(19)
    d = 3
    ins = random_instrument(g, d, [2, 1])
    lam = ins.nonselective()
    stack = np.stack([random_state(g, d) for _ in range(4)]).reshape(2, 2, d, d)
    xs = g.normal(size=(2, 2, d, d)) + 1j * g.normal(size=(2, 2, d, d))
    maps = [lam.apply, lam.adjoint]
    for m in ins.outcomes:
        maps += [lambda x, m=m: ins.apply(m, x), lambda x, m=m: ins.adjoint(m, x)]
    for f in maps:
        for arg in (stack, xs):
            got = f(arg)
            assert got.shape == arg.shape
            for idx in np.ndindex(2, 2):
                assert np.max(np.abs(got[idx] - f(arg[idx]))) < 1e-12


def test_one_operator_superoperator_is_the_record_step_branch():
    # The counting fire branch of record_step is the superoperator of the
    # one-operator family {sqrt(eta kappa dt) c}: both read one vec convention.
    g = rng(20)
    d = 3
    c = g.normal(size=(d, d)) + 1j * g.normal(size=(d, d))
    h = g.normal(size=(d, d)) + 1j * g.normal(size=(d, d))
    kappa, eta, dt = 0.7, 0.6, 1e-3
    step = _accel.record_step(tr.monitoring_model(h + h.conj().T, c, kappa, eta, "counting"), dt)
    fire = np.sqrt(eta * kappa * dt) * c
    w, v = np.linalg.eigh(np.eye(d) - fire.conj().T @ fire)
    ins = ch.Instrument(("fire", "rest"), ((fire,), ((v * np.sqrt(w)) @ v.conj().T,)))
    assert np.max(np.abs(ins.superops[0] - step.branches[1])) < 1e-12
    assert np.max(np.abs(al.sandwich_superop(c, c) - np.kron(c, c.conj()))) < 1e-12


def test_naimark_dilation_reproduces_branches():
    g = rng(15)
    for d, sizes in ((2, [1, 1]), (2, [2, 1]), (3, [2, 2])):
        ins = random_instrument(g, d, sizes)
        dil = ch.naimark_dilate(ins)
        assert np.allclose(
            dil.unitary @ dil.unitary.conj().T, np.eye(d * dil.ancilla_dim), atol=1e-10
        )
        for _ in range(3):
            rho = random_state(g, d)
            for m in ins.outcomes:
                assert np.allclose(dil.apply(m, rho), ins.apply(m, rho), atol=1e-10)


def test_naimark_dilation_unsharp_z():
    ins = ch.unsharp_z(0.6)
    dil = ch.naimark_dilate(ins)
    g = rng(16)
    rho = random_state(g, 2)
    for m in ("+", "-"):
        assert np.allclose(dil.apply(m, rho), ins.apply(m, rho), atol=1e-10)


def test_naimark_dilates_what_instrument_accepts():
    """A completeness defect of 5.4e-10 is inside the tolerance Instrument
    accepts (DEFAULT_TOL); the completion then sits 4.8e-10 off the
    isometry, and the dilation holds it to that same tolerance."""
    base = ch.unsharp_z(0.6)
    ins = ch.Instrument(base.outcomes, ((base.kraus[0][0] + 4e-10 * al.SX,), base.kraus[1]))
    assert 1e-10 < ins.completeness_defect < al.DEFAULT_TOL
    dil = ch.naimark_dilate(ins)
    rho = random_state(rng(17), 2)
    for m in ins.outcomes:
        assert np.max(np.abs(dil.apply(m, rho) - ins.apply(m, rho))) < 1e-9


def test_projective_helper():
    ins = ch.projective({"up": np.diag([1.0, 0.0]), "down": np.diag([0.0, 1.0])})
    rho = np.diag([0.3, 0.7]).astype(complex)
    assert np.trace(ins.apply("up", rho)) == pytest.approx(0.3)
    with pytest.raises(KeyError):
        ins.apply("sideways", rho)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: ch.Instrument(("a", "b"), ((np.eye(2),),)),
                 "instrument needs one Kraus family per outcome", id="fewer-families"),
    pytest.param(lambda: ch.Instrument(("a", "b"), ((np.eye(2),), ())),
                 "instrument needs a nonempty Kraus family per outcome, all d x d", id="empty-family"),
    pytest.param(lambda: ch.unsharp_z(0.5).gauge_mix("+", np.eye(2)),
                 "mixing matrix shape (2, 2) does not fit 1 operators", id="gauge-mix-shape"),
    pytest.param(lambda: ch.compose_preprocess(ch.unsharp_z(0.5), ch.Channel((np.eye(3),))),
                 "dimension mismatch: instrument 2 vs channel 3", id="compose-dimension"),
])
def test_channels_reject_malformed_input(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message

from fractions import Fraction

import pytest

from circuitforge import (
    CircuitBuilder,
    DensePoly,
    build_A_recurrence,
    emit_circuit,
    expand,
    extract_factor,
    lift_root,
    lift_step,
    truncate_dense,
)
from circuitforge import lifting
from circuitforge.dense import ExpansionBudget, circuit_from_dense, compose
from circuitforge.errors import (
    NoRationalRoot,
    NotASimpleRoot,
    ParameterViolation,
    ResidualNonzero,
    ZeroDelta,
    ZeroPolynomial,
)
from circuitforge.lifting import A_STEP_WIRE_LAW, _residual_check, compose_root

from conftest import plant_linear_product, random_sparse_poly, record_generator_sets, rng_for


def _y2_minus_1px_squared(QQ):
    # P = y^2 - (1+x)^2 over (x, y) with y = var 1
    b = CircuitBuilder(QQ, 2)
    x, y = b.inp(0), b.inp(1)
    f = b.add(b.const(Fraction(1)), x)
    return b.finish(b.sub(b.mul(y, y), b.mul(f, f)))


def test_lift_step_example(QQ):
    P = _y2_minus_1px_squared(QQ)
    b = CircuitBuilder(QQ, 2)
    h = b.finish(b.const(Fraction(1)))
    out = lift_step(P, h, 1, Fraction(2), y=1)
    assert expand(out) == DensePoly(QQ, 2, {(0, 0): Fraction(1), (1, 0): Fraction(1)})


def test_lift_step_exact_root_fixed_point(QQ):
    P = _y2_minus_1px_squared(QQ)
    b = CircuitBuilder(QQ, 2)
    root = b.finish(b.add(b.const(Fraction(1)), b.inp(0)))  # 1 + x
    for i in (1, 2, 3):
        out = lift_step(P, root, i, Fraction(2), y=1)
        assert expand(out) == truncate_dense(expand(root), i)


def test_lift_step_zero_delta(QQ):
    P = _y2_minus_1px_squared(QQ)
    b = CircuitBuilder(QQ, 2)
    h = b.finish(b.const(Fraction(1)))
    with pytest.raises(ZeroDelta):
        lift_step(P, h, 1, Fraction(0), y=1)


def test_lift_step_iterates_to_planted_root(QQ):
    # P = (y - f) * g with a planted cubic f; iterate i = 1..3
    rng = rng_for("lift-step-iter")
    f = random_sparse_poly(QQ, rng, 2, 3, 4)
    f = f - DensePoly.const(QQ, 2, f.constant_term())  # make f(0) = 0 so h0 = 0 works
    fd = f.with_vars(3)
    b = CircuitBuilder(QQ, 3)
    fc = b.import_circuit(circuit_from_dense(fd))[0]
    y = b.inp(2)
    g = b.add(y, b.const(Fraction(1)))  # y + 1; g(0,0) = 1 != 0 keeps the root simple
    P = b.finish(b.mul(b.sub(y, fc), g))
    delta = Fraction(1)  # dP/dy(x, f) = (f + 1) -> H_0 = 1
    hb = CircuitBuilder(QQ, 3)
    h = hb.finish(hb.const(Fraction(0)))
    for i in (1, 2, 3):
        h = lift_step(P, h, i, delta, y=2)
        assert expand(h) == truncate_dense(fd, i)


def test_recurrence_example_composition(QQ):
    P = _y2_minus_1px_squared(QQ)
    state = build_A_recurrence(P, Fraction(1), 2, y=1)
    assert state.delta == Fraction(2)
    composed = compose_root(state)
    assert expand(composed) == DensePoly(QQ, 2, {(0, 0): Fraction(1), (1, 0): Fraction(1)})


def test_recurrence_base_case_is_affine(QQ):
    # A_1 = f0 - z/delta + const when the order-0 member survives
    P = _y2_minus_1px_squared(QQ)
    state = build_A_recurrence(P, Fraction(1), 2, y=1)
    a1 = expand(state.A[0])
    t = len(state.gens.members)
    assert t == 1
    assert a1 == DensePoly(QQ, 1, {(0,): Fraction(1), (1,): Fraction(-1, 2)})


def test_recurrence_rejects_non_root(QQ):
    P = _y2_minus_1px_squared(QQ)
    with pytest.raises(NotASimpleRoot):
        build_A_recurrence(P, Fraction(5), 2, y=1)


def test_recurrence_rejects_multiple_root(QQ):
    # P = (y - x)^2: alpha = 0 is a double root of P(0, y)
    b = CircuitBuilder(QQ, 2)
    d = b.sub(b.inp(1), b.inp(0))
    P = b.finish(b.mul(d, d))
    with pytest.raises(NotASimpleRoot):
        build_A_recurrence(P, Fraction(0), 2, y=1)


def test_recurrence_size_law(QQ):
    rng = rng_for("size-law")
    for t in range(6):
        consts = []
        while len(consts) < 3:
            c = Fraction(rng.randint(-6, 6))
            if c not in consts:
                consts.append(c)
        P, forms = plant_linear_product(QQ, rng, 2, 2, consts)
        d = 2 + rng.randrange(3)
        state = build_A_recurrence(P, consts[0], d, y=2)
        law = A_STEP_WIRE_LAW * d * d
        assert all(added <= law for added in state.wire_deltas)
        assert state.A[-1].size() <= A_STEP_WIRE_LAW * d**3


def test_per_iteration_agreement(QQ):
    # H_<=i[A_i(gens)] equals H_<=i[f] for each i (planted instances)
    rng = rng_for("per-iter")
    for t in range(5):
        fpoly = random_sparse_poly(QQ, rng, 2, 3, 3)
        nv = 3
        fd = fpoly.with_vars(nv)
        b = CircuitBuilder(QQ, nv)
        fc = b.import_circuit(circuit_from_dense(fd))[0]
        y = b.inp(2)
        other = Fraction(fpoly.constant_term() + 1)  # distinct simple second root
        P = b.finish(b.mul(b.sub(y, fc), b.sub(y, b.const(other))))
        d = max(1, fd.total_degree())
        state = build_A_recurrence(P, fd.constant_term(), d, y=2)
        for i in range(1, d + 1):
            hi = compose_root(state, i)
            assert expand(hi) == truncate_dense(fd, i)


def test_lift_root_reduces_a_double_root(QQ):
    # P = (y - x)^2 (y + 1), alpha = 0 has m = 2: the root y = x is lifted
    # from the order-1 y-derivative, in which y - x is simple
    b = CircuitBuilder(QQ, 2)
    x, y = b.inp(0), b.inp(1)
    dyx = b.sub(y, x)
    P = b.finish(b.mul(dyx, dyx, b.add(y, b.const(Fraction(1)))))
    cert = lift_root(P, y=1, d=1, seed=0, alpha=Fraction(0))
    assert cert.multiplicity == 2
    assert expand(cert.root) == DensePoly.variable(QQ, 1, 0)
    stages = dict(cert.metrics_chain)
    assert stages["multiplicity-reduced"] != stages["translated"]
    # the searched roots of P(0, y) = y^2 (y + 1) carry the same multiplicities
    searched = lift_root(P, y=1, d=1, seed=0)
    assert (searched.alpha, searched.multiplicity) == (Fraction(-1), 1)


def test_lift_root_simple_root_lifts_P_itself(QQ):
    P = _y2_minus_1px_squared(QQ)
    cert = lift_root(P, y=1, d=1, seed=0, alpha=Fraction(1))
    stages = dict(cert.metrics_chain)
    assert cert.multiplicity == 1
    assert stages["multiplicity-reduced"] == stages["translated"] == stages["input"]


def test_lift_root_pinned_alpha_on_a_zero_slice(QQ):
    # P = x1 y + x1: P(0, y) is identically zero, so every alpha is a root of
    # it, but a pinned alpha is tried only at the origin
    b = CircuitBuilder(QQ, 2)
    x, y = b.inp(0), b.inp(1)
    P = b.finish(b.add(b.mul(x, y), x))
    with pytest.raises(NoRationalRoot, match="identically zero.*only at the origin") as e:
        lift_root(P, y=1, d=1, seed=0, alpha=Fraction(0))
    assert e.value.exit_code == 1
    cert = lift_root(P, y=1, d=1, seed=0)  # the search translates the origin
    assert expand(cert.root) == DensePoly.const(QQ, 1, Fraction(-1))
    assert any(v != QQ.zero for v in cert.shift)


def test_lift_root_of_the_zero_polynomial(QQ):
    # every slice of 0 is zero: the search reports the zero polynomial, not a
    # missing root, whether alpha is searched or pinned
    b = CircuitBuilder(QQ, 2)
    zero = b.finish(b.const(QQ.zero))
    for alpha in (None, Fraction(1)):
        with pytest.raises(ZeroPolynomial, match="zero polynomial") as e:
            lift_root(zero, y=1, d=1, seed=0, alpha=alpha)
        assert e.value.exit_code == 1


def _count_substitutions(monkeypatch) -> list:
    calls, real = [], lifting.substitute

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(lifting, "substitute", spy)
    return calls


def test_residual_oracle_builds_no_substituted_copy(QQ, monkeypatch):
    # the oracle expands P with y bound to the expanded root; only the
    # Schwartz-Zippel fallback builds the circuit P(x, f)
    calls = _count_substitutions(monkeypatch)
    rng = rng_for("residual-paths")
    P, _ = plant_linear_product(QQ, rng, 2, 2, [Fraction(1), Fraction(-2), Fraction(3)])
    cert = lift_root(P, y=2, d=3, seed=0)
    assert cert.residual_mode == "oracle" and calls == []
    f = circuit_from_dense(expand(cert.root).with_vars(3))
    assert _residual_check(P, 2, f, 0, ExpansionBudget()) == "oracle" and calls == []
    assert _residual_check(P, 2, f, 0, ExpansionBudget(max_terms=1)) == "sz"
    assert len(calls) == 1
    wrong = circuit_from_dense(expand(cert.root).with_vars(3) + DensePoly.const(QQ, 3, QQ.one))
    assert _residual_check(P, 2, wrong, 0, ExpansionBudget()) is None and len(calls) == 1


def test_lift_root_refuses_a_pinned_non_root(QQ):
    P = _y2_minus_1px_squared(QQ)
    with pytest.raises(NoRationalRoot, match=r"alpha=.*2.* is not a root"):
        lift_root(P, y=1, d=1, seed=0, alpha=Fraction(2))


@pytest.mark.parametrize("d", [1.5, 2.0, True, "2"], ids=repr)
def test_lift_and_factor_refuse_a_degree_that_is_not_an_integer(QQ, d):
    # lift_root(P, 1, 1.5, 0) used to end in a raw TypeError
    P = _y2_minus_1px_squared(QQ)
    with pytest.raises(ParameterViolation, match="integer"):
        lift_root(P, 1, d, 0)
    with pytest.raises(ParameterViolation, match="integer"):
        extract_factor(P, 1, d)


def test_lift_root_spec_example(QQ):
    # P = (y - (1 + x1 + x1 x2)) (y - 3), d = 2
    b = CircuitBuilder(QQ, 3)
    x1, x2, y = b.inp(0), b.inp(1), b.inp(2)
    f = b.add(b.const(Fraction(1)), x1, b.mul(x1, x2))
    P = b.finish(b.mul(b.sub(y, f), b.sub(y, b.const(Fraction(3)))))
    cert = lift_root(P, y=2, d=2, seed=0)
    assert expand(cert.root) == DensePoly(QQ, 2, {
        (0, 0): Fraction(1), (1, 0): Fraction(1), (1, 1): Fraction(1),
    })
    assert cert.alpha == Fraction(1)
    assert cert.residual_mode == "oracle"


def test_lift_root_never_projects_generator_set_members(QQ, monkeypatch):
    built = record_generator_sets(monkeypatch)
    rng = rng_for("lift-no-members")
    P, _ = plant_linear_product(QQ, rng, 2, 2, [Fraction(1), Fraction(-2), Fraction(3)])
    cert = lift_root(P, y=2, d=3, seed=0)
    assert cert.state.gens in built
    assert all("members" not in gens.__dict__ for gens in built)


def test_lift_root_identity_case(QQ):
    b = CircuitBuilder(QQ, 2)
    P = b.finish(b.sub(b.inp(1), b.inp(0)))  # y - x1
    cert = lift_root(P, y=1, d=1, seed=0)
    assert expand(cert.root) == DensePoly.variable(QQ, 1, 0)


def test_lift_root_no_polynomial_root(QQ):
    b = CircuitBuilder(QQ, 2)
    P = b.finish(b.sub(b.mul(b.inp(1), b.inp(1)), b.inp(0)))  # y^2 - x1
    with pytest.raises((NoRationalRoot, ResidualNonzero)):
        lift_root(P, y=1, d=3, seed=0)


def test_lift_root_needs_translation(QQ):
    # constant terms of both roots collide at x = 0: (y - x1)(y - 2x1)
    b = CircuitBuilder(QQ, 2)
    x, y = b.inp(0), b.inp(1)
    P = b.finish(b.mul(b.sub(y, x), b.sub(y, b.mul(b.const(Fraction(2)), x))))
    cert = lift_root(P, y=1, d=1, seed=4)
    root = expand(cert.root)
    assert root in (
        DensePoly.variable(QQ, 1, 0),
        DensePoly(QQ, 1, {(1,): Fraction(2)}),
    )
    assert any(v != QQ.zero for v in cert.shift)


def test_lift_root_with_pinned_alpha(QQ):
    b = CircuitBuilder(QQ, 3)
    x1, x2, y = b.inp(0), b.inp(1), b.inp(2)
    f = b.add(b.const(Fraction(1)), x1, b.mul(x1, x2))
    P = b.finish(b.mul(b.sub(y, f), b.sub(y, b.const(Fraction(3)))))
    cert = lift_root(P, y=2, d=2, seed=0, alpha=Fraction(3))
    assert expand(cert.root) == DensePoly.const(QQ, 2, Fraction(3))


def _two_root_instance(field):
    # P = (y - 1 - x1 - x1*x2)(y - 3): P(0, y) has the roots 1 and 3
    b = CircuitBuilder(field, 3)
    x1, x2, y = b.inp(0), b.inp(1), b.inp(2)
    f = b.add(b.const(field.one), x1, b.mul(x1, x2))
    return b.finish(b.mul(b.sub(y, f), b.sub(y, b.const(field.embed(3)))))


def test_lift_root_pinned_non_root_is_no_rational_root(QQ, Fp):
    for field in (QQ, Fp):
        # a pinned alpha skips the translation search, so the message names alpha
        with pytest.raises(NoRationalRoot, match=r"alpha=.*5.* is not a root of P\(0, y\)") as e:
            lift_root(_two_root_instance(field), y=2, d=2, seed=0, alpha=field.embed(5))
        assert e.value.exit_code == 1


def test_lift_root_pinned_alpha_must_be_a_reduced_residue(Fp):
    # 3 + p and 3 - p are 3 mod p, but no root of P(0, y) equals them
    P = _two_root_instance(Fp)
    for alpha in (3 + Fp.p, 3 - Fp.p, 3.5, "3"):
        with pytest.raises(NoRationalRoot):
            lift_root(P, y=2, d=2, seed=0, alpha=alpha)
    cert = lift_root(P, y=2, d=2, seed=0, alpha=3)
    assert type(cert.alpha) is int and cert.alpha == 3


def test_lift_root_pinned_int_alpha_over_rationals(QQ):
    # an int equal to a rational root pins it; the certificate holds the root
    # as a Fraction, as with the Fraction alpha
    P = _two_root_instance(QQ)
    for root in (1, 3):
        cert = lift_root(P, y=2, d=2, seed=0, alpha=root)
        ref = lift_root(P, y=2, d=2, seed=0, alpha=Fraction(root))
        assert type(cert.alpha) is Fraction and cert.alpha == root
        assert emit_circuit(cert.root) == emit_circuit(ref.root)
        assert cert.metrics_chain == ref.metrics_chain


def test_uniqueness_across_seeds_and_orders(QQ):
    # Cor: truncations are unique; independent seeded runs agree exactly
    b = CircuitBuilder(QQ, 3)
    x1, x2, y = b.inp(0), b.inp(1), b.inp(2)
    f = b.add(b.const(Fraction(2)), x1, b.mul(x2, x2))
    P = b.finish(b.mul(b.sub(y, f), b.add(y, b.const(Fraction(5)))))
    c1 = lift_root(P, y=2, d=2, seed=1)
    c2 = lift_root(P, y=2, d=2, seed=99)
    assert expand(c1.root) == expand(c2.root)
    state = c1.state
    full = expand(compose_root(state))
    for k in range(1, state.d + 1):
        assert expand(compose_root(state, k)) == truncate_dense(full, k)
    for k in (0, state.d + 1):
        with pytest.raises(ParameterViolation):
            compose_root(state, k)


def test_residual_truncation_identity(QQ):
    # H_<=d[P(x, root)] vanishes, checked through dense composition
    b = CircuitBuilder(QQ, 3)
    x1, x2, y = b.inp(0), b.inp(1), b.inp(2)
    f = b.add(b.const(Fraction(1)), b.mul(x1, x2))
    P = b.finish(b.mul(b.sub(y, f), b.sub(y, b.const(Fraction(4)))))
    cert = lift_root(P, y=2, d=2, seed=0)
    root3 = expand(cert.root).with_vars(3)
    x1, x2 = DensePoly.variable(QQ, 3, 0), DensePoly.variable(QQ, 3, 1)
    residual = compose(expand(P), [x1, x2, root3])
    assert truncate_dense(residual, 2).is_zero()

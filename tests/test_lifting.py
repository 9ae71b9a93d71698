from fractions import Fraction

import pytest

import hashlib
import json

from circuitforge import (
    CircuitBuilder,
    DensePoly,
    PrimeField,
    Rationals,
    affine,
    build_A_recurrence,
    emit_circuit,
    expand,
    extract_factor,
    hasse_derivative_circuit,
    lift_root,
    truncate_dense,
    univariate_roots,
)
from circuitforge import lifting
from circuitforge.circuit import drop_unused_vars
from circuitforge.cli import _core_lift_root
from circuitforge.dense import DEFAULT_BUDGET, ExpansionBudget, circuit_from_dense, compose
from circuitforge.errors import (
    NoRationalRoot,
    NotASimpleRoot,
    ParameterViolation,
    ResidualNonzero,
    ZeroPolynomial,
)
from circuitforge.fields import SIXTY_TWO_BIT_PRIME, _shift_candidates
from circuitforge.lifting import A_STEP_WIRE_LAW, _residual_check, compose_root

from conftest import plant_linear_product, random_sparse_poly, record_generator_sets, rng_for


# sha256 of the root and certificate that lift-root writes for x1*x2*(y - 1 -
# x1 - x1*x2)(y - 3) at seed 5, pinned before the unit shifts were tried and
# re-pinned when the certificate's stages lost "composed-truncated" (the root
# bytes kept)
FIRST_DRAW_DIGEST = "de287b473653a9c26d2cbd1df56e192279c7ae0ebc58ed74d7ef9ad14a5a7995"


def _y2_minus_1px_squared(QQ):
    # P = y^2 - (1+x)^2 over (x, y) with y = var 1
    b = CircuitBuilder(QQ, 2)
    x, y = b.inp(0), b.inp(1)
    f = b.add(b.const(Fraction(1)), x)
    return b.finish(b.sub(b.mul(y, y), b.mul(f, f)))


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


# -- one-pass emission of translated roots ------------------------------------------

FIELDS = (Rationals(), PrimeField(1_000_003), PrimeField(SIXTY_TWO_BIT_PRIME))


def _planted_power(field, rng, d, m, *others):
    """(P, f): P = (y - f)^m times the factors others(b) over x1, x2 and
    y = x3, f a sparse polynomial of degree d."""
    f = random_sparse_poly(field, rng, 2, d, 3) + DensePoly(field, 2, {(d - d // 2, d // 2): field.one})
    b = CircuitBuilder(field, 3)
    y = b.inp(2)
    root = b.sub(y, b.import_circuit(circuit_from_dense(f.with_vars(3)))[0])
    return b.finish(b.mul(*[root] * m, *[other(b) for other in others])), f


def _state_at(P, y, d, c, root, m):
    """The lift state lift_root builds at the shift c for the slice root
    `root` of multiplicity m: P translated by c, reduced by the order-(m - 1)
    y-derivative."""
    ((_, p_univ),) = lifting._slices(P, y, [c])
    assert (root, m) in univariate_roots(p_univ)
    Pc = affine(P, y, c)
    P_try = Pc if m == 1 else hasse_derivative_circuit(Pc, y, m - 1)
    return build_A_recurrence(P_try, root, d, y)


@pytest.mark.parametrize("field", FIELDS, ids=["qq", "f1000003", "f62"])
def test_one_pass_root_is_the_two_pass_root_translated_back(field):
    # the back-translation written before the node copies gives, gate for
    # gate, the composed root translated back by affine after the fact
    rng = rng_for("one-pass-root", FIELDS.index(field))
    xs, kinds = [0, 1], set()
    for d in range(1, 6):
        for m in (1, 2):
            P, f = _planted_power(field, rng, d, m, lambda b: b.sub(b.inp(2), b.const(field.embed(7))))
            for c in ([0, 2], [-3, 0], [2, -1], [1, 5]):
                c = [field.embed(v) for v in c]
                state = _state_at(P, 2, d, c, f.evaluate(c), m)
                one = drop_unused_vars(compose_root(state, shift=c), xs)
                back = [field.neg(v) for v in c]
                two = drop_unused_vars(affine(compose_root(state), 2, back), xs)
                assert emit_circuit(one) == emit_circuit(two), (d, m, c)
                assert one.metrics() == two.metrics()
                assert expand(one) == f
                kinds.add((m, sum(v != field.zero for v in c)))
    assert kinds == {(1, 1), (1, 2), (2, 1), (2, 2)}


def test_translated_lift_root_composes_once_in_P_coordinates(QQ, Fp, monkeypatch):
    # affine moves P to the slice and nothing else: the root is written in
    # P's coordinates from its own node copies, and no generator set builds
    # its members
    moved = []
    real_affine = lifting.affine
    monkeypatch.setattr(lifting, "affine", lambda circ, *a, **k: moved.append(circ)
                        or real_affine(circ, *a, **k))
    built = record_generator_sets(monkeypatch)
    for field in (QQ, Fp, PrimeField(SIXTY_TWO_BIT_PRIME)):
        for m in (1, 2):
            # x1 kills the origin slice
            P, f = _planted_power(field, rng_for("spy-one-pass", m), 2, m, lambda b: b.inp(0))
            moved.clear()
            cert = lift_root(P, y=2, d=2, seed=0)
            assert any(v != field.zero for v in cert.shift)
            assert moved and all(circ is P for circ in moved)
            assert cert.multiplicity == m and expand(cert.root) == f
    assert built and all("members" not in gens.__dict__ for gens in built)


# -- the translation search order -------------------------------------------------

def _killed(field, kill):
    """(y - 1 - x1 - x1*x2)(y - 3) times the y-free factor prod x_i, i in kill."""
    P = _two_root_instance(field)
    b = CircuitBuilder(field, 3)
    return b.finish(b.mul(*[b.inp(i) for i in kill], b.import_circuit(P)[0]))


def test_lift_root_tries_the_unit_shifts_after_the_origin(QQ, Fp):
    # P(0, y) vanishes, P(e_1, y) does not: the lift is taken at e_1
    for field in (QQ, Fp):
        cert = lift_root(_killed(field, [0]), y=2, d=2, seed=0)
        assert cert.shift == (field.one, field.zero)
        assert expand(cert.root) in (DensePoly(field, 2, {(0, 0): field.one, (1, 0): field.one,
                                                          (1, 1): field.one}),
                                     DensePoly.const(field, 2, field.embed(3)))
        assert dict(cert.metrics_chain)["translated"] != dict(cert.metrics_chain)["input"]


def test_lift_root_takes_the_first_seeded_draw_when_every_unit_slice_vanishes(QQ):
    # x1*x2 kills the origin and both unit slices, so the search takes the
    # first seeded draw, with the root and certificate bytes it had before
    # the unit shifts were tried
    P = _killed(QQ, [0, 1])
    params = dict(y=2, d=2, seed=5, budget_terms=DEFAULT_BUDGET.max_terms,
                  budget_degree=DEFAULT_BUDGET.max_degree, alpha=None)
    outs, data = _core_lift_root(params, {"in": emit_circuit(P).encode()})
    grid = 2 * P.formal_degree() * 2 + 1
    first_draw = list(_shift_candidates(QQ, 2, grid, 1, 5, "lift-root", "translate"))[1]
    assert data["shift"] == ["15", "4"] == [QQ.format(v) for v in first_draw]
    digest = hashlib.sha256(outs["out"])
    digest.update(json.dumps(data, sort_keys=True, default=str).encode())
    assert digest.hexdigest() == FIRST_DRAW_DIGEST


def test_rootless_lift_root_expands_at_most_every_candidate_slice(QQ, monkeypatch):
    # y^2 + x1^2 + 1 has no rational root on any slice: the origin, the n
    # unit shifts and the TRANSLATE_TRIALS draws are each expanded once
    b = CircuitBuilder(QQ, 3)
    y = b.inp(2)
    P = b.finish(b.add(b.mul(y, y), b.mul(b.inp(0), b.inp(0)), b.const(QQ.one)))
    expanded, real = [], lifting.expand
    monkeypatch.setattr(lifting, "expand", lambda *a, **k: expanded.append(a[0]) or real(*a, **k))
    with pytest.raises(NoRationalRoot):
        lift_root(P, y=2, d=2, seed=0)
    assert len(expanded) == 1 + 2 + lifting.TRANSLATE_TRIALS


# -- where the generators sit in A_k and in the combiner ----------------------------

def _generators_sit_above_their_order(poly, orders, offset=0) -> bool:
    """True when every monomial of poly holding z_j, j = orders[pos] at
    variable offset + pos, has degree >= j + 1 in the block of z variables
    offset..offset + len(orders) - 1."""
    for e in poly.terms:
        block = e[offset:offset + len(orders)]
        if any(mult and sum(block) < j + 1 for mult, j in zip(block, orders)):
            return False
    return True


@pytest.mark.parametrize("field", FIELDS[:2], ids=["qq", "f1000003"])
def test_generator_of_order_j_sits_in_monomials_of_degree_above_j(field):
    # the rule behind reading H_i[g_j] only where i + j <= k: in A_k, z_j
    # appears only in monomials of degree >= j + 1, on criterion 1's lift
    # states and on planted products, and so does each root's block of the
    # factor combiner B
    from circuitforge.factoring import combiner_dense
    from test_acceptance import FP62, QQ, SESSION_SEED, _plant_root_instance, _rng

    states, combiners = [], []
    if field == FIELDS[0]:  # criterion 1's plans, over Q and F_{2^62-57}
        degs = {"qq": [1] * 12 + [2] * 14 + [3] * 14 + [4] * 6 + [5] * 4,
                "fp62": [1] * 6 + [2] * 10 + [3] * 10 + [4] * 12 + [5] * 12}
        for tag, c1_field in (("qq", QQ), ("fp62", FP62)):
            for i in range(0, 50, 3):
                n, shape = 1 + i % 3, "multi" if i % 10 in (3, 7, 9) else "yfree"
                P, _, alpha = _plant_root_instance(c1_field, _rng("c1", tag, str(i)), n,
                                                   degs[tag][i], shape)
                states.append(lift_root(P, y=n, d=degs[tag][i], seed=SESSION_SEED + i,
                                        alpha=alpha).state)
    rng = rng_for("generator-degrees", FIELDS.index(field))
    for d in range(1, 6):
        for shape in ("yfree", "multi"):
            P, _, alpha = _plant_root_instance(field, rng, 2, d, shape)
            states.append(lift_root(P, y=2, d=d, seed=0, alpha=alpha).state)
        start = rng.randint(-9, 9)
        consts = [field.embed(start + 2 * c) for c in range(d + 1)]
        P, _ = plant_linear_product(field, rng, 2, 2, consts)
        res = extract_factor(P, y=2, d=d, subset=tuple(range(d)), seed=0)
        combiners.append((res.bundle, res.subset))
        states += [res.bundle.states[i] for i in res.subset]
    assert {st.d for st in states} == set(range(1, 6))
    assert any(max(st.gens.orders, default=0) >= 2 for st in states)
    for st in states:
        for k in range(1, st.d + 1):
            assert _generators_sit_above_their_order(st.low(k), st.gens.orders), (st.d, k)
    for bundle, subset in combiners:
        B, offset = combiner_dense(bundle, subset, len(subset)), 1
        for i in subset:
            orders = bundle.states[i].gens.orders
            assert _generators_sit_above_their_order(B, orders, offset)
            offset += len(orders)
        assert offset == B.n

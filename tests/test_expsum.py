import itertools
import time
from fractions import Fraction

import pytest

from circuitforge import (
    CircuitBuilder,
    DensePoly,
    PrimeField,
    SIXTY_TWO_BIT_PRIME,
    expand,
    extract_factor,
    factor_vnp,
    leaf_substitute,
    prod_compose,
    selector_R,
    sum_compose,
    valiant_step,
)
from circuitforge import transforms
from circuitforge.circuit import (
    _active_vars, formal_degree_in, input_circuit, is_formula, remap_vars,
)
from circuitforge.errors import (
    ArityMismatch, BudgetExceeded, NotAFormula, ParameterViolation, ShapeError,
)
from circuitforge.dense import DEFAULT_BUDGET, circuit_from_dense
from circuitforge.expsum import (
    BRUTE_FORCE_AUX_LIMIT,
    ExpSumPoly,
    SELECTOR_SIZE_FACTOR,
    coeff_exp_sums,
    exp_sum_eval,
    exp_sum_expand,
    homog_x_exp_sum,
    homog_x_upto,
    plain_expsum,
)
from circuitforge.factoring import combiner_dense

from conftest import random_circuit, rng_for


def brute_force_sum(e: ExpSumPoly) -> DensePoly:
    """Direct nested summation over the Boolean cube (the other order)."""
    field = e.field
    acc = DensePoly.zero(field, e.nx)
    for mask in range(1 << e.m):
        b = CircuitBuilder(field, e.verifier.num_vars)
        bindings = {
            a: b.const(field.one if mask >> j & 1 else field.zero)
            for j, a in enumerate(e.aux)
        }
        fixed = b.finish(b.import_circuit(e.verifier, var_bindings=bindings))
        acc = acc + expand(fixed).with_vars(e.nx)
    return acc


def _expsum(field, nvars, aux, build):
    b = CircuitBuilder(field, nvars)
    return ExpSumPoly(b.finish(build(b)), aux)


def test_expand_example_xy(QQ):
    e = _expsum(QQ, 2, (1,), lambda b: b.mul(b.inp(0), b.inp(1)))
    assert exp_sum_expand(e) == DensePoly.variable(QQ, 1, 0)


def test_expand_aux_independent_doubles(QQ):
    # verifier independent of three aux variables: sum is 8 * Q
    e = _expsum(QQ, 4, (1, 2, 3), lambda b: b.add(b.inp(0), b.const(Fraction(2))))
    assert exp_sum_expand(e) == DensePoly(QQ, 1, {(1,): Fraction(8), (0,): Fraction(16)})


def test_expand_matches_nested_summation(QQ, Fp):
    for field, name in ((QQ, "qq"), (Fp, "fp")):
        rng = rng_for("expsum-orders-" + name)
        for t in range(20):
            m = rng.randint(1, 3)
            nv = 2 + m
            circ = random_circuit(field, rng, nv, size_limit=18, degree_limit=5)
            e = ExpSumPoly(circ, tuple(range(2, 2 + m)))
            assert exp_sum_expand(e) == brute_force_sum(e)


def test_eval_sums_a_cube_across_grid_batches(QQ, Fp):
    # m = 16: the cube's 2^16 assignments cross a GRID_BATCH block
    for field in (QQ, Fp):
        b = CircuitBuilder(field, 2 + 16)
        x1, x2 = b.inp(0), b.inp(1)
        y = [b.inp(2 + k) for k in range(16)]
        ver = b.finish(b.add(
            b.mul(x1, y[0], y[4]), b.scale(field.embed(3), y[1]), b.mul(x2, y[15]),
            b.mul(b.add(y[6], b.const(field.one)), b.sub(y[7], x1)),
        ))
        e = ExpSumPoly(ver, tuple(range(2, 18)))
        point = [field.embed(5), field.embed(-2)]
        assert exp_sum_eval(e, point) == exp_sum_expand(e).evaluate(point)
        with pytest.raises(ArityMismatch):
            exp_sum_eval(e, point[:1])


def test_eval_over_unread_auxiliaries_matches_the_whole_cube(QQ, Fp):
    # verifiers over r read auxiliaries placed among m >= r + 1: the walk over
    # the read ones, doubled per unread one, is the literal sum over 2^m
    for field, name in ((QQ, "qq"), (Fp, "fp")):
        rng = rng_for("expsum-unread-aux-" + name)
        for t in range(20):
            nx, r = rng.randint(1, 2), rng.randint(0, 3)
            m = r + rng.randint(1, 3)
            slots = sorted(range(m), key=lambda _: rng.next_u64())[:r]
            circ = random_circuit(field, rng, nx + r, size_limit=14, degree_limit=4)
            mapping = {nx + j: nx + a for j, a in enumerate(slots)}
            e = ExpSumPoly(remap_vars(circ, mapping, nx + m), tuple(range(nx, nx + m)))
            assert len([v for v in _active_vars(e.verifier) if v >= nx]) < m
            point = [field.embed(rng.randint(-5, 5)) for _ in range(nx)]
            whole = field.zero
            for bits in itertools.product((field.zero, field.one), repeat=m):
                whole = field.add(whole, e.verifier.evaluate1(point + list(bits)))
            assert exp_sum_eval(e, point) == whole


def test_prod_compose_squares(QQ):
    e1 = _expsum(QQ, 2, (1,), lambda b: b.mul(b.inp(0), b.inp(1)))
    e2 = _expsum(QQ, 2, (1,), lambda b: b.mul(b.inp(0), b.inp(1)))
    prod = prod_compose(e1, e2)
    assert prod.m == 2
    assert exp_sum_expand(prod) == DensePoly(QQ, 1, {(2,): Fraction(1)})


def test_sum_compose_with_zero_is_identity(QQ):
    e = _expsum(QQ, 2, (1,), lambda b: b.mul(b.inp(0), b.inp(1)))
    zero = plain_expsum(_expsum(QQ, 1, (), lambda b: b.const(Fraction(0))).verifier)
    s = sum_compose(e, zero)
    assert exp_sum_expand(s) == exp_sum_expand(e)


def test_compose_random_pairs(QQ):
    rng = rng_for("compose-random")
    for t in range(15):
        m1, m2 = rng.randint(0, 2), rng.randint(0, 2)
        c1 = random_circuit(QQ, rng, 2 + m1, size_limit=14, degree_limit=4)
        c2 = random_circuit(QQ, rng, 2 + m2, size_limit=14, degree_limit=4)
        e1 = ExpSumPoly(c1, tuple(range(2, 2 + m1)))
        e2 = ExpSumPoly(c2, tuple(range(2, 2 + m2)))
        r1, r2 = exp_sum_expand(e1), exp_sum_expand(e2)
        assert exp_sum_expand(sum_compose(e1, e2)) == r1 + r2
        assert exp_sum_expand(prod_compose(e1, e2)) == r1 * r2


def test_selector_single_block(QQ):
    sel = selector_R(1)
    assert is_formula(sel)
    ones = [QQ.one] * 5
    zeros = [QQ.zero] * 5
    assert sel.evaluate1(ones) == QQ.one
    assert sel.evaluate1(zeros) == QQ.zero


def test_selector_two_blocks_exactly_two_ones():
    F = PrimeField(101)
    sel = selector_R(2, F)
    hits = 0
    for mask in range(1 << 10):
        point = [F.one if mask >> j & 1 else F.zero for j in range(10)]
        v = sel.evaluate1(point)
        assert v in (F.zero, F.one)
        hits += v == F.one
    assert hits == 2


def test_selector_boolean_valued_and_size():
    F = PrimeField(101)
    for s_prime in (1, 2, 3):
        sel = selector_R(s_prime, F)
        assert is_formula(sel)
        assert sel.size() <= SELECTOR_SIZE_FACTOR * s_prime * s_prime
        n = 5 * s_prime
        ones_count = 0
        for mask in range(1 << n):
            point = [F.one if mask >> j & 1 else F.zero for j in range(n)]
            v = sel.evaluate1(point)
            assert v in (F.zero, F.one)
            ones_count += v == F.one
        assert ones_count == s_prime


def test_valiant_step_single_block_product(QQ):
    blocks = [[plain_expsum(input_circuit(QQ, j, 5)) for j in range(5)]]
    e = valiant_step(blocks)
    assert exp_sum_expand(e) == DensePoly(QQ, 5, {(1, 1, 1, 1, 1): Fraction(1)})


def test_valiant_step_zero_block_drops_out(QQ):
    zb = CircuitBuilder(QQ, 5)
    zero = plain_expsum(zb.finish(zb.const(Fraction(0))))
    blocks = [
        [plain_expsum(input_circuit(QQ, j, 5)) for j in range(5)],
        [zero] * 5,
    ]
    e = valiant_step(blocks)
    assert exp_sum_expand(e) == DensePoly(QQ, 5, {(1, 1, 1, 1, 1): Fraction(1)})


def test_valiant_step_random_blocks(QQ):
    rng = rng_for("valiant-random")
    for t in range(6):
        s_prime = rng.randint(1, 2)
        blocks = []
        want = DensePoly.zero(QQ, 2)
        for i in range(s_prime):
            entries = []
            prod = DensePoly.const(QQ, 2, Fraction(1))
            for j in range(5):
                m = rng.randint(0, 1)
                circ = random_circuit(QQ, rng, 2 + m, size_limit=8, degree_limit=2)
                e = ExpSumPoly(circ, tuple(range(2, 2 + m)))
                entries.append(e)
                prod = prod * exp_sum_expand(e)
            blocks.append(entries)
            want = want + prod
        got = exp_sum_expand(valiant_step(blocks))
        assert got == want


def test_valiant_step_shape_error(QQ):
    with pytest.raises(ShapeError):
        valiant_step([[plain_expsum(input_circuit(QQ, 0, 1))] * 4])


def test_leaf_substitute_fresh_copies_square(QQ):
    # B = z1 * z1 as a tree: fresh aux per leaf gives the square of the sum
    b = CircuitBuilder(QQ, 1, share=False)
    B = b.finish(b.mul(b.inp(0), b.inp(0)))
    e = _expsum(QQ, 2, (1,), lambda bb: bb.mul(bb.inp(0), bb.inp(1)))  # represents x1
    out = leaf_substitute(B, {0: e})
    assert out.m == 2  # one fresh block per occurrence
    assert exp_sum_expand(out) == DensePoly(QQ, 1, {(2,): Fraction(1)})
    # the square of the polynomial, not the sum of squares
    assert exp_sum_expand(out) != exp_sum_expand(e)


def test_leaf_substitute_single_leaf_identity(QQ):
    b = CircuitBuilder(QQ, 1, share=False)
    B = b.finish(b.inp(0))
    e = _expsum(QQ, 2, (1,), lambda bb: bb.mul(bb.inp(0), bb.inp(1)))
    out = leaf_substitute(B, {0: e})
    assert exp_sum_expand(out) == exp_sum_expand(e)


def test_leaf_substitute_disjoint_sum(QQ):
    b = CircuitBuilder(QQ, 2, share=False)
    B = b.finish(b.add(b.inp(0), b.inp(1)))
    e1 = _expsum(QQ, 2, (1,), lambda bb: bb.mul(bb.inp(0), bb.inp(1)))       # x1
    e2 = _expsum(QQ, 2, (1,), lambda bb: bb.mul(bb.inp(0), bb.inp(0)))       # 2 x1^2
    out = leaf_substitute(B, {0: e1, 1: e2})
    assert exp_sum_expand(out) == exp_sum_expand(e1) + exp_sum_expand(e2)
    assert out.m == e1.m + e2.m


def test_leaf_substitute_aux_bookkeeping(QQ):
    rng = rng_for("leaf-aux")
    b = CircuitBuilder(QQ, 2, share=False)
    B = b.finish(b.add(b.mul(b.inp(0), b.inp(1)), b.mul(b.inp(0), b.inp(0))))
    ms = {0: 2, 1: 1}
    bindings = {}
    for v, m in ms.items():
        circ = random_circuit(QQ, rng, 1 + m, size_limit=8, degree_limit=2)
        bindings[v] = ExpSumPoly(circ, tuple(range(1, 1 + m)))
    out = leaf_substitute(B, bindings)
    # occurrences: z1 three times, z2 once
    assert out.m == 3 * ms[0] + 1 * ms[1]


def test_leaf_substitute_pads_bindings_of_unequal_nx(QQ, Fp):
    # bindings over 1, 2 and 3 x-variables: each is padded to the largest
    # x-block, its auxiliaries moved up; the constant leaf lives there too
    for field, name in ((QQ, "qq"), (Fp, "fp")):
        rng = rng_for("leaf-unequal-nx-" + name)
        b = CircuitBuilder(field, 3, share=False)
        B = b.finish(b.add(b.mul(b.inp(0), b.inp(1)), b.mul(b.inp(2), b.inp(0)),
                           b.const(field.embed(3))))
        for t in range(4):
            bindings, sums = {}, []
            for v, nx in enumerate(sorted((1, 2, 3), key=lambda _: rng.randrange(1 << 20))):
                m = rng.randint(0, 2)
                circ = random_circuit(field, rng, nx + m, size_limit=8, degree_limit=2)
                bindings[v] = ExpSumPoly(circ, tuple(range(nx, nx + m)))
                sums.append(brute_force_sum(bindings[v]).with_vars(3))
            out = leaf_substitute(B, bindings)
            assert out.nx == 3 and out.aux == tuple(range(3, 3 + out.m))
            want = sums[0] * sums[1] + sums[2] * sums[0] + DensePoly.const(field, 3, field.embed(3))
            assert brute_force_sum(out) == want == exp_sum_expand(out)


def test_valiant_step_entries_of_unequal_nx(QQ, Fp):
    # entries over 1..3 x-variables are imported as they are: their
    # x-variables keep their indices, their auxiliaries are rebound
    for field, name in ((QQ, "qq"), (Fp, "fp")):
        rng = rng_for("valiant-unequal-nx-" + name)
        for t in range(2):
            entries, want = [], DensePoly.const(field, 3, field.one)
            for j in range(5):
                nx, m, entry = 1 + (j + t) % 3, rng.randint(0, 1), None
                while entry is None or brute_force_sum(entry).is_zero():
                    circ = random_circuit(field, rng, nx + m, size_limit=10, degree_limit=2)
                    entry = ExpSumPoly(circ, tuple(range(nx, nx + m)))
                entries.append(entry)
                want = want * brute_force_sum(entry).with_vars(3)
            out = valiant_step([entries])
            assert out.nx == 3 and out.m == 5 + sum(e.m for e in entries)
            assert brute_force_sum(out) == want == exp_sum_expand(out)


def test_leaf_substitute_rejects_shared_gates(QQ):
    b = CircuitBuilder(QQ, 1)  # sharing on: x*x reuses one leaf
    x = b.inp(0)
    B = b.finish(b.mul(x, x))
    e = plain_expsum(input_circuit(QQ, 0, 1))
    with pytest.raises(NotAFormula):
        leaf_substitute(B, {0: e})


def test_coeff_exp_sums_example(QQ):
    # verifier 3 z^2 + x z y1, aux y1: coefficients of the sum are [0, x, 6]
    b = CircuitBuilder(QQ, 3)  # x=0, z=1, y1=2
    x, z, y1 = b.inp(0), b.inp(1), b.inp(2)
    ver = b.finish(b.add(
        b.mul(b.const(Fraction(3)), b.mul(z, z)), b.mul(x, b.mul(z, y1)),
    ))
    e = ExpSumPoly(ver, (2,))
    coeffs = coeff_exp_sums(e, 1, 2)
    sums = [exp_sum_expand(c) for c in coeffs]
    assert sums[0].is_zero()
    assert sums[1] == DensePoly.variable(QQ, 2, 0)
    assert sums[2] == DensePoly.const(QQ, 2, Fraction(6))


def test_coeff_exp_sums_refuses_a_negative_degree_bound(QQ):
    b = CircuitBuilder(QQ, 2)
    e = ExpSumPoly(b.finish(b.mul(b.inp(0), b.inp(1))), (1,))
    with pytest.raises(ParameterViolation, match="got -1"):
        coeff_exp_sums(e, 0, -1)


def test_coeff_exp_sums_reconstruction(QQ):
    rng = rng_for("coeff-recon")
    for t in range(8):
        circ = random_circuit(QQ, rng, 3, size_limit=14, degree_limit=4)
        e = ExpSumPoly(circ, (2,))
        dmax = e.verifier.formal_degree()
        coeffs = coeff_exp_sums(e, 1, dmax)
        z = DensePoly.variable(QQ, 2, 1)
        total = DensePoly.zero(QQ, 2)
        zp = DensePoly.const(QQ, 2, Fraction(1))
        for c in coeffs:
            total = total + exp_sum_expand(c) * zp
            zp = zp * z
        assert total == exp_sum_expand(e)


def test_homog_x_examples(QQ):
    # verifier x1*y1 + x1^2*y1 with aux y1
    b = CircuitBuilder(QQ, 2)
    x, y1 = b.inp(0), b.inp(1)
    ver = b.finish(b.add(b.mul(x, y1), b.mul(x, b.mul(x, y1))))
    e = ExpSumPoly(ver, (1,))
    assert exp_sum_expand(homog_x_exp_sum(e, 1)) == DensePoly.variable(QQ, 1, 0)
    assert exp_sum_expand(homog_x_exp_sum(e, 0)).is_zero()
    total = DensePoly.zero(QQ, 1)
    for k in range(3):
        total = total + exp_sum_expand(homog_x_exp_sum(e, k))
    assert total == exp_sum_expand(e)
    assert exp_sum_expand(homog_x_upto(e, 1)) == DensePoly.variable(QQ, 1, 0)


def test_factor_vnp_linear_with_dummy_aux(QQ):
    # E represents (y - x1)(y - 2) with one dummy aux; factor y - x1
    b = CircuitBuilder(QQ, 3)  # x1=0, y=1, aux=2
    x1, y, a = b.inp(0), b.inp(1), b.inp(2)
    ver = b.finish(b.mul(b.sub(y, x1), b.sub(y, b.const(Fraction(2))), a))
    e = ExpSumPoly(ver, (2,))
    out, fr = factor_vnp(e, 1, seed=0)
    assert exp_sum_expand(out) == DensePoly(QQ, 2, {
        (0, 1): Fraction(1), (1, 0): Fraction(-1),
    })
    assert out.m >= 1


def test_factor_vnp_plain_circuit_degenerate_aux(QQ):
    b = CircuitBuilder(QQ, 2)
    x1, y = b.inp(0), b.inp(1)
    ver = b.finish(b.mul(b.sub(y, x1), b.sub(y, b.const(Fraction(3)))))
    e = plain_expsum(ver)
    out, fr = factor_vnp(e, 1, seed=0)
    assert exp_sum_expand(out) == fr.factor_dense
    assert out.m >= 0


def test_factor_vnp_planted_quadratic(QQ):
    # (y - x1)(y - 1 - x1)(y - 5): quadratic factor from roots {0, 1}
    b = CircuitBuilder(QQ, 2)
    x1, y = b.inp(0), b.inp(1)
    ver = b.finish(b.mul(
        b.sub(y, x1),
        b.sub(y, b.add(b.const(Fraction(1)), x1)),
        b.sub(y, b.const(Fraction(5))),
    ))
    e = plain_expsum(ver)
    out, fr = factor_vnp(e, 2, subset=(0, 1), seed=0)
    want = _aux_cubic_factor(QQ)
    assert exp_sum_expand(out) == want
    assert want.degree_in(1) == 2


def _planted_aux_cubic(field):
    """(y - x1)(y - 1 - x1)(y - 5) a1^2 a2 + (a1 - a2)(a1 + a2) x1 y^2 over
    x1, y, a1, a2: the second term sums to 0 over the cube, so E represents
    (y - x1)(y - 1 - x1)(y - 5) with auxiliary degree 3."""
    b = CircuitBuilder(field, 4)
    x1, y, a1, a2 = (b.inp(i) for i in range(4))
    one, five = b.const(field.one), b.const(field.embed(5))
    cubic = b.mul(b.sub(y, x1), b.sub(y, b.add(one, x1)), b.sub(y, five))
    ver = b.finish(b.add(b.mul(cubic, a1, a1, a2),
                         b.mul(b.sub(a1, a2), b.add(a1, a2), x1, y, y)))
    return ExpSumPoly(ver, (2, 3))


def _aux_cubic_factor(field):
    """(y - x1)(y - 1 - x1) over x1, y: the factor of _planted_aux_cubic
    that the roots (0, 1) of its slice combine to."""
    y = DensePoly.variable(field, 2, 1)
    x1 = DensePoly.variable(field, 2, 0)
    return (y - x1) * (y - DensePoly.const(field, 2, field.one) - x1)


def _record_interpolations(monkeypatch) -> list:
    """Every call of the one interpolation engine, transforms._interpolate
    (expsum reaches it through lifting.emit_composition), as
    (circ, scale, y, shape, bound): bound lists, for each copy that the
    call imports into its builder, the variables bound in that copy."""
    calls, imports = [], []
    real, real_import = transforms._interpolate, CircuitBuilder.import_circuit

    def importing(self, circ, var_bindings=None):
        imports.append((self, sorted(var_bindings or {})))
        return real_import(self, circ, var_bindings)

    def spy(circ, scale, y, alpha, shape, *rest):
        start = len(imports)
        b, coeff = real(circ, scale, y, alpha, shape, *rest)
        bound = [keys for owner, keys in imports[start:] if owner is b]
        calls.append((circ, scale, y, shape, bound))
        return b, coeff

    monkeypatch.setattr(CircuitBuilder, "import_circuit", importing)
    monkeypatch.setattr(transforms, "_interpolate", spy)
    return calls


def test_factor_vnp_interpolates_by_x_degree(QQ, monkeypatch):
    calls = _record_interpolations(monkeypatch)
    for field in (QQ, PrimeField(1_000_003)):
        calls.clear()
        e = _planted_aux_cubic(field)
        assert formal_degree_in(e.verifier, e.aux) == 3
        out, fr = factor_vnp(e, 2, subset=(0, 1), seed=0)
        assert exp_sum_expand(out) == _aux_cubic_factor(field)
        # the verifier-level interpolations (every circuit carrying E's
        # auxiliaries) take as many nodes on an axis as the degree in what
        # it binds: x1 scaled and z shifted for the generator components
        verifier_level = [c for c in calls if c[0].num_vars >= e.nx + e.m]
        assert any(scale == [0] and y == 1 for _, scale, y, _, _ in verifier_level)
        for circ, scale, y, shape, _ in verifier_level:
            assert shape[0] == formal_degree_in(circ, scale)
            assert shape[1] == (0 if y is None else formal_degree_in(circ, y))


def test_factor_vnp_interpolates_the_verifier_once_per_subset(QQ, monkeypatch):
    # every component the combiner reads, of every root, comes from one
    # interpolation of the verifier for the whole subset: one copy per node
    # that such a component weights, fewer than the lower set's nodes, x1
    # scaled, z shifted, and no copy of any verifier-level interpolation
    # binds an auxiliary
    calls = _record_interpolations(monkeypatch)
    for field in (QQ, PrimeField(1_000_003)):
        calls.clear()
        e = _planted_aux_cubic(field)
        out, fr = factor_vnp(e, 2, subset=(0, 1), seed=0)
        assert exp_sum_expand(out) == _aux_cubic_factor(field)
        verifier_level = [c for c in calls if c[0].num_vars == e.nx + e.m]
        members = [c for c in verifier_level if c[1] and c[2] is not None]
        gsets = [fr.bundle.states[i].gens for i in fr.subset]
        assert all(g.orders for g in gsets) and len(gsets) == 2 and len(members) == 1
        # generator g (alpha, order j) is read at degree i when a monomial of
        # B holding it has degree <= k + 1 - i, so only where i + j <= k
        k = len(fr.subset)
        gens = [(g.alpha, j) for g in gsets for j in g.orders]
        B = combiner_dense(fr.bundle, fr.subset, k)
        reads = {(g, i) for e in B.terms for g, mult in enumerate(e[1:]) if mult
                 for i in range(1, k + 2 - sum(e))}
        assert all(i + gens[g][1] <= k for g, i in reads)
        for circ, scale, y, shape, bound in members:
            assert (scale, y) == ([0], 1)
            assert shape == (formal_degree_in(circ, [0]), formal_degree_in(circ, 1),
                             formal_degree_in(circ, [0, 1]))
            weighted = {n for g, i in reads for n, _ in transforms._shifted_weights(
                field, shape, [(i, gens[g][1])], field.sub(gens[g][0], gens[0][0]))}
            assert len(bound) == len(weighted) < len(transforms._lower_set(field, shape))
            assert all(keys == [0, 1] for keys in bound)
        for *_, bound in verifier_level:
            assert bound and all(not set(keys) & set(e.aux) for keys in bound)


def test_factor_vnp_interpolates_only_verifier_level_circuits(QQ, monkeypatch):
    # the search reads no generator components, so every node copy that
    # factor_vnp builds is a copy of the lifted verifier
    calls = _record_interpolations(monkeypatch)
    F = PrimeField(SIXTY_TWO_BIT_PRIME)
    cases = [(_planted_aux_cubic(field), 2, (0, 1), 0) for field in (QQ, PrimeField(1_000_003))]
    cases += [(E, d, subset, 1) for d in (1, 3)
              for E, _, subset in [_planted_linear_product(F, d, 2)]]
    for e, d, subset, seed in cases:
        calls.clear()
        out, fr = factor_vnp(e, d, subset=subset, seed=seed)
        assert exp_sum_expand(out) == fr.factor_dense
        assert calls and all(c[0].num_vars == e.nx + e.m for c in calls)
        assert len(calls) == 1


def test_factor_vnp_shares_the_search_and_builds_no_circuit_factor(QQ, monkeypatch):
    # factor_vnp takes the search's first result and emits only its exp-sum;
    # extract_factor on the same expansion emits one circuit factor
    from circuitforge import factoring

    combined = []
    real = factoring.combine_roots

    def spy(*args, **kwargs):
        combined.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(factoring, "combine_roots", spy)
    for field in (QQ, PrimeField(1_000_003)):
        combined.clear()
        e = _planted_aux_cubic(field)
        out, fr = factor_vnp(e, 2, subset=(0, 1), seed=0)
        assert not combined and fr.factor is None
        assert exp_sum_expand(out) == fr.factor_dense == _aux_cubic_factor(field)
        res = extract_factor(circuit_from_dense(exp_sum_expand(e)), 1, 2, subset=(0, 1), seed=0)
        assert combined == [res.subset] == [fr.subset]
        assert expand(res.factor) == res.factor_dense == fr.factor_dense


def test_factor_vnp_expands_each_root_and_builds_the_combiner_once(QQ, monkeypatch):
    # the search's screen and factor_vnp's emitter read one B, built from
    # one capped expansion of each lifted root's A_d
    from test_factoring import _record_combiner_work

    expanded, combiners = _record_combiner_work(monkeypatch)
    for field in (QQ, PrimeField(1_000_003)):
        expanded.clear()
        combiners.clear()
        out, fr = factor_vnp(_planted_aux_cubic(field), 2, subset=(0, 1), seed=0)
        assert exp_sum_expand(out) == _aux_cubic_factor(field)
        a_ds = [fr.bundle.states[i].A[-1] for i in fr.subset]
        assert sorted(map(id, expanded)) == sorted(map(id, a_ds))
        assert len(combiners) == 2 and combiners[0] is combiners[1]


def test_factor_vnp_refuses_an_over_budget_output_before_building_it(QQ, monkeypatch):
    # factor position t of a combiner monomial reads auxiliary block t: the
    # planted cubic's output carries E.m times the largest generator degree
    calls = _record_interpolations(monkeypatch)
    e = _planted_aux_cubic(QQ)
    out, fr = factor_vnp(e, 2, subset=(0, 1), seed=0)
    B = combiner_dense(fr.bundle, fr.subset, len(fr.subset))
    assert out.m == e.m * max(sum(t[1:]) for t in B.terms) == e.m * 2
    # (y - x1 - 1)(y - 2 x1 - 2)(y - x1 - 3) a1 ... a11 over eleven
    # auxiliaries: the degree-2 factor reads two blocks, refused with no node
    # copy built, since the search reads no generator components
    b = CircuitBuilder(QQ, 13)
    x1, y = b.inp(0), b.inp(1)
    lins = [b.sub(y, b.add(b.mul(b.const(QQ.embed(s)), x1), b.const(QQ.embed(c))))
            for s, c in ((1, 1), (2, 2), (1, 3))]
    e = ExpSumPoly(b.finish(b.mul(*lins, *(b.inp(a) for a in range(2, 13)))), tuple(range(2, 13)))
    calls.clear()
    with pytest.raises(BudgetExceeded, match=r"2\^22 auxiliary assignments"):
        factor_vnp(e, 2, subset=(0, 1), seed=0)
    assert not calls


def _planted_linear_product(field, d, m):
    """(E, want, subset): E over x1, y and m auxiliaries represents the
    product of d + 1 factors y - s x1 - c, with verifier P * a1 ... am +
    (5 x1 + 4)(2 a1 - 1), whose second term sums to 0 over the cube; want
    is the product of the first d factors and subset indexes their roots
    among the sorted roots c of the slice at x1 = 0."""
    consts = [3 * (d + 1 - i) for i in range(d + 1)]  # sorted roots reverse the factors
    b = CircuitBuilder(field, 2 + m)
    x1, y, aux = b.inp(0), b.inp(1), [b.inp(2 + q) for q in range(m)]
    lins = [b.sub(y, b.add(b.mul(b.const(field.embed(i + 2)), x1), b.const(field.embed(c))))
            for i, c in enumerate(consts)]
    noise = b.mul(b.add(b.mul(b.const(field.embed(5)), x1), b.const(field.embed(4))),
                  b.sub(b.mul(b.const(field.embed(2)), aux[0]), b.const(field.one)))
    E = ExpSumPoly(b.finish(b.add(b.mul(*lins, *aux), noise)), tuple(range(2, 2 + m)))
    X, Y = DensePoly.variable(field, 2, 0), DensePoly.variable(field, 2, 1)
    want = DensePoly.const(field, 2, field.one)
    for i, c in enumerate(consts[:d]):
        want = want * (Y - X.scale(field.embed(i + 2)) - DensePoly.const(field, 2, field.embed(c)))
    return E, want, tuple(sorted(d - i for i in range(d)))


def test_factor_vnp_reads_one_auxiliary_block_per_factor_position(monkeypatch):
    # the planted family over F_p: d = 1..4 with one or two auxiliaries;
    # factor position t of a combiner monomial reads block t, so the output
    # carries E.m * k <= d * m auxiliaries, k the combiner's largest
    # generator degree
    F = PrimeField(SIXTY_TWO_BIT_PRIME)
    for d in range(1, 5):
        for m in (1, 2):
            E, want, subset = _planted_linear_product(F, d, m)
            start = time.perf_counter()
            out, fr = factor_vnp(E, d, subset=subset, seed=1)
            assert time.perf_counter() - start < 5, (d, m)
            assert exp_sum_expand(out) == fr.factor_dense == want, (d, m)
            B = combiner_dense(fr.bundle, fr.subset, len(fr.subset))
            assert out.m == E.m * max(sum(t[1:]) for t in B.terms) <= d * m, (d, m)
    # d = 3 over seven auxiliaries needs 2^21 > 2^BRUTE_FORCE_AUX_LIMIT
    # assignments: refused before any interpolation, of the verifier or in
    # the search
    calls = _record_interpolations(monkeypatch)
    E, _, subset = _planted_linear_product(F, 3, 7)
    assert 3 * 7 > BRUTE_FORCE_AUX_LIMIT
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match=r"2\^21 auxiliary assignments"):
        factor_vnp(E, 3, subset=subset, seed=1)
    assert time.perf_counter() - start < 1
    assert not calls


def test_factor_vnp_refuses_its_parameters_before_expanding(QQ, monkeypatch):
    from circuitforge import expsum

    expanded = []
    monkeypatch.setattr(expsum, "exp_sum_expand", lambda *a, **k: expanded.append(a))
    e = _planted_aux_cubic(QQ)
    with pytest.raises(BudgetExceeded, match="degree"):
        factor_vnp(e, DEFAULT_BUDGET.max_degree + 1)
    for subset in ((0, 0), (0, 1, 2), ()):
        with pytest.raises(ParameterViolation, match="distinct roots"):
            factor_vnp(e, 2, subset=subset)
    b = CircuitBuilder(QQ, 1)
    with pytest.raises(ParameterViolation, match="there is none"):
        factor_vnp(ExpSumPoly(b.finish(b.inp(0)), (0,)), 1)
    assert not expanded


def test_factor_vnp_emits_through_one_composition_sum(QQ, monkeypatch):
    # the factor is one emit_composition over the auxiliary blocks, E's m
    # auxiliaries per block: no formula conversion, leaf substitution or
    # truncation of a circuit that carries E's auxiliaries
    from circuitforge import expsum

    seen = {"emit_composition": [], "leaf_substitute": [], "truncate_deg": []}

    def spy(name, module):
        real = getattr(module, name)

        def call(first, *args, **kwargs):
            seen[name].append((first.num_vars, args))
            return real(first, *args, **kwargs)
        monkeypatch.setattr(module, name, call)

    for name in ("emit_composition", "leaf_substitute"):
        spy(name, expsum)
    for module in (transforms, expsum):
        spy("truncate_deg", module)
    e = _planted_aux_cubic(QQ)
    out, fr = factor_vnp(e, 2, subset=(0, 1), seed=0)
    assert exp_sum_expand(out) == _aux_cubic_factor(QQ)
    assert out.verifier.num_vars == e.nx + out.m and out.m > e.m and out.m % e.m == 0
    # one call, on the output's builder, from the verifier: its variables
    # past xs and y are E's m auxiliaries, block 0 of the output's
    ((nv, (_, _, _, V, xs, y, _)),) = seen["emit_composition"]
    assert nv == e.nx + out.m and V.num_vars - len(xs) - 1 == e.m and y == len(xs)
    assert not seen["leaf_substitute"]
    assert all(nv <= e.nx for nv, _ in seen["truncate_deg"])


def test_factor_vnp_of_a_combiner_free_of_generators_neither_lifts_nor_copies_the_verifier(QQ, monkeypatch):
    # (y - 1)^2 and (y - 1)(y - 3) over (x1, y), summed over one auxiliary:
    # no root has generators, so B reads no component, and the verifier is
    # neither lifted (for (y - 1)^2, through an order-1 Hasse derivative)
    # nor interpolated; only the search's source for (y - 1)^2, the Hasse
    # derivative of the expansion, is
    calls = _record_interpolations(monkeypatch)
    for double, root in ((True, 1), (False, 1)):
        calls.clear()
        b = CircuitBuilder(QQ, 3)
        y, a = b.inp(1), b.inp(2)
        factors = [b.sub(y, b.const(Fraction(c))) for c in (1, 1 if double else 3)]
        e = ExpSumPoly(b.finish(b.mul(a, *factors)), (2,))
        out, fr = factor_vnp(e, 1, subset=(0,), seed=0)
        assert fr.deriv_level == double and out.m == 0
        Y = DensePoly.variable(QQ, 2, 1)
        assert exp_sum_expand(out) == Y - DensePoly.const(QQ, 2, Fraction(root))
        assert [circ.num_vars for circ, *_ in calls] == [e.nx] * double

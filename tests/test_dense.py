import itertools
import math
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from circuitforge import (
    CircuitBuilder,
    DensePoly,
    ExpansionBudget,
    PrimeField,
    Rationals,
    divides,
    expand,
    hasse_derivative_dense,
    homog_component_dense,
    substitute,
    truncate_dense,
    univariate_roots,
)
from circuitforge import dense
from circuitforge.circuit import ADD, CONST, IN, Circuit, fix_vars
from circuitforge.dense import (
    SPLIT_SHIFT_LIMIT,
    _ROOT_PRIME_START,
    _linear_roots_prime,
    _try_divide,
    circuit_from_dense,
    compose,
    emit_poly,
    expand_outputs,
    parse_poly,
)
from circuitforge.errors import (
    ArityMismatch,
    BudgetExceeded,
    MixedFieldConfig,
    ParameterViolation,
    SearchExhausted,
    ZeroDivisor,
    ZeroPolynomial,
)
from circuitforge.fields import SIXTY_TWO_BIT_PRIME, is_prime

from conftest import BIG_PRIME, SMALL_PRIME, random_circuit, random_sparse_poly, rng_for


def test_expand_square_of_sum(QQ):
    b = CircuitBuilder(QQ, 2)
    s = b.add(b.inp(0), b.inp(1))
    c = b.finish(b.mul(s, s))
    assert expand(c) == DensePoly(QQ, 2, {
        (2, 0): Fraction(1), (1, 1): Fraction(2), (0, 2): Fraction(1),
    })


def test_expand_zero_circuit_is_empty(QQ):
    b = CircuitBuilder(QQ, 1)
    c = b.finish(b.const(QQ.zero))
    assert expand(c).terms == {}


def test_expand_substitute_commutes(QQ):
    rng = rng_for("expand-subst")
    for k in range(20):
        c = random_circuit(QQ, rng, 2, size_limit=16, degree_limit=4)
        d = random_circuit(QQ, rng, 2, size_limit=10, degree_limit=2)
        lhs = expand(substitute(c, {0: d}))
        rhs = compose(expand(c), [expand(d), DensePoly.variable(QQ, 2, 1)])
        assert lhs == rhs


def test_budget_exceeded_terms_and_degree(QQ):
    b = CircuitBuilder(QQ, 1)
    x = b.inp(0)
    big = x
    for _ in range(4):
        big = b.mul(big, big)  # x^16
    c = b.finish(big)
    with pytest.raises(BudgetExceeded) as e:
        expand(c, ExpansionBudget(max_terms=100, max_degree=8))
    assert e.value.kind == "degree"
    b2 = CircuitBuilder(QQ, 3)
    s = b2.add(b2.inp(0), b2.inp(1), b2.inp(2), b2.const(Fraction(1)))
    p = s
    for _ in range(3):
        p = b2.mul(p, p)  # (x+y+z+1)^8: 165 terms
    with pytest.raises(BudgetExceeded) as e2:
        expand(b2.finish(p), ExpansionBudget(max_terms=50, max_degree=64))
    assert e2.value.kind == "terms"


# -- the packed kernel against a tuple-key gate walk ----------------------------

def _accumulate(field, terms, e, c):
    s = field.add(terms.get(e, field.zero), c)
    if s == field.zero:
        terms.pop(e, None)
    else:
        terms[e] = s


def _walk_product(field, a, b):
    if len(a) > len(b):
        a, b = b, a
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            _accumulate(field, out, tuple(x + y for x, y in zip(ea, eb)), field.mul(ca, cb))
    return out


def _walk_expand(circ):
    """Term maps of every output by a term-by-term field walk with tuple
    keys, taking children in the kernel's order."""
    field, n = circ.field, circ.num_vars
    vals = {}
    for i in circ.reachable():
        op, arg = circ.gates[i]
        if op == IN:
            vals[i] = {tuple(int(j == arg) for j in range(n)): field.one}
        elif op == CONST:
            vals[i] = {(0,) * n: arg} if arg != field.zero else {}
        elif op == ADD:
            kids = sorted(arg, key=lambda c: len(vals[c]), reverse=True)
            out = dict(vals[kids[0]])
            for c in kids[1:]:
                for e, v in vals[c].items():
                    _accumulate(field, out, e, v)
            vals[i] = out
        else:
            kids = sorted(arg, key=lambda c: len(vals[c]))
            out = vals[kids[0]]
            for c in kids[1:]:
                out = _walk_product(field, out, vals[c])
            vals[i] = out
    return [vals[o] for o in circ.outputs]


def _assert_same_terms(got, want, field):
    assert list(got.items()) == list(want.items())  # same terms, same key order
    kind = Fraction if isinstance(field, Rationals) else int
    assert all(type(c) is kind for c in got.values())


KERNEL_FIELDS = (Rationals(), PrimeField(SMALL_PRIME), PrimeField(BIG_PRIME))


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=["QQ", "F_small", "F_62bit"])
def test_kernel_matches_tuple_walk(field):
    rng = rng_for("kernel-walk", 0 if isinstance(field, Rationals) else field.p)
    for k in range(16):
        c = random_circuit(field, rng, k % 4, size_limit=30, degree_limit=8)
        (got,), (want,) = expand_outputs(c), _walk_expand(c)
        _assert_same_terms(got.terms, want, field)
    # in (1 + x + y)(xy - y - x), row by row, the xy term cancels, then comes back
    a = _poly(field, 2, {(0, 0): 1, (1, 0): 1, (0, 1): 1})
    q = _poly(field, 2, {(1, 1): 1, (0, 1): -1, (1, 0): -1})
    want = _walk_product(field, a.terms, q.terms)
    assert list(want)[-1] == (1, 1)
    _assert_same_terms((a * q).terms, want, field)
    # several outputs over shared gates, and a product of two expansions
    b = CircuitBuilder(field, 3)
    outs = [b.import_circuit(random_circuit(field, rng, 3, size_limit=20, degree_limit=5))[0]
            for _ in range(3)]
    outs.append(b.mul(outs[0], outs[1]))
    multi = b.finish(outs)
    got, want = expand_outputs(multi), _walk_expand(multi)
    assert len(got) == 4
    for g, wt in zip(got, want):
        _assert_same_terms(g.terms, wt, field)
    _assert_same_terms((got[0] * got[2]).terms, _walk_product(field, want[0], want[2]), field)
    # no variables at all
    b0 = CircuitBuilder(field, 0)
    k3, k4 = b0.const(field.embed(3)), b0.const(field.embed(-4))
    zero_var = b0.finish([b0.add(k3, k4), b0.const(field.zero)])
    got = expand_outputs(zero_var)
    assert [g.terms for g in got] == [{(): field.embed(-1)}, {}]


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=["QQ", "F_small", "F_62bit"])
def test_kernel_width_edges(field):
    one = field.one
    for k in range(6):
        # formal degree exactly 2^k: the top exponent fills its field
        b = CircuitBuilder(field, 2)
        x, y = b.inp(0), b.inp(1)
        xp, yp = x, y
        for _ in range(k):
            xp, yp = b.mul(xp, xp), b.mul(yp, yp)
        c = b.finish(b.add(xp, yp, b.mul(x, y) if k else b.const(one)))
        assert c.formal_degree() == 1 << k
        d = 1 << k
        want = {(d, 0): one, (0, d): one, (1, 1) if k else (0, 0): one}
        assert expand(c).terms == want
        assert (expand(c) * expand(c)).terms == _walk_product(field, want, want)
    # formal degree 4 above a true degree 2: ((x^2 + 1) - x^2) * x^2
    b = CircuitBuilder(field, 1)
    x2 = b.mul(b.inp(0), b.inp(0))
    c = b.finish(b.mul(b.sub(b.add(x2, b.const(one)), x2), x2))
    assert c.formal_degree() == 4
    assert expand(c, ExpansionBudget(max_degree=3)).terms == {(2,): one}
    with pytest.raises(BudgetExceeded) as e:
        expand(c, ExpansionBudget(max_degree=1))
    assert e.value.kind == "degree"


CAP_FIELDS = (Rationals(), PrimeField(101), PrimeField(BIG_PRIME))


@pytest.mark.parametrize("field", CAP_FIELDS, ids=["QQ", "F_101", "F_62bit"])
def test_capped_expansion_is_the_truncation(field):
    rng = rng_for("capped-walk", 0 if isinstance(field, Rationals) else field.p)
    for k in range(16):
        c = random_circuit(field, rng, 1 + k % 4, size_limit=30, degree_limit=8)
        full = expand(c)
        D = c.formal_degree()
        for cap in sorted({0, 1, max(D - 1, 0), D, D + 3}):
            assert expand(c, cap=cap) == truncate_dense(full, cap), (k, cap)
    # width edges: formal degree 2^k capped just below, at and above half of it
    one = field.one
    for k in range(1, 6):
        b = CircuitBuilder(field, 2)
        x, y = b.inp(0), b.inp(1)
        s = b.add(x, y, b.const(one))
        p = s
        for _ in range(k):
            p = b.mul(p, p)
        c = b.finish(p)
        full = expand(c)
        d = 1 << k
        for cap in {d // 2 - 1, d // 2, d // 2 + 1, d - 1}:
            assert expand(c, cap=cap) == truncate_dense(full, cap), (k, cap)
    # several outputs over shared gates
    b = CircuitBuilder(field, 3)
    outs = [b.import_circuit(random_circuit(field, rng, 3, size_limit=20, degree_limit=5))[0]
            for _ in range(3)]
    outs.append(b.mul(outs[0], outs[1]))
    multi = b.finish(outs)
    for cap in (0, 2, 5):
        got = expand_outputs(multi, cap=cap)
        assert got == [truncate_dense(g, cap) for g in expand_outputs(multi)]


def test_capped_expansion_stays_under_the_degree_budget(QQ):
    # (1 + x)^16 has degree 16 > 8: refused in full, H_<=8 returned capped
    b = CircuitBuilder(QQ, 1)
    p = b.add(b.inp(0), b.const(QQ.one))
    for _ in range(4):
        p = b.mul(p, p)
    c = b.finish(p)
    budget = ExpansionBudget(max_terms=100, max_degree=8)
    with pytest.raises(BudgetExceeded) as e:
        expand(c, budget)
    assert e.value.kind == "degree"
    got = expand(c, budget, cap=8)
    assert got.terms == {(j,): Fraction(math.comb(16, j)) for j in range(9)}
    with pytest.raises(ParameterViolation):
        expand(c, cap=-1)


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=["QQ", "F_small", "F_62bit"])
def test_bound_inputs_expand_the_substituted_circuit(field):
    # expand(at=) is substitute / fix_vars followed by expand, capped or not:
    # bound constants, a bound polynomial, a bound zero, an unread variable
    rng = rng_for("bound-inputs", 0 if isinstance(field, Rationals) else field.p)
    for k in range(12):
        n = 2 + k % 3
        c = random_circuit(field, rng, n, size_limit=24, degree_limit=6)
        v = rng.randrange(n)
        g = random_circuit(field, rng, n, size_limit=10, degree_limit=3)
        consts = {u: field.embed(rng.randint(-2, 2)) for u in range(n) if u != v}
        wide = Circuit(field, n + 1, c.gates, c.outputs)  # never reads x_{n+1}
        cases = [
            (c, {v: expand(g)}, substitute(c, {v: g})),
            (c, {u: DensePoly.const(field, n, a) for u, a in consts.items()},
             fix_vars(c, consts)),
            (c, {v: DensePoly.zero(field, n)}, fix_vars(c, {v: field.zero})),
            (wide, {n: DensePoly.variable(field, n + 1, 0)}, wide),
        ]
        for circ, at, ref in cases:
            want = expand(ref)
            assert expand(circ, at=at) == want, k
            for cap in range(want.total_degree() + 2):
                assert expand(circ, cap=cap, at=at) == truncate_dense(want, cap), (k, cap)
    # several outputs over shared gates, one variable bound to a polynomial
    b = CircuitBuilder(field, 3)
    outs = [b.import_circuit(random_circuit(field, rng, 3, size_limit=20, degree_limit=5))[0]
            for _ in range(3)]
    outs.append(b.mul(outs[0], outs[1]))
    multi = b.finish(outs)
    g = random_circuit(field, rng, 3, size_limit=10, degree_limit=3)
    at = {1: expand(g)}
    ref = substitute(multi, {1: g})
    assert expand_outputs(multi, at=at) == expand_outputs(ref)
    for cap in (0, 2, 5):
        assert expand_outputs(multi, cap=cap, at=at) == expand_outputs(ref, cap=cap)


def test_bound_inputs_keep_the_budget_checks(QQ, Fp):
    # y^2 with y bound to 1 + x1 + x2 + x3: 10 terms over a budget of 6, as
    # the substituted circuit; a bound value is itself held to the budget,
    # and so is the actual degree its formal degree bounds
    b = CircuitBuilder(QQ, 4)
    y = b.inp(3)
    square, ident = b.finish(b.mul(y, y)), b.finish(y)
    lin = DensePoly(QQ, 4, {(0, 0, 0, 0): QQ.one, (1, 0, 0, 0): QQ.one,
                            (0, 1, 0, 0): QQ.one, (0, 0, 1, 0): QQ.one})
    small = ExpansionBudget(max_terms=6)
    for circ in (square, substitute(square, {3: circuit_from_dense(lin)})):
        with pytest.raises(BudgetExceeded) as e:
            expand(circ, small, at={3: lin} if circ is square else None)
        assert e.value.kind == "terms"
    with pytest.raises(BudgetExceeded) as e:
        expand(ident, small, at={3: lin * lin})
    assert e.value.kind == "terms"
    x1_5 = DensePoly.monomial(QQ, 4, (5, 0, 0, 0), QQ.one)
    with pytest.raises(BudgetExceeded) as e:
        expand(square, ExpansionBudget(max_degree=8), at={3: x1_5})
    assert e.value.kind == "degree"
    assert expand(square, ExpansionBudget(max_degree=8), cap=8, at={3: x1_5}).is_zero()
    # refusals: a variable out of range, a value over another space or field
    for at in ({4: lin}, {3: DensePoly.variable(QQ, 3, 0)}):
        with pytest.raises(ArityMismatch):
            expand(square, at=at)
    with pytest.raises(MixedFieldConfig):
        expand(square, at={3: DensePoly.variable(Fp, 4, 0)})


def test_bad_arguments_raise_typed_errors(QQ):
    b = CircuitBuilder(QQ, 2)
    x, y = b.inp(0), b.inp(1)
    two = b.finish([x, b.mul(x, y)])
    p = DensePoly.variable(QQ, 2, 0)
    q = DensePoly.variable(QQ, 3, 0)
    arity = (lambda: expand(two), lambda: p.evaluate([1]), lambda: p + q,
             lambda: compose(p, [q, DensePoly.variable(QQ, 2, 1)]))
    for call in arity:
        with pytest.raises(ArityMismatch):
            call()
    params = (lambda: ExpansionBudget(max_terms=0), lambda: ExpansionBudget(max_degree=-1),
              lambda: hasse_derivative_dense(p, 0, -1), lambda: homog_component_dense(p, -1),
              lambda: univariate_roots(p * DensePoly.variable(QQ, 2, 1)))
    for call in params:
        with pytest.raises(ParameterViolation):
            call()


@pytest.mark.parametrize("field", [Rationals(), PrimeField(SMALL_PRIME)], ids=["QQ", "F_small"])
def test_partial_product_budget(field):
    # (x+y+z)(x^2+y^2+z^2-xy-yz-zx) = x^3+y^3+z^3-3xyz: the first two rows of
    # the product hold 7 terms, the factors 3 and 6, the result 4
    b = CircuitBuilder(field, 3)
    x, y, z = b.inp(0), b.inp(1), b.inp(2)
    s = b.add(x, y, z)
    q = b.sub(b.add(b.mul(x, x), b.mul(y, y), b.mul(z, z)),
              b.add(b.mul(x, y), b.mul(y, z), b.mul(z, x)))
    c = b.finish(b.mul(s, q))
    with pytest.raises(BudgetExceeded) as e:
        expand(c, ExpansionBudget(max_terms=6))
    assert e.value.kind == "terms"
    cube = {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1, (1, 1, 1): -3}
    want = {e: field.embed(v) for e, v in cube.items()}
    assert expand(c, ExpansionBudget(max_terms=7)).terms == want


def _poly(field, n, entries):
    return DensePoly(field, n, {e: field.embed(c) for e, c in entries.items()})


def test_divides_planted_square(QQ):
    # f = y - x, P = (y - x)^2 (y + 1), vars x=0 y=1
    f = _poly(QQ, 2, {(0, 1): 1, (1, 0): -1})
    g = _poly(QQ, 2, {(0, 1): 1, (0, 0): 1})
    P = f * f * g
    assert divides(f, P) == 2
    assert divides(g, P) == 1


def test_divides_rejects_non_divisor(QQ):
    f = _poly(QQ, 2, {(0, 1): 1, (1, 0): -1})   # y - x
    q = _poly(QQ, 2, {(0, 1): 1, (1, 0): 1})    # y + x
    assert divides(f, q) == 0


def test_divides_random_planted_multiplicity(QQ, Fp):
    for field, name in ((QQ, "qq"), (Fp, "fp")):
        rng = rng_for("divides-" + name)
        for k in range(25):
            f = random_sparse_poly(field, rng, 2, 2, 3)
            if f.total_degree() < 1:
                continue
            g = random_sparse_poly(field, rng, 2, 2, 3)
            if g.is_zero():
                continue
            m = 1 + rng.randrange(3)
            P = g
            for _ in range(m):
                P = P * f
            got = divides(f, P)
            assert got >= m  # g may accidentally contain more copies of f
            one_off = P + DensePoly.const(field, 2, field.one)
            if not f.is_zero() and f.total_degree() >= 1:
                assert divides(f, one_off) == 0


def test_try_divide_quotients_every_order(QQ, Fp):
    # the packed division returns the exact quotient under the kernel's graded order
    for field, name in ((QQ, "qq"), (Fp, "fp")):
        rng = rng_for("try-divide-" + name)
        for _ in range(20):
            f = random_sparse_poly(field, rng, 3, 2, 3)
            g = random_sparse_poly(field, rng, 3, 3, 4)
            if f.total_degree() < 1 or g.is_zero():
                continue
            assert _try_divide(f * g, f) == g
            assert _try_divide(f * g + DensePoly.const(field, 3, field.one), f) is None


def test_divides_stops_when_quotient_degree_overflows(QQ):
    # under lex x > y, x^4 / (x + y^3) would cancel into ever higher
    # y-powers; under the graded order f leads with y^3, which x^4 lacks
    f = _poly(QQ, 2, {(1, 0): 1, (0, 3): 1})
    p = _poly(QQ, 2, {(4, 0): 1})
    assert _try_divide(p, f) is None
    assert divides(f, p) == 0
    assert divides(f, f * f * p) == 2


DIVIDE_FIELDS = (Rationals(), PrimeField(SMALL_PRIME), PrimeField(BIG_PRIME))


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(DIVIDE_FIELDS), st.integers(1, 3), st.integers(1, 3), st.data())
def test_divides_counts_planted_powers_in_every_variable_order(field, n, m, data):
    """divides(f, f^m g) >= m, and the count does not move when the
    variables are permuted: exact quotients do not depend on the order."""
    rng = rng_for("divides-order", data.draw(st.integers(0, 2**16)))
    f = random_sparse_poly(field, rng, n, 2, 3)
    g = random_sparse_poly(field, rng, n, 2, 3)
    assume(f.total_degree() >= 1 and not g.is_zero())
    p = g
    for _ in range(m):
        p = p * f
    got = divides(f, p)
    assert got >= m
    perm = dict(enumerate(data.draw(st.permutations(range(n)))))
    assert divides(f.with_vars(n, perm), p.with_vars(n, perm)) == got


def test_linear_root_split_is_bounded():
    # y^2 + 1 is irreducible over F_7: no shift ever splits it
    with pytest.raises(SearchExhausted, match=str(SPLIT_SHIFT_LIMIT)):
        _linear_roots_prime(PrimeField(7), [1, 0, 1])
    assert sorted(_linear_roots_prime(PrimeField(7), [6, 0, 1])) == [1, 6]


def test_divides_errors(QQ):
    P = _poly(QQ, 1, {(1,): 1})
    with pytest.raises(ZeroDivisor):
        divides(DensePoly.zero(QQ, 1), P)
    with pytest.raises(ZeroDivisor):
        divides(DensePoly.const(QQ, 1, Fraction(2)), P)  # unit divisor


def test_hasse_derivative_examples(QQ):
    p = _poly(QQ, 1, {(3,): 1})  # y^3
    assert hasse_derivative_dense(p, 0, 2) == _poly(QQ, 1, {(1,): 3})
    assert hasse_derivative_dense(p, 0, 0) == p
    assert hasse_derivative_dense(p, 0, 4).is_zero()


def test_taylor_identity_dense(QQ, Fp):
    # P(y + z) = sum_k z^k P^(k)(y) checked as exact identity in (y, z)
    for field, name in ((QQ, "qq"), (Fp, "fp")):
        rng = rng_for("taylor-" + name)
        for k in range(40):
            p = random_sparse_poly(field, rng, 2, 6, 5)  # vars y=0, aux x=1
            shifted = compose(p.with_vars(3), [
                DensePoly(field, 3, {(1, 0, 0): field.one, (0, 0, 1): field.one}),
                DensePoly.variable(field, 3, 1), DensePoly.variable(field, 3, 2),
            ])  # y -> y + z with z = var 2
            total = DensePoly.zero(field, 3)
            for j in range(p.degree_in(0) + 1):
                dj = hasse_derivative_dense(p, 0, j).with_vars(3)
                zj = DensePoly.monomial(field, 3, (0, 0, j), field.one)
                total = total + dj * zj
            assert shifted == total


def test_homog_and_truncate(QQ):
    p = _poly(QQ, 1, {(0,): 1, (1,): 1, (2,): 1})
    assert homog_component_dense(p, 1) == _poly(QQ, 1, {(1,): 1})
    assert truncate_dense(p, 1) == _poly(QQ, 1, {(0,): 1, (1,): 1})
    total = DensePoly.zero(QQ, 1)
    for k in range(p.total_degree() + 1):
        total = total + homog_component_dense(p, k)
    assert total == p
    homog = _poly(QQ, 2, {(1, 1): 3})
    assert homog_component_dense(homog, 1).is_zero()


def test_compose_translation_matches_substitution(QQ):
    rng = rng_for("translate-dense")
    p = random_sparse_poly(QQ, rng, 2, 4, 5)
    shift = [Fraction(1), Fraction(-2)]
    moved = compose(p, [DensePoly.variable(QQ, 2, v) + DensePoly.const(QQ, 2, c)
                        for v, c in enumerate(shift)])
    for _ in range(10):
        pt = [QQ.embed(rng.randint(-3, 3)) for _ in range(2)]
        assert moved.evaluate(pt) == p.evaluate([pt[0] + shift[0], pt[1] + shift[1]])


def test_compose_agrees_with_evaluation_and_truncation(QQ):
    """compose(p, vals) evaluates to p at the values' evaluations, and its
    capped form is the truncation of the uncapped one, over Q and F_p."""
    for field, name in ((QQ, "qq"), (PrimeField(SMALL_PRIME), "small"),
                        (PrimeField(BIG_PRIME), "big")):
        rng = rng_for("compose-property-" + name)
        for k in range(25):
            n, m = 1 + k % 3, 1 + rng.randrange(3)
            p = random_sparse_poly(field, rng, n, 4, 6)
            third = field.inv(field.embed(3))  # denominators over Q
            vals = [random_sparse_poly(field, rng, m, 3, 4).scale(third) for _ in range(n)]
            if k % 5 == 0:
                vals[0] = DensePoly.zero(field, m)
            full = compose(p, vals)
            for _ in range(3):
                pt = [field.embed(rng.randint(-5, 5)) for _ in range(m)]
                assert full.evaluate(pt) == p.evaluate([v.evaluate(pt) for v in vals])
            for cap in range(max(full.total_degree(), 0) + 2):
                assert compose(p, vals, cap=cap) == truncate_dense(full, cap)


def test_capped_product_is_the_truncated_product(QQ):
    """compose(x_0 x_1, [a, b], cap=c) keeps exactly the terms of degree <= c
    of the term-by-term product, over Q and F_p, for every cap up to one
    past its degree, including constants, zero factors and terms cancelling
    below the cap."""
    for field, name in ((QQ, "qq"), (PrimeField(SMALL_PRIME), "small"),
                        (PrimeField(BIG_PRIME), "big")):
        rng = rng_for("capped-product-" + name)
        third = field.inv(field.embed(3))  # denominators over Q
        for k in range(30):
            n = 1 + k % 3
            a = random_sparse_poly(field, rng, n, 4, 6).scale(third)
            b = random_sparse_poly(field, rng, n, 3, 5)
            if k % 7 == 0:
                b = DensePoly.const(field, n, field.embed(rng.randint(-4, 4)))
            elif k % 7 == 1:  # (a + x + 2)(x - 2): the x * 2 terms cancel
                x, two = DensePoly.variable(field, n, 0), DensePoly.const(field, n, field.embed(2))
                a, b = a + x + two, x - two
            full = DensePoly(field, n, _walk_product(field, a.terms, b.terms))
            xy = DensePoly.monomial(field, 2, (1, 1), field.one)
            for cap in range(max(full.total_degree(), a.total_degree(), 0) + 2):
                assert compose(xy, [a, b], cap=cap) == truncate_dense(full, cap), (name, k, cap)


def test_product_raises_over_the_term_budget(QQ):
    """a * b runs under compose's default budget: (x_1 + ... + x_20)^2 has
    210 terms, its square 8,855 and that square's square more than the
    default 200,000, which raises before any result is built."""
    s = sum((DensePoly.variable(QQ, 20, v) for v in range(1, 20)), DensePoly.variable(QQ, 20, 0))
    sq = s * s
    assert len(sq.terms) == 210
    quad = sq * sq
    assert len(quad.terms) == math.comb(23, 4)
    with pytest.raises(BudgetExceeded) as e:
        quad * quad
    assert e.value.kind == "terms"


def test_compose_refusals(QQ, Fp):
    p = DensePoly.variable(QQ, 2, 0) * DensePoly.variable(QQ, 2, 1)
    x = DensePoly.variable(QQ, 2, 0)
    with pytest.raises(ArityMismatch):
        compose(p, [x])  # one value for two variables
    with pytest.raises(ArityMismatch):
        compose(p, [x, DensePoly.variable(QQ, 3, 0)])  # two variable spaces
    with pytest.raises(MixedFieldConfig):
        compose(p, [x, DensePoly.variable(Fp, 2, 1)])
    with pytest.raises(ParameterViolation):
        compose(p, [x, x], cap=-1)
    # (x1 + ... + x6)^2 has 21 terms: a partial product of 21 overflows 20
    s = sum((DensePoly.variable(QQ, 6, v) for v in range(1, 6)), DensePoly.variable(QQ, 6, 0))
    sq = DensePoly.monomial(QQ, 1, (2,), QQ.one)
    with pytest.raises(BudgetExceeded) as e:
        compose(sq, [s], budget=ExpansionBudget(max_terms=20))
    assert e.value.kind == "terms"
    assert len(compose(sq, [s], budget=ExpansionBudget(max_terms=21)).terms) == 21
    assert compose(sq, [s], cap=1, budget=ExpansionBudget(max_terms=20)).is_zero()


def test_univariate_roots_planted(QQ):
    # (y-1)^2 (y-3)
    y = DensePoly.variable(QQ, 1, 0)
    one = DensePoly.const(QQ, 1, Fraction(1))
    p = (y - one) * (y - one) * (y - one.scale(Fraction(3)))
    assert univariate_roots(p) == [(Fraction(1), 2), (Fraction(3), 1)]


def test_univariate_roots_none_over_rationals(QQ):
    p = _poly(QQ, 1, {(2,): 1, (0,): 1})  # y^2 + 1
    assert univariate_roots(p) == []


def test_univariate_roots_fractional(QQ):
    # (2y - 1)(3y + 2) has roots 1/2 and -2/3
    p = _poly(QQ, 1, {(2,): 6, (1,): 1, (0,): -2})
    assert univariate_roots(p) == [(Fraction(-2, 3), 1), (Fraction(1, 2), 1)]


def test_univariate_roots_prime_field_planted():
    F = PrimeField(1_000_000_007)
    rng = rng_for("roots-fp")
    for k in range(10):
        roots = sorted({F.embed(rng.randrange(10**6)) for _ in range(4)})
        y = DensePoly.variable(F, 1, 0)
        p = DensePoly.const(F, 1, F.one)
        for r in roots:
            p = p * (y - DensePoly.const(F, 1, r))
        assert univariate_roots(p) == [(r, 1) for r in roots]


def test_univariate_roots_prime_field_multiplicities():
    F = PrimeField(101)
    y = DensePoly.variable(F, 1, 0)
    c5 = DensePoly.const(F, 1, F.embed(5))
    c9 = DensePoly.const(F, 1, F.embed(9))
    p = (y - c5) * (y - c5) * (y - c5) * (y - c9)
    assert univariate_roots(p) == [(5, 3), (9, 1)]


def test_univariate_roots_zero_poly(QQ):
    with pytest.raises(ZeroPolynomial):
        univariate_roots(DensePoly.zero(QQ, 1))


def _from_roots(field, planted, tail):
    """tail * prod (c*y - b)^m over the planted (b, c, m)."""
    y = DensePoly.variable(field, 1, 0)
    out = tail
    for b, c, m in planted:
        for _ in range(m):
            out = out * (y.scale(field.embed(c)) - DensePoly.const(field, 1, field.embed(b)))
    return out


def _next_prime(n):
    return next(q for q in itertools.count(n) if is_prime(q))


def test_univariate_roots_match_sympy_over_rationals(QQ):
    import sympy

    rng = rng_for("roots-q-sweep")
    for _ in range(12):
        planted = [(rng.randint(-2**64, 2**64), rng.randint(1, 2**64), rng.randint(1, 3))
                   for _ in range(rng.randint(1, 3))]
        # y^2 + k with k > 0 has no real root, so it is irreducible over Q
        quadratic = _poly(QQ, 1, {(2,): 1, (0,): rng.randint(1, 2**64)})
        p = _from_roots(QQ, planted, quadratic)
        ref = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                          for c in reversed([p.coeff((k,)) for k in range(p.total_degree() + 1)])],
                         sympy.Symbol("y"), domain="QQ")
        want = sorted((Fraction(int(r.p), int(r.q)), m)
                      for r, m in sympy.roots(ref, filter="Q").items())
        assert univariate_roots(p) == want
        assert sum(m for _, m in want) == sum(m for _, _, m in planted)


@pytest.mark.parametrize("bits", [61, 150, 223])
def test_univariate_roots_of_large_rationals_are_fast(QQ, bits):
    # (y - 1)(y - N); the largest N is a product of a 100- and a 123-bit prime
    big = {61: 2**61 - 1, 150: (2**61 - 1) * (2**89 - 1),
           223: _next_prime(3 << 98) * _next_prime(3 << 121)}[bits]
    assert big.bit_length() == bits
    p = _from_roots(QQ, [(1, 1, 1), (big, 1, 1)], DensePoly.const(QQ, 1, QQ.one))
    start = time.perf_counter()
    assert univariate_roots(p) == [(Fraction(1), 1), (Fraction(big), 1)]
    assert time.perf_counter() - start < 1


def test_rational_roots_skip_unsuitable_primes(QQ, monkeypatch):
    p0 = _next_prime(_ROOT_PRIME_START)  # the first prime tried
    one = DensePoly.const(QQ, 1, QQ.one)
    # p0 divides the leading coefficient p0 of (p0*y - 1)(y - 2)
    lead_divisible = _from_roots(QQ, [(1, p0, 1), (2, 1, 1)], one)
    # the roots 1 and 1 + p0 meet mod p0, so the part is not squarefree there
    congruent = _from_roots(QQ, [(1, 1, 1), (1 + p0, 1, 1)], one)
    assert univariate_roots(lead_divisible) == [(Fraction(1, p0), 1), (Fraction(2), 1)]
    assert univariate_roots(congruent) == [(Fraction(1), 1), (Fraction(1 + p0), 1)]
    monkeypatch.setattr(dense, "_ROOT_PRIME_TRIES", 1)  # p0 alone is refused
    for p in (lead_divisible, congruent):
        with pytest.raises(SearchExhausted):
            univariate_roots(p)
    assert univariate_roots(_from_roots(QQ, [(2, 1, 1), (3, 1, 1)], one)) == [
        (Fraction(2), 1), (Fraction(3), 1)]
    monkeypatch.setattr(dense, "_ROOT_PRIME_TRIES", 0)
    with pytest.raises(SearchExhausted):
        univariate_roots(_from_roots(QQ, [(2, 1, 1)], one))


def _non_residue(p):
    """The least n with y^2 - n irreducible over F_p (Euler's criterion)."""
    return next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1)


def _planted_fp(F, rng, degree, quadratic, repeated):
    """(poly, planted roots) for a random product of linear factors over F of
    the given degree, squared when asked (but for a last odd one), times an
    irreducible quadratic y^2 - n when asked."""
    y = DensePoly.variable(F, 1, 0)
    out = DensePoly.const(F, 1, F.embed(rng.randint(1, F.p - 1)))
    if quadratic:
        out = out * _poly(F, 1, {(2,): 1, (0,): -_non_residue(F.p)})
    mults = {}
    while sum(mults.values()) < degree:
        r = rng.randrange(F.p)
        if r in mults and not repeated:
            continue
        mults[r] = mults.get(r, 0) + min(1 + repeated, degree - sum(mults.values()))
    for r, m in mults.items():
        for _ in range(m):
            out = out * (y - DensePoly.const(F, 1, r))
    return out, sorted(mults.items())


@pytest.mark.parametrize("p", [7, 101, 8209])
def test_univariate_roots_match_brute_force_over_small_primes(p):
    F = PrimeField(p)
    rng = rng_for(f"roots-brute-{p}")
    for degree in range(1, 9):
        for quadratic, repeated in itertools.product((False, True), repeat=2):
            if degree > p and not repeated:
                continue
            poly, planted = _planted_fp(F, rng, degree, quadratic, repeated)
            coeffs = [poly.coeff((k,)) for k in range(poly.total_degree() + 1)]
            brute = [x for x in range(p) if sum(c * x**k for k, c in enumerate(coeffs)) % p == 0]
            got = univariate_roots(poly)
            assert got == planted
            assert [r for r, _ in got] == brute


def _hasse_multiplicity(p, r):
    """The least k whose order-k Hasse derivative of p is nonzero at r."""
    return next(k for k in itertools.count()
                if hasse_derivative_dense(p, 0, k).evaluate([r]) != p.field.zero)


@pytest.mark.parametrize("field", [Rationals(), PrimeField(101), PrimeField(7)],
                         ids=["QQ", "F101", "F7"])
def test_univariate_multiplicities_are_the_hasse_definition(field):
    # over F_p the multiplicities run up to p + 3, where y^p - y and the
    # derivative no longer see them: only exact division counts them
    rng = rng_for("roots-hasse", 0 if field.kind == "rationals" else field.p)
    top = 4 if field.kind == "rationals" else field.p + 3
    y = DensePoly.variable(field, 1, 0)
    no_root = y * y + DensePoly.const(field, 1, field.one) if field.kind == "rationals" \
        else _poly(field, 1, {(2,): 1, (0,): -_non_residue(field.p)})
    for _ in range(6):
        planted = {field.embed(rng.randint(-9, 9)): rng.randint(1, top)
                   for _ in range(rng.randint(1, 3))}
        tail = no_root.scale(field.embed(rng.randint(1, 6)))
        p = _from_roots(field, [(b, 1, m) for b, m in planted.items()], tail)
        got = univariate_roots(p)
        assert got == sorted(planted.items())
        assert all(m == _hasse_multiplicity(p, r) for r, m in got)
        if field.kind == "prime":
            assert [r for r, _ in got] == [x for x in range(field.p) if not p.evaluate([x])]


def test_univariate_roots_of_multiplicity_at_least_the_characteristic():
    # a squarefree decomposition that holds only for char > degree reads
    # (y - 1)^6 over F_5 as [(1, 1)] and loses the root 1 of (y - 1)^5 (y - 2)
    F = PrimeField(5)
    one = DensePoly.const(F, 1, F.one)
    assert univariate_roots(_from_roots(F, [(1, 1, 6)], one)) == [(1, 6)]
    assert univariate_roots(_from_roots(F, [(1, 1, 5), (2, 1, 1)], one)) == [(1, 5), (2, 1)]


def test_univariate_roots_planted_over_sixty_two_bit_prime():
    F = PrimeField(SIXTY_TWO_BIT_PRIME)
    rng = rng_for("roots-fp62")
    for degree in range(1, 9):
        for quadratic, repeated in itertools.product((False, True), repeat=2):
            poly, planted = _planted_fp(F, rng, degree, quadratic, repeated)
            got = univariate_roots(poly)
            assert got == planted
            assert all(type(r) is int for r, _ in got)


def _mulmod(a, b, u, p):
    """a * b mod the monic u over F_p, by schoolbook product and long division."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, z in enumerate(b):
            prod[i + j] = (prod[i + j] + x * z) % p
    n = len(u) - 1
    for k in range(len(prod) - 1, n - 1, -1):
        c = prod[k]
        for i, m in enumerate(u):
            prod[k - n + i] = (prod[k - n + i] - c * m) % p
    while prod and prod[-1] == 0:
        prod.pop()
    return prod


@pytest.mark.parametrize("p", [7, 101, SIXTY_TWO_BIT_PRIME])
def test_linear_power_matches_repeated_multiplication(p):
    rng = rng_for(f"linear-power-{p}")
    for n in range(1, 6):
        for _ in range(4):
            u = [rng.randrange(p) for _ in range(n)] + [1]
            a = rng.randrange(p)
            want = [1]
            for e in range(40):
                assert dense._ulinpow(a, e, u, p) == want
                want = _mulmod(want, [a, 1], u, p)
    # degree-1 modulus: (y + a)^e mod (y + c) is the constant (a - c)^e
    assert dense._ulinpow(5, 0, [3, 1], 101) == [1]
    assert dense._ulinpow(5, 7, [3, 1], 101) == [pow(2, 7, 101)]
    assert dense._ulinpow(3, 7, [3, 1], 101) == []


def _brute_roots(f, p):
    return [x for x in range(p) if dense._ueval(f, x) % p == 0]


@pytest.mark.parametrize("p", [3, 5, 7, 13, 17, 41, 97, 1_000_033])
def test_sqrt_mod_of_every_square(p):
    # 17, 41, 97 and 1000033 are 1 mod 8: Tonelli-Shanks takes several rounds
    squares = {x * x % p for x in range(1, min(p, 3000))}
    for a in squares:
        assert dense._sqrt_mod(a, p) ** 2 % p == a


@pytest.mark.parametrize("p", [3, 5, 7, 13, 17, 41, 97])
def test_distinct_roots_of_every_low_degree_slice(p):
    # every monic polynomial of degree 1 and 2 (none, one double or two roots),
    # and every cubic while p^3 stays small: irreducible, one root times an
    # irreducible quadratic, repeated and split
    F = PrimeField(p)
    top = 3 if p <= 17 else 2
    for degree in range(1, top + 1):
        for low in itertools.product(range(p), repeat=degree):
            f = list(low) + [1]
            assert sorted(dense._distinct_roots(F, f)) == _brute_roots(f, p)


@pytest.mark.parametrize("p", [5, 7, 17, 41, 97])
def test_distinct_roots_of_planted_products(p):
    # products of distinct, repeated and missing roots with irreducible
    # quadratics and cubics; over p = 5 and 7 every root can be present
    F = PrimeField(p)
    rng = rng_for(f"distinct-roots-{p}")
    irreducible = {2: [], 3: []}
    while len(irreducible[2]) < 4 or len(irreducible[3]) < 4:
        degree = rng.randint(2, 3)
        f = [rng.randrange(p) for _ in range(degree)] + [1]
        if not _brute_roots(f, p) and len(irreducible[degree]) < 4:
            irreducible[degree].append(f)
    for _ in range(150):
        f = [1]
        for _ in range(rng.randrange(4)):
            f = _mulmod(f, irreducible[rng.randint(2, 3)][rng.randrange(4)], [0] * 40 + [1], p)
        for _ in range(rng.randrange(7)):
            f = _mulmod(f, [rng.randrange(p), 1], [0] * 40 + [1], p)
        if len(f) > 1:
            assert sorted(dense._distinct_roots(F, f)) == _brute_roots(f, p)
            poly = DensePoly(F, 1, {(k,): c for k, c in enumerate(f)})
            assert univariate_roots(poly) == [(x, dense._multiplicity(poly, 0, x))
                                              for x in _brute_roots(f, p)]


def _reference_ulinpow(a, e, u, p):
    """(y + a)^e mod the monic u over F_p by schoolbook squaring, without
    packing: the reference for dense._ulinpow."""
    n = len(u) - 1
    neg = [-c % p for c in u[:-1]]
    r = [1] + [0] * (n - 1)
    for bit in bin(e)[2:]:
        s = [0] * (2 * n - 1)
        for i, ri in enumerate(r):
            if ri:
                for j, rj in enumerate(r, i):
                    s[j] += ri * rj
        for k in range(2 * n - 2, n - 1, -1):
            c = s[k] % p
            if c:
                for i, m in enumerate(neg, k - n):
                    s[i] += c * m
        r = [c % p for c in s[:n]]
        if bit == "1":
            top = r[-1]
            r = [(lo + a * c + top * m) % p for lo, c, m in zip([0] + r, r, neg)]
    return dense._unorm(r)


def _reference_distinct_roots(f, p):
    """Distinct roots over F_p with no closed form and no shift-0 split:
    y^p mod f for gcd(f, y^p - y), then splits by gcd((y + a)^((p-1)/2) - 1, u)
    for a = 1, 2, ... down to linear factors."""
    t = dense._usub(_reference_ulinpow(0, p, f, p), [0, 1], p)
    roots, stack = [], [dense._ugcd(t, f, p)]
    while stack:
        u = stack.pop()
        if len(u) == 2:
            roots.append(-u[0] % p)
        elif len(u) > 2:
            for a in range(1, 65):
                t = dense._usub(_reference_ulinpow(a, (p - 1) // 2, u, p), [1], p)
                split = dense._ugcd(t, u, p)
                if 0 < len(split) - 1 < len(u) - 1:
                    break
            stack += [split, dense._udivmod(u, split, p)[0]]
    return sorted(roots)


@pytest.mark.parametrize("p", [1_000_003, 1_000_033, SIXTY_TWO_BIT_PRIME])
def test_distinct_roots_match_the_reference_root_finder(p):
    F = PrimeField(p)
    rng = rng_for(f"distinct-roots-reference-{p}")
    big = [0] * 40 + [1]
    for _ in range(40):
        f = [1]
        roots = [rng.randrange(p) for _ in range(rng.randrange(6))]
        for r in roots + roots[:rng.randrange(3)]:  # some repeated
            f = _mulmod(f, [-r % p, 1], big, p)
        for _ in range(rng.randrange(3)):  # random factors, most without roots
            f = _mulmod(f, [rng.randrange(p) for _ in range(rng.randint(1, 3))] + [1], big, p)
        if len(f) > 1:
            want = _reference_distinct_roots(f, p)
            assert sorted(dense._distinct_roots(F, f)) == want
            assert set(roots) <= set(want)


def test_root_finding_takes_at_most_one_power(monkeypatch):
    # a quadratic slice is solved in closed form; a cubic with a square and
    # a non-square root is split by its one half-Frobenius power
    p = SIXTY_TWO_BIT_PRIME
    F = PrimeField(p)
    y = DensePoly.variable(F, 1, 0)
    calls = []
    power = dense._ulinpow
    monkeypatch.setattr(dense, "_ulinpow", lambda *args: calls.append(args) or power(*args))
    n = _non_residue(p)
    for roots, want in (([3, 5], [(3, 1), (5, 1)]), ([7, 7], [(7, 2)]), ([], [])):
        poly = DensePoly.const(F, 1, F.one)
        for r in roots:
            poly = poly * (y - DensePoly.const(F, 1, r))
        if not roots:
            poly = y * y - DensePoly.const(F, 1, n)
        assert univariate_roots(poly) == want
    assert calls == []
    cubic = (y - DensePoly.const(F, 1, 1)) * (y - DensePoly.const(F, 1, 4)) \
        * (y - DensePoly.const(F, 1, n))
    assert univariate_roots(cubic) == sorted([(1, 1), (4, 1), (n, 1)])
    assert len(calls) == 1


def test_poly_text_roundtrip(QQ, Fp):
    rng = rng_for("poly-text")
    for field in (QQ, Fp):
        p = random_sparse_poly(field, rng, 3, 5, 7)
        assert parse_poly(emit_poly(p)) == p


def test_circuit_from_dense_roundtrip(QQ):
    rng = rng_for("from-dense")
    for k in range(10):
        p = random_sparse_poly(QQ, rng, 3, 5, 6)
        assert expand(circuit_from_dense(p)) == p

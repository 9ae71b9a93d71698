"""Acceptance suite: one test per criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are exact (0) everywhere: every comparison is an exact
equality of dense polynomials or an exact integer bound.
"""

import functools
import json
import time

from circuitforge import (
    CircuitBuilder,
    DensePoly,
    ExplicitPoly,
    HittingSet,
    PrimeField,
    Rationals,
    SIXTY_TWO_BIT_PRIME,
    combine_roots,
    divides,
    expand,
    extract_factor,
    extract_y_coeffs,
    generator_set,
    hasse_derivative_circuit,
    hasse_derivative_dense,
    homogenize,
    homog_component_dense,
    leaf_substitute,
    lift_root,
    nw_design,
    pit_hitset,
    pit_sz,
    prod_compose,
    selector_R,
    sum_compose,
    truncate_dense,
    valiant_step,
)
from circuitforge.circuit import is_formula
from circuitforge.dense import circuit_from_dense, compose
from circuitforge.designs import DESIGN_ELL_FACTOR
from circuitforge.expsum import (
    ExpSumPoly,
    coeff_exp_sums,
    exp_sum_expand,
    homog_x_exp_sum,
    homog_x_upto,
)
from circuitforge.lifting import A_STEP_WIRE_LAW, compose_root
from circuitforge.pit import exhaustive_zero_count
from circuitforge.transforms import HOMOGENIZE_SIZE_FACTOR
from circuitforge.seeding import stream

from conftest import SMALL_PRIME, dense_product, random_circuit, random_sparse_poly

QQ = Rationals()
FP62 = PrimeField(SIXTY_TWO_BIT_PRIME)
FPS = PrimeField(SMALL_PRIME)

SESSION_SEED = 20260810

# lift states collected by criterion 1 and re-checked by criteria 2 and 3
_LIFT_RUNS = []


def _report(num, label):
    print(f"criterion {num:2d} [{label}]: PASS")


def _rng(*names):
    return stream(SESSION_SEED, "acceptance", *names)


# -- planted instance builders -------------------------------------------------

def _plant_root_instance(field, rng, n, deg_f, shape):
    """P = (y - f) * g with a known f; returns (P, f_dense, pinned_alpha)."""
    nv = n + 1
    while True:
        f = random_sparse_poly(field, rng, n, deg_f, terms=min(5, 2 + deg_f))
        if f.total_degree() == deg_f:
            break
    fd = f.with_vars(nv)
    b = CircuitBuilder(field, nv)
    fc = b.import_circuit(circuit_from_dense(fd))[0]
    y = b.inp(n)
    factors = [b.sub(y, fc)]
    alpha = None
    if shape == "yfree":
        g = random_sparse_poly(field, rng, n, 2, 3)
        if g.is_zero():
            g = DensePoly.const(field, n, field.one)
        gc = b.import_circuit(circuit_from_dense(g.with_vars(nv)))[0]
        factors.append(gc)
        if g.constant_term() == field.zero:
            alpha = None  # g(0) = 0 forces the translation search to move
    else:
        # extra linear-in-y factors with distinct constant terms; pin alpha
        used = {f.constant_term()}
        for _ in range(2):
            while True:
                c = field.embed(rng.randint(-8, 8))
                if c not in used:
                    used.add(c)
                    break
            factors.append(b.sub(y, b.const(c)))
        alpha = f.constant_term()
    P = b.finish(b.mul(*factors) if len(factors) > 1 else factors[0])
    return P, f, alpha


def _plant_factor_instance(field, rng, n, kf, kg):
    """P = f * g, both products of (y - linear) with globally distinct
    constant terms. Returns (P, f_dense, subset into the sorted root list)."""
    nv = n + 1
    consts = []
    while len(consts) < kf + kg:
        c = field.embed(rng.randint(-9, 9))
        if c not in consts:
            consts.append(c)
    b = CircuitBuilder(field, nv)
    y = b.inp(n)
    forms = []
    factors = []
    for cval in consts:
        parts = {(0,) * nv: cval}
        gate_parts = [b.const(cval)]
        for v in range(n):
            cc = rng.randint(-4, 4)
            if cc:
                e = [0] * nv
                e[v] = 1
                parts[tuple(e)] = field.embed(cc)
                gate_parts.append(b.mul(b.const(field.embed(cc)), b.inp(v)))
        forms.append(DensePoly(field, nv, parts))
        factors.append(b.sub(y, b.add(*gate_parts) if len(gate_parts) > 1 else gate_parts[0]))
    P = b.finish(b.mul(*factors) if len(factors) > 1 else factors[0])
    f_dense = dense_product(forms[:kf], n, nv)
    order = sorted(range(len(consts)), key=lambda i: consts[i])
    subset = tuple(sorted(order.index(i) for i in range(kf)))
    return P, f_dense, subset


# -- criterion 1 ----------------------------------------------------------------

def test_criterion_01_hensel_root_recovery():
    """100 planted instances, rationals and a 62-bit prime; exact recovery."""
    t0 = time.time()
    plans = []
    qq_degs = [1] * 12 + [2] * 14 + [3] * 14 + [4] * 6 + [5] * 4
    fp_degs = [1] * 6 + [2] * 10 + [3] * 10 + [4] * 12 + [5] * 12
    for i, d in enumerate(qq_degs):
        plans.append((QQ, "qq", i, d))
    for i, d in enumerate(fp_degs):
        plans.append((FP62, "fp62", i, d))
    assert len(plans) == 100
    count = 0
    for field, tag, i, deg_f in plans:
        rng = _rng("c1", tag, str(i))
        n = 1 + (i % 3)
        shape = "multi" if i % 10 in (3, 7, 9) else "yfree"
        P, f, alpha = _plant_root_instance(field, rng, n, deg_f, shape)
        assert expand(P).total_degree() <= 10
        cert = lift_root(P, y=n, d=deg_f, seed=SESSION_SEED + i, alpha=alpha)
        assert expand(cert.root) == f  # exact, 0 tolerance
        _LIFT_RUNS.append((deg_f, cert.state))
        count += 1
    elapsed = time.time() - t0
    assert elapsed < 60, f"criterion 1 exceeded its runtime pin: {elapsed:.1f}s"
    _report(1, f"Hensel root recovery, {count} instances in {elapsed:.1f}s")


# -- criterion 2 ----------------------------------------------------------------

def test_criterion_02_a_recurrence_size_law():
    """Wires added per step <= 10 d^2, total <= 10 d^3; zero violations."""
    runs = list(_LIFT_RUNS)
    if not runs:  # standalone run: build a fresh batch
        from circuitforge import build_A_recurrence

        for i in range(12):
            rng = _rng("c2", str(i))
            d = 1 + rng.randrange(5)
            P, f, _ = _plant_root_instance(QQ, rng, 2, d, "yfree")
            runs.append((d, build_A_recurrence(P, f.constant_term(), d, y=2)))
    checked = 0
    for d, state in runs:
        law_step = A_STEP_WIRE_LAW * d * d
        assert all(added <= law_step for added in state.wire_deltas)
        assert state.A[-1].size() <= A_STEP_WIRE_LAW * d**3
        checked += len(state.wire_deltas)
    _report(2, f"A_i size law, {checked} recurrence steps, 0 violations")


# -- criterion 3 ----------------------------------------------------------------

def test_criterion_03_generator_set_law():
    """|members| <= d+1, zero constant terms, degree <= d (oracle-checked)."""
    instances = 0
    for d, state in _LIFT_RUNS[:40]:
        gens = state.gens
        assert len(gens.members) <= gens.d + 1
        for _, member in gens.members:
            dense = expand(member)
            assert not dense.is_zero()
            assert dense.constant_term() == member.field.zero
            assert dense.total_degree() <= gens.d
        instances += 1
    for i in range(12):  # plus generator sets on arbitrary random circuits
        rng = _rng("c3", str(i))
        field = QQ if i % 2 else FPS
        P = random_circuit(field, rng, 3, size_limit=20, degree_limit=5)
        d = 1 + rng.randrange(3)
        alpha = field.embed(rng.randint(-3, 3))
        gens = generator_set(P, 2, alpha, d)
        assert len(gens.members) <= d + 1
        for _, member in gens.members:
            dense = expand(member)
            assert not dense.is_zero()
            assert dense.constant_term() == field.zero
            assert dense.total_degree() <= d
        instances += 1
    _report(3, f"generator-set law on {instances} instances")


# -- criterion 4 ----------------------------------------------------------------

def test_criterion_04_taylor_hasse_identity():
    """P(y+z) = sum_k z^k P^(k)(y) exactly, 200 random P of degree <= 6;
    circuit Hasse derivatives match dense ones on the same set."""
    cases = 0
    for i in range(200):
        rng = _rng("c4", str(i))
        field = QQ if i % 2 else FPS
        # dense Taylor identity in two variables (y = 0, z = 1)
        p = random_sparse_poly(field, rng, 1, 6, 4)
        p2 = p.with_vars(2)
        shifted = compose(
            p2, [DensePoly(field, 2, {(1, 0): field.one, (0, 1): field.one}),
                 DensePoly.variable(field, 2, 1)]
        )
        total = DensePoly.zero(field, 2)
        for k in range(p.degree_in(0) + 1):
            dk = hasse_derivative_dense(p, 0, k).with_vars(2)
            total = total + dk * DensePoly.monomial(field, 2, (0, k), field.one)
        assert shifted == total
        # circuit vs dense Hasse derivative on a random circuit
        c = random_circuit(field, rng, 2, size_limit=16, degree_limit=6)
        dense = expand(c)
        j = rng.randrange(4)
        assert expand(hasse_derivative_circuit(c, 1, j)) == hasse_derivative_dense(dense, 1, j)
        cases += 1
    _report(4, f"Taylor/Hasse identity, {cases} cases, exact")


# -- criterion 5 ----------------------------------------------------------------

def test_criterion_05_interpolation_reconstruction():
    """sum_j C_j y^j == P and depth(C_j) <= depth(P), all instances."""
    for i in range(40):
        rng = _rng("c5", str(i))
        field = QQ if i % 2 else FPS
        P = random_circuit(field, rng, 3, size_limit=24, degree_limit=6)
        dmax = P.formal_degree()
        coeffs = extract_y_coeffs(P, 2, dmax)
        y = DensePoly.variable(field, 3, 2)
        total = DensePoly.zero(field, 3)
        ypow = DensePoly.const(field, 3, field.one)
        for cj in coeffs:
            assert cj.depth() <= P.depth()
            total = total + expand(cj) * ypow
            ypow = ypow * y
        assert total == expand(P)
    _report(5, "interpolation reconstruction + depth, 40 instances")


# -- criterion 6 ----------------------------------------------------------------

def test_criterion_06_homogenization():
    """sum_k H_k[C] == C and size(H_k) <= c_h k^2 size(C), c_h documented."""
    for i in range(40):
        rng = _rng("c6", str(i))
        field = QQ if i % 2 else FPS
        C = random_circuit(field, rng, 3, size_limit=22, degree_limit=6)
        dense = expand(C)
        total = DensePoly.zero(field, 3)
        for k in range(C.formal_degree() + 1):
            hk = homogenize(C, k)
            assert expand(hk) == homog_component_dense(dense, k)
            if k >= 1:
                assert hk.size() <= HOMOGENIZE_SIZE_FACTOR * k * k * C.size()
            else:
                assert hk.size() <= HOMOGENIZE_SIZE_FACTOR
            total = total + expand(hk)
        assert total == dense
    _report(6, f"homogenization, c_h = {HOMOGENIZE_SIZE_FACTOR}, 40 instances")


# -- criterion 7 ----------------------------------------------------------------

@functools.cache
def _criterion_07_runs() -> tuple:
    """The 100 planted criterion-7 instances, each factored with its planted
    subset given and by subset search. test_invariants asserts the factor
    depth and size laws on the same runs, so the suite factors them once."""
    shapes = [(1, 1)] * 40 + [(2, 1)] * 35 + [(3, 1)] * 15 + [(2, 2)] * 7 + [(3, 2)] * 3
    runs = []
    for i, (kf, kg) in enumerate(shapes):
        rng = _rng("c7", str(i))
        field = QQ if i % 3 == 0 else FP62
        n = 2 if (i % 4 == 0 or kf >= 3) else 3
        P, f_dense, subset = _plant_factor_instance(field, rng, n, kf, kg)
        res = extract_factor(P, y=n, d=kf, subset=subset, seed=SESSION_SEED + i)
        res2 = extract_factor(P, y=n, d=kf, seed=SESSION_SEED + i)
        runs.append((kf, n, P, f_dense, subset, res, res2))
    return tuple(runs)


def test_criterion_07_factor_pipeline():
    """100 planted P = f*g; given-subset recovers f exactly on every
    instance; subset-search recovers f on the linear-f instances and a
    certified divisor otherwise (any proper subset of a split f already
    divides P, so first-accept search legitimately stops early); the
    combine identity f = H_{<=d}[prod(y - q_i)] holds exactly throughout."""
    t0 = time.time()
    runs = _criterion_07_runs()
    assert len(runs) == 100
    for i, (kf, n, P, f_dense, subset, res, res2) in enumerate(runs):
        got = expand(res.factor)
        assert got == f_dense, f"instance {i}: given-subset factor differs"
        assert res.multiplicity == 1
        # combine identity on the planted subset, exactly
        comb = combine_roots(res.bundle, subset, kf)
        assert expand(comb) == f_dense
        # subset-search mode
        got2 = expand(res2.factor)
        assert divides(got2, expand(P)) == res2.multiplicity >= 1
        if kf == 1:
            assert got2 == f_dense or divides(got2, f_dense) == 0
    _report(7, f"factor pipeline, 100 instances in {time.time() - t0:.1f}s")


# -- criterion 8 ----------------------------------------------------------------

def test_criterion_08_nw_designs_exhaustive():
    """All (n, m) with n <= 64, m <= 16, n < 2^m: every invariant, < 10 s."""
    t0 = time.time()
    count = 0
    for m in range(2, 17):
        for n in range(2, min(64, 2**m - 1) + 1):
            design = nw_design(n, m)
            log_n = n.bit_length() - 1
            assert design.ell <= DESIGN_ELL_FACTOR * m * m
            sets = design.sets
            assert all(len(s) == m for s in sets)
            for a in range(n):
                sa = sets[a]
                for bb in range(a + 1, n):
                    assert len(sa & sets[bb]) <= log_n
            count += 1
    elapsed = time.time() - t0
    assert elapsed < 10, f"criterion 8 exceeded its runtime pin: {elapsed:.1f}s"
    _report(8, f"NW designs, {count} parameter pairs in {elapsed:.1f}s")


# -- criterion 9 ----------------------------------------------------------------

def _random_degree4_circuit(field, rng, n):
    """Random circuit with formal degree <= 4 and about 40 wires."""
    return random_circuit(field, rng, n, size_limit=40, degree_limit=4)


def _zero_circuit(field, rng, n):
    """Syntactically nonobvious zero: distribute then subtract."""
    b = CircuitBuilder(field, n)
    u = b.import_circuit(random_circuit(field, rng, n, size_limit=8, degree_limit=2))[0]
    v = b.import_circuit(random_circuit(field, rng, n, size_limit=8, degree_limit=2))[0]
    w = b.import_circuit(random_circuit(field, rng, n, size_limit=8, degree_limit=2))[0]
    lhs = b.mul(b.add(u, v), w)
    rhs = b.add(b.mul(u, w), b.mul(v, w))
    return b.finish(b.sub(lhs, rhs))


def test_criterion_09_hitting_set_mechanics():
    """m = 6 full-support table, n = 8 design, D <= 4: 200 nonzero and 50
    zero circuits classified in full agreement with exhaustive pit_sz."""
    t0 = time.time()
    table = ExplicitPoly.random_full_support(FPS, 6, 1000, seed=SESSION_SEED)
    design = nw_design(8, 6)
    D, d_hard = 4, table.degree()
    assert d_hard == 6  # full support
    hitset = HittingSet(table, design, D=D, d=d_hard)
    assert hitset.t_size == D * d_hard + 1  # |T| = D*d + 1 exactly
    agree = 0
    rng = _rng("c9")
    made_nonzero = 0
    while made_nonzero < 200:
        c = _random_degree4_circuit(FPS, rng, 8)
        truth = pit_sz(c, D, exhaustive=True)
        if truth.status != "nonzero":
            continue
        made_nonzero += 1
        got = pit_hitset(c, hitset, limit=4000)
        assert got.status == "nonzero"
        agree += 1
    for i in range(50):
        z = _zero_circuit(FPS, rng, 8)
        truth = pit_sz(z, D, exhaustive=True)
        assert truth.status == "zero"
        got = pit_hitset(z, hitset, limit=4000)
        assert got.status == "zero"
        agree += 1
    _report(9, f"hitting-set mechanics, {agree}/250 agree in {time.time() - t0:.1f}s")


# -- criterion 10 ----------------------------------------------------------------

def test_criterion_10_schwartz_zippel_bound():
    """Exhaustive zero fractions <= d/|S| for |S| = d+1 .. 2d+1."""
    done = 0
    i = 0
    while done < 100:
        rng = _rng("c10", str(i))
        i += 1
        n = 1 + rng.randrange(3)
        c = random_circuit(FPS, rng, n, size_limit=18, degree_limit=4)
        dense = expand(c)
        d = dense.total_degree()
        if dense.is_zero() or d < 1 or d > 4:
            continue
        for s_size in range(d + 1, 2 * d + 2):
            zeros = exhaustive_zero_count(c, s_size)
            assert zeros <= d * s_size ** (n - 1)  # d/|S| as a count bound
        done += 1
    _report(10, f"Schwartz-Zippel bound, {done} polynomials, all grids")


# -- criterion 11 ----------------------------------------------------------------

def _brute_force_expsum(e):
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


def _random_expsum(field, rng, nx, m, size=12, deg=3):
    circ = random_circuit(field, rng, nx + m, size_limit=size, degree_limit=deg)
    return ExpSumPoly(circ, tuple(range(nx, nx + m)))


def test_criterion_11_vnp_contract():
    """Every operation's exp_sum_expand equals the specified polynomial
    (total aux <= 12, >= 300 randomized cases); selector exhaustive for
    s' <= 3; the z1*z1 fresh-copy case squares the polynomial."""
    cases = 0
    # expand against direct nested summation
    for i in range(60):
        rng = _rng("c11-expand", str(i))
        field = QQ if i % 2 else FPS
        e = _random_expsum(field, rng, 2, rng.randint(1, 3))
        assert exp_sum_expand(e) == _brute_force_expsum(e)
        cases += 1
    # sum / product composition
    for i in range(60):
        rng = _rng("c11-compose", str(i))
        field = QQ if i % 2 else FPS
        e1 = _random_expsum(field, rng, 2, rng.randint(0, 2))
        e2 = _random_expsum(field, rng, 2, rng.randint(0, 2))
        r1, r2 = exp_sum_expand(e1), exp_sum_expand(e2)
        assert exp_sum_expand(sum_compose(e1, e2)) == r1 + r2
        assert exp_sum_expand(prod_compose(e1, e2)) == r1 * r2
        cases += 2
    # leaf substitution over random small formulas
    for i in range(40):
        rng = _rng("c11-leaf", str(i))
        field = QQ if i % 2 else FPS
        b = CircuitBuilder(field, 2, share=False)
        z1a, z1b, z2 = b.inp(0), b.inp(0), b.inp(1)
        shape = rng.randrange(3)
        if shape == 0:
            B = b.finish(b.mul(z1a, z1b))
        elif shape == 1:
            B = b.finish(b.add(z1a, b.mul(z2, z1b)))
        else:
            B = b.finish(b.add(b.mul(z1a, z2), z1b))
        e1 = _random_expsum(field, rng, 1, rng.randint(0, 2), size=8, deg=2)
        e2 = _random_expsum(field, rng, 1, rng.randint(0, 2), size=8, deg=2)
        out = leaf_substitute(B, {0: e1, 1: e2})
        assert out.m <= 12
        r1, r2 = exp_sum_expand(e1), exp_sum_expand(e2)
        if shape == 0:
            want = r1 * r1
        elif shape == 1:
            want = r1 + r2 * r1
        else:
            want = r1 * r2 + r1
        assert exp_sum_expand(out) == want
        cases += 1
    # one Valiant level
    for i in range(30):
        rng = _rng("c11-valiant", str(i))
        field = QQ if i % 2 else FPS
        s_prime = 1 + rng.randrange(2)
        blocks = []
        want = DensePoly.zero(field, 2)
        for _ in range(s_prime):
            entries = [_random_expsum(field, rng, 2, rng.randint(0, 1), size=6, deg=2)
                       for _ in range(5)]
            prod = DensePoly.const(field, 2, field.one)
            for e in entries:
                prod = prod * exp_sum_expand(e)
            blocks.append(entries)
            want = want + prod
        got = valiant_step(blocks)
        assert exp_sum_expand(got) == want
        cases += 1
    # coefficient exp-sums reconstruct the represented polynomial
    for i in range(40):
        rng = _rng("c11-coeff", str(i))
        field = QQ if i % 2 else FPS
        e = _random_expsum(field, rng, 2, rng.randint(1, 2))
        dmax = e.verifier.formal_degree()
        coeffs = coeff_exp_sums(e, 1, dmax)
        z = DensePoly.variable(field, 2, 1)
        total = DensePoly.zero(field, 2)
        zp = DensePoly.const(field, 2, field.one)
        for cj in coeffs:
            total = total + exp_sum_expand(cj) * zp
            zp = zp * z
        assert total == exp_sum_expand(e)
        cases += 1
    # homogeneous-in-x parts partition the represented polynomial
    for i in range(40):
        rng = _rng("c11-homog", str(i))
        field = QQ if i % 2 else FPS
        e = _random_expsum(field, rng, 2, rng.randint(1, 2))
        full = exp_sum_expand(e)
        total = DensePoly.zero(field, 2)
        for k in range(e.verifier.formal_degree() + 1):
            total = total + exp_sum_expand(homog_x_exp_sum(e, k))
        assert total == full
        assert exp_sum_expand(homog_x_upto(e, 1)) == truncate_dense(full, 1)
        cases += 1
    assert cases >= 300
    # selector gadget: Boolean-valued with a unique selected block, s' <= 3
    for s_prime in (1, 2, 3):
        sel = selector_R(s_prime, FPS)
        assert is_formula(sel)
        nv = 5 * s_prime
        ones = 0
        for mask in range(1 << nv):
            point = [FPS.one if mask >> j & 1 else FPS.zero for j in range(nv)]
            v = sel.evaluate1(point)
            assert v in (FPS.zero, FPS.one)
            ones += v == FPS.one
        assert ones == s_prime
    # footnote counterexample: z1 * z1 squares the polynomial
    b = CircuitBuilder(QQ, 1, share=False)
    B = b.finish(b.mul(b.inp(0), b.inp(0)))
    bb = CircuitBuilder(QQ, 2)
    e = ExpSumPoly(bb.finish(bb.mul(bb.inp(0), bb.inp(1))), (1,))
    out = leaf_substitute(B, {0: e})
    r = exp_sum_expand(e)
    assert exp_sum_expand(out) == r * r
    sq_terms = {e2: c * c for e2, c in r.terms.items()}
    assert exp_sum_expand(out) != DensePoly(QQ, 1, sq_terms) or r * r == DensePoly(QQ, 1, sq_terms)
    _report(11, f"VNP contract, {cases} randomized cases + exhaustive selector")


# -- criterion 12 ----------------------------------------------------------------

def test_criterion_12_uniqueness():
    """Independent lift runs from the same (P, alpha, d) under different
    seeds produce identical dense expansions at every truncation order."""
    for i in range(10):
        rng = _rng("c12", str(i))
        field = QQ if i % 2 else FP62
        d = 1 + rng.randrange(4)
        while True:
            P, f, _ = _plant_root_instance(field, rng, 2, d, "yfree")
            b = CircuitBuilder(field, 3)
            at0 = b.finish(b.import_circuit(
                P, var_bindings={0: b.const(field.zero), 1: b.const(field.zero)}
            ))
            if not expand(at0).is_zero():
                break  # pinning alpha needs P(0, y) nonzero at the origin
        alpha = f.constant_term()
        runs = []
        for seed in (SESSION_SEED + i, SESSION_SEED + 7919 + i):
            cert = lift_root(P, y=2, d=d, seed=seed, alpha=alpha)
            per_order = [expand(compose_root(cert.state, k)) for k in range(1, d + 1)]
            runs.append((expand(cert.root), per_order))
        assert runs[0] == runs[1]
        # and the truncations are consistent: h_k = H_<=k[h_d]
        full = runs[0][1][-1]
        for k, hk in enumerate(runs[0][1], start=1):
            assert hk == truncate_dense(full, k)
    _report(12, "uniqueness of truncated lifts across seeds, 10 instances")


# -- criterion 13 ----------------------------------------------------------------

def test_criterion_13_certificate_determinism(tmp_path):
    """The CLI suite run twice with one session seed produces byte-identical
    certificates (and artifacts)."""
    from circuitforge.cli import main

    src = tmp_path / "p.circ"
    src.write_text(
        "field rationals\nnvars 3\n"
        "g1 = input x1\ng2 = input x2\ng3 = input x3\n"
        "g4 = const 1\ng5 = mul g1 g2\ng6 = add g4 g1 g5\n"
        "g7 = const -1\ng8 = mul g7 g6\ng9 = add g3 g8\n"
        "g10 = const -3\ng11 = add g3 g10\ng12 = mul g9 g11\noutput g12\n"
    )
    table = tmp_path / "hard.table"
    table.write_text("field prime 1000003\nm 3\n" +
                     "".join(f"{mask} {mask + 3}\n" for mask in range(8)))
    runs = []
    for tag in ("run1", "run2"):
        outdir = tmp_path / tag
        outdir.mkdir()
        blobs = {}
        rc = main(["--seed", "77", "lift-root", "-y", "3", "-d", "2", str(src),
                   "-o", str(outdir / "root.circ"), "--cert", str(outdir / "lift.json")])
        assert rc == 0
        rc = main(["--seed", "77", "factor", "-y", "3", "-d", "2", str(src),
                   "-o", str(outdir / "factor.circ"), "--cert", str(outdir / "factor.json")])
        assert rc == 0
        rc = main(["design", "-n", "4", "-m", "3", "-o", str(outdir / "design.json"),
                   "--cert", str(outdir / "design-cert.json")])
        assert rc == 0
        circ = tmp_path / "c.circ"
        circ.write_text("field prime 1000003\nnvars 4\ng1 = input x1\ng2 = input x2\n"
                        "g3 = mul g1 g2\noutput g3\n")
        rc = main(["--seed", "77", "pit", "--mode", "hitset", str(circ),
                   "--hard", str(table), "--design", str(outdir / "design.json"),
                   "-D", "2", "-d", "3", "--limit", "200",
                   "-o", str(outdir / "pit.json"), "--cert", str(outdir / "pit-cert.json")])
        assert rc == 0
        for name in ("root.circ", "lift.json", "factor.circ", "factor.json",
                     "design.json", "design-cert.json", "pit.json", "pit-cert.json"):
            body = (outdir / name).read_bytes()
            if name.endswith(".json"):
                # certificates reference per-run paths; compare their content
                # with the path fields normalized away
                data = json.loads(body.decode())
                blobs[name] = json.dumps(_strip_paths(data), sort_keys=True)
            else:
                blobs[name] = body
        runs.append(blobs)
    assert runs[0] == runs[1]
    _report(13, "byte-identical certificates across reruns")


def _strip_paths(obj):
    if isinstance(obj, dict):
        return {k: ("<path>" if k == "path" else _strip_paths(v)) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_strip_paths(v) for v in obj]
    return obj

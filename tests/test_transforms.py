import itertools
from fractions import Fraction

import pytest

from circuitforge import (
    Circuit,
    CircuitBuilder,
    DensePoly,
    PrimeField,
    Rationals,
    emit_circuit,
    expand,
    extract_y_coeffs,
    generator_set,
    hasse_derivative_circuit,
    hasse_derivative_dense,
    homogenize,
    homog_component_dense,
    make_monic,
    truncate_dense,
    truncate_deg,
)
from circuitforge import transforms
from circuitforge.errors import (
    ArityMismatch, BudgetExceeded, FieldTooSmall, MixedFieldConfig, ParameterViolation,
    SearchExhausted,
)
from circuitforge.fields import SIXTY_TWO_BIT_PRIME
from circuitforge.circuit import drop_unused_vars, formal_degree_in, sz_is_zero
from circuitforge.dense import ExpansionBudget, compose, expand_outputs
from circuitforge.transforms import (
    GENSET_SIZE_FACTOR,
    HOMOGENIZE_SIZE_FACTOR,
    _interpolate,
    affine,
    component_gates,
    homog_component_interp,
)

from conftest import SMALL_PRIME, oracle_equal, plant_linear_product, random_circuit, rng_for
from conftest import x1x2_plus_1


def test_homogenize_picks_component(QQ):
    # (x1 + x2)^2 + x1, k = 2
    b = CircuitBuilder(QQ, 2)
    s = b.add(b.inp(0), b.inp(1))
    c = b.finish(b.add(b.mul(s, s), b.inp(0)))
    assert expand(homogenize(c, 2)) == DensePoly(QQ, 2, {
        (2, 0): Fraction(1), (1, 1): Fraction(2), (0, 2): Fraction(1),
    })
    assert expand(homogenize(c, 1)) == DensePoly.variable(QQ, 2, 0)


def test_homogenize_k0_is_constant_term(QQ):
    rng = rng_for("homog-k0")
    c = random_circuit(QQ, rng, 2, size_limit=18, degree_limit=5)
    h0 = homogenize(c, 0)
    assert expand(h0) == homog_component_dense(expand(c), 0)
    assert h0.size() == 0  # folds to a single constant gate


def test_homogenize_components_sum_to_circuit_with_size_law(QQ, Fp):
    for field, name in ((QQ, "qq"), (Fp, "fp")):
        rng = rng_for("homog-sum-" + name)
        for t in range(15):
            c = random_circuit(field, rng, 3, size_limit=24, degree_limit=6)
            dense = expand(c)
            total = DensePoly.zero(field, 3)
            for k in range(c.formal_degree() + 1):
                hk = homogenize(c, k)
                assert expand(hk) == homog_component_dense(dense, k)
                law = HOMOGENIZE_SIZE_FACTOR * (k * k * c.size() + k + 1)
                assert hk.size() <= law
                assert hk.formal_degree() <= max(k, 0)
                total = total + expand(hk)
            assert total == dense


def test_extract_y_coeffs_example(QQ):
    # P = 3y^2 + x*y + 7 over (x, y)
    b = CircuitBuilder(QQ, 2)
    x, y = b.inp(0), b.inp(1)
    P = b.finish(b.add(
        b.mul(b.const(Fraction(3)), b.mul(y, y)), b.mul(x, y), b.const(Fraction(7)),
    ))
    coeffs = extract_y_coeffs(P, 1, 2)
    assert expand(coeffs[0]) == DensePoly.const(QQ, 2, Fraction(7))
    assert expand(coeffs[1]) == DensePoly.variable(QQ, 2, 0)
    assert expand(coeffs[2]) == DensePoly.const(QQ, 2, Fraction(3))


def test_extract_y_coeffs_independent_of_y(QQ):
    b = CircuitBuilder(QQ, 2)
    P = b.finish(b.add(b.inp(0), b.const(Fraction(5))))
    coeffs = extract_y_coeffs(P, 1, 3)
    assert expand(coeffs[0]) == expand(P)
    for c in coeffs[1:]:
        assert expand(c).is_zero()


def test_extract_y_coeffs_reconstruction_and_depth(QQ, Fp):
    for field, name in ((QQ, "qq"), (Fp, "fp")):
        rng = rng_for("coeffs-" + name)
        for t in range(15):
            P = random_circuit(field, rng, 3, size_limit=26, degree_limit=7)
            dmax = P.formal_degree()
            coeffs = extract_y_coeffs(P, 2, dmax)
            dense = expand(P)
            y = DensePoly.variable(field, 3, 2)
            total = DensePoly.zero(field, 3)
            ypow = DensePoly.const(field, 3, field.one)
            for j, cj in enumerate(coeffs):
                assert cj.depth() <= P.depth()
                assert cj.size() <= (dmax + 1) * P.size() + 4 * (dmax + 1) ** 2
                total = total + expand(cj) * ypow
                ypow = ypow * y
            assert total == dense


def test_extract_field_too_small():
    F5 = PrimeField(5)
    b = CircuitBuilder(F5, 1)
    c = b.finish(b.inp(0))
    with pytest.raises(FieldTooSmall):
        extract_y_coeffs(c, 0, 7)


def _gauss_jordan_weights(fld, dmax):
    """Reference interpolation weights: Gauss-Jordan on [V | I] with
    V[a][j] = a^j, nodes 0..dmax; row j of the inverse weighs coefficient j."""
    n = dmax + 1
    mat = [[fld.pow(fld.embed(a), j) for j in range(n)]
           + [fld.one if t == a else fld.zero for t in range(n)] for a in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if mat[r][col] != fld.zero)
        mat[col], mat[piv] = mat[piv], mat[col]
        inv = fld.inv(mat[col][col])
        mat[col] = [fld.mul(v, inv) for v in mat[col]]
        for r in range(n):
            if r != col and mat[r][col] != fld.zero:
                f = mat[r][col]
                mat[r] = [fld.sub(v, fld.mul(f, w)) for v, w in zip(mat[r], mat[col])]
    return [[mat[j][n + a] for a in range(n)] for j in range(n)]


@pytest.mark.parametrize("fld", [Rationals(), PrimeField(101), PrimeField(1_000_003),
                                 PrimeField(SIXTY_TWO_BIT_PRIME)], ids=str)
def test_vandermonde_weights_match_gauss_jordan(fld):
    for dmax in (0, 1, 2, 5, 13):
        assert transforms._vandermonde_inverse(fld, dmax) == _gauss_jordan_weights(fld, dmax)


def test_extract_y_coeffs_refuses_a_negative_degree_bound(QQ):
    # refused before any work: the out-of-range y is never looked at
    b = CircuitBuilder(QQ, 2)
    P = b.finish(b.mul(b.inp(0), b.inp(1)))
    for y in (1, 5):
        with pytest.raises(ParameterViolation, match="got -1"):
            extract_y_coeffs(P, y, -1)


def test_extract_y_coeffs_refuses_a_bound_below_the_y_degree(QQ):
    # x1 + x2^2 with y = x2: two nodes would fold the y^2 coefficient into
    # the lower ones and read back x1 + y
    b = CircuitBuilder(QQ, 2)
    P = b.finish(b.add(b.inp(0), b.mul(b.inp(1), b.inp(1))))
    for dmax in (0, 1):
        with pytest.raises(ParameterViolation, match="below the formal degree 2"):
            extract_y_coeffs(P, 1, dmax)
    coeffs = [expand(c) for c in extract_y_coeffs(P, 1, 2)]
    assert coeffs == [DensePoly.variable(QQ, 2, 0), DensePoly.zero(QQ, 2),
                      DensePoly.const(QQ, 2, QQ.one)]


def test_truncate_deg_example(QQ):
    b = CircuitBuilder(QQ, 1)
    x = b.inp(0)
    c = b.finish(b.add(b.const(Fraction(1)), x, b.mul(x, b.mul(x, x))))
    assert expand(truncate_deg(c, 1)) == DensePoly(QQ, 1, {
        (0,): Fraction(1), (1,): Fraction(1),
    })
    assert truncate_deg(c, 5) is c  # degree bound below d: unchanged


def test_truncate_deg_matches_dense(QQ, Fp):
    for field, name in ((QQ, "qq"), (Fp, "fp")):
        rng = rng_for("trunc-" + name)
        for t in range(12):
            c = random_circuit(field, rng, 3, size_limit=22, degree_limit=6)
            for d in (0, 1, 2, 3):
                assert expand(truncate_deg(c, d)) == truncate_dense(expand(c), d)


def test_hasse_circuit_examples(QQ):
    b = CircuitBuilder(QQ, 1)
    y = b.inp(0)
    c = b.finish(b.mul(y, b.mul(y, y)))
    assert expand(hasse_derivative_circuit(c, 0, 2)) == DensePoly(QQ, 1, {(1,): Fraction(3)})
    assert hasse_derivative_circuit(c, 0, 0) is c
    assert expand(hasse_derivative_circuit(c, 0, 5)).is_zero()


def test_hasse_circuit_matches_dense_and_depth(QQ, Fp):
    for field, name in ((QQ, "qq"), (Fp, "fp")):
        rng = rng_for("hasse-" + name)
        for t in range(12):
            c = random_circuit(field, rng, 2, size_limit=20, degree_limit=6)
            dense = expand(c)
            for j in range(0, 4):
                hc = hasse_derivative_circuit(c, 1, j)
                assert expand(hc) == hasse_derivative_dense(dense, 1, j)
                assert hc.depth() <= c.depth()


def test_translate_examples(QQ):
    b = CircuitBuilder(QQ, 1)
    x = b.inp(0)
    c = b.finish(b.mul(x, x))
    moved = affine(c, None, [Fraction(1)])
    assert expand(moved) == DensePoly(QQ, 1, {
        (2,): Fraction(1), (1,): Fraction(2), (0,): Fraction(1),
    })
    same = affine(c, None, [Fraction(0)])
    assert oracle_equal(same, c)
    with pytest.raises(ArityMismatch):
        affine(c, None, [Fraction(1), Fraction(2)])


@pytest.mark.parametrize("k", [1, 2])
def test_homog_component_interp_refuses_a_scale_variable_outside_the_circuit(QQ, k):
    # a scale variable the circuit lacks would read degree 0: the constant 0
    with pytest.raises(ArityMismatch, match="out of range"):
        homog_component_interp(x1x2_plus_1(QQ), k, scale_vars=[-1])


def test_truncate_deg_refuses_a_scale_variable_outside_the_circuit(QQ):
    # a scale variable the circuit lacks would leave the input unchanged
    with pytest.raises(ArityMismatch, match="x6 out of range"):
        truncate_deg(x1x2_plus_1(QQ), 1, scale_vars=[5])


def test_translate_roundtrip(QQ):
    rng = rng_for("translate-rt")
    for t in range(10):
        c = random_circuit(QQ, rng, 3, size_limit=20, degree_limit=5)
        shift = [QQ.embed(rng.randint(-3, 3)) for _ in range(3)]
        back = affine(affine(c, None, shift), None, [QQ.neg(v) for v in shift])
        assert oracle_equal(back, c)


# The maps affine replaced, written out as references for the polynomial it
# computes: each its own builder and import, composed one after another.

def _ref_translate(circ, y, shift):
    """circ(x + shift) over the variables other than y, through the padded
    shift of every variable; circ itself for a zero shift."""
    zero = circ.field.zero
    if all(c == zero for c in shift):
        return circ
    full = list(shift) if y is None else [*shift[:y], zero, *shift[y:]]
    full += [zero] * (circ.num_vars - len(full))
    b = CircuitBuilder(circ.field, circ.num_vars)
    bindings = {i: b.add(b.inp(i), b.const(c)) for i, c in enumerate(full) if c != zero}
    return b.finish(b.import_circuit(circ, var_bindings=bindings))


def _ref_shear(circ, y, shear):
    """x_i -> x_i + shear[i] * y."""
    xs = [v for v in range(circ.num_vars) if v != y]
    b = CircuitBuilder(circ.field, circ.num_vars)
    ygate = b.inp(y)
    bindings = {x: b.add(b.inp(x), b.mul(b.const(a), ygate))
                for x, a in zip(xs, shear) if a != circ.field.zero}
    return b.finish(b.import_circuit(circ, var_bindings=bindings))


def _ref_scale(circ, unit):
    """unit * circ."""
    b = CircuitBuilder(circ.field, circ.num_vars)
    k = b.const(unit)
    return b.finish(b.mul(k, b.import_circuit(circ)[0]))


@pytest.mark.parametrize("field", [Rationals(), PrimeField(SMALL_PRIME),
                                   PrimeField(SIXTY_TWO_BIT_PRIME)], ids=["qq", "fp", "f62"])
def test_affine_computes_the_maps_it_replaces(field):
    rng = rng_for(f"affine-bytes-{field.p if isinstance(field, PrimeField) else 0}")
    one, seen = field.one, set()
    for t in range(9):
        n = 2 + t % 3
        circ = random_circuit(field, rng, n, size_limit=20, degree_limit=5)
        full = [field.embed(rng.randint(-2, 2)) for _ in range(n)]
        assert expand(affine(circ, None, full)) == expand(_ref_translate(circ, None, full))
        for y in range(n):
            k = rng.randrange(n)  # the variables past the first k others stay put

            def draw():
                return [field.embed(rng.randint(-3, 3) or 1) for _ in range(k)]

            zero = [field.zero] * k
            units = (None, one, field.embed(rng.randint(2, 9)), field.neg(field.embed(3)))
            for shift, shear, unit in itertools.product((zero, draw()), (None, zero, draw()),
                                                        units):
                got = affine(circ, y, shift, shear=shear, unit=unit)
                scaled = unit is not None and unit != one
                ref = _ref_translate(circ, y, shift)
                ref = ref if shear is None else _ref_shear(ref, y, shear)
                ref = _ref_scale(ref, unit) if scaled else ref
                assert expand(got) == expand(ref), (t, y, shift, shear, unit)
                assert got.size() <= ref.size(), (t, y, shift, shear, unit)
                sheared = shear is not None and any(shear)
                if not (scaled or sheared or any(shift)):  # the identity map
                    assert got is circ
                seen.add((any(shift), sheared, k < n - 1, scaled))
    assert len(seen) == 16  # every mix of shift, shear, untouched variables and unit


def test_affine_gate_order(QQ):
    # the unit's constant, y's input and the shear, the shift around it, the
    # import; x3 lies past the shift and passes through
    b = CircuitBuilder(QQ, 3)
    circ = b.finish(b.mul(b.inp(0), b.inp(1), b.inp(2)))
    got = affine(circ, 1, [Fraction(1)], shear=[Fraction(2)], unit=Fraction(3))
    assert emit_circuit(got) == (
        "field rationals\nnvars 3\n"
        "g0 = const 3\ng1 = input x2\ng2 = input x1\ng3 = const 2\ng4 = mul g1 g3\n"
        "g5 = add g2 g4\ng6 = const 1\ng7 = add g5 g6\ng8 = input x3\n"
        "g9 = mul g1 g7 g8\ng10 = mul g0 g9\noutput g10\n"
    )
    assert affine(circ, 1, [Fraction(0)], shear=[Fraction(0), Fraction(0)]) is circ


@pytest.mark.parametrize("y, shift, shear", [(2, [1, 2, 5], None), (9, [1, 2], None),
                                             (2, [], [1, 1, 4]), (None, [1], [1])])
def test_affine_refuses_coordinates_it_cannot_place(y, shift, shear):
    # x1 x2 x3 over F_1000003: a y outside the circuit, or a shift or shear
    # longer than the variables other than y, used to be dropped silently, and
    # a shear with no y failed untyped; a shorter shift or shear stays legal
    fld = PrimeField(SMALL_PRIME)
    b = CircuitBuilder(fld, 3)
    circ = b.finish(b.mul(b.inp(0), b.inp(1), b.inp(2)))
    with pytest.raises(ArityMismatch):
        affine(circ, y, shift, shear=shear)
    assert expand(affine(circ, 2, [1], shear=[0, 4])) == expand(affine(circ, 2, [1, 0], [0, 4]))


def test_make_monic_example(QQ):
    # C = x1 * y with total degree 2, y an existing variable (index 1)
    b = CircuitBuilder(QQ, 2)
    C = b.finish(b.mul(b.inp(0), b.inp(1)))
    form = make_monic(C, 2, seed=11, y_var=1)
    dense = expand(form.circuit)
    assert dense.coeff((0, 2)) == Fraction(1)  # monic in y
    assert dense.degree_in(1) == 2
    # the shift really has H_2[C](a, 1) = a_1 != 0
    assert form.shift[0] != 0
    assert form.leading_unit == form.shift[0]


def test_make_monic_accepts_monic_input_unchanged(QQ):
    b = CircuitBuilder(QQ, 2)
    x, y = b.inp(0), b.inp(1)
    C = b.finish(b.add(b.mul(y, y), b.mul(x, y)))  # already monic, deg 2
    form = make_monic(C, 2, seed=0, y_var=1)
    assert all(v == QQ.zero for v in form.shift)
    assert form.leading_unit == QQ.one
    assert oracle_equal(form.circuit, C)


def test_make_monic_makes_factors_monic(QQ):
    # Gauss observation: factors of the monic form have constant lead coeffs
    rng = rng_for("monic-factors")
    P, forms = plant_linear_product(QQ, rng, 2, 2, [Fraction(0), Fraction(2)])
    form = make_monic(P, 2, seed=5, y_var=2)
    dense = expand(form.circuit)
    lead = {e: c for e, c in dense.terms.items() if e[2] == 2}
    assert lead == {(0, 0, 2): QQ.one}


def test_make_monic_appends_fresh_variable(QQ):
    b = CircuitBuilder(QQ, 2)
    C = b.finish(b.mul(b.inp(0), b.inp(1)))  # x1 * x2, no y
    form = make_monic(C, 2, seed=1)
    assert form.y_var == 2
    dense = expand(form.circuit)
    assert dense.coeff((0, 0, 2)) == Fraction(1)


def test_make_monic_search_exhausted_on_wrong_degree(QQ):
    b = CircuitBuilder(QQ, 1)
    C = b.finish(b.inp(0))
    with pytest.raises(SearchExhausted):
        make_monic(C, 3, seed=0)  # H_3 of a degree-1 polynomial vanishes


def test_generator_set_example(QQ):
    # P = y^2 - (1+x)^2, alpha = 1, d = 2: single member of order 0
    b = CircuitBuilder(QQ, 2)
    x, y = b.inp(0), b.inp(1)
    f = b.add(b.const(Fraction(1)), x)
    P = b.finish(b.sub(b.mul(y, y), b.mul(f, f)))
    gens = generator_set(P, 1, Fraction(1), 2)
    assert [j for j, _ in gens.members] == [0]
    member = expand(gens.members[0][1])
    assert member == DensePoly(QQ, 2, {(1, 0): Fraction(-2), (2, 0): Fraction(-1)})
    # derivative constants: P(0,1) = 0, P'(0,1) = 2, P''(0,1) = 1
    assert gens.deriv_constants == [Fraction(0), Fraction(2), Fraction(1)]


def test_generator_set_laws(QQ, Fp):
    for field, name in ((QQ, "qq"), (Fp, "fp")):
        rng = rng_for("genset-" + name)
        for t in range(10):
            P = random_circuit(field, rng, 3, size_limit=20, degree_limit=5)
            d = 1 + rng.randrange(3)
            alpha = field.embed(rng.randint(-3, 3))
            gens = generator_set(P, 2, alpha, d)
            assert len(gens.members) <= d + 1
            for j, member in gens.members:
                dense = expand(member)
                assert not dense.is_zero()
                assert dense.constant_term() == field.zero
                assert dense.total_degree() <= d
                r = max(1, P.formal_degree())
                assert member.size() <= GENSET_SIZE_FACTOR * max(1, P.size()) * r**5


def _components(gens):
    """Every generator component (g, i) of gens, in sorted order, as one
    circuit from component_gates; None when gens has no members."""
    if not gens.orders:
        return None
    b = CircuitBuilder(gens.P.field, gens.P.num_vars)
    xs = [v for v in range(gens.P.num_vars) if v != gens.y_var]
    reads = [(g, i) for g in range(len(gens.orders)) for i in range(1, gens.d + 1)]
    comps = component_gates(b, gens.P, xs, gens.y_var, gens.roots, reads)
    return b.finish([comps[read] for read in reads])


def test_generator_set_schwartz_zippel_fallback_keeps_the_oracle_result(QQ, Fp, monkeypatch):
    # a one-term budget overflows the oracle, so every candidate member is
    # kept or dropped by the Schwartz-Zippel check instead
    sz_calls = []

    def counting_sz(*args):
        sz_calls.append(args)
        return sz_is_zero(*args)

    monkeypatch.setattr(transforms, "sz_is_zero", counting_sz)
    for field, name in ((QQ, "qq"), (Fp, "fp")):
        rng = rng_for("genset-sz-" + name)
        for t in range(3):
            consts = [field.embed(c) for c in (1 + t, -2, 3 + 2 * t)]
            P, _ = plant_linear_product(field, rng, 2, 2, consts)
            d = 2 + t % 2
            oracle = generator_set(P, 2, consts[0], d)
            before = len(sz_calls)
            sz = generator_set(P, 2, consts[0], d, budget=ExpansionBudget(max_terms=1))
            assert len(sz_calls) > before
            assert [j for j, _ in sz.members] == [j for j, _ in oracle.members]
            assert sz.deriv_constants == oracle.deriv_constants
            for (_, m_sz), (_, m_or) in zip(sz.members, oracle.members):
                assert oracle_equal(m_sz, m_or)
            assert expand_outputs(_components(sz)) == expand_outputs(_components(oracle))


def test_generator_set_schwartz_zippel_fallback_builds_one_interpolation(QQ, monkeypatch):
    # the fallback's zero test already finishes every member circuit, so
    # reading members afterwards builds no second set of node copies
    b = CircuitBuilder(QQ, 3)
    x1, x2, y = b.inp(0), b.inp(1), b.inp(2)
    P = b.finish(b.mul(b.sub(y, b.add(x1, b.mul(x2, x2), b.const(QQ.one))),
                       b.sub(y, b.add(x2, b.const(QQ.embed(3))))))
    oracle = generator_set(P, 2, QQ.one, 3)
    calls = []
    real = transforms._interpolate

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(transforms, "_interpolate", counting)
    sz = generator_set(P, 2, QQ.one, 3, budget=ExpansionBudget(max_terms=1))
    assert sz.derivs_dense is None and sz.orders
    members = sz.members
    assert len(calls) == 1
    assert [j for j, _ in members] == [j for j, _ in oracle.members]
    for (_, m_sz), (_, m_or) in zip(members, oracle.members):
        assert expand(m_sz) == expand(m_or)


def test_generator_set_constants_come_from_the_zero_test(QQ, monkeypatch):
    # the constants H_0 of the derivatives are read off the zero test's
    # expansion; only the Schwartz-Zippel fallback evaluates the circuit
    evaluated = []
    real = Circuit.evaluate

    def counting(circ, point):
        evaluated.append(circ)
        return real(circ, point)

    monkeypatch.setattr(Circuit, "evaluate", counting)
    fallbacks = 0
    for field, name in ((QQ, "qq"), (PrimeField(101), "f101"),
                        (PrimeField(SIXTY_TWO_BIT_PRIME), "f62")):
        rng = rng_for("genset-constants-" + name)
        for t in range(10):
            P = random_circuit(field, rng, 3, size_limit=20, degree_limit=5)
            y, d = rng.randrange(3), 1 + t % 3
            alpha = field.embed(rng.randint(-3, 3))
            evaluated.clear()
            oracle = generator_set(P, y, alpha, d)
            assert evaluated == [] and oracle.derivs_dense is not None
            sz = generator_set(P, y, alpha, d, budget=ExpansionBudget(max_terms=1))
            assert bool(evaluated) == (sz.derivs_dense is None)  # one term may still fit
            fallbacks += sz.derivs_dense is None
            assert oracle.deriv_constants == sz.deriv_constants
    assert fallbacks >= 10


def test_zero_test_reads_the_derivatives_off_one_expansion(QQ, Fp):
    # derivs_dense is the capped expansion of the derivatives at alpha as the
    # interpolation's coefficient gates compute them, alpha != 0, deg_y P >= 2
    for field, name in ((QQ, "qq"), (Fp, "fp")):
        rng = rng_for("genset-derivs-" + name)
        tested = 0
        while tested < 8:
            P = random_circuit(field, rng, 3, size_limit=24, degree_limit=5)
            y = rng.randrange(3)
            if expand(P).degree_in(y) < 2:
                continue
            alpha = field.embed((-1) ** rng.randrange(2) * rng.randint(1, 3))
            d = 1 + tested % 3
            xs = [v for v in range(3) if v != y]
            shape = (formal_degree_in(P, xs), formal_degree_in(P, y), P.formal_degree())
            b, coeff = _interpolate(P, xs, y, alpha, shape)
            derivs = b.finish([coeff((k, j) for k in range(shape[0] + 1)) for j in range(d + 1)])
            gens = generator_set(P, y, alpha, d)
            assert gens.derivs_dense == expand_outputs(derivs, cap=d), (name, tested)
            assert gens.deriv_constants == derivs.evaluate([field.zero] * 3)
            tested += 1


def _reference_members(P, y, alpha, d):
    """H_{<=d} of each order-j Hasse derivative of P at y = alpha, j = 0..d,
    by the dense oracle alone."""
    dense = expand(P)
    at = DensePoly.const(P.field, P.num_vars, alpha)
    vals = [at if v == y else DensePoly.variable(P.field, P.num_vars, v) for v in range(P.num_vars)]
    return [truncate_dense(compose(hasse_derivative_dense(dense, y, j), vals), d)
            for j in range(d + 1)]


def test_generator_set_zero_test_matches_the_dense_reference(QQ):
    for field, name in ((QQ, "qq"), (PrimeField(101), "f101"),
                        (PrimeField(SIXTY_TWO_BIT_PRIME), "f62")):
        rng = rng_for("genset-reference-" + name)
        for t in range(15):
            P = random_circuit(field, rng, 3, size_limit=24, degree_limit=6)
            y, d = rng.randrange(3), 1 + t % 3
            alpha = field.embed(rng.randint(-3, 3))
            gens = generator_set(P, y, alpha, d)
            refs = _reference_members(P, y, alpha, d)
            lows = [ref - DensePoly.const(field, 3, ref.constant_term()) for ref in refs]
            assert gens.orders == [j for j, low in enumerate(lows) if not low.is_zero()]
            assert gens.deriv_constants == [ref.constant_term() for ref in refs]
            comps = expand_outputs(_components(gens)) if gens.orders else []
            for pos, j in enumerate(gens.orders):
                for i in range(1, d + 1):
                    assert comps[pos * d + i - 1] == homog_component_dense(refs[j], i)
            assert [(j, expand(m)) for j, m in gens.members] == [(j, lows[j]) for j in gens.orders]


def test_generator_set_over_the_full_expansion_budget_still_uses_the_oracle(QQ, monkeypatch):
    # (y - x1)(y - 2)(1 + x1 + x2)^6 has far more than 30 terms; its
    # derivatives at y = 2 kept to degree 2 have at most 6 each
    b = CircuitBuilder(QQ, 3)
    x1, x2, y = b.inp(0), b.inp(1), b.inp(2)
    s = b.add(b.const(QQ.one), x1, x2)
    P = b.finish(b.mul(b.sub(y, x1), b.sub(y, b.const(Fraction(2))), *([s] * 6)))
    budget = ExpansionBudget(max_terms=30)
    with pytest.raises(BudgetExceeded):
        expand(P, budget)
    monkeypatch.setattr(transforms, "sz_is_zero", lambda *a: pytest.fail("SZ fallback ran"))
    small = generator_set(P, 2, Fraction(2), 2, budget=budget)
    full = generator_set(P, 2, Fraction(2), 2)
    assert small.orders == full.orders == [1, 2]
    assert emit_circuit(_components(small)) == emit_circuit(_components(full))


def test_generator_set_refuses_before_any_interpolation(QQ, monkeypatch):
    monkeypatch.setattr(transforms, "_interpolate", lambda *a: pytest.fail("interpolated"))
    F3, Fp = PrimeField(3), PrimeField(1_000_003)
    b = CircuitBuilder(Fp, 2)
    P_fp = b.finish(b.mul(b.sub(b.inp(1), b.inp(0)), b.sub(b.inp(1), b.const(Fp.embed(2)))))
    with pytest.raises(MixedFieldConfig):
        generator_set(P_fp, 1, Fraction(1, 2), 1)
    b = CircuitBuilder(F3, 2)  # y-degree 3 needs four nodes alpha + 0..3
    with pytest.raises(FieldTooSmall):
        generator_set(b.finish(b.sub(b.power(b.inp(1), 3), b.inp(0))), 1, F3.one, 1)
    b = CircuitBuilder(QQ, 2)
    P = b.finish(b.add(b.inp(0), b.power(b.inp(1), 64)))
    with pytest.raises(BudgetExceeded, match="formal degree 64 > 32"):
        generator_set(P, 1, QQ.zero, 1, budget=ExpansionBudget(max_degree=32))
    with pytest.raises(BudgetExceeded, match="d = 33 > 32"):
        generator_set(P, 1, QQ.zero, 33, budget=ExpansionBudget(max_degree=32))
    with pytest.raises(ParameterViolation):
        generator_set(P, 1, QQ.zero, 0)


# -- interpolation over a scaling, with no scaled copy ----------------------------

def _scaled_copy(circ, scale_vars):
    """circ with x_i -> t * x_i for i in scale_vars; t is appended last."""
    nv = circ.num_vars
    b = CircuitBuilder(circ.field, nv + 1)
    t = b.inp(nv)
    bindings = {i: b.mul(t, b.inp(i)) for i in scale_vars}
    return b.finish(b.import_circuit(circ, var_bindings=bindings))


def _scaled_copy_engine(real):
    """An _interpolate that interpolates over a scaling alone by a scaled
    copy of the circuit, then over its scaling variable t: the t^k
    coefficient is the s^k one of the copy's y-axis interpolation."""
    def engine(circ, scale, y, alpha, shape, *rest):
        if not scale or y is not None:
            return real(circ, scale, y, alpha, shape, *rest)
        b, coeff = real(_scaled_copy(circ, scale), (), circ.num_vars, circ.field.zero,
                        (0, shape[0], shape[2]))
        return b, lambda monomials: coeff((0, k) for k, _ in monomials)
    return engine


def _tree_copy(circ):
    """circ with every shared gate copied once per use: a tree, from a
    builder that does not share."""
    b = CircuitBuilder(circ.field, circ.num_vars, share=False)

    def rec(i):
        op, arg = circ.gates[i][:2]
        if op == "in":
            return b.inp(arg)
        if op == "const":
            return b.const(arg)
        kids = [rec(c) for c in arg]
        return b.add(*kids) if op == "add" else b.mul(*kids)

    return b.finish(rec(circ.output()))


def _duplicate_children(field):
    """(x1 + x1' + x2)(x1 + x2) from a builder that does not share, x1 and
    x1' being two input gates of x1: no sharing builder makes that sum."""
    b = CircuitBuilder(field, 2, share=False)
    x1, x1_again, x2 = b.inp(0), b.inp(0), b.inp(1)
    return b.finish(b.mul(b.add(x1, x1_again, x2), b.add(x1, x2)))


def test_direct_scaling_matches_a_scaled_copy(QQ, monkeypatch):
    cases = []
    for field, name in ((QQ, "qq"), (PrimeField(101), "f101"),
                        (PrimeField(SIXTY_TWO_BIT_PRIME), "f62")):
        rng = rng_for("direct-scaling-" + name)
        for t in range(30):
            P = random_circuit(field, rng, 4, size_limit=24, degree_limit=6)
            if t % 5 == 4:
                P = _tree_copy(P)
            # a subset of the variables in a random order
            over = sorted(range(4), key=lambda v: rng.randrange(1 << 20))[: 1 + rng.randrange(4)]
            alpha = field.embed(rng.randint(-3, 3))
            cases.append((P, over, t % 4, rng.randrange(4), alpha))
        cases.append((_duplicate_children(field), [1, 0], 1, 1, field.one))

    def seen(circ, P):
        # the scaled copy appends its scaling variable, which no output reads
        circ = drop_unused_vars(circ, list(range(P.num_vars)))
        metrics = circ.metrics()
        if P.gates[:2] == (("in", 0), ("in", 0)):
            # the copy rebuilds the duplicated input x1 + x1' as 2 * x1 and
            # scales that to 2 * (2 * x1), where the direct copy folds 4 * x1:
            # a constant gate more, on the same wires
            del metrics["gates"]
        return expand_outputs(circ, ExpansionBudget()), metrics

    def emitted():
        out = []
        for P, over, d, y, alpha in cases:
            out.append(seen(truncate_deg(P, d, scale_vars=over), P))
            out.append(seen(homog_component_interp(P, d, scale_vars=over), P))
            dmax = formal_degree_in(P, over)
            b, coeff = transforms._interpolate(P, over, None, None, (dmax, 0, dmax))
            out.append(seen(b.finish([coeff([(k, 0)]) for k in range(min(d, dmax) + 1)]), P))
            gens = generator_set(P, y, alpha, 1 + d % 3)
            comps = _components(gens)
            out.append(comps and seen(comps, P))
            out += [seen(m, P) for _, m in gens.members]
        return out

    direct = emitted()
    monkeypatch.setattr(transforms, "_interpolate",
                        _scaled_copy_engine(transforms._interpolate))
    assert emitted() == direct


def _weighted_cores(circ):
    """The non-constant gates that the outputs' top sums weight."""
    gates, cores = circ.gates, set()
    for o in circ.outputs:
        for c in gates[o][1] if gates[o][0] == "add" else (o,):
            op, arg = gates[c]
            if op == "mul" and len(arg) == 2 and gates[arg[0]][0] == "const":
                c = arg[1]
            elif op == "mul" and len(arg) == 2 and gates[arg[1]][0] == "const":
                c = arg[0]
            if gates[c][0] != "const":
                cores.add(c)
    return cores


def test_generator_set_interpolates_on_a_lower_set_of_nodes(QQ):
    # P = prod_{i<k} (y - L_i) has formal degree k in x, in y and in all:
    # Q(t, s) = P(t x, alpha + s) lives on the t^a s^b with a + b <= k, so
    # the components weight the k(k+1)/2 copies with a >= 1 (the grid
    # a, b <= k has k(k+1)); the a = 0 copies fold to constants
    for k in (2, 3, 4):
        b = CircuitBuilder(QQ, 3)
        x1, x2, y = b.inp(0), b.inp(1), b.inp(2)
        factors = [b.sub(y, b.add(b.const(Fraction(i + 1)), x1, b.scale(Fraction(i + 2), x2)))
                   for i in range(k)]
        P = b.finish(b.mul(*factors))
        assert (formal_degree_in(P, [0, 1]), formal_degree_in(P, 2), P.formal_degree()) == (k, k, k)
        gens = generator_set(P, 2, Fraction(-1), k)
        assert len(_weighted_cores(_components(gens))) == k * (k + 1) // 2
        refs = _reference_members(P, 2, Fraction(-1), k)
        lows = [ref - DensePoly.const(QQ, 3, ref.constant_term()) for ref in refs]
        assert gens.orders == [j for j, low in enumerate(lows) if not low.is_zero()]
        assert [(j, expand(m)) for j, m in gens.members] == [(j, lows[j]) for j in gens.orders]


def test_generator_set_refuses_a_lower_set_wider_than_the_degree_budget(QQ):
    # x1 + x2^64: 65 nodes on the x2 axis, whichever variable is y
    b = CircuitBuilder(QQ, 2)
    P = b.finish(b.add(b.inp(0), b.power(b.inp(1), 64)))
    for y in (0, 1):
        with pytest.raises(BudgetExceeded, match="64 > 32"):
            generator_set(P, y, QQ.zero, 1, budget=ExpansionBudget(max_degree=32))


def test_generator_set_refuses_a_field_with_too_few_nodes():
    # y-degree 3 needs the four nodes alpha + 0..3, and F_3 has three elements
    F3 = PrimeField(3)
    b = CircuitBuilder(F3, 2)
    P = b.finish(b.sub(b.power(b.inp(1), 3), b.inp(0)))
    with pytest.raises(FieldTooSmall) as err:
        generator_set(P, 1, F3.one, 1)
    assert err.value.exit_code == 2


# -- interpolation bounds in a subset of the variables ---------------------------

def _filter_x_degree(poly, xs, keep):
    """The terms of a DensePoly whose degree in the variables xs passes keep."""
    return DensePoly(poly.field, poly.n, {
        e: c for e, c in poly.terms.items() if keep(sum(e[i] for i in xs))
    })


def test_formal_degree_in_a_set_of_variables(QQ, Fp):
    # (x1 + x3) * x2 * x3^2 + x1^2: formal degree 4
    b = CircuitBuilder(QQ, 3)
    x1, x2, x3 = b.inp(0), b.inp(1), b.inp(2)
    c = b.finish(b.add(b.mul(b.add(x1, x3), x2, b.mul(x3, x3)), b.mul(x1, x1)))
    assert c.formal_degree() == 4
    for chosen, want in ((0, 2), ([0], 2), ([1], 1), ([2], 3), ([0, 1], 2),
                         ([1, 2], 4), ([0, 2], 3), ((), 0), (range(3), 4)):
        assert formal_degree_in(c, chosen) == want, chosen
    for field, name in ((QQ, "qq"), (Fp, "fp")):
        rng = rng_for("fdeg-in-" + name)
        for t in range(10):
            c = random_circuit(field, rng, 4, size_limit=20, degree_limit=6)
            assert formal_degree_in(c, range(4)) == c.formal_degree()
            assert formal_degree_in(c, {0, 1}) <= c.formal_degree()


def _x_then_aux_circuit(QQ):
    # x1 * y1^3 + x1 * x2 * y2 + y1^2 * y2^2 over x1, x2, y1, y2: degree in
    # x is 2, formal degree 4
    b = CircuitBuilder(QQ, 4)
    x1, x2, y1, y2 = (b.inp(i) for i in range(4))
    return b.finish(b.add(b.mul(x1, b.power(y1, 3)), b.mul(x1, x2, y2),
                          b.mul(y1, y1, y2, y2)))


def test_truncate_deg_by_scaled_degree_returns_input(QQ):
    c = _x_then_aux_circuit(QQ)
    assert formal_degree_in(c, [0, 1]) == 2 and c.formal_degree() == 4
    assert truncate_deg(c, 2, scale_vars=[0, 1]) is c
    assert truncate_deg(c, 3, scale_vars=[0, 1]) is c
    low = truncate_deg(c, 1, scale_vars=[0, 1])
    assert expand(low) == _filter_x_degree(expand(c), [0, 1], lambda k: k <= 1)


def test_homog_component_above_scaled_degree_is_zero(QQ):
    c = _x_then_aux_circuit(QQ)
    for k in (3, 4):
        out = homog_component_interp(c, k, scale_vars=[0, 1])
        assert out.metrics()["size"] == 0 and expand(out).is_zero()
        assert out.num_vars == c.num_vars


def test_scaled_interpolation_matches_dense_filter(QQ, Fp):
    xs = [0, 1]
    for field, name in ((QQ, "qq"), (Fp, "fp")):
        rng = rng_for("scaled-interp-" + name)
        for t in range(10):
            c = random_circuit(field, rng, 4, size_limit=22, degree_limit=6)
            dense = expand(c)
            for d in range(4):
                got = expand(truncate_deg(c, d, scale_vars=xs))
                assert got == _filter_x_degree(dense, xs, lambda k: k <= d)
                got = expand(homog_component_interp(c, d, scale_vars=xs))
                assert got == _filter_x_degree(dense, xs, lambda k: k == d)

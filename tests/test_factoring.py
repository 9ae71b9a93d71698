import itertools
import math
from fractions import Fraction

import pytest

from circuitforge import (
    CircuitBuilder,
    DensePoly,
    RootBundle,
    combine_roots,
    divides,
    emit_circuit,
    expand,
    extract_factor,
    separating_shift,
    truncate_dense,
)
from circuitforge.circuit import Circuit, fix_vars
from circuitforge.dense import DEFAULT_BUDGET, ExpansionBudget, compose, univariate_roots
from circuitforge.factoring import SHIFT_TRIALS, _combine_dense
from circuitforge.fields import PrimeField, Rationals
from circuitforge.errors import BudgetExceeded, NoFactorFound, NoSimpleRoots, ParameterViolation
from circuitforge.lifting import compose_root

from conftest import plant_linear_product, record_generator_sets, rng_for


def test_separating_shift_zero_already_works(QQ):
    # (y - x1)(y - x1 - 1): shift 0 gives distinct roots {0, 1}
    b = CircuitBuilder(QQ, 2)
    x, y = b.inp(0), b.inp(1)
    P = b.finish(b.mul(b.sub(y, x), b.sub(y, b.add(x, b.const(Fraction(1))))))
    c, roots = separating_shift(P, y=1, seed=0)
    assert all(v == QQ.zero for v in c)
    assert roots == [Fraction(0), Fraction(1)]


@pytest.mark.parametrize("r", [1.5, -1, True])
def test_separating_shift_refuses_a_degree_that_is_not_a_positive_int(QQ, r):
    # (y - x1)(y + x1): r sets the integer shift grid of 2 r^2 + 1 points
    b = CircuitBuilder(QQ, 2)
    x, y = b.inp(0), b.inp(1)
    P = b.finish(b.mul(b.sub(y, x), b.add(y, x)))
    with pytest.raises(ParameterViolation, match="degree r"):
        separating_shift(P, y=1, seed=0, r=r)


def test_separating_shift_no_simple_roots(QQ):
    # (y - x1)^2 never has a simple root, any shift
    b = CircuitBuilder(QQ, 2)
    d = b.sub(b.inp(1), b.inp(0))
    P = b.finish(b.mul(d, d))
    with pytest.raises(NoSimpleRoots):
        separating_shift(P, y=1, seed=0)


def test_separating_shift_planted_full_split(QQ):
    rng = rng_for("sep-shift")
    for t in range(5):
        consts = []
        while len(consts) < 3:
            c = Fraction(rng.randint(-5, 5))
            if c not in consts:
                consts.append(c)
        P, _ = plant_linear_product(QQ, rng, 2, 2, consts)
        c, roots = separating_shift(P, y=2, seed=t)
        assert len(roots) == 3


def test_separating_shift_stops_at_a_full_split(QQ, monkeypatch):
    from circuitforge import lifting  # the slice search expands there

    calls = []

    def counting_expand(*args, **kwargs):
        calls.append(1)
        return expand(*args, **kwargs)

    monkeypatch.setattr(lifting, "expand", counting_expand)
    P, _ = plant_linear_product(QQ, rng_for("sep-shift-stop"), 2, 2,
                                [Fraction(-2), Fraction(1), Fraction(4)])
    c, roots = separating_shift(P, y=2, seed=0)
    assert all(v == QQ.zero for v in c) and len(roots) == 3
    assert len(calls) == 1


def _lifted(P, alphas, d, y):
    """A bundle with every alpha lifted to its degree-d approximate root."""
    bundle = RootBundle((), list(alphas), d, y, P)
    bundle.lift(range(len(alphas)))
    return bundle


def _root(bundle, i):
    """The dense value of root i: its lift state composed and expanded."""
    return expand(compose_root(bundle.states[i]))


def test_over_budget_roots_stay_typed(QQ, monkeypatch):
    # a one-term budget overflows the generator set's capped zero test, which
    # falls back to Schwartz-Zippel and keeps no dense members; the root's
    # lift is then over budget too (exit 3), and the bundle stays unlifted
    gens = record_generator_sets(monkeypatch)
    b = CircuitBuilder(QQ, 2)
    x, y = b.inp(0), b.inp(1)
    P = b.finish(b.mul(b.sub(y, x), b.sub(y, b.const(Fraction(2)))))
    bundle = RootBundle((), [Fraction(0), Fraction(2)], 2, 1, P)
    with pytest.raises(BudgetExceeded) as e:
        bundle.lift((0,), ExpansionBudget(max_terms=1))
    assert e.value.kind == "terms" and e.value.exit_code == 3
    assert [g.derivs_dense for g in gens] == [None] and gens[0].orders
    assert bundle.states == [None, None]
    bundle.lift((0,))
    assert bundle.states[1] is None
    assert _root(bundle, 0) == DensePoly.variable(QQ, 2, 0)


def test_approx_roots_example(QQ):
    # P = (y - x1)(y - 2), alphas [0, 2], d = 1 -> q = [x1, 2]
    b = CircuitBuilder(QQ, 2)
    x, y = b.inp(0), b.inp(1)
    P = b.finish(b.mul(b.sub(y, x), b.sub(y, b.const(Fraction(2)))))
    bundle = _lifted(P, [Fraction(0), Fraction(2)], 1, y=1)
    assert _root(bundle, 0) == DensePoly.variable(QQ, 2, 0)
    assert _root(bundle, 1) == DensePoly.const(QQ, 2, Fraction(2))


def test_approx_roots_degree_zero(QQ):
    b = CircuitBuilder(QQ, 2)
    x, y = b.inp(0), b.inp(1)
    P = b.finish(b.mul(b.sub(y, x), b.sub(y, b.const(Fraction(2)))))
    # roots are lifted to degree >= 1; truncation order 0 keeps their constants
    with pytest.raises(ParameterViolation, match="degree must be >= 1"):
        _lifted(P, [Fraction(0), Fraction(2)], 0, y=1)
    bundle = _lifted(P, [Fraction(0), Fraction(2)], 1, y=1)
    # H_<=0[y - 2] is the constant -2
    assert expand(combine_roots(bundle, [1], 0)) == DensePoly.const(QQ, 2, Fraction(-2))
    assert expand(combine_roots(bundle, [0, 1], 0)).is_zero()


def test_approx_roots_three_roots_truncated_residual(QQ):
    rng = rng_for("approx-three")
    consts = [Fraction(0), Fraction(1), Fraction(7)]
    P, _ = plant_linear_product(QQ, rng, 2, 2, consts)
    bundle = _lifted(P, consts, 3, y=2)
    dense = expand(P)
    for i in range(len(consts)):
        q = _root(bundle, i)
        res = compose(dense, [DensePoly.variable(QQ, 3, 0), DensePoly.variable(QQ, 3, 1), q])
        assert truncate_dense(res, 3).is_zero()


def test_combine_roots_singleton(QQ):
    b = CircuitBuilder(QQ, 2)
    x, y = b.inp(0), b.inp(1)
    P = b.finish(b.mul(b.sub(y, x), b.sub(y, b.const(Fraction(2)))))
    bundle = _lifted(P, [Fraction(0)], 1, y=1)
    out = combine_roots(bundle, [0], 1)
    assert expand(out) == DensePoly(QQ, 2, {(0, 1): Fraction(1), (1, 0): Fraction(-1)})
    with pytest.raises(ParameterViolation):
        combine_roots(bundle, [], 1)
    # the generator components stop at the lift order 1
    with pytest.raises(ParameterViolation, match="outside 0..1"):
        combine_roots(bundle, [0], 2)
    # a root that was never lifted has no generator components to combine
    with pytest.raises(ParameterViolation, match="not all lifted"):
        combine_roots(RootBundle((), [Fraction(0)], 1, 1, P), [0], 1)


def test_extract_factor_refuses_an_impossible_subset(QQ):
    # (y - x1)(y - 1 - x2)(y - 7): two roots make no factor of degree <= 1,
    # and a repeated root is no subset of the simple roots
    b = CircuitBuilder(QQ, 3)
    x1, x2, y = b.inp(0), b.inp(1), b.inp(2)
    P = b.finish(b.mul(
        b.sub(y, x1),
        b.sub(y, b.add(b.const(Fraction(1)), x2)),
        b.sub(y, b.const(Fraction(7))),
    ))
    for d, subset in ((1, (0, 1)), (2, (0, 0)), (1, (0, 0)), (2, ())):
        with pytest.raises(ParameterViolation, match="distinct roots"):
            extract_factor(P, y=2, d=d, subset=subset)
    assert expand(extract_factor(P, y=2, d=1, subset=(0,)).factor).total_degree() == 1


def test_combine_roots_pair_example(QQ):
    # q = [x1, 1 + x2], d = 2 -> y^2 - (1 + x1 + x2) y + x1 + x1 x2
    rng = rng_for("combine-pair")
    b = CircuitBuilder(QQ, 3)
    x1, x2, y = b.inp(0), b.inp(1), b.inp(2)
    P = b.finish(b.mul(
        b.sub(y, x1),
        b.sub(y, b.add(b.const(Fraction(1)), x2)),
        b.sub(y, b.const(Fraction(7))),
    ))
    bundle = _lifted(P, [Fraction(0), Fraction(1), Fraction(7)], 2, y=2)
    out = expand(combine_roots(bundle, [0, 1], 2))
    assert out == DensePoly(QQ, 3, {
        (0, 0, 2): Fraction(1),
        (0, 0, 1): Fraction(-1), (1, 0, 1): Fraction(-1), (0, 1, 1): Fraction(-1),
        (1, 0, 0): Fraction(1), (1, 1, 0): Fraction(1),
    })


def test_combine_full_subset_reconstructs_P(QQ):
    rng = rng_for("combine-full")
    consts = [Fraction(-1), Fraction(2), Fraction(5)]
    P, forms = plant_linear_product(QQ, rng, 2, 2, consts)
    bundle = _lifted(P, consts, 3, y=2)
    out = expand(combine_roots(bundle, [0, 1, 2], 3))
    assert out == expand(P)


def _product_of_roots(bundle, roots, subset, k):
    """H_{<=k}[prod_{i in subset} (y - roots[i])] over the dense roots: the
    product of roots as the factor screen computed it root by root."""
    fld, nv = bundle.source.field, bundle.source.num_vars
    acc = DensePoly.const(fld, nv, fld.one)
    for i in subset:
        acc = acc * (DensePoly.variable(fld, nv, bundle.y_var) - roots[i])
    return truncate_dense(acc, k)


def _power_series_instance(field):
    """(y - x1 - x2 y^2)(y - 1 - x1 x2)(y + 2 + x2^2): the first root is
    an honest power series, the others are not linear."""
    b = CircuitBuilder(field, 3)
    x1, x2, y = b.inp(0), b.inp(1), b.inp(2)
    one, two = b.const(field.one), b.const(field.embed(2))
    return b.finish(b.mul(
        b.sub(y, b.add(x1, b.mul(x2, y, y))),
        b.sub(y, b.add(one, b.mul(x1, x2))),
        b.add(y, two, b.mul(x2, x2)),
    ))


@pytest.mark.parametrize("field", [Rationals(), PrimeField(2**62 - 57)], ids=["QQ", "F2^62-57"])
def test_screen_is_the_product_of_the_lifted_roots(field):
    # the screen composes the combiner B with the generators' dense members;
    # it must equal the product of the dense roots and the factor circuit
    from test_acceptance import _plant_factor_instance

    rng = rng_for("screen-parity", field.kind)
    cases = [(_power_series_instance(field), 2)]
    for t, (kf, kg) in enumerate([(1, 1), (2, 1), (3, 1), (2, 2), (3, 2)]):
        cases.append((_plant_factor_instance(field, rng, 3 - t % 2, kf, kg)[0], 3 - t % 2))
    for P, y in cases:
        slice0 = expand(fix_vars(P, {v: field.zero for v in range(P.num_vars) if v != y}))
        alphas = [r for r, mult in univariate_roots(slice0) if mult == 1]
        d = min(len(alphas), 3)
        bundle = _lifted(P, alphas, d, y)
        roots = [_root(bundle, i) for i in range(len(alphas))]
        for size in range(1, d + 1):
            for S in itertools.combinations(range(len(alphas)), size):
                screen = _combine_dense(bundle, S, size, DEFAULT_BUDGET)
                assert screen == _product_of_roots(bundle, roots, S, size)
                assert screen == expand(combine_roots(bundle, S, size))


def test_extract_factor_given_subset(QQ):
    rng = rng_for("extract-given")
    b = CircuitBuilder(QQ, 3)
    x1, x2, y = b.inp(0), b.inp(1), b.inp(2)
    P = b.finish(b.mul(
        b.sub(y, x1),
        b.sub(y, b.add(b.const(Fraction(1)), x2)),
        b.sub(y, b.const(Fraction(7))),
    ))
    res = extract_factor(P, y=2, d=2, subset=(0, 1), seed=0)
    want = DensePoly(QQ, 3, {
        (0, 0, 2): Fraction(1),
        (0, 0, 1): Fraction(-1), (1, 0, 1): Fraction(-1), (0, 1, 1): Fraction(-1),
        (1, 0, 0): Fraction(1), (1, 1, 0): Fraction(1),
    })
    assert expand(res.factor) == want
    assert res.multiplicity == 1


def test_extract_factor_never_projects_generator_set_members(QQ, monkeypatch):
    built = record_generator_sets(monkeypatch)
    rng = rng_for("extract-no-members")
    P, _ = plant_linear_product(QQ, rng, 2, 2, [Fraction(-1), Fraction(2), Fraction(5)])
    for subset in ((0, 1), None):
        res = extract_factor(P, y=2, d=2, subset=subset, seed=0)
        assert all(res.bundle.states[i].gens in built for i in res.subset)
    assert built and all("members" not in gens.__dict__ for gens in built)


def test_extract_factor_linear_identity(QQ):
    b = CircuitBuilder(QQ, 2)
    P = b.finish(b.sub(b.inp(1), b.inp(0)))  # y - x1, irreducible
    res = extract_factor(P, y=1, d=1, seed=0)
    assert expand(res.factor) == expand(P)


def test_extract_factor_rejects_y_free_polynomial(QQ):
    b = CircuitBuilder(QQ, 2)
    P = b.finish(b.mul(b.inp(0), b.inp(1)))  # x1 * x2, y declared as var 3
    b2 = CircuitBuilder(QQ, 3)
    P3 = b2.finish(b2.import_circuit(P)[0])
    with pytest.raises(NoFactorFound):
        extract_factor(P3, y=2, d=1, seed=0)


def test_no_factor_found_names_the_search(QQ):
    # x1 x2 in y = x3 needs a shear to be monic; y^2 + x1 + 1 already is.
    # Both have total degree 2, so levels 1..2 run; neither has a factor of
    # y-degree 1 over Q
    b = CircuitBuilder(QQ, 3)
    sheared = b.finish(b.mul(b.inp(0), b.inp(1)))
    b = CircuitBuilder(QQ, 2)
    y = b.inp(1)
    monic = b.finish(b.add(b.mul(y, y), b.inp(0), b.const(QQ.one)))
    for P, shear in ((sheared, "not the identity"), (monic, "the identity")):
        with pytest.raises(NoFactorFound) as e:
            extract_factor(P, y=P.num_vars - 1, d=1, seed=0)
        assert str(e.value) == (
            "no combination of lifted roots up to size 1 divides P: searched multiplicity "
            f"levels 1..2, one separating shift per level chosen among up to {SHIFT_TRIALS} "
            f"candidates, monic shear {shear}")
        assert e.value.exit_code == 1


def test_extract_factor_multiplicity_two(QQ):
    # P = (y - x1)^2 (y - 3): the squared factor appears at derivative level 1
    b = CircuitBuilder(QQ, 2)
    x, y = b.inp(0), b.inp(1)
    dyx = b.sub(y, x)
    P = b.finish(b.mul(dyx, dyx, b.sub(y, b.const(Fraction(3)))))
    res = extract_factor(P, y=1, d=1, seed=0)
    f = expand(res.factor)
    if f == DensePoly(QQ, 2, {(0, 1): Fraction(1), (1, 0): Fraction(-1)}):
        assert res.multiplicity == 2
    else:
        assert f == DensePoly(QQ, 2, {(0, 1): Fraction(1), (0, 0): Fraction(-3)})
        assert res.multiplicity == 1


def test_extract_factor_non_monic_input(QQ):
    # P needs the monic transform first: P = x1 * y + x2 (irreducible, linear in y)
    b = CircuitBuilder(QQ, 3)
    x1, x2, y = b.inp(0), b.inp(1), b.inp(2)
    P = b.finish(b.add(b.mul(x1, y), x2))
    res = extract_factor(P, y=2, d=2, seed=0)
    assert divides(expand(res.factor), expand(P)) >= 1
    assert expand(res.factor).degree_in(2) >= 1


def test_extract_factor_monic_and_shift_roundtrip(QQ):
    rng = rng_for("extract-roundtrip")
    for t in range(6):
        consts = []
        while len(consts) < 3:
            c = Fraction(rng.randint(-4, 4))
            if c not in consts:
                consts.append(c)
        P, forms = plant_linear_product(QQ, rng, 2, 2, consts)
        dense = expand(P)
        res = extract_factor(P, y=2, d=2, subset=(0, 1), seed=t)
        fdense = expand(res.factor)
        # divisibility against the original circuit and monic leading coeff
        assert divides(fdense, dense) == res.multiplicity
        dy = fdense.degree_in(2)
        lead = {e: c for e, c in fdense.terms.items() if e[2] == dy}
        assert list(lead.values()) == [QQ.one]


def test_from_lifted_dense_is_from_lifted():
    # the change of coordinates in both representations, on the golden
    # coordinate runs: sheared inputs, derivative level 1, nonzero shifts
    from test_golden import coord_runs

    seen = set()
    for key, P, d, subset, seed in coord_runs():
        res = extract_factor(P, P.num_vars - 1, d, subset=subset, seed=seed)
        C = combine_roots(res.bundle, res.subset, len(res.subset))
        assert expand(res.from_lifted(C)) == res.from_lifted_dense(expand(C)), key
        zero = P.field.zero
        seen |= {("level", res.deriv_level),
                 ("shear", any(a != zero for a in res.monic.shift)),
                 ("shift", any(c != zero for c in res.bundle.shift))}
    assert {("level", 1), ("shear", True), ("shift", True)} <= seen

    # a criterion-7 run whose map is the identity: zero shear, zero shift,
    # unit one; from_lifted returns the circuit itself, copying nothing
    from test_acceptance import QQ as Q, SESSION_SEED, _plant_factor_instance, _rng

    P, _, subset = _plant_factor_instance(Q, _rng("c7", "0"), 2, 1, 1)
    res = extract_factor(P, 2, 1, subset=list(subset), seed=SESSION_SEED)
    assert not any(res.monic.shift) and not any(res.bundle.shift) and res.unit_inv == Q.one
    C = combine_roots(res.bundle, res.subset, len(res.subset))
    assert res.from_lifted(C) is C and res.from_lifted(C, res.unit_inv) is C
    assert res.from_lifted_dense(expand(C)) == expand(C)


def _record_imports(monkeypatch):
    """(imports, made_from): every circuit imported into any builder, in
    order, and for each circuit a builder finishes, the circuits imported
    into that builder before it."""
    imports, into = [], {}
    real_import, real_finish = CircuitBuilder.import_circuit, CircuitBuilder.finish
    made_from = {}

    def importing(self, circ, var_bindings=None):
        imports.append(circ)
        into.setdefault(self, []).append(circ)
        return real_import(self, circ, var_bindings)

    def finishing(self, outputs):
        out = real_finish(self, outputs)
        made_from[out] = list(into.get(self, []))
        return out

    monkeypatch.setattr(CircuitBuilder, "import_circuit", importing)
    monkeypatch.setattr(CircuitBuilder, "finish", finishing)
    return imports, made_from


def test_each_change_of_coordinates_is_one_import(QQ, monkeypatch):
    from circuitforge import factoring, transforms
    from circuitforge.expsum import ExpSumPoly, factor_vnp
    from test_golden import coord_poly

    # (y - x1 - x1 x2)(y - x2 - 3) and (y - x1)^2 (y - 2 x1)^2 (x1 - 2): both
    # sheared, shifted and scaled back; the second at derivative level 1,
    # whose slice at the origin has no simple root
    b = CircuitBuilder(QQ, 2)
    x, y = b.inp(0), b.inp(1)
    f, g = b.sub(y, x), b.sub(y, b.mul(b.const(Fraction(2)), x))
    squares = b.finish(b.mul(f, f, g, g, b.sub(x, b.const(Fraction(2)))))
    real_from_lifted, mapped = factoring.FactorResult.from_lifted, []

    def from_lifted(self, circ, *unit):
        mapped.append((circ, real_from_lifted(self, circ, *unit)))
        return mapped[-1][1]

    monkeypatch.setattr(factoring.FactorResult, "from_lifted", from_lifted)
    hasse = []  # (order, derivative)

    def hasse_spy(circ, y, j, real=transforms.hasse_derivative_circuit):
        hasse.append((j, real(circ, y, j)))
        return hasse[-1][1]

    for module in (factoring, transforms):
        monkeypatch.setattr(module, "hasse_derivative_circuit", hasse_spy, raising=False)
    imports, made_from = _record_imports(monkeypatch)
    for P, level in ((coord_poly(QQ, "two"), 0), (squares, 1)):
        for run in ("factor", "vnp"):
            mapped.clear()
            imports.clear()
            if run == "factor":
                res = extract_factor(P, P.num_vars - 1, 1, seed=0)
                out = res.factor
            else:
                out, res = factor_vnp(ExpSumPoly(P, ()), 1, seed=0)
                out = out.verifier
            assert res.deriv_level == level
            assert any(res.monic.shift) and any(res.bundle.shift) and res.unit_inv != QQ.one
            # the composed factor is imported once, into the builder that
            # makes the output, and the output is never imported again
            [(composed, back)] = mapped
            assert back is out and made_from[out] == [composed]
            assert sum(c is composed for c in imports) == 1
            assert not any(c is out for c in imports)
            # the roots' source: one import of the monic form's derivative
            [source_import] = made_from[res.bundle.source]
            assert any(j == level and h is source_import for j, h in hasse)


def test_extract_factor_search_finds_certified_factor(QQ):
    rng = rng_for("extract-search")
    consts = [Fraction(0), Fraction(2), Fraction(6)]
    P, forms = plant_linear_product(QQ, rng, 2, 2, consts)
    res = extract_factor(P, y=2, d=3, seed=0)
    assert res.multiplicity >= 1
    assert divides(expand(res.factor), expand(P)) == res.multiplicity


def _count_lifts(monkeypatch):
    """Record the alpha of every root extract_factor lifts."""
    from circuitforge import factoring

    lifted = []
    real = factoring.build_A_recurrence

    def counting(P, alpha, *args, **kwargs):
        lifted.append(alpha)
        return real(P, alpha, *args, **kwargs)

    monkeypatch.setattr(factoring, "build_A_recurrence", counting)
    return lifted


def _four_linear_factors(QQ):
    consts = [Fraction(-3), Fraction(0), Fraction(2), Fraction(5)]
    P, _ = plant_linear_product(QQ, rng_for("lazy-lift"), 2, 2, consts)
    return P


def test_given_subset_lifts_only_its_roots(QQ, monkeypatch):
    lifted = _count_lifts(monkeypatch)
    P = _four_linear_factors(QQ)
    for S in [(1,), (0, 2), (0, 1, 3)]:
        lifted.clear()
        res = extract_factor(P, y=2, d=len(S), subset=S, seed=0)
        assert lifted == [res.bundle.alphas[i] for i in S]
        assert [i for i, st in enumerate(res.bundle.states) if st is not None] == list(S)
        assert divides(expand(res.factor), expand(P)) == 1


def test_subset_search_on_linear_factors_lifts_one_root(QQ, monkeypatch):
    lifted = _count_lifts(monkeypatch)
    res = extract_factor(_four_linear_factors(QQ), y=2, d=3, seed=0)
    assert res.subset == (0,)
    assert len(lifted) == 1 and len(res.bundle.alphas) == 4


def test_subset_search_builds_components_only_for_the_accepted_roots(QQ, monkeypatch):
    # (y^2 - x1 - 4)(y - x1 - 3): the slice roots -2 and 2 lift to power
    # series, so the singletons (0,) and (1,) are screened and rejected
    # before (2,); the one interpolation is of the lifted source at the
    # accepted root, in the factor's own builder, and no generator set
    # builds its members
    from circuitforge import transforms

    built = record_generator_sets(monkeypatch)
    interpolated = []
    real = transforms._interpolate
    monkeypatch.setattr(transforms, "_interpolate",
                        lambda *args: interpolated.append(args) or real(*args))
    b = CircuitBuilder(QQ, 2)
    x, y = b.inp(0), b.inp(1)
    P = b.finish(b.mul(b.sub(b.mul(y, y), b.add(x, b.const(Fraction(4)))),
                       b.sub(y, b.add(x, b.const(Fraction(3))))))
    res = extract_factor(P, y=1, d=2, seed=0)
    assert res.subset == (2,) and res.bundle.alphas == [-2, 2, 3]
    X, Y = DensePoly.variable(QQ, 2, 0), DensePoly.variable(QQ, 2, 1)
    assert expand(res.factor) == Y - X - DensePoly.const(QQ, 2, Fraction(3))
    states = res.bundle.states
    assert all(st is not None for st in states)  # every root was lifted
    assert len(built) == 3 and not [gens for gens in built if "members" in gens.__dict__]
    ((circ, _, y, alpha, *_),) = interpolated
    assert circ is res.bundle.source and (y, alpha) == (1, states[2].alpha)


def test_lazy_roots_emit_the_bytes_of_eager_roots(QQ):
    P = _four_linear_factors(QQ)
    res = extract_factor(P, y=2, d=2, subset=(1, 3), seed=0)
    lazy = res.bundle
    full = RootBundle(lazy.shift, lazy.alphas, lazy.d, lazy.y_var, lazy.source)
    full.lift(range(len(full.alphas)))
    for i in res.subset:
        assert emit_circuit(compose_root(full.states[i])) == emit_circuit(compose_root(lazy.states[i]))
        assert _root(full, i) == _root(lazy, i)


def _record_combiner_work(monkeypatch):
    """(expanded, combiners): the circuit of every capped expansion that
    factoring and lifting run, and every combiner B that combiner_dense
    hands to the screen and the emitters."""
    from circuitforge import dense, expsum, factoring, lifting

    expanded, combiners = [], []
    real_combiner = factoring.combiner_dense

    def expanding(circ, budget=DEFAULT_BUDGET, cap=None, **kwargs):
        if cap is not None:
            expanded.append(circ)
        return dense.expand(circ, budget, cap, **kwargs)

    def combining(*args):
        combiners.append(real_combiner(*args))
        return combiners[-1]

    for module in (factoring, lifting):
        monkeypatch.setattr(module, "expand", expanding)
    for module in (factoring, expsum):
        monkeypatch.setattr(module, "combiner_dense", combining)
    return expanded, combiners


def test_extract_factor_expands_each_root_and_builds_the_combiner_once(QQ, monkeypatch):
    # the screen and the emitter read one B, built from one capped expansion
    # of each lifted root's A_d
    expanded, combiners = _record_combiner_work(monkeypatch)
    res = extract_factor(_four_linear_factors(QQ), y=2, d=3, subset=(0, 1, 3), seed=0)
    a_ds = [res.bundle.states[i].A[-1] for i in res.subset]
    assert sorted(map(id, expanded)) == sorted(map(id, a_ds))
    assert len(combiners) == 2 and combiners[0] is combiners[1]


def test_out_of_range_subset_is_refused_before_lifting(QQ, monkeypatch):
    lifted = _count_lifts(monkeypatch)
    with pytest.raises(ParameterViolation, match="4 simple roots"):
        extract_factor(_four_linear_factors(QQ), y=2, d=2, subset=(0, 4), seed=0)
    assert lifted == []


def _square_times(QQ, *consts):
    """(y - x1)^2 times y - x1 - c for each c, with y = x2."""
    b = CircuitBuilder(QQ, 2)
    x1, y = b.inp(0), b.inp(1)
    line = b.sub(y, x1)
    others = [b.sub(line, b.const(Fraction(c))) for c in consts]
    return b.finish(b.mul(line, line, *others))


def test_given_subset_reaches_a_repeated_factor(QQ, monkeypatch):
    # (y - x1)^2 has no simple root at multiplicity level 1; the subset (0,)
    # names the simple root of its derivative at level 2, as the search does
    P = _square_times(QQ)
    x1, y = DensePoly.variable(QQ, 2, 0), DensePoly.variable(QQ, 2, 1)
    res = extract_factor(P, y=1, d=1, subset=(0,), seed=0)
    assert (res.multiplicity, res.deriv_level, res.factor_dense) == (2, 1, y - x1)
    assert emit_circuit(res.factor) == emit_circuit(extract_factor(P, y=1, d=1, seed=0).factor)
    lifted = _count_lifts(monkeypatch)
    with pytest.raises(ParameterViolation, match="every multiplicity level: 1 simple root at level 2$"):
        extract_factor(P, y=1, d=1, subset=(1,), seed=0)
    assert lifted == []


def test_given_subset_walks_the_levels_in_order(QQ):
    x1, y = DensePoly.variable(QQ, 2, 0), DensePoly.variable(QQ, 2, 1)
    three = DensePoly.const(QQ, 2, Fraction(3))
    # (y - x1)^2 (y - x1 - 3): level 1's one simple root makes a factor first
    P = _square_times(QQ, 3)
    res = extract_factor(P, y=1, d=1, subset=(0,), seed=0)
    assert (res.multiplicity, res.deriv_level, res.factor_dense) == (1, 0, y - x1 - three)
    # the derivative's roots x1 < x1 + 2 at level 2: (1,) fits there, and
    # y - x1 - 2 divides nothing, so no factor is found; (2,) fits no level
    with pytest.raises(NoFactorFound):
        extract_factor(P, y=1, d=1, subset=(1,), seed=0)
    with pytest.raises(ParameterViolation, match="1 simple root at level 1, 2 simple roots "
                       "at level 2, 1 simple root at level 3"):
        extract_factor(P, y=1, d=1, subset=(2,), seed=0)
    # (y - x1)^2 (y - x1 + 3): the derivative's roots are x1 - 2 < x1
    res = extract_factor(_square_times(QQ, -3), y=1, d=1, subset=(1,), seed=0)
    assert (res.multiplicity, res.deriv_level, res.factor_dense) == (2, 1, y - x1)


def _multi_root_factor_runs(field):
    """(P, y, d, subset) of the criterion-7 shapes kf = 2 and 3 over field:
    given subsets of 2 or 3 roots."""
    from test_acceptance import _plant_factor_instance, _rng

    runs = []
    for i, (kf, kg) in ((40, (2, 1)), (41, (2, 1)), (75, (3, 1)), (90, (2, 2))):
        n = 2 if (i % 4 == 0 or kf >= 3) else 3
        P, _, subset = _plant_factor_instance(field, _rng("c7", str(i)), n, kf, kg)
        runs.append((P, n, kf, subset))
    return runs


@pytest.mark.parametrize("field", [Rationals(), PrimeField(1_000_003), PrimeField(2**62 - 57)],
                         ids=["QQ", "F1000003", "F2^62-57"])
def test_shared_interpolation_gives_each_root_its_own_components(field, monkeypatch):
    # one interpolation at the first root, Taylor-shifted to each other
    # root, expands output for output to each root emitted alone, at the
    # same depth; lives leaves out exactly the components the oracle shows
    # to be 0, and no composition that compose_root or combine_roots emits
    # reads one
    from circuitforge import factoring, lifting
    from circuitforge.dense import homog_component_dense
    from circuitforge.transforms import component_gates

    def emitted(src, y, roots, d):
        xs = [v for v in range(src.num_vars) if v != y]
        reads = [(g, i) for g in range(sum(len(orders) for _, orders, _ in roots))
                 for i in range(1, d + 1)]
        b = CircuitBuilder(src.field, src.num_vars)
        comps = component_gates(b, src, xs, y, roots, reads)
        return b.finish([comps[read] for read in reads])

    def outputs(circ):
        return [expand(Circuit(circ.field, circ.num_vars, circ.gates, [o])) for o in circ.outputs]

    def oracle_zeros(gsets, d):
        zeros = [homog_component_dense(g.derivs_dense[j], i).is_zero()
                 for g in gsets for j in g.orders for i in range(1, d + 1)]
        return {(n // d, n % d + 1) for n, zero in enumerate(zeros) if zero}

    def lives_zeros(roots, d):
        lives = [live for _, _, lives in roots for live in lives]
        return {(g, i) for g, live in enumerate(lives) for i in range(1, d + 1) if i not in live}

    read = []  # (module, roots, reads) of every emission the pipelines make
    caller = [None]  # the module whose emit_composition call is running
    real_gates = lifting.component_gates

    def gates(b, P, xs, y, roots, reads, *rest):
        read.append((caller[0], roots, set(reads)))
        return real_gates(b, P, xs, y, roots, reads, *rest)
    monkeypatch.setattr(lifting, "component_gates", gates)

    def spy(module):
        real = module.emit_composition

        def record(*args, **kwargs):
            caller[0] = module.__name__
            return real(*args, **kwargs)
        monkeypatch.setattr(module, "emit_composition", record)

    bundles = []
    for P, y, d, subset in _multi_root_factor_runs(field):
        res = extract_factor(P, y=y, d=d, subset=subset, seed=0)
        bundles.append((res.bundle, res.subset))
    # (y^2 - x1^2)(y - 1)(y - 2) and (y - 1 - x1^2)(y - 2 - x1^2): at their
    # roots 1 and 2 a member has H_1 = 0, a monomial inside the lower set,
    # which the second's roots would read
    one, two = field.one, field.embed(2)
    b = CircuitBuilder(field, 2)
    x, y = b.inp(0), b.inp(1)
    x2 = b.mul(x, x)
    for P in (b.finish(b.mul(b.sub(b.mul(y, y), x2), b.sub(y, b.const(one)),
                             b.sub(y, b.const(two)))),
              b.finish(b.mul(b.sub(y, b.add(b.const(one), x2)),
                             b.sub(y, b.add(b.const(two), x2))))):
        bundle = RootBundle((field.zero,), [one, two], 2, 1, P)
        bundle.lift([0, 1])
        bundles.append((bundle, (0, 1)))
    spy(lifting)
    spy(factoring)
    vanishing = False  # a shifted root with an oracle-zero component
    dropped = set()
    for bundle, subset in bundles:
        src, y, d = bundle.source, bundle.y_var, bundle.d
        gsets = [bundle.states[i].gens for i in subset]
        assert len(gsets) > 1 and all(g.orders for g in gsets)
        roots = [root for g in gsets for root in g.roots]
        shared = emitted(src, y, roots, d)
        pos = 0
        for g in gsets:
            own = emitted(src, y, g.roots, d)
            end = pos + len(own.outputs)
            assert outputs(shared)[pos:end] == outputs(own)
            assert lives_zeros(g.roots, d) == oracle_zeros([g], d)
            pos = end
        assert pos == len(shared.outputs)
        assert shared.depth() == max(emitted(src, y, g.roots, d).depth() for g in gsets)
        assert lives_zeros(roots, d) == oracle_zeros(gsets, d)
        vanishing |= any(set(live) != set(range(1, d + 1)) for g in gsets[1:] for live in g.lives)
        start = len(read)
        for i in subset:
            compose_root(bundle.states[i])
        combine_roots(bundle, subset, d)
        for module, roots, reads in read[start:]:
            zero = lives_zeros(roots, d)
            assert reads.isdisjoint(zero)
            if {g for g, _ in zero} & {g for g, _ in reads}:
                dropped.add(module)
    assert vanishing
    # each pipeline dropped a read: it reads another degree of the same generator
    assert dropped == {"circuitforge.lifting", "circuitforge.factoring"}


def _field_shifted_weights(fld, shape, monomials, delta):
    """transforms._shifted_weights written with one Field call per term:
    the formula the native sums must reproduce byte for byte."""
    from circuitforge.transforms import _lower_set_weights

    w = {}
    for k, j in monomials:
        power = fld.one
        for m in range(j, min(shape[1], shape[2] - k) + 1):
            scale = fld.mul(fld.embed(math.comb(m, j)), power)
            power = fld.mul(power, delta)
            for n, u in _lower_set_weights(fld, shape, ((k, m),)):
                w[n] = fld.add(w.get(n, fld.zero), fld.mul(scale, u))
    return tuple((n, c) for n, c in sorted(w.items()) if c != fld.zero)


@pytest.mark.parametrize("field", [Rationals(), PrimeField(1_000_003), PrimeField(2**62 - 57)],
                         ids=["QQ", "F1000003", "F2^62-57"])
def test_shifted_weights_match_the_field_formula(field, monkeypatch):
    # every Taylor-shifted weight row that the criterion-7 subsets of 2 and
    # 3 roots read equals the Field-call formula, value and type
    from circuitforge import transforms

    real, rows = transforms._shifted_weights, []

    def spy(fld, shape, monomials, delta):
        monomials = tuple(monomials)
        rows.append((fld, shape, monomials, delta, real(fld, shape, monomials, delta)))
        return rows[-1][-1]

    monkeypatch.setattr(transforms, "_shifted_weights", spy)
    for P, y, d, subset in _multi_root_factor_runs(field):
        extract_factor(P, y=y, d=d, subset=subset, seed=0)
    shifted = [row for row in rows if row[3] != field.zero]
    assert len(shifted) > 10
    for fld, shape, monomials, delta, got in shifted:
        want = _field_shifted_weights(fld, shape, monomials, delta)
        assert got == want
        assert [type(c) for _, c in got] == [type(c) for _, c in want]


def test_given_multi_root_subset_interpolates_once(QQ, monkeypatch):
    # the roots of a given subset read their components from one
    # interpolation of the lifted source, not one per root
    from circuitforge import transforms

    calls = []
    real = transforms._interpolate
    monkeypatch.setattr(transforms, "_interpolate",
                        lambda *args: calls.append(args) or real(*args))
    runs = [(_four_linear_factors(QQ), 2, len(S), S) for S in [(0, 2), (0, 1, 3)]]
    for P, y, d, subset in runs + _multi_root_factor_runs(PrimeField(1_000_003)):
        calls.clear()
        res = extract_factor(P, y=y, d=d, subset=subset, seed=0)
        assert res.deriv_level == 0 and len(res.subset) in (2, 3)
        assert len(calls) == 1 and calls[0][0] is res.bundle.source
        assert divides(expand(res.factor), expand(P)) >= 1


# -- emission: only the components a composition reads -------------------------

def _record_component_emission(monkeypatch) -> dict:
    """Every generator-component interpolation (scaled x and a bound y) as
    (builder, node copies, components), every finish as (builder, outputs,
    circuit) and every import as (builder, circuit, gates), recorded through
    a patched transforms._interpolate and CircuitBuilder."""
    from circuitforge import transforms

    seen = {"interpolations": [], "finishes": [], "imports": []}
    real = transforms._interpolate
    real_import, real_finish = CircuitBuilder.import_circuit, CircuitBuilder.finish

    def importing(self, circ, var_bindings=None):
        gates = real_import(self, circ, var_bindings)
        seen["imports"].append((self, circ, gates))
        return gates

    def finishing(self, outputs):
        circ = real_finish(self, outputs)
        outputs = [outputs] if isinstance(outputs, int) else list(outputs)
        seen["finishes"].append((self, outputs, circ))
        return circ

    def interpolating(circ, scale, y, *rest):
        start = len(seen["imports"])
        b, coeff = real(circ, scale, y, *rest)
        if not scale or y is None:
            return b, coeff
        copies = [gates[0] for owner, src, gates in seen["imports"][start:]
                  if owner is b and src is circ]
        record = (b, copies, [])
        seen["interpolations"].append(record)

        def counted(*args, **kwargs):
            record[2].append(coeff(*args, **kwargs))
            return record[2][-1]
        return b, counted

    monkeypatch.setattr(CircuitBuilder, "import_circuit", importing)
    monkeypatch.setattr(CircuitBuilder, "finish", finishing)
    monkeypatch.setattr(transforms, "_interpolate", interpolating)
    return seen


def _unreached(seen) -> tuple:
    """(copies, components, emitted) counts: the node copies and
    components no finished output reaches, and all those emitted. A
    component circuit that another builder imports (factor_vnp's blocks)
    counts as reached only through an output of that builder. Constant
    gates are not counted: a copy at scale 0 folds to its value, which the
    builder adds into the constant term of the sums that weight it."""
    from circuitforge.circuit import _reach

    def reached(b):
        return set().union(*(_reach(b._gates, outs) for owner, outs, _ in seen["finishes"]
                             if owner is b))

    copies = components = emitted = 0
    for b, built, comps in seen["interpolations"]:
        live = reached(b)
        built, comps = ([g for g in gates if b._gates[g][0] != "const"]
                        for gates in (built, comps))
        copies += sum(g not in live for g in built)
        components += sum(g not in live for g in comps)
        emitted += len(built) + len(comps)
        for owner, _, circ in seen["finishes"]:
            imports = [(into, gates) for into, src, gates in seen["imports"] if src is circ]
            if owner is not b or not imports:
                continue
            used = set()
            for into, gates in imports:
                used |= {pos for pos, g in enumerate(gates) if g in reached(into)}
            components += len(circ.outputs) - len(used)
    return copies, components, emitted


def test_emitters_build_only_the_components_and_copies_their_output_reads(monkeypatch):
    # on the golden inputs of compose_root (lift-root), combine_roots
    # (factor) and factor_vnp (vnp-factor), every generator component and
    # node copy an emitter builds is reachable from its finished output
    from test_golden import factor_runs, vnp_runs

    seen, counts = _record_component_emission(monkeypatch), {}
    for runs in (factor_runs, vnp_runs):
        seen["interpolations"].clear()
        runs()
        counts[runs.__name__] = _unreached(seen)
    assert all(emitted > 100 for _, _, emitted in counts.values()), counts
    assert all(count[:2] == (0, 0) for count in counts.values()), counts


def _c7_cases():
    """(P, y, d, subset, seed) of the criterion-7 golden instances, over Q
    and F_{2^62-57}."""
    from test_golden import FACTOR_CASES, _factor_shape
    from test_acceptance import QQ, FP62, SESSION_SEED, _plant_factor_instance, _rng

    for i in FACTOR_CASES:
        kf, kg = _factor_shape(i)
        n = 2 if (i % 4 == 0 or kf >= 3) else 3
        P, _, subset = _plant_factor_instance(QQ if i % 3 == 0 else FP62, _rng("c7", str(i)),
                                              n, kf, kg)
        yield P, n, kf, subset, SESSION_SEED + i


def test_dense_screen_cut_members_give_the_uncut_candidate(monkeypatch):
    # the screen composes the order-j member cut to x-degree <= k - j; the
    # whole members give the same candidate, on the criterion-7 family over
    # both of its fields
    from circuitforge import factoring
    from circuitforge.factoring import combiner_dense

    real, fields, cut = factoring._combine_dense, set(), 0

    def uncut(bundle, subset, k, budget):
        fld, nv = bundle.source.field, bundle.source.num_vars
        values = [DensePoly.variable(fld, nv, bundle.y_var)]
        for i in subset:
            gens = bundle.states[i].gens
            for j in gens.orders:
                h0 = DensePoly.const(fld, nv, gens.deriv_constants[j])
                values.append(gens.derivs_dense[j] - h0)
        return compose(combiner_dense(bundle, subset, k), values, cap=k, budget=budget)

    def spy(bundle, subset, k, budget):
        nonlocal cut
        got = real(bundle, subset, k, budget)
        assert got == uncut(bundle, subset, k, budget)
        fields.add(bundle.source.field)
        cut += any(sum(e) > k - j for i in subset for j in bundle.states[i].gens.orders
                   for e in bundle.states[i].gens.derivs_dense[j].terms)
        return got

    monkeypatch.setattr(factoring, "_combine_dense", spy)
    for P, y, d, subset, seed in _c7_cases():
        for given in (subset, None):
            res = extract_factor(P, y=y, d=d, subset=given, seed=seed)
            assert divides(expand(res.factor), expand(P)) >= 1
    assert len(fields) == 2 and cut > 10


def test_factor_of_a_root_with_no_generators_reads_no_components(QQ):
    # (y - 1)(y - 3) over (x1, y): every derivative at a root is constant in
    # x1, so no root has generators and the factor is B alone, built with no
    # interpolation
    b = CircuitBuilder(QQ, 2)
    y = b.inp(1)
    P = b.finish(b.mul(b.sub(y, b.const(Fraction(1))), b.sub(y, b.const(Fraction(3)))))
    Y = DensePoly.variable(QQ, 2, 1)
    for subset in ((0,), None):
        res = extract_factor(P, y=1, d=1, subset=subset, seed=0)
        (i,) = res.subset
        assert not res.bundle.states[i].gens.orders
        root = DensePoly.const(QQ, 2, res.bundle.alphas[i])
        assert expand(res.factor) == Y - root

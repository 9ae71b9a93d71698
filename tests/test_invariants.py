"""Cross-module invariant sweeps the per-module suites do not already cover
at full spec volume."""

from fractions import Fraction

import pytest

from circuitforge import (
    CircuitBuilder,
    DensePoly,
    ExplicitPoly,
    HittingSet,
    RootBundle,
    expand,
    lift_root,
    affine,
    substitute,
)
from circuitforge.dense import circuit_from_dense, compose
from circuitforge.designs import Design
from circuitforge.errors import MixedFieldConfig
from circuitforge.factoring import FACTOR_DEPTH_SLACK, FACTOR_SIZE_FACTOR
from circuitforge.lifting import ROOT_SIZE_FACTOR, compose_root
from circuitforge.expsum import ExpSumPoly, coeff_exp_sums, exp_sum_expand

from conftest import random_circuit, rng_for


def test_field_axioms_ten_thousand_triples(QQ, Fp):
    checks = 0
    for field, name in ((QQ, "qq"), (Fp, "fp")):
        rng = rng_for("axioms-10k-" + name)
        for _ in range(5000):
            a = field.embed(rng.randint(-99, 99))
            b = field.embed(rng.randint(-99, 99))
            c = field.embed(rng.randint(-99, 99))
            assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
            assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))
            if c != field.zero:
                assert field.mul(c, field.inv(c)) == field.one
            checks += 1
    assert checks == 10_000


def test_evaluate_oracle_five_hundred_cases(QQ, Fp):
    # n <= 4, degree <= 8, size <= 60
    cases = 0
    for field, name in ((QQ, "qq"), (Fp, "fp")):
        rng = rng_for("eval-500-" + name)
        for _ in range(250):
            n = 1 + rng.randrange(4)
            c = random_circuit(field, rng, n, size_limit=60, degree_limit=8)
            dense = expand(c)
            point = [field.embed(rng.randint(-4, 4)) for _ in range(n)]
            assert c.evaluate1(point) == dense.evaluate(point)
            cases += 1
    assert cases == 500


def test_translate_circuit_matches_dense_translation(QQ, Fp):
    for field, name in ((QQ, "qq"), (Fp, "fp")):
        rng = rng_for("translate-cross-" + name)
        for _ in range(10):
            c = random_circuit(field, rng, 3, size_limit=20, degree_limit=5)
            shift = [field.embed(rng.randint(-3, 3)) for _ in range(3)]
            moved = [DensePoly.variable(field, 3, v) + DensePoly.const(field, 3, s)
                     for v, s in enumerate(shift)]
            assert expand(affine(c, None, shift)) == compose(expand(c), moved)


def test_substitute_mixed_field_config(QQ, Fp):
    b = CircuitBuilder(QQ, 1)
    c = b.finish(b.inp(0))
    b2 = CircuitBuilder(Fp, 1)
    other = b2.finish(b2.inp(0))
    with pytest.raises(MixedFieldConfig):
        substitute(c, {0: other})


def test_root_bundle_lift_is_deterministic(QQ):
    # bundle uniqueness: byte-identical dense expansions across runs
    b = CircuitBuilder(QQ, 2)
    x, y = b.inp(0), b.inp(1)
    P = b.finish(b.mul(b.sub(y, x), b.sub(y, b.const(Fraction(4)))))
    runs = []
    for _ in range(2):
        bundle = RootBundle((), [Fraction(0), Fraction(4)], 2, 1, P)
        bundle.lift((0, 1))
        runs.append([sorted(expand(compose_root(st)).terms.items()) for st in bundle.states])
    assert runs[0] == runs[1]


def test_lift_root_depth_envelope(QQ, Fp):
    # The paper's depth Delta + 3 needs the depth-3 reduction of A_d, which
    # is out of scope here; the general-circuit recurrence grows about two
    # layers per lift order. Recorded envelope: depth(P) + 2d + 2.
    import sys

    sys.path.insert(0, "tests")
    from test_acceptance import _plant_root_instance

    for i in range(8):
        rng = rng_for("depth-envelope", i)
        field = QQ if i % 2 else Fp
        d = 1 + (i % 4)
        P, f, alpha = _plant_root_instance(field, rng, 2, d, "yfree")
        cert = lift_root(P, y=2, d=d, seed=i, alpha=alpha)
        assert cert.root.depth() <= P.depth() + 2 * d + 2
        assert expand(cert.root) == f


def test_lift_root_depth_and_size_laws():
    # Roots are composition sums of the generator components: the paper's
    # depth Delta + 3 and ROOT_SIZE_FACTOR * (d + 1) * size(P) wires, on
    # every instance of the criterion-1 family, each certified by the dense
    # oracle rather than by Schwartz-Zippel points.
    from test_acceptance import FP62, QQ, SESSION_SEED, _plant_root_instance, _rng

    qq_degs = [1] * 12 + [2] * 14 + [3] * 14 + [4] * 6 + [5] * 4
    fp_degs = [1] * 6 + [2] * 10 + [3] * 10 + [4] * 12 + [5] * 12
    plans = [(QQ, "qq", i, d) for i, d in enumerate(qq_degs)]
    plans += [(FP62, "fp62", i, d) for i, d in enumerate(fp_degs)]
    for field, tag, i, d in plans:
        rng = _rng("c1", tag, str(i))
        n = 1 + (i % 3)
        shape = "multi" if i % 10 in (3, 7, 9) else "yfree"
        P, f, alpha = _plant_root_instance(field, rng, n, d, shape)
        cert = lift_root(P, y=n, d=d, seed=SESSION_SEED + i, alpha=alpha)
        assert cert.root.depth() <= P.depth() + 3, (tag, i)
        assert cert.root.size() <= ROOT_SIZE_FACTOR * (d + 1) * P.size(), (tag, i)
        assert cert.residual_mode == "oracle", (tag, i)


def test_factor_depth_and_size_laws():
    # Factors are composition sums of their roots' generator components:
    # depth(P) + FACTOR_DEPTH_SLACK and FACTOR_SIZE_FACTOR * d^2 * size(P)
    # wires, given subset and subset search, on the criterion-7 family.
    from test_acceptance import _criterion_07_runs

    for i, (kf, _, P, _, _, res, res2) in enumerate(_criterion_07_runs()):
        for factor in (res.factor, res2.factor):
            assert factor.depth() <= P.depth() + FACTOR_DEPTH_SLACK, i
            assert factor.size() <= FACTOR_SIZE_FACTOR * kf * kf * P.size(), i


def test_factor_vnp_combining_circuit_has_depth_two(QQ, monkeypatch):
    # B is factoring.combiner_dense, the sum of monomials of
    # H_<=|S|[prod (y - A_i)] that both factor paths emit as a composition
    # sum of the roots' generator components; as a circuit it has depth 2.
    # The second case has roots with no generators
    from circuitforge import expsum

    seen = []
    real = expsum.combiner_dense

    def spy(*args, **kwargs):
        seen.append(real(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(expsum, "combiner_dense", spy)
    b = CircuitBuilder(QQ, 2)
    x1, y = b.inp(0), b.inp(1)
    cases = [
        b.finish(b.mul(
            b.sub(y, x1),
            b.sub(y, b.add(b.const(Fraction(1)), x1)),
            b.sub(y, b.const(Fraction(5))),
        )),
        b.finish(b.mul(
            b.sub(y, b.const(Fraction(1))),
            b.sub(y, b.const(Fraction(4))),
            b.add(b.mul(y, y, y), b.mul(b.const(Fraction(-1)), x1, x1, x1), b.const(Fraction(-2))),
        )),
    ]
    for ver in cases:
        out, fr = expsum.factor_vnp(expsum.plain_expsum(ver), 2, subset=(0, 1), seed=0)
        assert exp_sum_expand(out) == fr.factor_dense
        assert fr.factor_dense.degree_in(1) == 2
        assert circuit_from_dense(seen[-1]).depth() <= 2
    assert [len(fr.bundle.states[i].gens.members) for i in fr.subset] == [0, 0]


def test_degenerate_single_variable_hitting_set(Fp):
    # m = 1 identity table with a hand-made trivial design: H is the grid
    table = ExplicitPoly(Fp, 1, [Fp.zero, Fp.one])  # f(z) = z
    design = Design(n=1, m=1, q=1, dprime=1, ell=1, sets=[frozenset({0})])
    hs = HittingSet(table, design, D=3, d=1)
    pts = [p[0] for p in hs.points(limit=hs.t_size)]
    assert pts == [Fp.embed(v) for v in range(3 * 1 + 1)]


def test_coeff_exp_sums_independent_of_z(QQ):
    b = CircuitBuilder(QQ, 3)  # x=0, z=1, aux=2
    ver = b.finish(b.mul(b.inp(0), b.inp(2)))
    e = ExpSumPoly(ver, (2,))
    coeffs = coeff_exp_sums(e, 1, 2)
    assert exp_sum_expand(coeffs[0]) == exp_sum_expand(e)
    assert exp_sum_expand(coeffs[1]).is_zero()
    assert exp_sum_expand(coeffs[2]).is_zero()


def test_generator_union_size_bound(QQ):
    # measured t across the union of generator sets stays under (d+1)^2
    from circuitforge import extract_factor

    b = CircuitBuilder(QQ, 3)
    x1, x2, y = b.inp(0), b.inp(1), b.inp(2)
    P = b.finish(b.mul(
        b.sub(y, x1),
        b.sub(y, b.add(b.const(Fraction(1)), x2)),
        b.sub(y, b.const(Fraction(7))),
    ))
    res = extract_factor(P, y=2, d=2, subset=(0, 1), seed=0)
    t = sum(len(res.bundle.states[i].gens.members) for i in res.subset)
    assert t <= (2 + 1) ** 2

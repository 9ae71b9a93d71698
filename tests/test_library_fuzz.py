"""Library fuzz: invalid arguments end in a ForgeError.

Every public function that `circuitforge/__init__.py` exports is called
with invalid arguments of the kinds a library caller gets wrong: negative
or fractional degrees, variables out of range, shifts, subsets and points
of the wrong length, values and circuits over another field, and empty
designs. Every call must raise a ForgeError, which carries its exit code:
a call that returns accepted an invalid argument, and any other exception
escaping is a defect. Each row's invalid values form a short list, so every
value of every row is called. This is test_cli_survives_mutated_inputs for
callers that skip the CLI's parsing.
"""

import inspect
from fractions import Fraction

import circuitforge as cf
from circuitforge import CircuitBuilder, DensePoly, PrimeField, Rationals
from circuitforge.designs import Design
from circuitforge.errors import ForgeError
from circuitforge.expsum import ExpSumPoly

QQ, FP = Rationals(), PrimeField(1_000_003)


def _planted(field):
    """(y - x1)(y - x1 - 2) over x1 and y = x2."""
    b = CircuitBuilder(field, 2)
    x, y = b.inp(0), b.inp(1)
    return b.finish(b.mul(b.sub(y, x), b.sub(y, b.add(x, b.const(field.embed(2))))))


P, P_FP = _planted(QQ), _planted(FP)
DENSE, DENSE_FP = cf.expand(P), cf.expand(P_FP)
E = ExpSumPoly(_planted(QQ), (1,))          # sum over y in {0, 1} of P(x1, y)
E_FP = ExpSumPoly(_planted(FP), (1,))
BUNDLE = cf.extract_factor(P, 1, 1, seed=0).bundle
DESIGN = cf.nw_design(4, 3)
EMPTY = Design(n=0, m=3, q=DESIGN.q, dprime=DESIGN.dprime, ell=DESIGN.ell, sets=[])
HARD = cf.ExplicitPoly(FP, 3, [FP.embed(k) for k in range(8)])
Q_FP = CircuitBuilder(FP, 4)
Q_FP = Q_FP.finish(Q_FP.add(Q_FP.inp(0), Q_FP.const(FP.one)))
HITSET = cf.HittingSet(HARD, DESIGN, 2, 3)

DEGREES = (-1, -7, 0.5, 1.5, Fraction(3, 2), True)
VARS = (-1, -3, 2, 9)                  # P has the variables 0 and 1
LENGTHS = ([], [1], [1, 2, 3])         # P takes two coordinates
SUBSETS = ((), (7,), (0, 0), (-1,), (0, 1, 2, 3), (0.5,))
CIRCUITS_ELSEWHERE = (P_FP, cf.const_circuit(FP, FP.one, 2))

# (function, the invalid values, call with one of them)
CALLS = [
    ("build_A_recurrence", DEGREES, lambda v: cf.build_A_recurrence(P, QQ.zero, v, 1)),
    ("build_A_recurrence", VARS, lambda v: cf.build_A_recurrence(P, QQ.zero, 1, v)),
    ("combine_roots", SUBSETS, lambda v: cf.combine_roots(BUNDLE, v, 1)),
    ("combine_roots", DEGREES, lambda v: cf.combine_roots(BUNDLE, (0,), v)),
    ("const_circuit", (Fraction(1, 2),), lambda v: cf.const_circuit(FP, v, 2)),
    ("const_circuit", (-1, 0.5), lambda v: cf.const_circuit(QQ, QQ.one, v)),
    ("CircuitBuilder.__init__", (-1, 0.5, True), lambda v: CircuitBuilder(QQ, v)),
    ("divides", (DENSE_FP, DensePoly.variable(QQ, 3, 2)),
     lambda v: cf.divides(v, DENSE)),
    ("expand", DEGREES, lambda v: cf.expand(P, cap=v)),
    ("expand", VARS, lambda v: cf.expand(P, at={v: DENSE})),
    ("expand", (DENSE_FP,), lambda v: cf.expand(P, at={0: v})),
    ("extract_factor", VARS, lambda v: cf.extract_factor(P, v, 1)),
    ("extract_factor", DEGREES, lambda v: cf.extract_factor(P, 1, v)),
    ("extract_factor", SUBSETS, lambda v: cf.extract_factor(P, 1, 1, subset=v)),
    ("extract_y_coeffs", VARS, lambda v: cf.extract_y_coeffs(P, v, 2)),
    ("extract_y_coeffs", DEGREES, lambda v: cf.extract_y_coeffs(P, 1, v)),
    ("factor_vnp", DEGREES, lambda v: cf.factor_vnp(E, v)),
    ("factor_vnp", SUBSETS, lambda v: cf.factor_vnp(E, 1, subset=v)),
    ("generator_set", VARS, lambda v: cf.generator_set(P, v, QQ.zero, 1)),
    ("generator_set", DEGREES, lambda v: cf.generator_set(P, 1, QQ.zero, v)),
    ("generator_set", (Fraction(1, 2),), lambda v: cf.generator_set(P_FP, 1, v, 1)),
    ("hasse_derivative_circuit", VARS, lambda v: cf.hasse_derivative_circuit(P, v, 1)),
    ("hasse_derivative_circuit", DEGREES, lambda v: cf.hasse_derivative_circuit(P, 1, v)),
    ("hasse_derivative_dense", VARS, lambda v: cf.hasse_derivative_dense(DENSE, v, 1)),
    ("hasse_derivative_dense", DEGREES, lambda v: cf.hasse_derivative_dense(DENSE, 1, v)),
    ("homog_component_dense", DEGREES, lambda v: cf.homog_component_dense(DENSE, v)),
    ("homogenize", DEGREES, lambda v: cf.homogenize(P, v)),
    ("hybrid_locate", (EMPTY,), lambda v: cf.hybrid_locate(Q_FP, HARD, v)),
    ("hybrid_locate", (P, P_FP), lambda v: cf.hybrid_locate(v, HARD, DESIGN)),
    ("input_circuit", VARS, lambda v: cf.input_circuit(QQ, v, 2)),
    ("leaf_substitute", VARS, lambda v: cf.leaf_substitute(P, {v: E})),
    ("leaf_substitute", (E_FP,), lambda v: cf.leaf_substitute(P, {0: v})),
    ("lift_root", VARS, lambda v: cf.lift_root(P, v, 1, 0)),
    ("lift_root", DEGREES, lambda v: cf.lift_root(P, 1, v, 0)),
    ("lift_root", (Fraction(1, 2),), lambda v: cf.lift_root(P_FP, 1, 1, 0, alpha=v)),
    ("lift_step", VARS, lambda v: cf.lift_step(P, P, 1, QQ.one, v)),
    ("lift_step", DEGREES, lambda v: cf.lift_step(P, P, v, QQ.one, 1)),
    ("lift_step", CIRCUITS_ELSEWHERE, lambda v: cf.lift_step(P, v, 1, QQ.one, 1)),
    ("make_monic", DEGREES, lambda v: cf.make_monic(P, v, 0, y_var=1)),
    ("make_monic", VARS, lambda v: cf.make_monic(P, 2, 0, y_var=v)),
    ("nw_design", DEGREES, lambda v: cf.nw_design(v, 3)),
    ("nw_design", DEGREES, lambda v: cf.nw_design(4, v)),
    ("pit_hitset", DEGREES, lambda v: cf.pit_hitset(Q_FP, HITSET, limit=v)),
    ("pit_hitset", (P, P_FP), lambda v: cf.pit_hitset(v, HITSET, limit=5)),
    ("pit_sz", DEGREES, lambda v: cf.pit_sz(P, v)),
    ("pit_sz", DEGREES, lambda v: cf.pit_sz(P, 2, trials=v, exhaustive=False)),
    ("prod_compose", (E_FP,), lambda v: cf.prod_compose(E, v)),
    ("sum_compose", (E_FP,), lambda v: cf.sum_compose(E, v)),
    ("sample_grid", DEGREES, lambda v: cf.sample_grid(QQ, v, 4, 0)),
    ("sample_grid", DEGREES, lambda v: cf.sample_grid(QQ, 4, v, 0)),
    ("selector_R", DEGREES, lambda v: cf.selector_R(v)),
    ("separating_shift", VARS, lambda v: cf.separating_shift(P, v, 0)),
    ("separating_shift", DEGREES + (0, True), lambda v: cf.separating_shift(P, 1, 0, r=v)),
    ("substitute", VARS, lambda v: cf.substitute(P, {v: P})),
    ("substitute", CIRCUITS_ELSEWHERE, lambda v: cf.substitute(P, {0: v})),
    ("translate", LENGTHS, lambda v: cf.translate(P, v)),
    ("truncate_deg", DEGREES, lambda v: cf.truncate_deg(P, v)),
    ("truncate_deg", VARS, lambda v: cf.truncate_deg(P, 1, scale_vars=[0, v])),
    ("truncate_dense", DEGREES, lambda v: cf.truncate_dense(DENSE, v)),
    ("univariate_roots", (DENSE,), lambda v: cf.univariate_roots(v)),
    ("valiant_step", ([], [[E] * 4], [[E] * 4 + [E_FP]]),
     lambda v: cf.valiant_step(v)),
    ("Circuit.evaluate", LENGTHS, lambda v: P.evaluate(v)),
    ("DensePoly.evaluate", LENGTHS, lambda v: DENSE.evaluate(v)),
]
# functions whose arguments admit none of the invalid kinds above: a
# circuit, an exp-sum, or text (the CLI fuzz mutates text)
NO_INVALID_KIND = {"emit_circuit", "is_formula", "exp_sum_expand", "parse_circuit"}


def test_every_exported_function_is_fuzzed():
    exported = {name for name, obj in vars(cf).items()
                if inspect.isfunction(obj) and not name.startswith("_")}
    assert exported - NO_INVALID_KIND == {name for name, _, _ in CALLS if "." not in name}


def test_invalid_arguments_raise_only_forge_errors():
    accepted = []
    for name, values, call in CALLS:
        for value in values:
            try:
                call(value)
            except ForgeError:
                continue
            accepted.append((name, value))
    assert not accepted

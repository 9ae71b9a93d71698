from fractions import Fraction

import numpy as np
import pytest

from circuitforge import (
    Circuit,
    CircuitBuilder,
    DensePoly,
    ExplicitPoly,
    PrimeField,
    Rationals,
    emit_circuit,
    expand,
    parse_circuit,
    substitute,
)
from circuitforge.circuit import drop_unused_vars, evaluate_batch, fix_vars, formal_degree_in
from circuitforge.circuit import is_formula, remap_vars
from circuitforge.dense import parse_poly
from circuitforge.fields import SIXTY_TWO_BIT_PRIME
from circuitforge.errors import (
    ArityMismatch,
    CircuitSyntaxError,
    CyclicReference,
    DanglingReference,
    InvariantViolated,
    ParameterViolation,
)
from circuitforge.circuit import const_circuit

from conftest import BIG_PRIME, SMALL_PRIME, oracle_equal, random_circuit, rng_for, x1x2_plus_1


def _example_circuit(field):
    # x1*x2 + x1
    b = CircuitBuilder(field, 2)
    x1, x2 = b.inp(0), b.inp(1)
    return b.finish(b.add(b.mul(x1, x2), x1))


def test_evaluate_hand_expansion(QQ):
    c = _example_circuit(QQ)
    assert c.evaluate([Fraction(2), Fraction(3)]) == [Fraction(8)]


def test_evaluate_at_zero_gives_constant_term(QQ):
    rng = rng_for("eval-zero")
    for k in range(20):
        c = random_circuit(QQ, rng, 3, size_limit=24, degree_limit=6)
        zeros = [QQ.zero] * 3
        assert c.evaluate1(zeros) == expand(c).constant_term()


def test_evaluate_matches_dense_oracle(QQ, Fp):
    for field, name in ((QQ, "qq"), (Fp, "fp")):
        rng = rng_for("eval-oracle-" + name)
        for k in range(60):
            c = random_circuit(field, rng, 3, size_limit=30, degree_limit=8)
            dense = expand(c)
            point = [field.embed(rng.randint(-5, 5)) for _ in range(3)]
            assert c.evaluate1(point) == dense.evaluate(point)


def test_evaluate_arity_mismatch(QQ):
    with pytest.raises(ArityMismatch):
        _example_circuit(QQ).evaluate([Fraction(1)])
    # a batch whose columns broadcast to fewer cells than its size
    for columns in ([[QQ.one] * 3, QQ.one], [np.arange(2).reshape(2, 1), np.arange(2)]):
        with pytest.raises(ArityMismatch):
            evaluate_batch(_example_circuit(QQ), columns, 5)


def test_output_counts_raise_typed_errors(QQ):
    b = CircuitBuilder(QQ, 2)
    two = b.finish([b.inp(0), b.inp(1)])
    with pytest.raises(ArityMismatch, match="single-output"):
        two.output()
    with pytest.raises(InvariantViolated, match="at least one output"):
        Circuit(QQ, 2, two.gates, [])


def test_metrics_single_input(QQ):
    b = CircuitBuilder(QQ, 1)
    c = b.finish(b.inp(0))
    m = c.metrics()
    assert (m["size"], m["depth"], m["formal_degree"]) == (0, 0, 1)


def test_metrics_sigma_pi_sigma_depth_three(QQ):
    # two products of two linear forms of two terms each
    b = CircuitBuilder(QQ, 2)
    x1, x2 = b.inp(0), b.inp(1)
    l1 = b.add(x1, x2)
    l2 = b.add(x1, b.mul(b.const(Fraction(2)), x2))
    l3 = b.add(b.mul(b.const(Fraction(3)), x1), x2)
    c = b.finish(b.add(b.mul(l1, l2), b.mul(l2, l3)))
    assert c.depth() == 3


def test_top_product_gets_virtual_add_layer(QQ):
    b = CircuitBuilder(QQ, 2)
    c = b.finish(b.mul(b.inp(0), b.inp(1)))
    assert c.depth() == 2  # one product layer + inserted top addition


def test_metrics_invariant_under_topological_permutation(QQ):
    # same DAG built in two gate orders
    b1 = CircuitBuilder(QQ, 2)
    x, y = b1.inp(0), b1.inp(1)
    c1 = b1.finish(b1.add(b1.mul(x, y), b1.mul(x, x)))
    b2 = CircuitBuilder(QQ, 2)
    y2, x2 = b2.inp(1), b2.inp(0)
    sq = b2.mul(x2, x2)
    c2 = b2.finish(b2.add(b2.mul(y2, x2), sq))
    assert c1.metrics() == c2.metrics()


def test_substitute_const_kills_variable(QQ):
    b = CircuitBuilder(QQ, 2)
    c = b.finish(b.add(b.inp(0), b.inp(1)))
    zb = CircuitBuilder(QQ, 2)
    zero = zb.finish(zb.const(QQ.zero))
    out = substitute(c, {0: zero})
    assert expand(out) == DensePoly.variable(QQ, 2, 1)


def test_substitute_empty_bindings_is_identity(QQ):
    c = _example_circuit(QQ)
    assert oracle_equal(substitute(c, {}), c)


def test_substitute_expands_binomial(QQ):
    b = CircuitBuilder(QQ, 2)
    c = b.finish(b.mul(b.inp(0), b.inp(0)))  # x1^2
    rb = CircuitBuilder(QQ, 2)
    repl = rb.finish(rb.add(rb.inp(1), rb.const(Fraction(1))))  # x2 + 1
    out = expand(substitute(c, {0: repl}))
    assert out == DensePoly(QQ, 2, {
        (0, 2): Fraction(1), (0, 1): Fraction(2), (0, 0): Fraction(1),
    })


def test_substitute_agrees_with_evaluation(QQ):
    rng = rng_for("subst-eval")
    for k in range(25):
        c = random_circuit(QQ, rng, 3, size_limit=20, degree_limit=5)
        d = random_circuit(QQ, rng, 3, size_limit=12, degree_limit=3)
        comp = substitute(c, {1: d})
        point = [QQ.embed(rng.randint(-4, 4)) for _ in range(3)]
        inner = list(point)
        inner[1] = d.evaluate1(point)
        assert comp.evaluate1(point) == c.evaluate1(inner)


def test_parse_identity_circuit(QQ):
    c = parse_circuit("field rationals\nnvars 1\ng1 = input x1\noutput g1\n")
    assert expand(c) == DensePoly.variable(QQ, 1, 0)


def test_emit_parse_roundtrip_random(QQ, Fp):
    for field, name in ((QQ, "qq"), (Fp, "fp")):
        rng = rng_for("roundtrip-" + name)
        for k in range(100):
            c = random_circuit(field, rng, 3, size_limit=26, degree_limit=7)
            again = parse_circuit(emit_circuit(c))
            assert expand(again) == expand(c)


def test_emit_is_stable_after_roundtrip(QQ):
    rng = rng_for("emit-stable")
    c = random_circuit(QQ, rng, 2, size_limit=20)
    text = emit_circuit(c)
    assert emit_circuit(parse_circuit(text)) == text


def test_parse_dangling_reference():
    with pytest.raises(DanglingReference):
        parse_circuit("field rationals\nnvars 1\ng1 = input x1\ng2 = add g1 g0\noutput g2\n")


def test_parse_cyclic_reference():
    with pytest.raises(CyclicReference):
        parse_circuit("field rationals\nnvars 1\ng1 = input x1\ng2 = add g1 g2\noutput g2\n")


def test_parse_gate_indices_strictly_increasing():
    with pytest.raises(CircuitSyntaxError):
        parse_circuit(
            "field rationals\nnvars 1\ng2 = input x1\ng1 = add g2 g2\noutput g1\n"
        )


def test_parse_rejects_bad_lines():
    for text in (
        "nvars 1\ng1 = input x1\noutput g1\n",          # field missing
        "field rationals\ng1 = input x1\noutput g1\n",  # nvars missing
        "field rationals\nnvars 1\ng1 = input x2\noutput g1\n",  # var range
        "field rationals\nnvars 1\ng1 = frob x1\noutput g1\n",   # bad op
        "field rationals\nnvars 1\ng1 = input x1\n",    # no output
    ):
        with pytest.raises(CircuitSyntaxError):
            parse_circuit(text)


def test_remap_and_drop_vars(QQ):
    b = CircuitBuilder(QQ, 3)
    c = b.finish(b.add(b.inp(0), b.inp(2)))
    moved = remap_vars(c, {0: 1, 2: 0}, 2)
    assert expand(moved) == DensePoly(QQ, 2, {(1, 0): Fraction(1), (0, 1): Fraction(1)})
    dropped = drop_unused_vars(c, [0, 2])
    assert dropped.num_vars == 2
    with pytest.raises(ArityMismatch):
        drop_unused_vars(c, [0, 1])  # x3 still referenced


def test_fix_vars_refuses_a_variable_outside_the_circuit(QQ):
    # as substitute does: a binding of a variable the circuit lacks is an error
    with pytest.raises(ArityMismatch, match="x8 out of range"):
        fix_vars(x1x2_plus_1(QQ), {7: QQ.one})


@pytest.mark.parametrize("var", [9, -1, [0, 9]])
def test_formal_degree_in_refuses_a_variable_outside_the_circuit(QQ, var):
    # degree 0 would be no bound on a variable the circuit does not have
    with pytest.raises(ArityMismatch, match="out of range"):
        formal_degree_in(x1x2_plus_1(QQ), var)


def test_drop_unused_vars_refuses_a_repeated_variable(QQ):
    # [0, 0, 1] would move x1 to slot 1 and leave slot 0 unused
    with pytest.raises(ArityMismatch, match="twice"):
        drop_unused_vars(x1x2_plus_1(QQ), [0, 0, 1])


def test_drop_unused_vars_refuses_a_variable_outside_the_circuit(QQ):
    # [-1, 0, 1] would move x1 to slot 1 and leave slot 0 unused
    with pytest.raises(ArityMismatch, match="x0 out of range"):
        drop_unused_vars(x1x2_plus_1(QQ), [-1, 0, 1])


def test_remap_vars_refuses_a_variable_outside_the_circuit(QQ):
    # as fix_vars does: renaming a variable the circuit lacks is an error
    with pytest.raises(ArityMismatch, match="x8 out of range"):
        remap_vars(x1x2_plus_1(QQ), {7: 0}, 2)


def test_is_formula(QQ):
    b = CircuitBuilder(QQ, 1, share=False)
    x = b.inp(0)
    y = b.inp(0)
    tree = b.finish(b.mul(x, y))
    assert is_formula(tree)
    b2 = CircuitBuilder(QQ, 1)
    x2 = b2.inp(0)
    shared = b2.finish(b2.mul(x2, x2))
    assert not is_formula(shared)


def _batch_matches_scalar(circ, rng, count=25):
    field = circ.field
    points = [[field.embed(rng.randint(-50, 50)) for _ in range(circ.num_vars)]
              for _ in range(count)]
    cols = [[pt[v] for pt in points] for v in range(circ.num_vars)]
    batched = [out.tolist() for out in evaluate_batch(circ, cols, count)]
    scalar = [circ.evaluate(pt) for pt in points]
    assert batched == [list(vals) for vals in zip(*scalar)]


def test_evaluate_batch_matches_evaluate(QQ):
    for field in (QQ, PrimeField(SMALL_PRIME), PrimeField(BIG_PRIME)):
        rng = rng_for("eval-batch", field.kind == "prime" and field.p)
        for k in range(15):
            _batch_matches_scalar(random_circuit(field, rng, 3, size_limit=30), rng)


def test_evaluate_batch_multi_output_and_no_variables(QQ):
    for field in (QQ, PrimeField(SMALL_PRIME), PrimeField(BIG_PRIME)):
        rng = rng_for("eval-batch-shapes", field.kind == "prime" and field.p)
        b = CircuitBuilder(field, 2)
        x1, x2 = b.inp(0), b.inp(1)
        prod = b.mul(x1, x2, x2)
        multi = b.finish([b.add(prod, b.const(field.embed(7))), x1, prod, b.const(field.embed(-3))])
        _batch_matches_scalar(multi, rng)
        b0 = CircuitBuilder(field, 0)
        c = b0.const(field.embed(-5))
        _batch_matches_scalar(b0.finish([b0.add(b0.mul(c, c), c), c]), rng, count=4)


def _near_p_circuit(field, rng, n, count):
    """Gates written directly, so no builder folding: constants near p, each
    gate chained to the one before it (long same-op runs make long product
    and sum chains), fan-in up to 16 with repeated children."""
    p = field.p
    gates = [("in", v) for v in range(n)]
    gates += [("const", p - 1 - rng.randrange(4)) for _ in range(3)]
    op = "mul"
    for _ in range(count):
        if rng.randrange(10) < 3:
            op = "add" if op == "mul" else "mul"
        fan = (2, 2, 3, 4, 8, 16)[rng.randrange(6)]
        children = (len(gates) - 1,) + tuple(rng.randrange(len(gates)) for _ in range(fan - 1))
        gates.append((op, children))
    return Circuit(field, n, gates, [len(gates) - 1, n + rng.randrange(len(gates) - n)])


def test_lazy_int64_reduction_matches_evaluate():
    # primes just below 2^31, the largest the int64 path takes: a product of
    # two residues nears 2^62, so a missed reduction wraps past 2^63
    for p in (2**31 - 1, 2147483629):
        field = PrimeField(p)
        rng = rng_for("lazy-int64", p)
        for k in range(30):
            n = 1 + k % 3
            circ = _near_p_circuit(field, rng, n, 12 + k)
            near = [p - 1, p - 2, p // 2]
            points = [[near[rng.randrange(3)] if rng.randrange(10) < 3 else rng.randrange(p)
                       for _ in range(n)] for _ in range(12)]
            cols = [np.array([pt[v] for pt in points], dtype=np.int64) for v in range(n)]
            got = [out.tolist() for out in evaluate_batch(circ, cols, len(points))]
            assert got == [list(vals) for vals in zip(*map(circ.evaluate, points))]
            # a grid batch: the last column 0..g-1, the others broadcast scalars
            g = 2 + k % 5
            high = [rng.randrange(g) for _ in range(n - 1)]
            got = [out.tolist() for out in evaluate_batch(circ, high + [np.arange(g)], g)]
            want = [circ.evaluate(high + [a]) for a in range(g)]
            assert got == [list(vals) for vals in zip(*want)]
    # At the edge, over p = 2^31 - 1: s = x3 + x4 + 9 is at most 2^32 + 5,
    # and (p - 1)(2^32 + 5) = 2^63 + 2^31 - 10 wraps, while (p - 2)(2^32 + 5)
    # does not. x1 * s is right only if an input is bounded by p - 1, and
    # s times x1 x2 (which is p - 1 mod p at x1 = p - 1, x2 = 1) only if a
    # reduced first child, later child or accumulator is bounded by p - 1.
    p = 2**31 - 1
    s = ("add", (2, 3, 4))
    x1x2 = ("mul", (0, 1))
    gates = [("in", 0), ("in", 1), ("in", 2), ("in", 3), ("const", 9),
             s, ("mul", (0, 5)),             # 6: x1 * s
             x1x2, s, ("mul", (7, 8)),       # 9: (x1 x2) * s
             s, x1x2, ("mul", (10, 11)),     # 12: s * (x1 x2)
             s, ("mul", (0, 1, 13))]         # 14: x1 * x2 * s
    circ = Circuit(PrimeField(p), 4, gates, [6, 9, 12, 14])
    points = [[p - 1] * 4, [p - 1, 1, p - 1, p - 1], [p - 2, p - 1, p - 3, p - 1], [1, 2, 3, 4]]
    cols = [np.array([pt[v] for pt in points], dtype=np.int64) for v in range(4)]
    got = [out.tolist() for out in evaluate_batch(circ, cols, len(points))]
    assert got == [list(vals) for vals in zip(*map(circ.evaluate, points))]


HEADER_CASES = [
    # (parser, text, line of the error)
    (parse_circuit, "g1 = input x1\noutput g1\n", 1),
    (parse_circuit, "field rationals\nnvars 1\ng1 = input x1\nnvars 1\noutput g1\n", 4),
    (parse_circuit, "# comment\n\nfield reals\nnvars 1\ng1 = input x1\noutput g1\n", 3),
    (parse_poly, "1 : 1\n", 1),
    (parse_poly, "field rationals\nnvars 1\n1 : 1\nfield rationals\n", 4),
    (parse_poly, "field prime 1\nnvars 1\n1 : 1\n", 1),
    (parse_poly, "field rationals\nnvars 2\n\n1 : 1\n", 4),  # wrong exponent count
    (ExplicitPoly.parse_table, "0 5\n7 3\n", 1),
    (ExplicitPoly.parse_table, "field prime 101\nm 2\n0 5\nm 2\n", 4),
    (ExplicitPoly.parse_table, "field prime x\nm 2\n0 5\n", 1),
    (ExplicitPoly.parse_table, "field prime 101\nm 2\n0 5\n4 1\n", 4),  # mask out of range
    (parse_circuit, "field prime 2\nnvars 1\ng1 = input x1\noutput g1\n", 1),  # PrimeField refuses
]


@pytest.mark.parametrize("parse, text, line_no", HEADER_CASES)
def test_text_formats_report_line_numbers(parse, text, line_no):
    with pytest.raises(CircuitSyntaxError) as info:
        parse(text)
    assert info.value.line_no == line_no


# -- canonicalization on native numbers ----------------------------------------

class ReferenceBuilder(CircuitBuilder):
    """add and mul through Field methods: the canonicalization that the
    builder's native-number add and mul must reproduce gate for gate."""

    def add(self, *children):
        field = self.field
        coeffs = {}
        order = []
        csum = field.zero
        for c in children:
            g = self._gates[c]
            if g[0] == "const":
                csum = field.add(csum, g[1])
                continue
            coeff, core = field.one, c
            if g[0] == "mul" and len(g[1]) == 2:
                ga, gb = self._gates[g[1][0]], self._gates[g[1][1]]
                if ga[0] == "const" and gb[0] != "const":
                    coeff, core = ga[1], g[1][1]
                elif gb[0] == "const" and ga[0] != "const":
                    coeff, core = gb[1], g[1][0]
            if core not in coeffs:
                order.append(core)
                coeffs[core] = coeff
            else:
                coeffs[core] = field.add(coeffs[core], coeff)
        live = []
        for core in order:
            w = coeffs[core]
            if w == field.zero:
                continue
            live.append(core if w == field.one else self.mul(self.const(w), core))
        if csum != field.zero or not live:
            live.append(self.const(csum))
        if len(live) == 1:
            return live[0]
        return self._emit(("add", tuple(sorted(live))))

    def mul(self, *children):
        field = self.field
        live = []
        cprod = field.one
        for c in children:
            g = self._gates[c]
            if g[0] == "const":
                cprod = field.mul(cprod, g[1])
            else:
                live.append(c)
        if cprod == field.zero:
            return self.const(field.zero)
        if cprod != field.one or not live:
            live.append(self.const(cprod))
        if len(live) == 1:
            return live[0]
        return self._emit(("mul", tuple(sorted(live))))


def _random_element(field, rng):
    """0, 1 and -1 often, so that products fold and coefficients cancel."""
    pick = rng.randrange(6)
    if pick < 3:
        return field.embed(pick - 1)
    if field.kind == "rationals":
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return field.embed(rng.randrange(field.p))


def _run_program(builder, field, rng, steps=40):
    """A seeded gate program: constants, inputs, sums, products, scalar
    multiples (nested ones too), cancelling pairs and powers. Steps refer to
    earlier results by position, so two builders that emit different raw ids
    still run the same program. Returns the finished circuit."""
    n = builder.num_vars
    made = [builder.inp(v) for v in range(n)] + [builder.const(_random_element(field, rng))]
    for _ in range(steps):
        kind = rng.randrange(8)
        pick = [made[rng.randrange(len(made))] for _ in range(rng.randint(1, 4))]
        if kind == 0:
            gid = builder.const(_random_element(field, rng))
        elif kind == 1:
            gid = builder.add(*pick)
        elif kind == 2:
            gid = builder.mul(*pick[:3])
        elif kind == 3:
            gid = builder.scale(_random_element(field, rng), pick[0])
        elif kind == 4:  # a scalar of a scalar
            inner = builder.scale(_random_element(field, rng), pick[0])
            gid = builder.mul(builder.const(_random_element(field, rng)), inner)
        elif kind == 5:  # c * g + d * g + e * g with c + d + e often 0
            c, d = _random_element(field, rng), _random_element(field, rng)
            e = field.neg(field.add(c, d)) if rng.randrange(2) else _random_element(field, rng)
            gid = builder.add(*(builder.scale(w, pick[0]) for w in (c, d, e)), *pick[1:])
        elif kind == 6:  # products of constants fold, to 0 or 1 when they cancel
            a = _random_element(field, rng)
            inv = field.inv(a) if a != field.zero else field.zero
            gid = builder.mul(builder.const(a), builder.const(inv), *pick[:2])
        else:
            gid = builder.sub(pick[0], builder.power(pick[-1], rng.randint(0, 3)))
        made.append(gid)
    outs = [made[rng.randrange(len(made))] for _ in range(3)]
    return builder.finish(outs)


CANON_FIELDS = [PrimeField(7), PrimeField(101), PrimeField(SIXTY_TWO_BIT_PRIME), Rationals()]


@pytest.mark.parametrize("field", CANON_FIELDS, ids=["F7", "F101", "F2^62-57", "QQ"])
@pytest.mark.parametrize("share", [True, False], ids=["shared", "tree"])
def test_native_canonicalization_matches_field_methods(field, share):
    for k in range(60):
        got, want = (_run_program(cls(field, 3, share=share), field,
                                  rng_for(f"canon-{field!r}-{share}", k))
                     for cls in (CircuitBuilder, ReferenceBuilder))
        assert (got.gates, got.outputs) == (want.gates, want.outputs), k
        for gate in got.gates:
            if gate[0] == "const":
                assert field.check(gate[1]) is gate[1]  # a Fraction over Q, a residue mod p


RATIONAL_CONSTANTS = """field rationals
nvars 3
g1 = input x1
g2 = input x2
g3 = input x3
g4 = const 3/7
g5 = const -5/2
g6 = const 4
g7 = mul g4 g1 g2
g8 = mul g5 g3
g9 = add g7 g8 g6
g10 = add g9 g1
g11 = mul g10 g9 g5
output g11
"""


def test_the_builder_memo_hashes_no_fraction(monkeypatch, QQ):
    # over Q the memo keys a constant by numerator and denominator: a
    # Fraction's hash is a modular inverse, paid on every constant lookup
    calls = []
    fraction_hash = Fraction.__hash__
    monkeypatch.setattr(Fraction, "__hash__", lambda v: calls.append(v) or fraction_hash(v))
    parsed = parse_circuit(RATIONAL_CONSTANTS)
    b = CircuitBuilder(QQ, 3)
    b.import_circuit(parsed)  # the canonical copy
    b.import_circuit(parsed, {0: b.inp(1)})  # re-canonicalized: x1 and x2 both land on x2
    b.add(b.const(Fraction(3, 7)), b.const(Fraction(3, 7)), b.inp(0))
    monkeypatch.undo()
    assert calls == []


def _fresh_walk(circ):
    seen, stack = set(circ.outputs), list(circ.outputs)
    while stack:
        gate = circ.gates[stack.pop()]
        if gate[0] in ("add", "mul"):
            stack += [c for c in gate[1] if c not in seen]
            seen.update(gate[1])
    return sorted(seen)


def test_cached_reachable_equals_a_fresh_walk(QQ):
    b = CircuitBuilder(QQ, 3)
    x1, x2, x3 = b.inp(0), b.inp(1), b.inp(2)
    left = b.mul(x1, x2)
    right = b.add(x3, b.const(QQ.embed(5)))
    multi = b.finish([left, right, b.add(left, right)])
    hand = Circuit(QQ, 2, [("in", 0), ("in", 1), ("const", QQ.one), ("add", (0, 2))], [3])
    for circ in (multi, hand, random_circuit(QQ, rng_for("reach"), 3)):
        assert circ.reachable() == _fresh_walk(circ)
        assert circ.reachable() is circ.reachable()  # walked once
    assert hand.reachable() == [0, 2, 3]
    views = [Circuit(multi.field, multi.num_vars, multi.gates, [o]) for o in multi.outputs]
    orders = [view.reachable() for view in views]
    assert orders == [_fresh_walk(view) for view in views]
    assert orders[0] != orders[1] and orders[2] == multi.reachable()


def test_builder_refuses_a_negative_variable_count():
    with pytest.raises(ParameterViolation, match="variable count"):
        CircuitBuilder(Rationals(), -1)


def test_const_circuit_refuses_a_negative_variable_count():
    with pytest.raises(ParameterViolation, match="variable count"):
        const_circuit(Rationals(), Fraction(1), -1)

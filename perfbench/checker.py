"""Exact checker, independent of the code it checks.

Circuits are evaluated by walking `Circuit.gates` / `Circuit.outputs` in
plain Python arithmetic: `Fraction` over the rationals, ints reduced mod p
over a prime field. Planted polynomials are plain `{exponents: coeff}`
dicts evaluated term by term. Nothing here calls `dense.expand` or
`Circuit.evaluate`, so a fault in either cannot hide itself.
"""

from __future__ import annotations

from fractions import Fraction


class Arith:
    """Exact arithmetic for one field, read from the field's `kind`/`p`."""

    def __init__(self, field):
        self.p = field.p if field.kind == "prime" else None

    def norm(self, v):
        return Fraction(v) if self.p is None else v % self.p

    def add(self, a, b):
        return a + b if self.p is None else (a + b) % self.p

    def mul(self, a, b):
        return a * b if self.p is None else (a * b) % self.p

    def sub(self, a, b):
        return a - b if self.p is None else (a - b) % self.p

    def div(self, a, b):
        if self.p is None:
            return Fraction(a) / b
        return a * pow(b, -1, self.p) % self.p

    def is_zero(self, v):
        return v == 0


def eval_circuit(circ, point):
    """Values of every output of `circ` at `point`, by a gate walk."""
    ar = Arith(circ.field)
    p = ar.p
    vals = []
    for gate in circ.gates:
        op = gate[0]
        if op == "in":
            vals.append(point[gate[1]])
        elif op == "const":
            vals.append(gate[1])
        elif op == "add":
            acc = 0
            for c in gate[1]:
                acc += vals[c]
            vals.append(acc if p is None else acc % p)
        else:
            acc = 1
            for c in gate[1]:
                acc *= vals[c]
                if p is not None:
                    acc %= p
            vals.append(acc)
    return [ar.norm(vals[o]) for o in circ.outputs]


def eval1(circ, point):
    return eval_circuit(circ, point)[0]


def eval_dense(field, terms, point):
    """Value of `{exponent tuple: coeff}` at `point`."""
    ar = Arith(field)
    acc = ar.norm(0)
    for e, c in terms.items():
        v = c
        for x, k in zip(point, e):
            if k:
                v = ar.mul(v, x**k if ar.p is None else pow(x, k, ar.p))
        acc = ar.add(acc, v)
    return acc


def cube_sum(verifier, aux, point_x):
    """Sum of the verifier over the Boolean cube of its auxiliaries, at the
    x-point `point_x` (x-variables are the non-auxiliary ones, in order)."""
    ar = Arith(verifier.field)
    aux = list(aux)
    aux_set = set(aux)
    x_vars = [i for i in range(verifier.num_vars) if i not in aux_set]
    full = [0] * verifier.num_vars
    for xi, v in zip(x_vars, point_x):
        full[xi] = v
    acc = ar.norm(0)
    for mask in range(1 << len(aux)):
        for j, a in enumerate(aux):
            full[a] = mask >> j & 1
        acc = ar.add(acc, eval1(verifier, full))
    return acc


def wires(circ):
    """Wire count (sum of fan-ins over gates reachable from the outputs)."""
    gates = circ.gates
    seen = set(circ.outputs)
    stack = list(circ.outputs)
    total = 0
    while stack:
        g = gates[stack.pop()]
        if g[0] in ("add", "mul"):
            total += len(g[1])
            for c in g[1]:
                if c not in seen:
                    seen.add(c)
                    stack.append(c)
    return total


def formal_degree(circ, only=None):
    """Formal degree of the output, counting only variables in `only`."""
    deg = []
    for gate in circ.gates:
        op = gate[0]
        if op == "in":
            deg.append(1 if only is None or gate[1] in only else 0)
        elif op == "const":
            deg.append(0)
        elif op == "add":
            deg.append(max(deg[c] for c in gate[1]))
        else:
            deg.append(sum(deg[c] for c in gate[1]))
    return max(deg[o] for o in circ.outputs)


def interpolate(ar, values):
    """Coefficients c_0..c_D of the polynomial taking values[t] at t = 0..D
    (Newton divided differences, exact)."""
    n = len(values)
    coef = list(values)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coef[i] = ar.div(ar.sub(coef[i], coef[i - 1]), ar.norm(j))
    # Newton form -> monomial form
    poly = [ar.norm(0)] * n
    for i in range(n - 1, -1, -1):
        # poly = poly * (t - i) + coef[i]
        shifted = [ar.norm(0)] + poly[:-1]
        poly = [ar.sub(shifted[k], ar.mul(ar.norm(i), poly[k])) for k in range(n)]
        poly[0] = ar.add(poly[0], coef[i])
    return poly

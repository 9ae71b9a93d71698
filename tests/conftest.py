"""Shared generators for the test suite.

Everything is seeded through circuitforge.seeding so reruns are identical.
"""

from fractions import Fraction

import pytest

from circuitforge import CircuitBuilder, DensePoly, PrimeField, Rationals, expand, lifting
from circuitforge.seeding import Rng, stream

SMALL_PRIME = 1_000_003
BIG_PRIME = 4611686018427387847  # 62 bits


@pytest.fixture
def QQ():
    return Rationals()


@pytest.fixture
def Fp():
    return PrimeField(SMALL_PRIME)


def x1x2_plus_1(field):
    """x1*x2 + 1 over two variables."""
    b = CircuitBuilder(field, 2)
    return b.finish(b.add(b.mul(b.inp(0), b.inp(1)), b.const(field.one)))


def random_circuit(field, rng: Rng, n, size_limit=30, degree_limit=8, outputs_from_any=False):
    """Random circuit with formal degree <= degree_limit, wires <= size_limit."""
    b = CircuitBuilder(field, n)
    pool = [(b.inp(i), 1) for i in range(n)]
    for _ in range(3):
        pool.append((b.const(field.embed(rng.randint(-4, 4))), 0))
    wires = 0
    gid, deg = pool[rng.randrange(len(pool))]
    while wires < size_limit:
        op = rng.randrange(3)
        a, da = pool[rng.randrange(len(pool))]
        if op == 0:
            c, dc = pool[rng.randrange(len(pool))]
            gid, deg = b.add(a, c), max(da, dc)
        elif op == 1:
            c, dc = pool[rng.randrange(len(pool))]
            if da + dc > degree_limit:
                continue
            gid, deg = b.mul(a, c), da + dc
        else:
            gid, deg = b.add(a, b.const(field.embed(rng.randint(-3, 3)))), da
        pool.append((gid, deg))
        wires += 2
    if outputs_from_any:
        gid, deg = pool[rng.randrange(len(pool))]
    return b.finish(gid)


def random_sparse_poly(field, rng: Rng, n, deg, terms, coeff_bound=9):
    """Random sparse DensePoly, degree <= deg, at most `terms` monomials."""
    out = {}
    for _ in range(terms):
        budget = deg
        e = []
        for _ in range(n):
            k = rng.randrange(budget + 1)
            e.append(k)
            budget -= k
        c = field.embed(rng.randint(1, coeff_bound) * (1 if rng.randrange(2) else -1))
        out[tuple(e)] = c
    return DensePoly(field, n, out)


def linear_form_gate(b, field, rng, x_vars, const_value, coeff_bound=5):
    """Gate computing const + sum c_i * x_i with small random coefficients."""
    parts = [b.const(const_value)]
    for v in x_vars:
        c = rng.randint(-coeff_bound, coeff_bound)
        if c:
            parts.append(b.mul(b.const(field.embed(c)), b.inp(v)))
    return b.add(*parts) if len(parts) > 1 else parts[0]


def plant_linear_product(field, rng, n, y, consts, coeff_bound=4):
    """Circuit for prod_i (y - L_i) with L_i(0) = consts[i]; returns
    (circuit over n+1 vars with y last when y == n, dense forms of L_i)."""
    nv = max(n + 1, y + 1)
    b = CircuitBuilder(field, nv)
    x_vars = [i for i in range(nv) if i != y]
    factors = []
    forms = []
    for cval in consts:
        parts = {(0,) * nv: cval}
        gate_parts = [b.const(cval)]
        for v in x_vars:
            c = rng.randint(-coeff_bound, coeff_bound)
            if c:
                e = [0] * nv
                e[v] = 1
                parts[tuple(e)] = field.embed(c)
                gate_parts.append(b.mul(b.const(field.embed(c)), b.inp(v)))
        form_gate = b.add(*gate_parts) if len(gate_parts) > 1 else gate_parts[0]
        factors.append(b.sub(b.inp(y), form_gate))
        forms.append(DensePoly(field, nv, parts))
    prod = b.mul(*factors) if len(factors) > 1 else factors[0]
    return b.finish(prod), forms


def dense_product(forms, y, nv):
    """prod (y - L_i) densely, for cross-checking planted circuits."""
    field = forms[0].field
    acc = DensePoly.const(field, nv, field.one)
    yv = DensePoly.variable(field, nv, y)
    for f in forms:
        acc = acc * (yv - f)
    return acc


def record_generator_sets(monkeypatch) -> list:
    """Every GeneratorSet the lift builds from here on, in build order."""
    real, built = lifting.generator_set, []

    def spy(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(lifting, "generator_set", spy)
    return built


def oracle_equal(c1, c2) -> bool:
    return expand(c1) == expand(c2)


def rng_for(test_name: str, k: int = 0) -> Rng:
    return stream(20260810, test_name, str(k))


def fr(a, b=1):
    return Fraction(a, b)

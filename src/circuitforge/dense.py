"""Brute-force dense (sparse-map) polynomial oracle.

DensePoly is the ground-truth representation: an exact map from exponent
vectors to nonzero coefficients. Circuits get expanded into it (under a
budget), and every pipeline identity in this package is checkable against
it at desk scale: equality, divisibility with multiplicity, Hasse
derivatives, homogeneous components, and base-field roots of univariates.

The oracle deliberately does not factor: the pipeline under test is the
factorizer, the oracle only multiplies, divides and compares.

The packed integer kernel (`_product_terms`) has two entries, expansion
(`expand_outputs`) and composition (`compose`); a DensePoly product is
the composition of x_0 x_1. DensePoly keeps its tuple keys outside it.

- Monomials. One key function (`_key`) packs the exponent vector
  (e_0, ..., e_{n-1}) and its total degree as sum(e_j << w*j) +
  (sum(e) << w*n), with w = D.bit_length(), D the circuit's formal degree
  (for a composition, the largest degree of a term once composed). An ADD
  gate's formal degree is the max of its children's and a MUL gate's their
  sum, so no slot of a reachable gate's keys exceeds D < 2^w: a field never
  overflows into the next, and multiplying two monomials is adding keys.
- Cap. The degree slot makes a degree bound one comparison:
  `expand_outputs(cap=c)` and `compose(cap=c)` drop each input and product
  key of degree above c, and since exponents are non-negative no dropped
  monomial could come back, so each output is exactly H_<=c; a capped call
  certifies claims about H_<=c only. Kept keys have degree at most c, so w
  comes from min(D, c): a product that carries out of a slot is dropped.
- Division. The degree slot makes integer order a graded monomial order,
  under which `_try_divide` leaves no remainder term of degree above the
  dividend's; an exact quotient does not depend on the order.
- Bound inputs. `expand_outputs(at={v: value})` expands the circuit with
  variable v set to a DensePoly over its own variable space: v's input
  gates start from the value's packed terms and denominator (those of
  degree above the cap dropped), and no substituted copy is built. For the
  width such an input's formal degree is its value's total degree, so D
  still bounds every reachable gate's exponents, and w, the cap and the
  per-gate term and degree checks hold as above. An empty `at` is the
  plain expansion.
- Coefficients. Over F_p they are residues mod p. Over Q each gate holds
  integer numerators over one common denominator, divided through by one
  gcd per gate; Fractions are built only at the outputs. Division runs on
  the coefficients themselves: residues, or Fractions over Q. No function
  of the kernel calls a Field method.
- Order. A sum that reaches zero leaves the map at once, as in a
  term-by-term field walk, so every uncapped map has the same key order as
  one; the per-row partial-product budget check depends on that order.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .circuit import ADD, CONST, IN, Circuit, CircuitBuilder, _check_var, _gate_degrees, field_line
from .circuit import parse_header, parse_value
from .errors import (
    ArityMismatch,
    BudgetExceeded,
    CircuitSyntaxError,
    ParameterViolation,
    SearchExhausted,
    ZeroDivisor,
    ZeroPolynomial,
    check_int,
)
from .fields import Field, PrimeField, is_prime, same_field


@dataclass(frozen=True)
class ExpansionBudget:
    max_terms: int = 200_000
    max_degree: int = 64

    def __post_init__(self):
        if self.max_terms <= 0 or self.max_degree <= 0:
            raise ParameterViolation("budget bounds must be positive")


DEFAULT_BUDGET = ExpansionBudget()

# shifts tried per factor by the equal-degree split of _linear_roots_prime;
# each splits a product of distinct linear factors with probability about
# 1/2, and after the free split at shift 0, tier-1 plus one seed-1 round of
# every perfbench workload never needed more than 7
SPLIT_SHIFT_LIMIT = 64

# rational roots are Hensel-lifted from a prime >= _ROOT_PRIME_START; a part
# rules out the finitely many primes that divide its lead or discriminant
_ROOT_PRIME_START = 2**13
_ROOT_PRIME_TRIES = 32


class DensePoly:
    """Multivariate polynomial as {exponent tuple: nonzero coefficient}."""

    __slots__ = ("field", "n", "terms")

    def __init__(self, field: Field, n: int, terms: dict):
        self.field = field
        self.n = n
        self.terms = {e: c for e, c in terms.items() if c != field.zero}

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, field, n):
        return cls(field, n, {})

    @classmethod
    def const(cls, field, n, value):
        return cls(field, n, {(0,) * n: value})

    @classmethod
    def variable(cls, field, n, var):
        e = [0] * n
        e[var] = 1
        return cls(field, n, {tuple(e): field.one})

    @classmethod
    def monomial(cls, field, n, exps, coeff):
        return cls(field, n, {tuple(exps): coeff})

    # -- basic queries --------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def total_degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, var):
        if not self.terms:
            return -1
        return max(e[var] for e in self.terms)

    def constant_term(self):
        return self.terms.get((0,) * self.n, self.field.zero)

    def coeff(self, exps):
        return self.terms.get(tuple(exps), self.field.zero)

    def __eq__(self, other):
        return (
            isinstance(other, DensePoly)
            and self.field == other.field
            and self.n == other.n
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.field, self.n, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "<DensePoly 0>"
        return f"<DensePoly n={self.n} terms={len(self.terms)} deg={self.total_degree()}>"

    # -- arithmetic ------------------------------------------------------------

    def _like(self, other):
        same_field(self.field, other.field)
        if self.n != other.n:
            raise ArityMismatch(f"variable count mismatch: {self.n} vs {other.n}")

    def __add__(self, other):
        self._like(other)
        field = self.field
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = field.add(terms.get(e, field.zero), c)
            if s == field.zero:
                terms.pop(e, None)
            else:
                terms[e] = s
        return DensePoly(field, self.n, terms)

    def __neg__(self):
        field = self.field
        return DensePoly(field, self.n, {e: field.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._like(other)
        return compose(DensePoly.monomial(self.field, 2, (1, 1), self.field.one), [self, other])

    def scale(self, value):
        field = self.field
        if value == field.zero:
            return DensePoly.zero(field, self.n)
        return DensePoly(field, self.n, {e: field.mul(c, value) for e, c in self.terms.items()})

    def evaluate(self, point):
        field = self.field
        if len(point) != self.n:
            raise ArityMismatch("point arity mismatch")
        acc = field.zero
        for e, c in self.terms.items():
            v = c
            for i, exp in enumerate(e):
                if exp:
                    v = field.mul(v, field.pow(point[i], exp))
            acc = field.add(acc, v)
        return acc

    def with_vars(self, new_n: int, var_map: dict | None = None):
        """Re-embed into a different variable space."""
        terms = {}
        for e, c in self.terms.items():
            new_e = [0] * new_n
            for i, exp in enumerate(e):
                if exp:
                    j = var_map[i] if var_map else i
                    new_e[j] = exp
            terms[tuple(new_e)] = c
        return DensePoly(self.field, new_n, terms)


# -- packed integer kernel (see the module docstring) ------------------------------
# A packed term map has int keys and int coefficients: residues in [0, p)
# over F_p; over Q, numerators over a common denominator kept beside the map.

def _pack(e, w: int) -> int:
    key = 0
    for x in reversed(e):
        key = key << w | x
    return key


def _unpack(key: int, n: int, w: int) -> tuple:
    mask = (1 << w) - 1
    return tuple([key >> w * j & mask for j in range(n)])


def _key(e, w: int) -> int:
    """The packed key of the exponent vector e: its exponents, then its
    total degree in the top slot."""
    return _pack((*e, sum(e)), w)


def _modulus(field: Field):
    """p over F_p; None over Q, whose coefficients are integer numerators."""
    return field.p if isinstance(field, PrimeField) else None


def _to_ints(terms: dict, w: int, p, cap: int) -> tuple:
    """(packed term map, denominator) of the terms of degree <= cap of a
    tuple-key term map."""
    kept = {e: c for e, c in terms.items() if sum(e) <= cap}
    if p is not None:
        return {_key(e, w): c for e, c in kept.items()}, 1
    den = math.lcm(*(c.denominator for c in kept.values()))
    return {_key(e, w): c.numerator * (den // c.denominator) for e, c in kept.items()}, den


def _from_ints(terms: dict, den: int, n: int, w: int, p) -> dict:
    """Tuple-key term map with field coefficients of a packed term map."""
    if p is not None:
        return {_unpack(k, n, w): c for k, c in terms.items()}
    return {_unpack(k, n, w): Fraction(c, den) for k, c in terms.items()}


def _add_into(out: dict, terms: dict, scale: int, p) -> None:
    """out += scale * terms, in place; zero sums leave out as they occur."""
    get = out.get
    for k, v in terms.items():
        s = get(k, 0) + v * scale
        if p is not None:
            s %= p
        if s:
            out[k] = s
        else:
            del out[k]


def _product_terms(a: dict, b: dict, p, max_terms=None, bound=None) -> dict:
    """Packed term map of the product of two packed term maps: keys add,
    coefficients multiply (mod p when p is given). Zero sums leave the map
    as they occur, so its key order is that of a term-by-term field walk.
    With bound, keys >= bound never enter it: each row walks b in key order
    up to the bound. With max_terms, raises BudgetExceeded as soon as a row
    of the smaller operand leaves the partial product with more terms."""
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1 and 0 in a:  # a constant factor scales b: no sum can vanish
        c, items = a[0], b.items() if bound is None else sorted(t for t in b.items() if t[0] < bound)
        prod = {k: v * c for k, v in items} if p is None else {k: v * c % p for k, v in items}
        if max_terms is not None and len(prod) > max_terms:
            raise BudgetExceeded("terms", f"over {max_terms} terms")
        return prod
    prod: dict = {}
    get = prod.get
    b_items = list(b.items()) if bound is None else sorted(b.items())
    b_keys = None if bound is None else [kb for kb, _ in b_items]
    for ka, ca in a.items():
        row = b_items if bound is None else b_items[:bisect_left(b_keys, bound - ka)]
        for kb, cb in row:
            k = ka + kb
            s = get(k, 0) + ca * cb
            if p is not None:
                s %= p
            if s:
                prod[k] = s
            else:
                del prod[k]
        if max_terms is not None and len(prod) > max_terms:
            raise BudgetExceeded("terms", f"over {max_terms} terms")
    return prod


def expand(circ: Circuit, budget: ExpansionBudget = DEFAULT_BUDGET, cap=None,
           at=None) -> DensePoly:
    """Exact polynomial computed by a single-output circuit; H_<=cap of it
    with cap, and with each variable v in `at` set to at[v] (see
    expand_outputs)."""
    out = expand_outputs(circ, budget, cap, at)
    if len(out) != 1:
        raise ArityMismatch("expand needs a single-output circuit")
    return out[0]


def expand_outputs(circ: Circuit, budget: ExpansionBudget = DEFAULT_BUDGET, cap=None,
                   at=None) -> list:
    """The exact polynomial of each output; H_<=cap of each with cap. `at`
    maps variables to DensePolys over the circuit's variable space, and each
    such variable's input gates start from its value: the outputs are those
    of the circuit with the values substituted, with no copy of it built."""
    field = circ.field
    n = circ.num_vars
    p = _modulus(field)
    at = at or {}
    for v, value in at.items():
        _check_var(circ, v)
        same_field(field, value.field)
        if value.n != n:
            raise ArityMismatch(f"value of x{v + 1} has {value.n} variables, circuit has {n}")
    gates = circ.gates
    order = circ.reachable()
    # formal degrees bound every exponent a gate carries; a parent's is never
    # below its child's, so no gate exceeds the outputs' maximum, which with
    # nothing bound is the circuit's cached formal degree
    degs = {v: max(value.total_degree(), 0) for v, value in at.items()}
    fdeg = _gate_degrees(circ, order, at=degs) if at else None
    top = circ.formal_degree() if fdeg is None else max(fdeg[o] for o in circ.outputs)
    check_degree = top > budget.max_degree  # else no gate can exceed it
    if check_degree and fdeg is None:
        fdeg = _gate_degrees(circ, order)
    if cap is not None:
        check_int("degree cap", cap)
    kept = top if cap is None else min(top, cap)  # no kept key has a larger degree
    w = max(1, kept.bit_length())
    shift = w * n  # the total-degree slot
    bound = None if cap is None else (cap + 1) << shift  # least key of degree > cap
    max_terms = budget.max_terms
    start = {v: _to_ints(value.terms, w, p, kept) for v, value in at.items()}
    values = [None] * len(gates)  # gate -> packed term map
    dens = [1] * len(gates)       # gate -> denominator of its numerators (1 over F_p)
    for i in order:
        op, arg = gates[i]
        if op == IN and arg not in start:  # degree 1, above a cap of 0
            values[i] = {} if cap == 0 else {(1 << w * arg) | (1 << shift): 1}
            continue
        if op == CONST:
            values[i] = {0: arg.numerator} if arg else {}
            dens[i] = arg.denominator
            continue
        if op == IN:  # a bound input: its value, read only
            out, den = start[arg]
        elif len(arg) == 2 and op == ADD:  # the general sum below, on two children
            a, b = arg if len(values[arg[0]]) >= len(values[arg[1]]) else arg[::-1]
            den = 1 if p is not None else math.lcm(dens[a], dens[b])
            out = dict(values[a]) if den == dens[a] else {
                k: v * (den // dens[a]) for k, v in values[a].items()}
            _add_into(out, values[b], den // dens[b], p)
        elif len(arg) == 2:  # _product_terms orders its operands itself
            out = _product_terms(values[arg[0]], values[arg[1]], p, max_terms, bound)
            den = dens[arg[0]] * dens[arg[1]]
        elif op == ADD:
            kids = sorted(arg, key=lambda c: len(values[c]), reverse=True)
            den = math.lcm(*(dens[c] for c in kids))
            first = values[kids[0]]
            scale = den // dens[kids[0]]
            out = dict(first) if scale == 1 else {k: v * scale for k, v in first.items()}
            for c in kids[1:]:
                _add_into(out, values[c], den // dens[c], p)
        else:
            kids = sorted(arg, key=lambda c: len(values[c]))
            out = values[kids[0]]
            den = dens[kids[0]]
            for c in kids[1:]:
                out = _product_terms(out, values[c], p, max_terms, bound)
                den *= dens[c]
        if len(out) > max_terms:
            raise BudgetExceeded("terms", f"{len(out)} > {max_terms}")
        if den != 1:
            g = math.gcd(den, *out.values())
            if g != 1:
                out = {k: v // g for k, v in out.items()}
                den //= g
        values[i] = out
        dens[i] = den
        if check_degree and fdeg[i] > budget.max_degree and out:
            # the formal bound over-approximates; the top key has the actual degree
            actual = max(out) >> shift
            if actual > budget.max_degree:
                raise BudgetExceeded("degree", f"{actual} > {budget.max_degree}")
    return [DensePoly(field, n, _from_ints(values[o], dens[o], n, w, p)) for o in circ.outputs]


def circuit_from_dense(p: DensePoly) -> Circuit:
    """Sum-of-monomials circuit computing p (a depth-2 normal form)."""
    b = CircuitBuilder(p.field, p.n)
    parts = []
    for e in sorted(p.terms):
        c = p.terms[e]
        factors = [b.const(c)]
        for var, exp in enumerate(e):
            factors.extend([b.inp(var)] * exp)
        parts.append(b.mul(*factors) if len(factors) > 1 else factors[0])
    if not parts:
        return b.finish(b.const(p.field.zero))
    return b.finish(b.add(*parts) if len(parts) > 1 else parts[0])


# -- structural operators ------------------------------------------------------

def hasse_derivative_dense(p: DensePoly, var: int, k: int) -> DensePoly:
    """Coefficient of z^k in p with `var` shifted by z (Hasse derivative)."""
    check_int("derivative order", k)
    if not 0 <= var < p.n:
        raise ArityMismatch(f"variable x{var + 1} out of range (nvars={p.n})")
    if k == 0:
        return p
    field = p.field
    terms = {}
    for e, c in p.terms.items():
        if e[var] < k:
            continue
        w = field.mul(c, field.embed(math.comb(e[var], k)))
        if w == field.zero:
            continue
        ne = list(e)
        ne[var] -= k
        ne = tuple(ne)
        s = field.add(terms.get(ne, field.zero), w)
        if s == field.zero:
            terms.pop(ne, None)
        else:
            terms[ne] = s
    return DensePoly(field, p.n, terms)


def homog_component_dense(p: DensePoly, k: int) -> DensePoly:
    check_int("component index", k)
    return DensePoly(p.field, p.n, {e: c for e, c in p.terms.items() if sum(e) == k})


def truncate_dense(p: DensePoly, d: int) -> DensePoly:
    check_int("degree", d)
    return DensePoly(p.field, p.n, {e: c for e, c in p.terms.items() if sum(e) <= d})


def compose(p: DensePoly, values, cap=None, budget: ExpansionBudget = DEFAULT_BUDGET) -> DensePoly:
    """p with variable j replaced by values[j], DensePolys over one variable
    space; H_<=cap of the result with cap. Each power of a value is built
    once on the packed kernel, every product drops its keys above cap, and
    a partial result over budget.max_terms terms raises BudgetExceeded."""
    m = values[0].n if values else 0
    if len(values) != p.n or any(v.n != m for v in values):
        raise ArityMismatch(f"compose needs {p.n} values over one variable space")
    for v in values:
        same_field(p.field, v.field)
    if cap is not None:
        check_int("degree cap", cap)
    mod, max_terms = _modulus(p.field), budget.max_terms
    degs = [max(v.total_degree(), 0) for v in values]
    top = max((sum(x * g for x, g in zip(e, degs)) for e in p.terms), default=0)
    top = top if cap is None else min(top, cap)  # no kept key has a larger degree
    w = max(1, top.bit_length())
    bound = None if cap is None else (cap + 1) << w * m  # least key of degree > cap
    pows, dens = [], []  # pows[j][k] is values[j]^k packed, over dens[j]^k
    for j, v in enumerate(values):
        base, den = _to_ints(v.terms, w, mod, top)
        pows.append([{0: 1}])
        for _ in range(p.degree_in(j)):
            pows[j].append(_product_terms(pows[j][-1], base, mod, max_terms, bound))
        dens.append(den)
    scale = {e: c.denominator * math.prod(d**x for d, x in zip(dens, e))
             for e, c in p.terms.items()}
    den = math.lcm(*scale.values())
    out: dict = {}
    for e, c in p.terms.items():
        acc, *rest = sorted((pows[j][x] for j, x in enumerate(e) if x), key=len) or [{0: 1}]
        for part in rest:
            acc = _product_terms(acc, part, mod, max_terms, bound)
        _add_into(out, acc, c.numerator * (den // scale[e]), mod)
        if len(out) > max_terms:
            raise BudgetExceeded("terms", f"{len(out)} > {max_terms}")
    return DensePoly(p.field, m, _from_ints(out, den, m, w, mod))


# -- exact division -------------------------------------------------------------

def _try_divide(p: DensePoly, f: DensePoly) -> DensePoly | None:
    """Exact quotient p/f, or None if f does not divide p, on the kernel's
    keys and native numbers. Under their graded order each step takes away
    c x^m f, no term of degree above the leading term it cancels, so deg p
    fixes the width; with one divisor, exact divisibility means every
    leading term is cancellable, and the first that is not certifies that
    f does not divide p."""
    n, top = p.n, p.total_degree()
    if f.total_degree() > top:
        return None
    w = max(1, top).bit_length()
    mod = _modulus(p.field)
    fp = {_key(e, w): c for e, c in f.terms.items()}
    rem = {_key(e, w): c for e, c in p.terms.items()}
    lt_f = max(fp)
    lt_f_exps = _unpack(lt_f, n, w)
    inv = pow(fp[lt_f], -1, mod) if mod else 1 / Fraction(fp[lt_f])
    quo = {}
    while rem:
        lt = max(rem)
        if any(a < b for a, b in zip(_unpack(lt, n, w), lt_f_exps)):
            return None
        c = rem[lt] * inv % mod if mod else rem[lt] * inv
        shift = lt - lt_f
        quo[shift] = c
        _add_into(rem, {k + shift: v for k, v in fp.items()}, -c, mod)
    return DensePoly(p.field, n, {_unpack(k, n, w): c for k, c in quo.items()})


def divides(f: DensePoly, p: DensePoly) -> int:
    """Largest m with f^m dividing p; 0 when f does not divide p.

    f must be nonzero and nonconstant (units divide everything with
    unbounded multiplicity). An exact quotient does not depend on the
    monomial order, so neither does m: every division runs under the
    kernel's graded order (`_try_divide`).
    """
    if f.is_zero():
        raise ZeroDivisor("zero divisor")
    if f.total_degree() == 0:
        raise ZeroDivisor("constant divisor has unbounded multiplicity")
    f._like(p)
    if p.is_zero():
        raise ZeroDivisor("dividend is the zero polynomial")
    m = 0
    cur = p
    cap = p.total_degree() // max(1, f.total_degree()) + 1
    while m <= cap:
        q = _try_divide(cur, f)
        if q is None:
            return m
        m += 1
        cur = q
    return m


# -- univariate machinery ---------------------------------------------------------
# Coefficient-list form: u[k] is the coefficient of y^k, no trailing zeros,
# [] is the zero polynomial. Native numbers, no Field method: ints in [0, p)
# over F_p, reduced once per coefficient written; Fractions over Q (p None).

def _unorm(u):
    while u and not u[-1]:
        u.pop()
    return u


def _usub(a, b, p):
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p if p else out[i] - c
    return _unorm(out)


def _udivmod(a, b, p):
    """Quotient and remainder of a by the nonzero b."""
    a = list(a)
    n = len(b) - 1
    inv = pow(b[-1], -1, p) if p else 1 / Fraction(b[-1])
    q = [0] * max(0, len(a) - n)
    for k in range(len(q) - 1, -1, -1):
        c = a[k + n] * inv % p if p else a[k + n] * inv
        q[k] = c
        if c:
            for i in range(n):
                s = a[k + i] - c * b[i]
                a[k + i] = s % p if p else s
    return _unorm(q), _unorm(a[:n])


def _umonic(a, p):
    inv = pow(a[-1], -1, p) if p else 1 / Fraction(a[-1])
    return [c * inv % p for c in a] if p else [c * inv for c in a]


def _ugcd(a, b, p):
    while b:
        a, b = b, _udivmod(a, b, p)[1]
    return _umonic(a, p)


def _uderiv(a, p):
    return _unorm([i * c % p if p else i * c for i, c in enumerate(a)][1:])


def _ulinpow(a, e, u, p):
    """(y + a)^e mod the monic u of degree n >= 1 over F_p, left to right.

    Each step squares r packed into one int, coefficient k in the slot of
    bits [k*w, (k+1)*w), so the squaring is one big-int product. A slot
    sums at most n products below p^2 and at most n - 1 more from the
    reduction, so w = 2*bits(p) + bits(n) + 2 never overflows. The product
    is reduced by the packed rows y^(n+k) mod u, k < n - 1, one multiply-add
    per high coefficient. A set bit multiplies by y + a, one shift and one
    reduction by y^n = -(u_0 + ... + u_{n-1} y^{n-1}), O(n)."""
    n = len(u) - 1
    neg = [-c % p for c in u[:-1]]
    w = 2 * p.bit_length() + n.bit_length() + 2
    mask, low = (1 << w) - 1, (1 << w * n) - 1
    rows, row = [], neg  # row is y^(n+k) mod u
    for _ in range(n - 1):
        rows.append(_pack(row, w))
        top = row[-1]
        row = [(lo + top * m) % p for lo, m in zip([0] + row, neg)]
    r = [1] + [0] * (n - 1)
    for bit in bin(e)[2:]:
        sq = _pack(r, w) ** 2
        acc, high = sq & low, sq >> w * n
        for packed in rows:
            c = (high & mask) % p
            if c:
                acc += c * packed
            high >>= w
        r = [(acc >> w * k & mask) % p for k in range(n)]
        if bit == "1":
            top = r[-1]
            r = [(lo + a * c + top * m) % p for lo, c, m in zip([0] + r, r, neg)]
    return _unorm(r)


def _multiplicity(p: DensePoly, var: int, r) -> int:
    """How often var - r divides the nonzero p, univariate in var: repeated
    exact (synthetic) division, so it is right in every characteristic."""
    mod, m = _modulus(p.field), 0
    step = (lambda acc, c: (acc * r + c) % mod) if mod else (lambda acc, c: acc * r + c)
    top = [0] * (p.degree_in(var) + 1)  # coefficients, highest first
    for e, c in p.terms.items():
        top[-1 - e[var]] = c
    while True:
        quot = list(accumulate(top, step))  # Horner: the quotient, then the remainder
        if quot[-1]:
            return m
        top, m = quot[:-1], m + 1


def _sqrt_mod(a, p):
    """A square root of the nonzero square a modulo the odd prime p: one power
    when p = 3 (mod 4), else Tonelli-Shanks from the least non-residue."""
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c, t, r = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:  # r^2 = a t, t^(2^(s-1)) = 1 and c^(2^(s-1)) = -1
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def _quadratic_roots(u, p):
    """Distinct roots of the monic y^2 + u_1 y + u_0 over F_p, p odd: the
    discriminant, Euler's criterion, then a square root."""
    disc = (u[1] * u[1] - 4 * u[0]) % p
    half = (p + 1) // 2  # 1/2
    if not disc:
        return [-u[1] * half % p]
    if pow(disc, (p - 1) // 2, p) != 1:
        return []
    s = _sqrt_mod(disc, p)
    return [(-u[1] + s) * half % p, (-u[1] - s) * half % p]


def _linear_roots_prime(field: PrimeField, g):
    """Roots of a monic squarefree product of linear factors over F_p. A
    piece of degree 2 whose discriminant is a nonzero square is solved in
    closed form; any other is split by gcd((y + a)^((p-1)/2) - 1, u) for
    shifts a = 1, 2, ..., SPLIT_SHIFT_LIMIT."""
    p = field.p
    roots = []
    stack = [g]
    while stack:
        u = stack.pop()
        if len(u) <= 1:
            continue
        if len(u) == 2:
            roots.append(-u[0] % p)
            continue
        if len(u) == 3 and len(pair := _quadratic_roots(u, p)) == 2:
            roots += pair
            continue
        # deterministic sequence of shifts; each splits with probability
        # about 1/2 for a random shift, so small a suffice in practice
        for a in range(1, SPLIT_SHIFT_LIMIT + 1):
            t = _usub(_ulinpow(a % p, (p - 1) // 2, u, p), [1], p)
            split = _ugcd(t, u, p)
            if 0 < len(split) - 1 < len(u) - 1:
                break
        else:
            raise SearchExhausted(
                f"no shift in 1..{SPLIT_SHIFT_LIMIT} splits a degree-{len(u) - 1} factor "
                f"over F_{p}; is it a product of distinct linear factors?"
            )
        stack += [split, _udivmod(u, split, p)[0]]
    return roots


def _ueval(coeffs, x):
    """Horner value of a coefficient list at x, in plain Python arithmetic."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _distinct_roots(field: Field, f):
    """Distinct base-field roots of a monic coefficient list (over Q a
    squarefree one with a nonzero constant term).

    F_p, for any f: f of degree <= 2 in closed form (the discriminant,
    Euler's criterion, a square root), with no polynomial power. Otherwise
    one half-Frobenius power h = y^((p-1)/2) mod f gives y^p = y h^2, so the
    linear part g = gcd(f, y^p - y), and its first split: gcd(h - 1, g) takes
    the roots that are nonzero squares. Only pieces of degree >= 3 left after
    it take further powers (`_linear_roots_prime`).
    Q: clear denominators; take the first prime p >= _ROOT_PRIME_START above
    the degree that keeps the lead a unit and f squarefree; find the roots
    mod p, and Newton-lift each to p^k > 2|lead * trail|. A root b/c has
    c | lead and b | trail, so lead * b/c is the symmetric residue of
    lead * root; each candidate is kept only if it is an exact root.
    """
    if isinstance(field, PrimeField):
        p = field.p
        if len(f) == 3:
            return _quadratic_roots(f, p)
        if len(f) < 3:
            return [-f[0] % p] if len(f) == 2 else []
        h = _ulinpow(0, (p - 1) // 2, f, p)
        y_h2 = [0] * (2 * len(h))  # y * h^2, then y^p - y mod f
        for i, c in enumerate(h):
            for j, d in enumerate(h, i + 1):
                y_h2[j] += c * d
        t = _usub(_udivmod(_unorm([c % p for c in y_h2]), f, p)[1], [0, 1], p)
        g = _ugcd(t, f, p)
        squares = _ugcd(_usub(_udivmod(h, g, p)[1], [1], p), g, p)  # the shift-0 split
        rest = _udivmod(g, squares, p)[0]
        return _linear_roots_prime(field, squares) + _linear_roots_prime(field, rest)
    den = math.lcm(*(c.denominator for c in f))
    ints = [c.numerator * (den // c.denominator) for c in f]
    q = max(_ROOT_PRIME_START, len(ints))
    for _ in range(_ROOT_PRIME_TRIES):
        while not is_prime(q):
            q += 1
        u = [c % q for c in ints]
        if u[-1] and len(_ugcd(u, _uderiv(u, q), q)) == 1:
            break
        q += 1
    else:
        raise SearchExhausted(f"no prime among {_ROOT_PRIME_TRIES} tried suits a "
                              f"degree-{len(ints) - 1} part for lifting")
    deriv = [i * c for i, c in enumerate(ints)][1:]
    lead = ints[-1]
    roots = []
    for r in _distinct_roots(PrimeField(q), _umonic(u, q)):
        m = q
        while m <= 2 * abs(lead * ints[0]):
            m *= m
            r = (r - _ueval(ints, r) * pow(_ueval(deriv, r), -1, m)) % m
        s = lead * r % m
        cand = Fraction(s - m if 2 * s > m else s, lead)
        if _ueval(ints, cand) == 0:
            roots.append(cand)
    return roots


def univariate_roots(p: DensePoly):
    """All base-field roots of a univariate polynomial f, with multiplicities.

    One path for both fields, on the native-number kernel above. The
    distinct roots come first, from `_distinct_roots`: over F_p a quadratic
    in closed form, else the linear factors of gcd(f, y^p - y), from one
    power y^((p-1)/2) that also makes their first split, further split by
    powers of y + a only where that one fails; over Q those of the
    squarefree part f / gcd(f, f'), Hensel-lifted from a small prime (no
    integer is factored). Each root's multiplicity is then counted by exact
    division (`_multiplicity`), which is right in every characteristic,
    also where it does not exceed the degree. Roots come back sorted.
    """
    if p.is_zero():
        raise ZeroPolynomial("root finding on the zero polynomial")
    active = sorted({i for e in p.terms for i, x in enumerate(e) if x})
    if len(active) > 1:
        raise ParameterViolation("univariate_roots needs a univariate polynomial")
    var = active[0] if active else 0
    field, mod = p.field, _modulus(p.field)
    coeffs = [field.zero] * (p.degree_in(var) + 1)
    for e, c in p.terms.items():
        coeffs[e[var]] = c
    shift = next(i for i, c in enumerate(coeffs) if c != field.zero)
    f = _umonic(coeffs[shift:], mod)
    if mod is None:  # the squarefree part
        f = _udivmod(f, _ugcd(f, _uderiv(f, None), None), None)[0]
    roots = ([field.zero] if shift else []) + (_distinct_roots(field, f) if len(f) > 1 else [])
    return sorted((r, _multiplicity(p, var, r)) for r in roots)


# -- text form ------------------------------------------------------------------
# Header (field/nvars as in circuit files), then one line per term:
#     <coeff> : <e1> <e2> ... <en>
# sorted lexicographically by exponent vector.

def emit_poly(p: DensePoly) -> str:
    field = p.field
    lines = [field_line(field), f"nvars {p.n}"]
    for e in sorted(p.terms):
        exps = " ".join(str(x) for x in e)
        lines.append(f"{field.format(p.terms[e])} : {exps}".rstrip())
    return "\n".join(lines) + "\n"


def parse_poly(text: str) -> DensePoly:
    field, n, body = parse_header(text)
    terms = {}
    for line_no, line in body:
        coeff_text, _, exps_text = line.partition(":")
        try:
            e = tuple(int(x) for x in exps_text.split())
        except ValueError:
            raise CircuitSyntaxError(line_no, f"bad exponents {exps_text.strip()!r}") from None
        if len(e) != n:
            raise CircuitSyntaxError(
                line_no, f"term with {len(e)} exponents in {n}-variable polynomial"
            )
        terms[e] = parse_value(field, coeff_text.strip(), line_no)
    return DensePoly(field, n, terms)

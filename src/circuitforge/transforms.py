"""Circuit-to-circuit constructions.

Everything here is exact and structural: homogeneous components by gate
splitting (Strassen), monic normal form, one change of coordinates for
every shift, shear and unit (`affine`), and one interpolation
engine for the rest: coefficient rows, truncations, Hasse derivatives and
generator sets are weighted sums of the copies of P(t*x, alpha + s) on a
lower set of (scale, shift) nodes, whose weights combine the one-axis ones.
Each construction has a tracked size envelope; the test suite asserts the
envelopes and cross-checks every output against the dense oracle.

Two conventions keep the stated depth bounds true:
  - linear combinations ride on the sum layer that absorbs them (constant
    multiplication is depth-transparent, see circuit.py), and
  - genuine products created on top of an extracted coefficient are pushed
    through its top addition layer (`_mul_into_adds`), the way interpolation
    proofs absorb a power of y in the product layer below the top sum.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field as dc_field
from functools import cache, cached_property

from .circuit import ADD, Circuit, CircuitBuilder, _check_var, formal_degree_in
from .circuit import const_circuit, evaluate_batch, remap_vars, sz_is_zero
from .dense import DEFAULT_BUDGET, DensePoly, ExpansionBudget, expand
from .errors import (
    ArityMismatch,
    BudgetExceeded,
    FieldTooSmall,
    ParameterViolation,
    SearchExhausted,
    check_int,
)
from .fields import PrimeField, _shift_candidates

# documented constants for the size envelopes asserted by the suite
HOMOGENIZE_SIZE_FACTOR = 12      # size(H_k[C]) <= 12 * k^2 * size(C) + 12 * (k + 1)
GENSET_SIZE_FACTOR = 64          # member size <= 64 * size(P) * r^5 (safe envelope)
MAKE_MONIC_TRIALS_PER_DEGREE = 16


# -- interpolation weights ----------------------------------------------------

@cache
def _vandermonde_inverse(fld, dmax: int):
    """Rows W[j] with coeff_j = sum_a W[j][a] * P(node_a), nodes = 0..dmax."""
    if isinstance(fld, PrimeField) and fld.p <= dmax:
        raise FieldTooSmall(f"need {dmax + 1} distinct elements, field has {fld.p}")
    # W[j][a] is the t^j coefficient of the Lagrange basis polynomial of node
    # a: M(t) / (t - a), M = prod_b (t - b), over prod_{b != a} (a - b), which
    # is (-1)^(dmax - a) * a! * (dmax - a)!
    m = [fld.one]  # M's coefficients, constant term first
    for b in range(dmax + 1):
        nb = fld.embed(-b)
        m = [fld.add(lo, fld.mul(nb, hi)) for lo, hi in zip([fld.zero] + m, m + [fld.zero])]
    cols = []
    for a in range(dmax + 1):
        denom = (-1) ** (dmax - a) * math.factorial(a) * math.factorial(dmax - a)
        scale = fld.inv(fld.embed(denom))
        node, q, acc = fld.embed(a), [], fld.zero
        for c in reversed(m[1:]):  # synthetic division by (t - a), top coefficient first
            acc = fld.add(c, fld.mul(node, acc))
            q.append(fld.mul(acc, scale))
        cols.append(q[::-1])
    return [[col[j] for col in cols] for j in range(dmax + 1)]


def _lower_set(fld, shape: tuple) -> list:
    """Nodes (a, b) with a <= ax, b <= by, a + b <= tot, a-major; shape = (ax, by, tot)."""
    ax, by, tot = shape
    _vandermonde_inverse(fld, max(ax, by))  # the widest axis: FieldTooSmall
    return [(a, b) for a in range(ax + 1) for b in range(min(by, tot - a) + 1)]


@cache
def _lower_set_weights(fld, shape: tuple, monomials: tuple) -> tuple:
    """The nonzero (n, w) with sum_n w * Q(L[n]) the sum of the t^k s^j
    coefficients, (k, j) in `monomials`, of any Q in the span of the t^k s^j
    over L = _lower_set(fld, shape). Newton's form on a lower set sums one
    tensor term per a: the a-th divided difference in t (V_a^-1 - V_(a-1)^-1
    as monomial weights) times the interpolation in s on column a, of height
    min(by, tot - a). A monomial outside L lies in no such term."""
    ax, by, tot = shape
    lower = _lower_set(fld, shape)
    w = [fld.zero] * len(lower)
    for a in range(ax + 1):
        h = min(by, tot - a)
        cur, col = _vandermonde_inverse(fld, a), _vandermonde_inverse(fld, h)
        prev = _vandermonde_inverse(fld, a - 1) if a else []
        box = [(n, i, l) for n, (i, l) in enumerate(lower) if i <= a and l <= h]
        for k, j in monomials:
            for n, i, l in box if k <= a and j <= h else ():
                u = fld.sub(cur[k][i], prev[k][i]) if k < a and i < a else cur[k][i]
                w[n] = fld.add(w[n], fld.mul(u, col[j][l]))
    return tuple((n, c) for n, c in enumerate(w) if c != fld.zero)


def _shifted_weights(fld, shape: tuple, monomials, delta) -> tuple:
    """_lower_set_weights for the t^k s^j coefficients of Q(t, delta + s):
    by Taylor's formula, sum_(m >= j) C(m, j) * delta^(m - j) times the t^k
    s^m weights, exact in every characteristic. A zero delta reads the
    cached weights themselves."""
    if delta == fld.zero:
        return _lower_set_weights(fld, shape, tuple(monomials))
    w: dict = {}
    for k, j in monomials:
        power = fld.one  # delta^(m - j)
        for m in range(j, min(shape[1], shape[2] - k) + 1):  # the t^k column of L
            scale = fld.mul(fld.embed(math.comb(m, j)), power)
            power = fld.mul(power, delta)
            for n, u in _lower_set_weights(fld, shape, ((k, m),)):
                w[n] = fld.add(w.get(n, fld.zero), fld.mul(scale, u))
    return tuple((n, c) for n, c in sorted(w.items()) if c != fld.zero)


def _interpolate(circ: Circuit, scale, y, alpha, shape: tuple):
    """One builder holding a copy of the single-output circ at each node
    (a, b) of _lower_set(shape): every variable in `scale` bound to a * x_i
    (in scale's order, before the import) and y, unless None, to alpha + b.
    Returns (builder, coeff); coeff(monomials, delta) emits the one weighted
    sum of the copies that computes the sum of the t^k s^j coefficients, (k,
    j) in monomials, of circ(t * x, alpha + delta + s), delta 0 by default,
    depth-neutrally on its top sum.
    The nodes run scale-major, so consecutive copies of one scale differ
    only in y's binding, and the builder re-canonicalizes only the gates of
    each such copy that read y (CircuitBuilder.import_circuit)."""
    fld = circ.field
    b = CircuitBuilder(fld, circ.num_vars)
    copies = []
    for a, s in _lower_set(fld, shape):
        node = b.const(fld.embed(a))  # at a = 0 a scaled copy folds to a constant
        bindings = {i: b.mul(node, b.inp(i)) for i in scale}
        if y is not None:
            bindings[y] = b.const(fld.add(alpha, fld.embed(s)))
        copies.append(b.import_circuit(circ, var_bindings=bindings)[0])

    def coeff(monomials, delta=fld.zero) -> int:
        parts = [b.mul(b.const(c), copies[n])
                 for n, c in _shifted_weights(fld, shape, monomials, delta)]
        return b.add(*parts) if parts else b.const(fld.zero)

    return b, coeff


def _mul_into_adds(b: CircuitBuilder, gid: int, factors: tuple, memo: dict) -> int:
    """Multiply the value at `gid` by the factor gates, distributing the
    product through addition gates (and the scalar wrappers riding on them)
    so no product layer appears above a top sum."""
    key = (gid, factors)
    hit = memo.get(key)
    if hit is not None:
        return hit
    gate = b._gate(gid)
    if gate[0] == ADD:
        out = b.add(*(_mul_into_adds(b, c, factors, memo) for c in gate[1]))
    elif gate[0] == "mul" and len(gate[1]) == 2:
        ga, gb = b._gate(gate[1][0]), b._gate(gate[1][1])
        if ga[0] == "const" and gb[0] == ADD:
            out = _mul_into_adds(b, gate[1][1], factors + (gate[1][0],), memo)
        elif gb[0] == "const" and ga[0] == ADD:
            out = _mul_into_adds(b, gate[1][0], factors + (gate[1][1],), memo)
        else:
            out = b.mul(gid, *factors)
    else:
        out = b.mul(gid, *factors)
    memo[key] = out
    return out


# -- homogeneous components ---------------------------------------------------

def homogenize(circ: Circuit, k: int) -> Circuit:
    """Circuit computing H_k[circ] by degree-indexed gate splitting: each
    gate becomes its components of degree 0..k (Strassen).

    Size is at most HOMOGENIZE_SIZE_FACTOR * k^2 * size + same * (k+1); the
    output has formal degree at most k. Above the formal degree of circ the
    result is the constant 0, without splitting.
    """
    check_int("component index", k)
    fld = circ.field
    out = circ.output()
    if k > circ.formal_degree():
        return const_circuit(fld, fld.zero, circ.num_vars)
    b = CircuitBuilder(fld, circ.num_vars)
    zero = b.const(fld.zero)
    comp: dict = {}
    for i in circ.reachable():
        gate = circ.gates[i]
        op = gate[0]
        if op == "in":
            comp[i] = [zero, b.inp(gate[1])] + [zero] * (k - 1) if k >= 1 else [zero]
        elif op == "const":
            comp[i] = [b.const(gate[1])] + [zero] * k
        elif op == "add":
            comp[i] = [
                b.add(*(comp[c][j] for c in gate[1])) for j in range(k + 1)
            ]
        else:
            cur = comp[gate[1][0]]
            for c in gate[1][1:]:
                nxt = comp[c]
                cur = [
                    b.add(*(b.mul(cur[a], nxt[j - a]) for a in range(j + 1)))
                    for j in range(k + 1)
                ]
            comp[i] = cur
    return b.finish(comp[out][k])


# -- coefficient extraction ----------------------------------------------------

def extract_y_coeffs(circ: Circuit, y: int, dmax: int) -> list:
    """Circuits C_0..C_dmax with circ = sum_j C_j * y^j.

    Built as the inverse-Vandermonde combination of circ(x, 0..dmax) with
    the weights absorbed into the top sum layer: depth does not grow, size
    is at most (dmax+1) * size + O(dmax^2). Each C_j is finished on its own
    from the one interpolation builder, so it holds only its own gates. A
    dmax below the formal y-degree is refused: the higher coefficients
    would fold into the lower ones.
    """
    check_int("degree bound", dmax)
    circ.output()
    _check_var(circ, y)
    deg = formal_degree_in(circ, y)
    if dmax < deg:
        raise ParameterViolation(f"degree bound {dmax} is below the formal degree {deg} in y")
    b, coeff = _interpolate(circ, (), y, circ.field.zero, (0, dmax, dmax))
    return [b.finish(coeff([(0, j)])) for j in range(dmax + 1)]


def _scaled(circ: Circuit, scale_vars):
    """(formal degree of circ in scale_vars, None meaning all of them;
    emit), emit(ks) the circuit of the sum of H_k[circ], k in ks, by scaling
    interpolation."""
    circ.output()
    vars_to_scale = list(range(circ.num_vars)) if scale_vars is None else list(scale_vars)
    bound = formal_degree_in(circ, vars_to_scale)

    def emit(ks) -> Circuit:
        b, coeff = _interpolate(circ, vars_to_scale, None, None, (bound, 0, bound))
        return b.finish(coeff((k, 0) for k in ks))

    return bound, emit


def truncate_deg(circ: Circuit, d: int, scale_vars=None) -> Circuit:
    """Circuit computing H_{<=d}[circ] via scaling-variable interpolation.

    scale_vars restricts which variables count toward the degree (the
    exponential-sum module passes the x-variables, so auxiliary variables
    stay untouched); None means all of them. The interpolation runs on the
    formal degree in them, and when that cannot exceed d the circuit is
    returned unchanged.
    """
    check_int("degree", d)
    bound, emit = _scaled(circ, scale_vars)
    return circ if bound <= d else emit(range(d + 1))


def homog_component_interp(circ: Circuit, k: int, scale_vars=None) -> Circuit:
    """H_k[circ] via scaling interpolation (depth-preserving Strassen twin).

    scale_vars means what it means for truncate_deg; when k exceeds the
    formal degree in those variables the result is the constant 0.
    """
    check_int("component index", k)
    bound, emit = _scaled(circ, scale_vars)
    return const_circuit(circ.field, circ.field.zero, circ.num_vars) if k > bound else emit([k])


# -- Hasse derivative ----------------------------------------------------------

def hasse_derivative_circuit(circ: Circuit, y: int, j: int) -> Circuit:
    """Circuit for the order-j Hasse derivative with respect to y.

    Assembles sum_{i>=j} C(i,j) * C_i(x) * y^(i-j) from the interpolated
    coefficients; the power of y is pushed into the product layer below
    each top sum so depth does not grow.
    """
    _check_var(circ, y)
    check_int("derivative order", j)
    if j == 0:
        return circ
    circ.output()
    fld = circ.field
    dmax = formal_degree_in(circ, y)
    if j > dmax:
        return const_circuit(fld, fld.zero, circ.num_vars)
    b, coeff = _interpolate(circ, (), y, fld.zero, (0, dmax, dmax))
    row = [coeff([(0, i)]) for i in range(dmax + 1)]
    memo: dict = {}
    terms = []
    for i in range(j, dmax + 1):
        w = fld.embed(math.comb(i, j))
        if w == fld.zero:
            continue
        if i == j:
            terms.append(b.mul(b.const(w), row[i]))
        else:
            ypow = b.power(b.inp(y), i - j)
            terms.append(b.mul(b.const(w), _mul_into_adds(b, row[i], (ypow,), memo)))
    out = b.add(*terms) if terms else b.const(fld.zero)
    return b.finish(out)


# -- change of coordinates ------------------------------------------------------

def translate(circ: Circuit, shift) -> Circuit:
    """Circuit computing circ(x + shift); circ itself for a zero shift."""
    if len(shift) != circ.num_vars:
        raise ArityMismatch(
            f"shift has {len(shift)} coordinates, circuit has {circ.num_vars} variables"
        )
    return affine(circ, None, shift)


def affine(circ: Circuit, y: int | None, shift=(), shear=None, unit=None) -> Circuit:
    """unit * circ with x_i -> x_i + shear[i] * y + shift[i], x_i the i-th
    variable other than y (every variable when y is None, taking no shear).
    A shift or shear shorter than the x_i leaves the rest in place; a longer
    one, or a y outside circ, is an ArityMismatch. One builder writes the
    unit's constant, then y's input and the shear bindings, then the shifts
    around them, then one import of circ; an all-zero shear is no shear, and
    the identity map (no nonzero shift or shear, no unit but one) returns
    circ itself."""
    fld, shear = circ.field, shear or ()
    if y is not None:
        _check_var(circ, y)
    elif shear:
        raise ArityMismatch("a shear needs a variable y")
    xs = [v for v in range(circ.num_vars) if v != y]
    if max(len(shift), len(shear)) > len(xs):
        raise ArityMismatch(f"more coordinates than the {len(xs)} variables other than y")
    unit = None if unit == fld.one else unit
    if unit is None and all(c == fld.zero for c in (*shift, *shear)):
        return circ
    b = CircuitBuilder(fld, circ.num_vars)
    scale = [] if unit is None else [b.const(unit)]
    bindings = {}
    if any(a != fld.zero for a in shear):
        ygate = b.inp(y)
        bindings = {x: b.add(b.inp(x), b.mul(b.const(a), ygate))
                    for x, a in zip(xs, shear) if a != fld.zero}
    for v, c in zip(xs, shift):
        if c != fld.zero:
            bindings[v] = b.add(bindings[v] if v in bindings else b.inp(v), b.const(c))
    return b.finish([b.mul(*scale, o) for o in b.import_circuit(circ, var_bindings=bindings)])


# -- monic normal form ------------------------------------------------------------

@dataclass
class MonicForm:
    """Result of the x_i -> x_i + a_i * y change of variables.

    `circuit` computes circ(x + a*y, y) / leading_unit, which is monic of
    degree r in y. `y_var` is the distinguished variable index (appended
    when the input did not already carry one).
    """

    circuit: Circuit
    shift: tuple
    leading_unit: object
    y_var: int
    degree: int

    def apply(self, circ: Circuit) -> Circuit:
        """The forward map circ(x + a*y, y) / leading_unit, one `affine`
        call; variables past the form's own pass through. `affine` with the
        negated shift as its shear inverts the shear."""
        fld = circ.field
        return affine(circ, self.y_var, shear=self.shift, unit=fld.inv(self.leading_unit))


def _top_component_value(circ: Circuit, point, r: int):
    """H_r[circ] evaluated at `point`, by interpolation on a scaling of the
    evaluation point (field values only, no circuit growth)."""
    fld = circ.field
    weights = _vandermonde_inverse(fld, r)
    columns = [[fld.mul(fld.embed(t), v) for t in range(r + 1)] for v in point]
    values = evaluate_batch(circ, columns, r + 1)[0].tolist()
    acc = fld.zero
    for w, value in zip(weights[r], values):
        if w != fld.zero:
            acc = fld.add(acc, fld.mul(w, value))
    return acc


def make_monic(circ: Circuit, r: int, seed: int, y_var: int | None = None) -> MonicForm:
    """Find a shift a with H_r[circ](a, 1) != 0 and apply x_i -> x_i + a_i*y.

    r must be the exact total degree. The all-zero shift is tried first, so
    an input already monic in y passes through untouched (up to the leading
    unit). Seeded random search over the grid {0..r}^n afterwards; failure
    after 16*(r+1) trials signals a misdeclared degree.
    """
    circ.output()
    check_int("degree r", r)
    fld = circ.field
    if y_var is None:
        nv = circ.num_vars + 1
        y_var = circ.num_vars
        work = remap_vars(circ, {}, nv)
    else:
        _check_var(circ, y_var)
        nv = circ.num_vars
        work = circ
    x_vars = [i for i in range(nv) if i != y_var]

    trials = MAKE_MONIC_TRIALS_PER_DEGREE * (r + 1)
    for a in _shift_candidates(fld, len(x_vars), r + 1, trials - 1, seed, "make-monic"):
        point = [fld.zero] * nv
        point[y_var] = fld.one
        for xi, ai in zip(x_vars, a):
            point[xi] = ai
        lead = _top_component_value(work, point, r)
        if lead == fld.zero:
            continue
        form = MonicForm(circuit=work, shift=a, leading_unit=lead, y_var=y_var, degree=r)
        form.circuit = form.apply(work)
        return form
    raise SearchExhausted(
        f"no monic shift found in {trials} trials; is the declared degree {r} exact?"
    )


# -- generator sets -----------------------------------------------------------------

def _check_lift_degree(d: int, budget: ExpansionBudget) -> None:
    """Refuse a lift or factor degree below 1 or above the budget's degree
    bound, before any work is done; d must be an int (not a bool)."""
    check_int("degree", d, 1)
    if d > budget.max_degree:
        raise BudgetExceeded("degree", f"d = {d} > {budget.max_degree}")


@dataclass
class GeneratorSet:
    """The nonzero polynomials of G_y(P, alpha, d).

    orders lists the derivative orders j of the members, ascending; the
    member of order j is H_{<=d} of the order-j Hasse derivative of P at
    y = alpha, minus its constant term. Every circuit here is finished
    from the one builder of generator_set's interpolation, which holds the
    node copies of P and is built on the first read of components or
    members, so a caller that reads neither (factor_vnp's search) builds no
    copy. components is one multi-output circuit over P's variable space
    with the y slot unused: output pos * d + (i - 1) computes H_i of the
    member of order j = orders[pos], the t^i s^j coefficient of
    P(t*x, alpha + s), for i in 1..d (None when there are no members), the
    one-root case of root_components. lives[pos] holds the degrees i whose
    component is not known to vanish; the others are emitted as 0.
    members holds the (j, circuit) pairs over the same space, read from
    by_order() (the member of every order 0..d, each finished on its own);
    their gates follow the components' in the builder whichever is read
    first, so the bytes do not depend on the order of the reads.
    derivs_dense[j] is H_{<=d} of the order-j derivative at alpha, j = 0..d
    (the dense member of order j, plus its constant term), in P's variable
    space with the y slot unused: the s^j terms of x-degree <= d of the zero
    test's one expansion of P(x, alpha + s). None when Schwartz-Zippel ran
    instead. Its reader is factoring._combine_dense, the dense factor screen.
    """

    alpha: object
    d: int
    y_var: int
    num_vars: int
    orders: list = dc_field(default_factory=list)
    lives: list = dc_field(default_factory=list)
    deriv_constants: list = dc_field(default_factory=list)  # H_0 per order j
    derivs_dense: list | None = dc_field(default=None, repr=False)
    by_order: Callable | None = dc_field(default=None, repr=False)
    emit_components: Callable | None = dc_field(default=None, repr=False)

    @cached_property
    def components(self) -> Circuit | None:
        return self.emit_components() if self.orders else None

    @cached_property
    def members(self) -> list:
        if not self.orders:
            return []
        self.components  # the component gates come first in the one builder
        by_order = self.by_order()
        return [(j, by_order[j]) for j in self.orders]

    def z_index(self, j: int) -> int | None:
        return self.orders.index(j) if j in self.orders else None


def generator_set(
    P: Circuit,
    y: int,
    alpha,
    d: int,
    budget: ExpansionBudget = DEFAULT_BUDGET,
) -> GeneratorSet:
    """Build G_y(P, alpha, d): for each order j in 0..d, truncate the Hasse
    derivative at y = alpha to degree d, subtract its constant term, and
    keep the members that are not identically zero.

    Q(t, s) = P(t*x, alpha + s) has H_k of the order-j derivative as its
    t^k s^j coefficient, (k, j) in the lower set bounded by P's formal
    degrees in x, in y and in all. One interpolation on that set's nodes
    (a, b) makes each coefficient a weighted sum of the copies of P there (x
    scaled by a, y bound to alpha + b), so depth does not grow. The copies,
    the components and the members are built when components or members are
    first read (GeneratorSet).

    The zero test is one expansion of P with y bound to alpha + s (s in y's
    slot), capped at total degree d + min(d, deg_y P): the s^j terms of
    x-degree <= d are H_{<=d} of the order-j derivative at alpha, j = 0..d,
    with no circuit built for it. They tell which homogeneous components
    vanish (kept as derivs_dense) and give deriv_constants as their constant
    terms. Only when the expansion overflows are the copies built at once:
    the builder emits the derivatives' coefficient gates, finished and
    evaluated at 0 for the constants, and members are tested by
    Schwartz-Zippel on 64 points over a grid of size 2*d, drawn on seed 0. A
    false keep is harmless downstream; a false drop is what the point count
    makes improbable. A d above the budget's degree bound, a lower set wider
    than it on an axis or than the field, and an alpha outside P's field are
    refused before any work.
    """
    P.output()
    _check_var(P, y)
    _check_lift_degree(d, budget)
    fld, nv, zero = P.field, P.num_vars, P.field.zero
    xs = [i for i in range(nv) if i != y]
    shape = (formal_degree_in(P, xs), formal_degree_in(P, y), P.formal_degree())
    if max(shape[:2]) > budget.max_degree:
        raise BudgetExceeded("degree", f"formal degree {max(shape[:2])} > {budget.max_degree}")
    _lower_set(fld, shape)  # the refusals the copies would raise, before any work
    fld.check(alpha)

    @cache
    def interpolation():
        return _interpolate(P, xs, y, alpha, shape)

    @cache
    def by_order():
        b, coeff = interpolation()
        return [b.finish(coeff((k, j) for k in range(1, d + 1))) for j in range(d + 1)]

    try:  # H_{<=d} of each derivative: member j is denses[j] less its constant term
        denses = _derivatives_at(P, y, alpha, d, shape[1], budget)
        h0 = [dense.constant_term() for dense in denses]
    except BudgetExceeded:  # the derivatives at alpha, evaluated at 0
        denses = None
        b, coeff = interpolation()
        derivs = b.finish([coeff((k, j) for k in range(shape[0] + 1)) for j in range(d + 1)])
        h0 = derivs.evaluate([zero] * nv)
    orders, lives = [], []
    for j in range(d + 1):
        if denses is not None:
            # a component the oracle shows to vanish is emitted as 0
            live = {sum(e) for e in denses[j].terms} - {0}
            if not live:
                continue
        elif sz_is_zero(by_order()[j], 2 * d, 0, "genset-sz", str(j)):
            continue
        else:
            live = range(1, d + 1)
        orders.append(j)
        lives.append(live)

    def emit_components() -> Circuit:
        b, coeff = interpolation()
        return b.finish(_component_gates(b, coeff, alpha, [(alpha, orders, lives)], d))

    return GeneratorSet(
        alpha=alpha,
        d=d,
        y_var=y,
        num_vars=nv,
        orders=orders,
        lives=lives,
        deriv_constants=list(h0),
        derivs_dense=denses,
        by_order=by_order,
        emit_components=emit_components,
    )


def _component_gates(b: CircuitBuilder, coeff, alpha, roots, d: int) -> list:
    """The generator components of each root (alpha_i, orders, lives) in
    roots, root after root, read from one interpolation (b, coeff) of P at
    y = alpha: for j in orders and i in 1..d, H_i of the member of order j
    at alpha_i, the t^i s^j coefficient of P(t*x, alpha + (alpha_i - alpha)
    + s), or the constant 0 where i is not in that order's entry of lives
    (GeneratorSet.lives; None: every i of every order)."""
    fld = b.field
    zero_id = b.const(fld.zero)
    return [coeff([(i, j)], fld.sub(a, alpha)) if live is None or i in live else zero_id
            for a, orders, lives in roots
            for j, live in zip(orders, lives or [None] * len(orders))
            for i in range(1, d + 1)]


def root_components(P: Circuit, xs, y: int, roots, d: int) -> Circuit:
    """One multi-output circuit over P's variable space holding the
    generator components of every root (alpha_i, orders, lives) in roots,
    in _component_gates' order, from one interpolation of P(t*x, alpha + s)
    taken at the first root's alpha, xs the scaled variables. The t^k s^j
    coefficient at alpha_i is the sum over m >= j of
    C(m, j) * (alpha_i - alpha)^(m - j) times the t^k s^m coefficient at
    alpha, still one weighted sum of the same copies, so depth does not
    grow and the roots share one set of node copies. With one root it is what GeneratorSet.components emits for it.
    Variables outside xs and y, such as an exp-sum's auxiliaries, are
    neither scaled nor bound."""
    xs = list(xs)
    shape = (formal_degree_in(P, xs), formal_degree_in(P, y), formal_degree_in(P, xs + [y]))
    alpha = roots[0][0]
    b, coeff = _interpolate(P, xs, y, alpha, shape)
    return b.finish(_component_gates(b, coeff, alpha, roots, d))


def _derivatives_at(P: Circuit, y: int, alpha, d: int, deg_y: int,
                    budget: ExpansionBudget) -> list:
    """H_{<=d} of the order-j Hasse y-derivative of P at y = alpha, j = 0..d,
    in P's variable space with the y slot unused: the s^j terms of x-degree
    <= d of P(x, alpha + s), s in y's slot, read off one expansion capped at
    d + min(d, deg_y), the largest total degree such a term can have."""
    fld, nv = P.field, P.num_vars
    s_var = DensePoly.variable(fld, nv, y)
    dense = expand(P, budget, cap=d + min(d, deg_y),
                   at={y: s_var + DensePoly.const(fld, nv, alpha)})
    parts = [{} for _ in range(d + 1)]
    for e, c in dense.terms.items():
        j = e[y]
        if j <= d and sum(e) - j <= d:
            parts[j][e[:y] + (0,) + e[y + 1:]] = c
    return [DensePoly(fld, nv, terms) for terms in parts]

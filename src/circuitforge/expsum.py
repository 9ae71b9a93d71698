"""Exponential-sum (VNP-style) representations and their calculus.

An ExpSumPoly is a verifier circuit Q over x-variables plus Boolean
auxiliary variables; it represents sum over all 0/1 assignments to the
auxiliaries of Q. Every operation here preserves that contract and is
brute-force checkable while the auxiliary count stays small.

leaf_substitute gives each use site a fresh copy of the auxiliary block, so
it requires a tree-shaped combinator: substituting a shared sub-circuit twice
would sum squares instead of squaring the sum. factor_vnp reads one block per
factor position of its combiner's monomials instead (lifting.composition_sum).

Sum composition normalizes: summing S1(x,y) + S2(x,z) over the joint cube
overcounts each side by the other's cube size, so the verifiers are scaled
by 2^-|z| and 2^-|y| respectively. The scalars exist in characteristic 0
and odd characteristic, the only fields this package supports.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuit import (
    Circuit,
    CircuitBuilder,
    _active_grid_batches,
    _active_vars,
    _check_var,
    const_circuit,
    evaluate_batches,
    is_formula,
    remap_vars,
)
from .dense import (
    DEFAULT_BUDGET,
    DensePoly,
    ExpansionBudget,
    circuit_from_dense,
    expand,
)
from .errors import (
    ArityMismatch,
    BudgetExceeded,
    CharacteristicDividesPower,
    InvariantViolated,
    NotAFormula,
    ParameterViolation,
    ShapeError,
    check_int,
)
from .factoring import _check_subset_shape, _search, combiner_dense
from .fields import Field, Rationals, same_field
from .lifting import composition_sum
from .transforms import (
    _check_lift_degree,
    extract_y_coeffs,
    homog_component_interp,
    root_components,
    truncate_deg,
)

BRUTE_FORCE_AUX_LIMIT = 20
SELECTOR_SIZE_FACTOR = 30       # selector formula size <= 30 * s'^2


@dataclass
class ExpSumPoly:
    """verifier circuit plus the indices of its auxiliary variables.

    The auxiliaries always trail: aux is range(nx, nx + m). A verifier given
    with auxiliaries elsewhere is renamed once on construction, x-variables
    in their order, then the auxiliaries in sorted order."""

    verifier: Circuit
    aux: tuple

    def __post_init__(self):
        self.verifier.output()
        aux = tuple(self.aux)
        if len(set(aux)) != len(aux):
            raise ParameterViolation("duplicate auxiliary variables")
        for a in aux:
            _check_var(self.verifier, a)
        nv = self.verifier.num_vars
        nx = nv - len(aux)
        if aux != tuple(range(nx, nv)):
            order = [v for v in range(nv) if v not in aux] + sorted(aux)
            self.verifier = remap_vars(self.verifier, {old: new for new, old in enumerate(order)}, nv)
        self.aux = tuple(range(nx, nv))

    @property
    def m(self) -> int:
        return len(self.aux)

    @property
    def nx(self) -> int:
        return self.verifier.num_vars - self.m

    @property
    def field(self) -> Field:
        return self.verifier.field

    def padded(self, nx: int) -> "ExpSumPoly":
        """The same sum over nx >= self.nx x-variables, the auxiliaries moved up."""
        if nx == self.nx:
            return self
        if nx < self.nx:
            raise ParameterViolation("cannot shrink the x-block")
        mapping = {v: v if v < self.nx else v - self.nx + nx for v in range(self.verifier.num_vars)}
        return ExpSumPoly(remap_vars(self.verifier, mapping, nx + self.m), tuple(range(nx, nx + self.m)))

    def __repr__(self):
        return f"<ExpSumPoly nx={self.nx} m={self.m} verifier={self.verifier!r}>"


def plain_expsum(circ: Circuit) -> ExpSumPoly:
    return ExpSumPoly(circ, ())


def exp_sum_expand(E: ExpSumPoly, budget: ExpansionBudget = DEFAULT_BUDGET) -> DensePoly:
    """The represented polynomial, over the x-variables only.

    Equals the defining sum over all 2^m Boolean assignments; computed
    term-wise (a verifier monomial contributes its coefficient once per
    compatible assignment, i.e. scaled by 2^{#auxiliaries it omits}).
    """
    if E.m > BRUTE_FORCE_AUX_LIMIT:
        raise BudgetExceeded("terms", f"2^{E.m} auxiliary assignments")
    field = E.field
    nx = E.nx
    v = expand(E.verifier, budget)
    acc: dict = {}
    for e, c in v.terms.items():
        zeros = sum(1 for a in e[nx:] if a == 0)
        w = field.mul(c, field.embed(1 << zeros))
        xe = e[:nx]
        s = field.add(acc.get(xe, field.zero), w)
        if s == field.zero:
            acc.pop(xe, None)
        else:
            acc[xe] = s
    return DensePoly(field, nx, acc)


def exp_sum_eval(E: ExpSumPoly, point) -> object:
    """Value of the represented polynomial at an x-point (sums the verifier
    over the Boolean cube; the literal definition). The cube is walked over
    the auxiliaries the verifier reads, the others held at 0: each unread
    auxiliary doubles the sum."""
    if E.m > BRUTE_FORCE_AUX_LIMIT:
        raise BudgetExceeded("terms", f"2^{E.m} auxiliary assignments")
    if len(point) != E.nx:
        raise ArityMismatch(f"every point needs {E.nx} coordinates")
    field = E.field
    read = [v for v in _active_vars(E.verifier) if v >= E.nx]
    cube = _active_grid_batches(read, 2, list(point) + [0] * E.m)
    acc = field.zero
    for values, in evaluate_batches(E.verifier, cube):
        for value in values.tolist():
            acc = field.add(acc, value)
    return field.mul(acc, field.embed(1 << E.m - len(read)))


def _inv_pow2(field: Field, k: int):
    v = field.embed(1 << k)
    if v == field.zero:
        raise CharacteristicDividesPower(f"2^{k} vanishes in this field")
    return field.inv(v)


def _place_aux(b: CircuitBuilder, parts: list, offset: int) -> list:
    """Import each part's verifier into b, its auxiliaries on a fresh block of
    b's inputs from offset on, block after block; x-variables keep their
    indices. Returns the output id of each import."""
    ids = []
    for p in parts:
        bindings = {p.nx + k: b.inp(offset + k) for k in range(p.m)}
        ids.append(b.import_circuit(p.verifier, var_bindings=bindings)[0])
        offset += p.m
    return ids


def _combine(parts: list, op: str) -> ExpSumPoly:
    field = parts[0].field
    for p in parts[1:]:
        same_field(field, p.field)
    nx = max(p.nx for p in parts)
    total_aux = sum(p.m for p in parts)
    b = CircuitBuilder(field, nx + total_aux)
    ids = _place_aux(b, parts, nx)
    if op == "mul":
        out = b.mul(*ids)
    else:
        out = b.add(*(b.mul(b.const(_inv_pow2(field, total_aux - p.m)), vid)
                      for p, vid in zip(parts, ids)))
    return ExpSumPoly(b.finish(out), tuple(range(nx, nx + total_aux)))


def sum_compose(e1: ExpSumPoly, e2: ExpSumPoly) -> ExpSumPoly:
    """Representation of R1 + R2 over the joint cube (scaled verifiers)."""
    return _combine([e1, e2], "add")


def prod_compose(e1: ExpSumPoly, e2: ExpSumPoly) -> ExpSumPoly:
    """Representation of R1 * R2 over the joint cube."""
    return _combine([e1, e2], "mul")


# -- the selector gadget and one Valiant level ---------------------------------

def selector_R(s_prime: int, field: Field | None = None) -> Circuit:
    """Block-selector formula over 5*s' variables: value 1 on Boolean points
    where exactly one block is all-ones and the rest are all-zeros, else 0.
    Tree-shaped by construction; size <= SELECTOR_SIZE_FACTOR * s'^2."""
    check_int("s'", s_prime, 1)
    if field is None:
        field = Rationals()
    b = CircuitBuilder(field, 5 * s_prime, share=False)
    blocks = []
    for i in range(s_prime):
        factors = [b.inp(5 * i + j) for j in range(5)]
        for other in range(s_prime):
            if other == i:
                continue
            for j in range(5):
                factors.append(
                    b.add(b.const(field.one), b.mul(b.const(field.neg(field.one)), b.inp(5 * other + j)))
                )
        blocks.append(b.mul(*factors))
    out = b.add(*blocks) if len(blocks) > 1 else blocks[0]
    circ = b.finish(out)
    if not is_formula(circ):
        raise InvariantViolated("selector construction lost its tree shape")
    return circ


def valiant_step(blocks: list) -> ExpSumPoly:
    """One level of the selector construction: represents
    sum_i prod_{j=1..5} A_{i,j} for caller-supplied quintuples of exp-sums.

    Auxiliaries are the 5*s' selector variables plus one fresh copy of every
    block entry's auxiliary block; entries with differing auxiliary counts
    are rebalanced by scalar correction so the represented polynomial is
    exactly the sum of products.
    """
    if not blocks:
        raise ShapeError("need at least one block")
    for blk in blocks:
        if len(blk) != 5:
            raise ShapeError(f"blocks must be quintuples, got {len(blk)} entries")
    s_prime = len(blocks)
    field = blocks[0][0].field
    nx = max(e.nx for blk in blocks for e in blk)
    block_aux = [sum(e.m for e in blk) for blk in blocks]
    total_block_aux = sum(block_aux)

    sel_base = nx
    aux_base = nx + 5 * s_prime
    b = CircuitBuilder(field, aux_base + total_block_aux)

    sel = selector_R(s_prime, field)
    sel_id = b.import_circuit(
        sel, var_bindings={v: b.inp(sel_base + v) for v in range(5 * s_prime)}
    )[0]

    imported = _place_aux(b, [e for blk in blocks for e in blk], aux_base)

    factors = [sel_id]
    for j in range(5):
        terms = []
        for i in range(s_prime):
            v = imported[5 * i + j]
            if j == 0:
                gamma = _inv_pow2(field, total_block_aux - block_aux[i])
                v = b.mul(b.const(gamma), v)
            terms.append(b.mul(b.inp(sel_base + 5 * i + j), v))
        factors.append(b.add(*terms))
    out = b.mul(*factors)
    return ExpSumPoly(b.finish(out), tuple(range(nx, aux_base + total_block_aux)))


# -- formula composition ------------------------------------------------------------

def leaf_substitute(B: Circuit, bindings: dict) -> ExpSumPoly:
    """Replace each variable leaf of the formula B by a *fresh copy* of its
    binding's verifier and auxiliary block; sums and products along the tree
    follow the sum/prod composition rules. Every variable leaf must be bound.
    """
    if not is_formula(B):
        raise NotAFormula("leaf substitution requires a tree-shaped circuit")
    B.output()
    field = B.field
    nx = max((e.nx for e in bindings.values()), default=0)
    padded = {v: e.padded(nx) for v, e in bindings.items()}

    def rec(i: int) -> ExpSumPoly:
        gate = B.gates[i]
        op = gate[0]
        if op == "in":
            if gate[1] not in padded:
                raise ParameterViolation(f"leaf x{gate[1] + 1} has no binding")
            return padded[gate[1]]
        if op == "const":
            return plain_expsum(const_circuit(field, gate[1], nx))
        parts = [rec(c) for c in gate[1]]
        return _combine(parts, "add" if op == "add" else "mul")

    return rec(B.output())


# -- coefficient / homogeneous-part calculus ------------------------------------------

def coeff_exp_sums(E: ExpSumPoly, z: int, dmax: int) -> list:
    """Exp-sums for the z^0..z^dmax coefficients of the represented
    polynomial (z must be an x-variable; the auxiliaries ride along)."""
    if not 0 <= z < E.nx:
        raise ParameterViolation(f"z must be one of the {E.nx} x-variables, got index {z}")
    rows = extract_y_coeffs(E.verifier, z, dmax)
    return [ExpSumPoly(r, E.aux) for r in rows]


def homog_x_exp_sum(E: ExpSumPoly, k: int) -> ExpSumPoly:
    """Degree-k-in-x homogeneous part; auxiliary variables untouched."""
    ver = homog_component_interp(E.verifier, k, scale_vars=list(range(E.nx)))
    return ExpSumPoly(ver, E.aux)


def homog_x_upto(E: ExpSumPoly, d: int) -> ExpSumPoly:
    ver = truncate_deg(E.verifier, d, scale_vars=list(range(E.nx)))
    return ExpSumPoly(ver, E.aux)


# -- the factor pipeline ---------------------------------------------------------------

def factor_vnp(
    E: ExpSumPoly,
    d: int,
    subset=None,
    seed: int = 0,
    budget: ExpansionBudget = DEFAULT_BUDGET,
):
    """Factor of degree <= d of the represented polynomial, as an exp-sum.

    Takes the first result of extract_factor's search (change of
    coordinates, subset, generator orders, combiner B, leading unit) on a
    desk-scale expansion, which it hands to the search so that P is not
    expanded again; the search reads no generator components, so it builds
    no node copy. Builds no circuit factor (fr.factor is None) and emits B
    as combine_roots does, at the verifier level: one interpolation of the
    verifier V in the lifted coordinates, at the subset's first root with
    generators, gives every root's components, the t^i s^j coefficients of
    V(t * x, alpha + s, aux) at each root's alpha
    (transforms.root_components). Factor position t of a monomial of B
    reads its copy of them on auxiliary block t, and a monomial reading u
    of the k blocks is scaled by 2^-(m * (k - u)). The m * k auxiliaries
    (k <= |S| the largest generator degree in B) are refused over
    BRUTE_FORCE_AUX_LIMIT before any copy is built; d, the subset's shape
    and nx >= 1 are checked before E is expanded. The result is certified
    by exp_sum_expand equality with the screened candidate fr.factor_dense.
    Returns (exp_sum, fr).
    """
    field, nx, m = E.field, E.nx, E.m
    _check_lift_degree(d, budget)
    _check_subset_shape(subset, d)
    z = nx - 1
    if z < 0:
        raise ParameterViolation("z must be an x-variable, and there is none")
    p_dense = exp_sum_expand(E, budget)
    fr = next(_search(circuit_from_dense(p_dense), z, d, subset, seed, budget, p_dense))

    # factor position t of a monomial of B reads auxiliary block t: refuse an
    # output over the brute-force limit before building it
    dS = len(fr.subset)
    B = combiner_dense(fr.bundle, fr.subset, dS)
    k = max(sum(e[1:]) for e in B.terms)
    if m * k > BRUTE_FORCE_AUX_LIMIT:
        raise BudgetExceeded("terms", f"2^{m * k} auxiliary assignments")

    # one interpolation of the lifted verifier for the subset: root after
    # root, output pos * d + i - 1 is the degree-i part of the member of
    # order orders[pos]; a root with no generators needs no copies
    gsets = [g for g in (fr.bundle.states[i].gens for i in fr.subset) if g.orders]
    b = CircuitBuilder(field, nx + m * k)
    blocks = []
    if k:
        comps = root_components(fr.to_lifted(E.verifier), range(z), z,
                                [(g.alpha, g.orders, None) for g in gsets], d)
        for t in range(k):
            aux = {nx + q: b.inp(nx + t * m + q) for q in range(m)}
            blocks.append(b.import_circuit(comps, var_bindings=aux))
    scaled = DensePoly(field, B.n, {e: field.mul(c, _inv_pow2(field, m * (k - sum(e[1:]))))
                                    for e, c in B.terms.items()})
    composed = b.finish(composition_sum(b, scaled, [b.inp(z)], blocks, d, dS))
    out = ExpSumPoly(fr.from_lifted(composed, fr.unit_inv), tuple(range(nx, nx + m * k)))
    if exp_sum_expand(out, budget) != fr.factor_dense:
        raise InvariantViolated("exp-sum factor disagrees with the screened candidate")
    return out, fr

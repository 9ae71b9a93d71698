"""Factor extraction for factors that need not be linear in y.

Pipeline: one search serves both factor emitters. It makes P monic in y,
walks multiplicity levels through Hasse y-derivatives, finds a separating
shift giving distinct simple base-field roots of the univariate slice, lifts
the roots a candidate subset S needs and combines them as
H_{<=|S|}[prod (y - q_i)], one dense combiner B over y and their generators.
A candidate is B composed with the generators' dense members, un-shifted and
screened by exact divisibility against P. extract_factor emits the first
accepted B as a flat composition sum of the generator components (depth(P) +
2 on criterion 7), checked to expand to the screened candidate - never
sampled, so no non-factor is mislabeled; expsum.factor_vnp emits it over an
exp-sum's verifier and builds no circuit factor. Both read the components
that B reads, of all the subset's roots, from one interpolation at its first
root, shifted to the others by Taylor's formula, built only at the node
copies those components weight (lifting.emit_composition).

Only factors genuinely involving y are reported: a candidate whose
un-shifted form loses all y-dependence is rejected, and a polynomial free
of the declared main variable yields NoFactorFound.

Roots of P(0, y) that are honest power series rather than polynomials are
out of reach of base-field lifting; plant factors that split into distinct
in-field roots.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field, replace

from .circuit import Circuit, CircuitBuilder, _check_var, formal_degree_in
from .dense import (
    DEFAULT_BUDGET,
    DensePoly,
    ExpansionBudget,
    compose,
    divides,
    expand,
    univariate_roots,
)
from .errors import (
    BudgetExceeded,
    InvariantViolated,
    NoFactorFound,
    NoSimpleRoots,
    NotASimpleRoot,
    ParameterViolation,
    ZeroPolynomial,
    check_int,
)
from .fields import _shift_candidates
from .lifting import (
    _slices,
    _stage,
    build_A_recurrence,
    emit_composition,
)
from .transforms import (
    MonicForm,
    _check_lift_degree,
    affine,
    hasse_derivative_circuit,
    make_monic,
)

SHIFT_TRIALS = 32
# depth(factor) <= depth(P) + 2 and size(factor) <= 4 * d^2 * size(P), asserted on criterion
# 7: largest depth excess 2, size(factor) / (d^2 * size(P)) 2.71 / 2.55 / 2.98 at d = 1 / 2 / 3
FACTOR_DEPTH_SLACK = 2
FACTOR_SIZE_FACTOR = 4


@dataclass
class RootBundle:
    """Approximate roots q_i of a (shifted, monic) polynomial, d >= 1.

    Each q_i is the unique degree-<=d polynomial with q_i(0) = alpha_i and
    H_{<=d}[source(x, q_i)] = 0. A root lives only as its lift state
    states[i], H_{<=d}[A_d] over its generators: no root circuit or dense
    root is built. Roots are lifted on demand by `lift`; until then
    states[i] is None. A lift whose generator members did not expand
    within the budget raises BudgetExceeded. combiners holds
    combiner_dense's products by (subset, k).
    """

    shift: tuple
    alphas: list
    d: int
    y_var: int
    source: Circuit
    states: list = dc_field(init=False)
    combiners: dict = dc_field(init=False, default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self.states = [None] * len(self.alphas)

    def lift(self, indices, budget: ExpansionBudget = DEFAULT_BUDGET) -> None:
        """Lift each alpha_i with i in indices that is not lifted yet."""
        for i in indices:
            if self.states[i] is not None:
                continue
            alpha = self.alphas[i]
            state = build_A_recurrence(self.source, alpha, self.d, self.y_var, budget=budget)
            if state.gens.derivs_dense is None:  # its zero test overflowed the budget
                raise BudgetExceeded("terms", "the generator members did not expand within budget")
            a_d = state.A[-1]  # the generators have no constant term: q_i(0) = A_d(0)
            if a_d.evaluate1([a_d.field.zero] * a_d.num_vars) != alpha:
                raise NotASimpleRoot(f"lift from alpha={alpha!r} lost its constant term")
            self.states[i] = state


@dataclass
class FactorResult:
    """A certified factor and the change of coordinates it was found in: P's
    monic form, its derivative level, then the separating shift of the
    bundle's roots. to_lifted and from_lifted apply that map and its inverse
    to any circuit over P's variables: to_lifted is the monic form's affine
    map, the level's Hasse derivative and a second affine map, from_lifted is
    one transforms.affine call, which returns its input on the identity map.
    from_lifted_dense is the inverse on a dense polynomial. Variables past
    P's, such as auxiliaries, pass through."""

    factor: Circuit | None       # original coordinates; None from factor_vnp
    factor_dense: DensePoly      # the screened candidate times unit_inv
    unit_inv: object             # inverse leading y-unit of the candidate, one if none
    subset: tuple                # 0-based indices into bundle.alphas
    multiplicity: int
    monic: MonicForm
    deriv_level: int
    bundle: RootBundle
    metrics_chain: list

    def to_lifted(self, circ: Circuit) -> Circuit:
        m, level = self.monic, self.deriv_level
        hasse = hasse_derivative_circuit(m.apply(circ), m.y_var, level)
        return _lifted_source(hasse, m, level, self.bundle.shift)

    def from_lifted(self, circ: Circuit, unit=None) -> Circuit:
        """unit * circ in P's coordinates, unit None meaning one."""
        neg = circ.field.neg
        return affine(circ, self.monic.y_var, [neg(v) for v in self.bundle.shift],
                      shear=[neg(a) for a in self.monic.shift], unit=unit)

    def from_lifted_dense(self, p: DensePoly) -> DensePoly:
        """from_lifted on a dense polynomial: x_i -> x_i - a_i * y - c_i;
        p itself when the shift and the shear are both zero."""
        fld, nv, y = p.field, p.n, self.monic.y_var
        if all(v == fld.zero for v in (*self.bundle.shift, *self.monic.shift)):
            return p
        xs = [DensePoly.variable(fld, nv, v) for v in range(nv)]
        x_vars = [i for i in range(nv) if i != y]
        for xi, ci, ai in zip(x_vars, self.bundle.shift, self.monic.shift):
            xs[xi] = xs[xi] - xs[y].scale(ai) - DensePoly.const(fld, nv, ci)
        return compose(p, xs)


def _lifted_source(hasse: Circuit, monic: MonicForm, level: int, shift) -> Circuit:
    """The order-level Hasse y-derivative of P's monic form, over C(r, level), shifted."""
    fld = hasse.field
    unit = fld.inv(fld.embed(math.comb(monic.degree, level)))
    return affine(hasse, monic.y_var, shift, unit=unit)


def separating_shift(P: Circuit, y: int, seed: int, r: int | None = None):
    """Search shifts c of the x-variables maximizing the count of distinct
    simple base-field roots of P(c, y); returns (c, roots). P should be
    monic in y (up to a unit) so no roots escape to infinity. The first
    candidate with as many simple roots as the formal y-degree of P ends the
    search: no slice has more roots, and ties keep the earlier candidate. r,
    when given, is P's total degree, an int >= 1 that sets the grid."""
    if r is not None:
        check_int("degree r", r, 1)
    bound = 2 * max(1, r if r is not None else P.formal_degree()) ** 2 + 1
    most = formal_degree_in(P, y)
    best = None
    shifts = _shift_candidates(P.field, P.num_vars - 1, bound, SHIFT_TRIALS, seed,
                               "separating-shift")
    for c, univ in _slices(P, y, shifts):
        simple = [root for root, mult in univariate_roots(univ) if mult == 1]
        if best is None or len(simple) > len(best[1]):
            best = (c, simple)
            if len(simple) == most:
                break
    if best is None or not best[1]:
        raise NoSimpleRoots("no shift produced a simple base-field root")
    return best


def combiner_dense(bundle: RootBundle, subset, k: int) -> DensePoly:
    """B = H_{<=k}[prod_{i in subset} (y - H_{<=k}[A_i])] over y, then each
    lifted root's generator variables in subset order: one `compose` of the
    monomial y_1 ... y_s over the factors, capped at k. No monomial of the
    product has lower degree than its factors, so H_{<=k}[A_i] (the root's
    LiftState.low(k)) is all of A_i that reaches B. Built once per
    (subset, k) and kept on the bundle, so the screen and the emitters share
    one B; callers must not change it."""
    key = (tuple(subset), k)
    if key in bundle.combiners:
        return bundle.combiners[key]
    states = [bundle.states[i] for i in subset]
    if None in states:
        raise ParameterViolation(f"roots {subset} are not all lifted")
    fld = bundle.source.field
    nb = 1 + sum(len(st.gens.orders) for st in states)
    y, offset, factors = DensePoly.variable(fld, nb, 0), 1, []
    for st in states:
        w = len(st.gens.orders)
        factors.append(y - st.low(k).with_vars(nb, {j: offset + j for j in range(w)}))
        offset += w
    product = DensePoly.monomial(fld, len(factors), (1,) * len(factors), fld.one)
    bundle.combiners[key] = compose(product, factors, cap=k)
    return bundle.combiners[key]


def combine_roots(bundle: RootBundle, subset, d: int) -> Circuit:
    """Circuit for H_{<=d}[prod_{i in subset} (y - q_i)], truncation over
    total (x, y)-degree: `combiner_dense` emitted over y and the generator
    components it reads by `lifting.emit_composition`, in one builder. The
    components of every root of the subset come from one interpolation of
    the source at the first of them with generators, which builds only the
    node copies they weight. The subset names distinct lifted roots, and d
    may not exceed the lift order bundle.d, above which no component exists."""
    subset, count = tuple(subset), len(bundle.alphas)
    if not (subset and all(type(i) is int and 0 <= i < count for i in subset)
            and len(set(subset)) == len(subset)):
        raise ParameterViolation(
            f"subset {subset} must name distinct roots in 0..{count - 1}")
    if type(d) is not int or not 0 <= d <= bundle.d:
        raise ParameterViolation(f"truncation order {d} outside 0..{bundle.d}")
    B = combiner_dense(bundle, subset, d)
    src, y = bundle.source, bundle.y_var
    roots = [r for i in subset for r in bundle.states[i].gens.roots]
    xs = [v for v in range(src.num_vars) if v != y]
    b = CircuitBuilder(src.field, src.num_vars)
    return b.finish(emit_composition(b, B, [y], d, src, xs, y, roots))


def _combine_dense(bundle: RootBundle, subset, d: int, budget: ExpansionBudget) -> DensePoly:
    """H_{<=d}[prod_{i in subset} (y - q_i)] in source's variable space: B
    composed with y and each root's dense generator members (capped
    derivatives less their constant terms, so the composition is exact).
    The member of order j is cut to x-degree <= d - j: it stands for z_j,
    which B holds only in monomials of degree >= j + 1, so the cap drops
    every higher term of it."""
    fld, nv = bundle.source.field, bundle.source.num_vars
    values = [DensePoly.variable(fld, nv, bundle.y_var)]
    for i in subset:
        gens = bundle.states[i].gens
        for j in gens.orders:
            low = gens.derivs_dense[j].terms
            cut = {e: c for e, c in low.items() if 0 < sum(e) <= d - j}
            values.append(DensePoly(fld, nv, cut))
    return compose(combiner_dense(bundle, subset, d), values, cap=d, budget=budget)


def _leading_y_unit(p: DensePoly, y: int):
    """Leading y-coefficient if it is a nonzero field constant, else one."""
    dy = p.degree_in(y)
    lead = [(e, c) for e, c in p.terms.items() if e[y] == dy]
    return lead[0][1] if len(lead) == 1 and sum(lead[0][0]) == dy else p.field.one


def _subset_iter(count: int, max_size: int, given=None):
    if given is not None:
        yield tuple(given)
        return
    for size in range(1, min(count, max_size) + 1):
        yield from itertools.combinations(range(count), size)


def _check_subset_shape(subset, d: int) -> None:
    if subset is not None and not (0 < len(set(subset)) == len(subset) <= d
                                   and all(type(i) is int for i in subset)):
        raise ParameterViolation(f"a given subset names 1..{d} distinct roots, got {subset}")


def _search(P: Circuit, y: int, d: int, subset, seed: int, budget: ExpansionBudget,
            P_dense: DensePoly | None = None):
    """Yield each FactorResult whose candidate divides P, factor unset and
    factor_dense scaled monic in y when its lead is a unit; raise
    ParameterViolation or NoFactorFound when the levels run out. P_dense,
    when given, is expand(P) (factor_vnp holds it), and P is not expanded
    again. The search reads no generator components, so it builds no node
    copy of P."""
    P.output()
    _check_var(P, y)
    _check_lift_degree(d, budget)
    _check_subset_shape(subset, d)
    fld = P.field

    if P_dense is None:
        P_dense = expand(P, budget)
    if P_dense.is_zero():
        raise ZeroPolynomial("cannot factor the zero polynomial")
    r = P_dense.total_degree()
    if r == 0:
        raise NoFactorFound("P is a nonzero constant")

    monic = make_monic(P, r, seed, y_var=y)
    Pm = monic.circuit
    chain = [_stage("input", P), _stage("monic", Pm)]

    # multiplicity levels: a factor of multiplicity m in P carries simple
    # roots at derivative level k = m - 1 and at no earlier level; a given
    # subset indexes the sorted simple roots of each level in turn
    fitted, misses = False, []  # misses: the levels with roots a given subset does not fit
    for level in range(r):
        Hk = hasse_derivative_circuit(Pm, y, level)  # a constant factor moves no root
        try:
            c, alphas = separating_shift(Hk, y, seed, r=r - level)
        except NoSimpleRoots:
            continue
        if subset is not None and not all(0 <= i < len(alphas) for i in subset):
            roots = f"{len(alphas)} simple root{'s' * (len(alphas) > 1)}"
            misses.append(f"{roots} at level {level + 1}")
            continue
        fitted = True
        # roots are lifted when a subset first needs them; the screen's exact
        # divisibility certifies candidates, so no per-root residual check runs
        bundle = RootBundle(shift=c, alphas=alphas, d=d, y_var=y,
                            source=_lifted_source(Hk, monic, level, c))
        # the level's change of coordinates; an accepted subset fills in the rest
        coords = FactorResult(factor=None, factor_dense=None, unit_inv=None, subset=(),
                              multiplicity=0, monic=monic, deriv_level=level,
                              bundle=bundle, metrics_chain=chain)
        for S in _subset_iter(len(alphas), d, given=subset):
            try:
                bundle.lift(S, budget)
            except NotASimpleRoot:
                break
            cand = coords.from_lifted_dense(_combine_dense(bundle, S, len(S), budget))
            if cand.degree_in(y) < 1:
                continue
            mult = divides(cand, P_dense)
            if mult < 1:
                continue
            inv = fld.inv(_leading_y_unit(cand, y))
            yield replace(coords, factor_dense=cand.scale(inv), unit_inv=inv,
                          subset=tuple(S), multiplicity=mult)
    if misses and not fitted:
        raise ParameterViolation(
            "the subset names a root outside the simple roots of the slice at every "
            f"multiplicity level: {', '.join(misses)}"
        )
    shear = "the identity" if all(a == fld.zero for a in monic.shift) else "not the identity"
    raise NoFactorFound(
        f"no combination of lifted roots up to size {d} divides P: searched multiplicity "
        f"levels 1..{r}, one separating shift per level chosen among up to {SHIFT_TRIALS} "
        f"candidates, monic shear {shear}"
    )


def extract_factor(
    P: Circuit,
    y: int,
    d: int,
    subset=None,
    seed: int = 0,
    budget: ExpansionBudget = DEFAULT_BUDGET,
) -> FactorResult:
    """Extract a factor of P of degree <= d involving y: the first result of
    the search factor_vnp shares, emitted as a circuit.

    subset=None enumerates candidate root subsets by increasing size and
    accepts the first one whose combination exactly divides P; an explicit
    subset (0-based indices into a level's simple-root list, which is sorted)
    combines exactly those roots, level by level, until one combination
    divides P; an index outside the list of every level with simple roots, a
    repeated index or more than d indices is a ParameterViolation, raised
    before any root is lifted. A root is lifted when the
    first subset containing it is screened, so only the roots of screened
    subsets are ever lifted; a root that fails to lift ends its multiplicity
    level. The returned factor is expressed in the original coordinates and,
    when its leading y-coefficient is a constant, normalized monic. A d above
    the budget's degree bound is refused before any work.
    """
    res = next(_search(P, y, d, subset, seed, budget))
    factor_circ = res.from_lifted(combine_roots(res.bundle, res.subset, len(res.subset)),
                                  res.unit_inv)
    # the screen certified factor_dense^mult | P; the circuit inherits it
    if expand(factor_circ, budget) != res.factor_dense:
        raise InvariantViolated("circuit factor disagrees with its dense screen")
    res.metrics_chain.append(_stage("factor", factor_circ))
    res.factor = factor_circ
    return res

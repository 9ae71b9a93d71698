"""Factor extraction for factors that need not be linear in y.

Pipeline: make P monic in y, walk multiplicity levels through Hasse
y-derivatives, find a separating shift giving distinct simple base-field
roots of the univariate slice, lift the roots a candidate subset S needs,
and combine them as H_{<=|S|}[prod (y - q_i)]. Candidate subsets are
screened densely and the accepted one is rebuilt as a circuit, un-shifted
back to the original coordinates, and certified by exact divisibility
against P - never by sampling, so a non-factor can never be mislabeled.

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
from dataclasses import dataclass, field as dc_field

from .circuit import Circuit, CircuitBuilder, _check_var, const_circuit, fix_vars, formal_degree_in
from .dense import (
    DEFAULT_BUDGET,
    DensePoly,
    ExpansionBudget,
    divides,
    expand,
    substitute_var_dense,
    translate_dense,
    truncate_dense,
    univariate_roots,
)
from .errors import (
    InvariantViolated,
    NoFactorFound,
    NoSimpleRoots,
    NotASimpleRoot,
    ParameterViolation,
    ZeroPolynomial,
)
from .fields import _shift_candidates
from .lifting import _stage, build_A_recurrence, compose_root
from .transforms import (
    MonicForm,
    _check_lift_degree,
    hasse_derivative_circuit,
    make_monic,
    translate,
    truncate_deg,
    undo_monic_shift,
)

SHIFT_TRIALS = 32


@dataclass
class RootBundle:
    """Approximate roots q_i of a (shifted, monic) polynomial.

    Each q_i is the unique degree-<=d polynomial with q_i(0) = alpha_i and
    H_{<=d}[source(x, q_i)] = 0; circuits live in source's variable space
    with the y slot unused. Roots are lifted on demand by `lift`: until
    then slot i of approx, states and approx_dense holds None.
    """

    shift: tuple
    alphas: list
    d: int
    y_var: int
    source: Circuit
    approx: list = dc_field(init=False)
    states: list = dc_field(init=False)
    approx_dense: list = dc_field(init=False)

    def __post_init__(self):
        self.approx = [None] * len(self.alphas)
        self.states = [None] * len(self.alphas)
        self.approx_dense = [None] * len(self.alphas)

    def lift(self, indices, budget: ExpansionBudget = DEFAULT_BUDGET) -> None:
        """Lift each alpha_i with i in indices that is not lifted yet.
        d = 0 degenerates to constants."""
        P = self.source
        fld = P.field
        for i in indices:
            if self.approx[i] is not None:
                continue
            alpha = self.alphas[i]
            if self.d == 0:
                q, state = const_circuit(fld, alpha, P.num_vars), None
            else:
                state = build_A_recurrence(P, alpha, self.d, self.y_var, budget=budget)
                q = compose_root(state)
            q_dense = expand(q, budget)
            if q_dense.evaluate([fld.zero] * P.num_vars) != alpha:
                raise NotASimpleRoot(f"lift from alpha={alpha!r} lost its constant term")
            self.approx[i], self.states[i], self.approx_dense[i] = q, state, q_dense


@dataclass
class FactorResult:
    factor: Circuit              # original coordinates
    subset: tuple                # 0-based indices into bundle.alphas
    multiplicity: int
    monic: MonicForm
    deriv_level: int
    bundle: RootBundle
    metrics_chain: list


def separating_shift(P: Circuit, y: int, seed: int, r: int | None = None):
    """Search shifts c of the x-variables maximizing the count of distinct
    simple base-field roots of P(c, y); returns (c, roots). P should be
    monic in y (up to a unit) so no roots escape to infinity. The first
    candidate with as many simple roots as the formal y-degree of P ends the
    search: no slice has more roots, and ties keep the earlier candidate."""
    fld = P.field
    nv = P.num_vars
    x_vars = [i for i in range(nv) if i != y]
    bound = 2 * max(1, r if r is not None else P.formal_degree()) ** 2 + 1
    most = formal_degree_in(P, y)
    best = None
    for c in _shift_candidates(fld, len(x_vars), bound, SHIFT_TRIALS, seed, "separating-shift"):
        univ = expand(fix_vars(P, dict(zip(x_vars, c))))
        if univ.is_zero():
            continue
        simple = [root for root, mult in univariate_roots(univ) if mult == 1]
        if best is None or len(simple) > len(best[1]):
            best = (c, simple)
            if len(simple) == most:
                break
    if best is None or not best[1]:
        raise NoSimpleRoots("no shift produced a simple base-field root")
    return best


def combine_roots(bundle: RootBundle, subset, d: int) -> Circuit:
    """Circuit for H_{<=d}[prod_{i in subset} (y - q_i)], truncation over
    total (x, y)-degree."""
    subset = tuple(subset)
    if not subset:
        raise ParameterViolation("subset must be nonempty")
    fld = bundle.source.field
    nv = bundle.source.num_vars
    b = CircuitBuilder(fld, nv)
    parts = []
    bound = 0
    for i in subset:
        q_id = b.import_circuit(bundle.approx[i])[0]
        parts.append(b.sub(b.inp(bundle.y_var), q_id))
        bound += max(1, bundle.approx_dense[i].total_degree())
    prod = b.mul(*parts) if len(parts) > 1 else parts[0]
    raw = b.finish(prod)
    return truncate_deg(raw, d, deg_bound=max(1, bound))


def _combine_dense(bundle: RootBundle, subset, d: int) -> DensePoly:
    fld = bundle.source.field
    nv = bundle.source.num_vars
    y = bundle.y_var
    acc = DensePoly.const(fld, nv, fld.one)
    y_poly = DensePoly.variable(fld, nv, y)
    for i in subset:
        acc = acc * (y_poly - bundle.approx_dense[i])
    return truncate_dense(acc, d)


def _unshift_dense(p: DensePoly, shift_x, x_vars, monic: MonicForm) -> DensePoly:
    """Undo the separating shift, then the monic change of variables."""
    fld = p.field
    full = [fld.zero] * p.n
    for xi, ci in zip(x_vars, shift_x):
        full[xi] = fld.neg(ci)
    out = translate_dense(p, full)
    y = monic.y_var
    for xi, ai in zip(x_vars, monic.shift):
        if ai != fld.zero:
            sub = DensePoly(fld, p.n, {
                _unit_exp(p.n, xi): fld.one,
                _unit_exp(p.n, y): fld.neg(ai),
            })
            out = substitute_var_dense(out, xi, sub)
    return out


def _unit_exp(n, i):
    e = [0] * n
    e[i] = 1
    return tuple(e)


def _leading_y_unit(p: DensePoly, y: int):
    """Leading y-coefficient if it is a nonzero field constant, else None."""
    dy = p.degree_in(y)
    if dy <= 0:
        return None
    lead = {e: c for e, c in p.terms.items() if e[y] == dy}
    if len(lead) != 1:
        return None
    (e, c), = lead.items()
    if any(x for i, x in enumerate(e) if i != y):
        return None
    return c


def _subset_iter(count: int, max_size: int, given=None):
    if given is not None:
        yield tuple(given)
        return
    for size in range(1, min(count, max_size) + 1):
        yield from itertools.combinations(range(count), size)


def extract_factor(
    P: Circuit,
    y: int,
    d: int,
    subset=None,
    seed: int = 0,
    budget: ExpansionBudget = DEFAULT_BUDGET,
) -> FactorResult:
    """Extract a factor of P of degree <= d involving y.

    subset=None enumerates candidate root subsets by increasing size and
    accepts the first one whose combination exactly divides P; an explicit
    subset (0-based indices into the simple-root list, which is sorted)
    combines exactly those roots, and an index outside that list is a
    ParameterViolation. A root is lifted when the first subset containing
    it is screened, so only the roots of screened subsets are ever lifted;
    a root that fails to lift ends its multiplicity level. The returned
    factor is expressed in the original coordinates and, when its leading
    y-coefficient is a constant, normalized monic. A d above the budget's
    degree bound is refused before any work.
    """
    P.output()
    _check_var(P, y)
    _check_lift_degree(d, budget)
    fld = P.field
    nv = P.num_vars
    x_vars = [i for i in range(nv) if i != y]

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
    # roots at derivative level k = m - 1 and at no earlier level
    max_level = r if subset is None else 1
    for level in range(max_level):
        if r - level < 1:
            break
        if level == 0:
            Pk = Pm
        else:
            Pk = hasse_derivative_circuit(Pm, y, level)
            unit = fld.embed(math.comb(r, level))
            b = CircuitBuilder(fld, Pk.num_vars)
            out = b.mul(b.const(fld.inv(unit)), b.import_circuit(Pk)[0])
            Pk = b.finish(out)
        try:
            c, alphas = separating_shift(Pk, y, seed, r=r - level)
        except NoSimpleRoots:
            continue
        if subset is not None and not all(0 <= i < len(alphas) for i in subset):
            raise ParameterViolation(
                f"the subset names a root outside the {len(alphas)} simple roots "
                "of the slice"
            )
        full_shift = [fld.zero] * Pk.num_vars
        for xi, ci in zip(x_vars, c):
            full_shift[xi] = ci
        Pk_s = Pk if all(v == fld.zero for v in c) else translate(Pk, full_shift)
        # roots are lifted when a subset first needs them; the subset
        # screening and the final exact-divisibility check certify
        # candidates, so no per-root residual check runs
        bundle = RootBundle(shift=c, alphas=alphas, d=d, y_var=y, source=Pk_s)
        for S in _subset_iter(len(alphas), d, given=subset):
            try:
                bundle.lift(S, budget)
            except NotASimpleRoot:
                break
            dS = len(S)
            cand = _combine_dense(bundle, S, dS)
            cand_orig = _unshift_dense(cand, c, x_vars, monic)
            if cand_orig.degree_in(y) < 1:
                continue
            mult = divides(cand_orig, P_dense, main_var=y)
            if mult < 1:
                continue
            factor_circ = combine_roots(bundle, S, dS)
            if any(v != fld.zero for v in c):
                factor_circ = translate(factor_circ, [fld.neg(v) for v in full_shift])
            factor_circ = undo_monic_shift(factor_circ, monic)
            unit = _leading_y_unit(cand_orig, y)
            if unit is not None and unit != fld.one:
                b = CircuitBuilder(fld, nv)
                out = b.mul(b.const(fld.inv(unit)), b.import_circuit(factor_circ)[0])
                factor_circ = b.finish(out)
            check = divides(expand(factor_circ, budget), P_dense, main_var=y)
            if check != mult:
                raise InvariantViolated("circuit factor disagrees with its dense screen")
            chain.append(_stage("factor", factor_circ))
            return FactorResult(
                factor=factor_circ,
                subset=tuple(S),
                multiplicity=mult,
                monic=monic,
                deriv_level=level,
                bundle=bundle,
                metrics_chain=chain,
            )
        if subset is not None:
            break
    raise NoFactorFound(
        f"no combination of lifted roots up to size {d} divides P "
        f"(degree-<= {d} factors in y may not exist over this field)"
    )

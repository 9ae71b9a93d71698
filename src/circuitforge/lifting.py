"""Hensel lifting of low-degree roots.

The engine has three layers:

  - lift_step: one refinement h -> H_{<=i}[h - P(x,h)/delta], as a circuit.
  - build_A_recurrence: the small circuits A_1..A_d over generator
    variables with H_{<=i}[f] = H_{<=i}[A_i(g_0..g_d)]; the recurrence adds
    at most 10*d^2 wires per step (hard law, checked on every build).
  - lift_root: the end-to-end pipeline; searches translations c until the
    slice P(c, y) has a base-field root, of multiplicity m by exact division,
    makes it simple with the order-(m - 1) y-derivative, runs the recurrence,
    builds H_{<=d}[A_d(g)] from the degree components of the generators,
    translates back, and certifies the residual P(x, f) = 0 against the
    dense oracle (Schwartz-Zippel above budget).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .circuit import Circuit, CircuitBuilder, _check_var, drop_unused_vars, substitute, sz_is_zero
from .dense import (
    DEFAULT_BUDGET,
    DensePoly,
    ExpansionBudget,
    _multiplicity,
    expand,
    univariate_roots,
)
from .errors import (
    BudgetExceeded,
    InvariantViolated,
    NoRationalRoot,
    NotASimpleRoot,
    ParameterViolation,
    ResidualNonzero,
    ZeroDelta,
    ZeroPolynomial,
)
from .fields import _shift_candidates
from .transforms import (
    GeneratorSet,
    _check_lift_degree,
    affine,
    generator_set,
    hasse_derivative_circuit,
    truncate_deg,
)

A_STEP_WIRE_LAW = 10  # size(A_i) - size(A_{i-1}) <= 10 * d^2, so size(A_d) <= 10 * d^3
# size(root) <= 4 * (d + 1) * size(P) for a degree-d root of P; the suite
# asserts it with depth(root) <= depth(P) + 3 on the criterion-1 family,
# whose largest ratio size(root) / ((d + 1) * size(P)) is 3.25, at d = 2
ROOT_SIZE_FACTOR = 4
TRANSLATE_TRIALS = 32


@dataclass
class LiftState:
    """State of the A_i recurrence for one (P, alpha, d)."""

    alpha: object
    delta: object
    gens: GeneratorSet
    A: list  # A[i-1] computes A_i over the generator variables
    wire_deltas: list = dc_field(default_factory=list)
    lows: dict = dc_field(default_factory=dict, repr=False, compare=False)

    @property
    def d(self) -> int:
        return self.gens.d

    def low(self, k: int) -> DensePoly:
        """H_{<=k}[A_d] over the generator variables, expanded once per k.
        Each step of the recurrence is exact one degree further, so for k <= d
        this is also H_{<=k}[A_k]: compose_root and the factor combiner read
        the same entry."""
        if k not in self.lows:
            self.lows[k] = expand(self.A[-1], cap=k)
        return self.lows[k]


@dataclass
class RootCertificate:
    root: Circuit
    alpha: object
    delta: object
    multiplicity: int
    shift: tuple
    residual_mode: str  # "oracle" | "sz"
    metrics_chain: list
    state: LiftState


def lift_step(P: Circuit, h: Circuit, i: int, delta, y: int) -> Circuit:
    """One Hensel step: circuit for H_{<=i}[h - P(x, h)/delta].

    h must be a circuit over P's variable space that does not read y. The
    construction is exact circuit composition; nothing is expanded.
    """
    if delta == P.field.zero:
        raise ZeroDelta("lifting needs a nonzero delta")
    fld = P.field
    comp = substitute(P, {y: h}, num_vars=P.num_vars)
    b = CircuitBuilder(fld, P.num_vars)
    h_id = b.import_circuit(h)[0]
    c_id = b.import_circuit(comp)[0]
    out = b.add(h_id, b.mul(b.const(fld.neg(fld.inv(delta))), c_id))
    raw = b.finish(out)
    return truncate_deg(raw, i)


def build_A_recurrence(
    P: Circuit,
    alpha,
    d: int,
    y: int,
    budget: ExpansionBudget = DEFAULT_BUDGET,
) -> LiftState:
    """Construct A_1..A_d over the generator variables.

    Requires P(0, alpha) = 0 and dP/dy(0, alpha) != 0. Each step adds the
    shared power ladder (A_{i-1} - f0)^j once and reuses it across the
    affine forms, which is what keeps the additions within 10*d^2 wires.
    """
    fld = P.field
    if P.evaluate1([alpha if i == y else fld.zero for i in range(P.num_vars)]) != fld.zero:
        raise NotASimpleRoot(f"alpha={alpha!r} is not a root of P(0, y)")
    gens = generator_set(P, y, alpha, d, budget=budget)
    consts = gens.deriv_constants  # c_j = (d^j P / dy^j)(0, alpha)
    delta = consts[1]
    if delta == fld.zero:
        raise NotASimpleRoot(
            f"alpha={alpha!r} is a multiple root of P(0, y); reduce multiplicity first"
        )

    t = len(gens.orders)
    b = CircuitBuilder(fld, max(t, 1))
    ell = []
    for j in range(d + 1):
        zi = gens.z_index(j)
        if zi is None:
            ell.append(b.const(consts[j]))
        else:
            ell.append(b.add(b.inp(zi), b.const(consts[j])))
    neg_inv_delta = b.const(fld.neg(fld.inv(delta)))

    a_cur = b.add(b.const(alpha), b.mul(neg_inv_delta, ell[0]))
    A_circs = [b.finish(a_cur)]
    deltas = [A_circs[0].size()]
    for i in range(2, d + 1):
        w = b.add(a_cur, b.const(fld.neg(alpha)))
        pows = [None, w]
        for _ in range(2, i + 1):
            pows.append(b.mul(pows[-1], w))
        terms = [ell[0]] + [b.mul(ell[j], pows[j]) for j in range(1, i + 1)]
        a_cur = b.add(a_cur, b.mul(neg_inv_delta, b.add(*terms)))
        A_circs.append(b.finish(a_cur))
        deltas.append(A_circs[-1].size() - A_circs[-2].size())

    law = A_STEP_WIRE_LAW * d * d
    for i, added in enumerate(deltas, start=1):
        if added > law:
            raise InvariantViolated(
                f"A recurrence wire law violated at step {i}: {added} > {law}"
            )
    return LiftState(alpha=alpha, delta=delta, gens=gens, A=A_circs, wire_deltas=deltas)


def compose_root(state: LiftState, k: int | None = None) -> Circuit:
    """H_{<=k}[A_k(g_0..g_d)] as a circuit over P's variable space (the y
    slot comes back unused). k defaults to the full lift order d; the root
    is the `composition_sum` of A_k (depth at most depth(P) + 3 on the
    criterion-1 family). With no generators A_k is a constant.
    """
    d = state.d
    if k is None:
        k = d
    if not 1 <= k <= d:
        raise ParameterViolation(f"truncation order {k} outside 1..{d}")
    gens = state.gens
    b = CircuitBuilder(state.A[-1].field, gens.num_vars)
    comp = b.import_circuit(gens.components) if gens.orders else []
    return b.finish(composition_sum(b, state.low(k), [], [comp] * k, d, k))


def composition_sum(b: CircuitBuilder, poly, plain: list, comp: list, d: int, k: int) -> int:
    """Gate for H_{<=k}[poly(plain, g)], flat under one sum (k <= d).

    The dense poly's first len(plain) variables are the degree-1 gates in
    plain (y); variable len(plain) + j is generator g_j, whose degree-i part
    as a monomial's t-th generator factor is comp[t][j * d + i - 1]. Since
    generators have no constant term, c * y^a * z^e is emitted, with nothing
    truncated after the fact, as c times the sum, over |e| <= i <= k - a and
    the compositions of i into |e| positive parts, of y^a * prod_t H_{i_t}[g_{j_t}].
    """
    n_plain = len(plain)
    terms = []
    for e in sorted(poly.terms):
        ys = [plain[v] for v in range(n_plain) for _ in range(e[v])]
        js = [pos for pos, mult in enumerate(e[n_plain:]) for _ in range(mult)]
        parts = [
            b.mul(*ys, *(comp[t][j * d + it - 1] for t, (j, it) in enumerate(zip(js, split))))
            for i in range(len(js), k - len(ys) + 1)
            for split in _compositions(i, len(js))
        ]
        terms.append(b.mul(b.const(poly.terms[e]), b.add(*parts)))
    return b.add(*terms)


def _compositions(i: int, m: int):
    """Ordered m-tuples of positive integers summing to i (() when m = 0)."""
    if m == 0:
        if i == 0:
            yield ()
        return
    for first in range(1, i - m + 2):
        for rest in _compositions(i - first, m - 1):
            yield (first,) + rest


def _stage(name: str, circ: Circuit) -> tuple:
    m = circ.metrics()
    return (name, {"size": m["size"], "depth": m["depth"], "formal_degree": m["formal_degree"]})


def lift_root(
    P: Circuit,
    y: int,
    d: int,
    seed: int,
    alpha=None,
    budget: ExpansionBudget = DEFAULT_BUDGET,
) -> RootCertificate:
    """Find a circuit f of degree <= d with P(x, f) = 0.

    Searches translations of the origin until P(0, y) acquires a base-field
    root (alpha pins the root and skips the search, so a pinned alpha is
    tried only at the origin), makes a root of multiplicity m simple with
    the order-(m - 1) y-derivative, runs the A recurrence, composes it with
    the generator components, translates back, and certifies the residual.
    The certificate records per-stage metrics and whether the residual check
    ran on the dense oracle or fell back to Schwartz-Zippel points. A d
    above the budget's degree bound is refused before any work.
    """
    _check_var(P, y)
    _check_lift_degree(d, budget)
    fld = P.field
    x_vars = [i for i in range(P.num_vars) if i != y]

    grid = 2 * max(1, P.formal_degree()) * d + 1
    trials = TRANSLATE_TRIALS if alpha is None else 0
    shifts = _shift_candidates(fld, len(x_vars), grid, trials, seed, "lift-root", "translate")

    saw_slice = saw_candidate = False
    for c, p_univ in _slices(P, y, shifts, budget):
        saw_slice = True
        roots = univariate_roots(p_univ) if alpha is None else _pinned_root(p_univ, y, alpha)
        if not roots:
            continue
        saw_candidate = True
        Pc = affine(P, y, c)
        for root_val, m in roots:
            # a root of multiplicity m is simple for the order-(m - 1) y-derivative
            P_try = Pc if m == 1 else hasse_derivative_circuit(Pc, y, m - 1)
            try:
                state = build_A_recurrence(P_try, root_val, d, y, budget=budget)
            except NotASimpleRoot:
                continue
            h = compose_root(state)
            f_cand = affine(h, y, [fld.neg(v) for v in c])
            mode = _residual_check(P, y, f_cand, seed, budget)
            if mode is None:
                continue
            stages = (("input", P), ("translated", Pc), ("multiplicity-reduced", P_try),
                      ("A_d", state.A[-1]), ("composed-truncated", h))
            # measured first: the projection of an unshifted root (f_cand is h)
            # copies h's metrics instead of walking the root again
            chain = [_stage(name, circ) for name, circ in stages]
            root_circ = drop_unused_vars(f_cand, x_vars)
            chain.append(_stage("root", root_circ))
            return RootCertificate(
                root=root_circ,
                alpha=root_val,
                delta=state.delta,
                multiplicity=m,
                shift=c,
                residual_mode=mode,
                metrics_chain=chain,
                state=state,
            )
    if not saw_slice and _is_zero(P, budget):
        raise ZeroPolynomial("cannot lift a root of the zero polynomial")
    if not saw_candidate:
        raise NoRationalRoot(
            "no translation produced a base-field root of P(0, y)" if alpha is None
            else f"alpha={alpha!r} is not a root of P(0, y)" if saw_slice
            else "P(0, y) is identically zero, and a pinned alpha is tried only at the origin"
        )
    raise ResidualNonzero(
        f"no candidate root of degree <= {d} satisfies P(x, f) = 0; "
        "the declared degree may be wrong or the root is not over the base field"
    )


def _slices(P: Circuit, y: int, shifts, budget: ExpansionBudget = DEFAULT_BUDGET):
    """(c, P(c, y)) for each shift c of the x-variables whose slice is not
    zero: the slice search of lift_root and separating_shift. Each slice is
    P expanded with the x-variables bound to c, with no fixed copy of P
    built. Private, so a traced run counts its expansions under the caller's
    span."""
    fld, n = P.field, P.num_vars
    x_vars = [i for i in range(n) if i != y]
    for c in shifts:
        at = {v: DensePoly.const(fld, n, value) for v, value in zip(x_vars, c)}
        p_univ = expand(P, budget, at=at)
        if not p_univ.is_zero():
            yield c, p_univ


def _pinned_root(p_univ: DensePoly, y: int, alpha) -> list:
    """[(r, m)] for the root r of the slice p_univ that `univariate_roots`
    would return equal to alpha, with its multiplicity m, or []: exact
    division, no root finding, so an unreduced alpha matches none."""
    fld = p_univ.field
    try:
        r = Fraction(alpha) if fld.kind == "rationals" else int(alpha)
    except (TypeError, ValueError, OverflowError):
        return []
    if r != alpha or (fld.kind == "prime" and not 0 <= r < fld.p):
        return []
    m = _multiplicity(p_univ, y, r)
    return [(r, m)] if m else []


def _is_zero(P: Circuit, budget) -> bool:
    """True when the dense oracle shows P to be zero within the budget."""
    try:
        return expand(P, budget).is_zero()
    except BudgetExceeded:
        return False


def _residual_check(P: Circuit, y: int, f_cand: Circuit, seed: int, budget) -> str | None:
    """Certify P(x, f) = 0; returns 'oracle', 'sz', or None on failure.

    The oracle expands f, then P with y bound to it: the same exact identity
    as expanding the circuit P(x, f), with no copy of it built. Only when
    either expansion is over budget is P(x, f) built, and tested by
    Schwartz-Zippel on a grid of twice its formal degree."""
    try:
        return "oracle" if expand(P, budget, at={y: expand(f_cand, budget)}).is_zero() else None
    except BudgetExceeded:
        pass
    residual = substitute(P, {y: f_cand}, num_vars=P.num_vars)
    grid = 2 * max(1, residual.formal_degree())
    return "sz" if sz_is_zero(residual, grid, seed, "lift-root", "residual-sz") else None

"""Hitting sets from explicit hard polynomials, and identity-testing tools.

The hitting-set construction is the mechanics of the hardness-to-randomness
argument: evaluate the supplied multilinear table on the design's windows
of an assignment grid T^l with |T| = D*d + 1. Hitting sets are scanned in
lexicographic y-order (the first point is the all-f(0) point); a limit cap
guards against |T|^l enumerations, so a 'zero' verdict is certain only when
the scan was exhausted and the result says which case happened.

pit_sz runs Schwartz-Zippel on the grid {0..d}^n, either with seeded random
points or exhaustively; exhaustive mode is definitive. hybrid_locate walks
the hybrid chain of the composition argument and returns the switch index
together with a fixing assignment that keeps the last nonzero hybrid alive.

Every test here evaluates circuits in batches through circuit.evaluate_batches,
and every grid comes from one batcher, circuit._grid_batches: the origin
alone, then aligned blocks of at most GRID_BATCH points, each whole block
as broadcast axes of its low coordinates (built once per scan). An
exhaustive scan of {0..g-1}^n walks only {0..g-1}^k, the grid of the k
variables the circuit reads, each unread column held at 0 and each gate
computed only over the sub-grid of the coordinates it reads: the first
nonzero point of the full grid has every unread coordinate 0, and each
zero of the small grid stands for g^(n-k) zeros. A hitting-set scan walks
T^l, flattens each y-batch to its points and maps it through the table's
vectorized fold, one per window; random points run as column chunks in
their draw order. All scans run in lexicographic order, last coordinate
fastest, and report the first nonzero point as the witness.
Every grid must have distinct values in the field (else FieldTooSmall), and
no test visits more than EXHAUSTIVE_POINT_BUDGET points: larger walked
grids (g^k), random trial counts and hitting-set limits are refused with
BudgetExceeded before any point is drawn.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field

import numpy as np

from .circuit import GRID_BATCH, Circuit, CircuitBuilder, fix_vars
from .circuit import _active_grid_batches, _active_vars, _column_dtype, _flat_columns
from .circuit import _grid_batches, evaluate_batches
from .circuit import formal_degree_in
from .circuit import parse_header, parse_value
from .dense import DEFAULT_BUDGET, expand
from .designs import TABLE_VARS_LIMIT, Design
from .errors import (
    ArityMismatch, BudgetExceeded, CircuitSyntaxError, FieldTooSmall, ParameterViolation,
    PreconditionFailed, check_int,
)
from .fields import Field, PrimeField
from .seeding import stream

EXHAUSTIVE_POINT_BUDGET = 2_000_000


class ExplicitPoly:
    """Multilinear polynomial given by its full 2^m coefficient table.

    coeffs[mask] is the coefficient of prod_{j in mask} z_j (bit j of the
    mask marks variable j). Desk-scale explicitness made literal: the table
    is complete and m stays small.
    """

    def __init__(self, field: Field, m: int, coeffs: list):
        if m > TABLE_VARS_LIMIT:
            raise ParameterViolation(f"explicit tables are desk scale (m <= {TABLE_VARS_LIMIT})")
        if len(coeffs) != 1 << m:
            raise ParameterViolation(f"table needs {1 << m} coefficients, got {len(coeffs)}")
        self.field = field
        self.m = m
        self.coeffs = list(coeffs)
        self._table = np.array(self.coeffs, dtype=_column_dtype(field))[:, None]

    def evaluate(self, point):
        """Fold one variable at a time along the coefficient axis: m numpy
        steps over the coefficient rows left times the points. A coordinate
        is a field element or a column of them, which numpy broadcasts;
        with scalars only the value is one field element. Columns run in
        slices that keep a step's rows times points near GRID_BATCH."""
        if len(point) != self.m:
            raise ArityMismatch(f"point has {len(point)} coordinates, table has {self.m}")
        p = self.field.p if isinstance(self.field, PrimeField) else None
        size = max((len(x) for x in point if np.ndim(x)), default=0)
        step = max(1, GRID_BATCH >> max(self.m - 1, 0))
        parts = []
        for lo in range(0, max(size, 1), step):
            cur = self._table
            for j in reversed(range(self.m)):
                x = point[j][lo:lo + step] if np.ndim(point[j]) else point[j]
                cur = cur[:1 << j] + x * cur[1 << j:]
                if p is not None:
                    cur %= p
            parts.append(cur[0])
        return parts[0].item(0) if size == 0 else np.concatenate(parts)

    def degree(self) -> int:
        degs = [bin(mask).count("1") for mask, c in enumerate(self.coeffs) if c != self.field.zero]
        return max(degs, default=-1)

    @classmethod
    def random_full_support(cls, field: Field, m: int, bound: int, seed: int):
        """A stand-in 'hard' polynomial: every coefficient nonzero."""
        rng = stream(seed, "hard-table")
        coeffs = [field.embed(1 + rng.randrange(bound - 1)) for _ in range(1 << m)]
        return cls(field, m, coeffs)

    @classmethod
    def parse_table(cls, text: str):
        """Header (field line, `m <m>`), then `<mask> <coefficient>` lines;
        masks not listed have coefficient zero."""
        field, m, body = parse_header(text, "m")
        entries = {}
        for line_no, line in body:
            parts = line.split()
            mask = int(parts[0]) if len(parts) == 2 and parts[0].isdecimal() else -1
            if not 0 <= mask < 1 << m:
                raise CircuitSyntaxError(
                    line_no, f"expected '<mask> <coefficient>' with mask in 0..{(1 << m) - 1}"
                )
            entries[mask] = parse_value(field, parts[1], line_no)
        coeffs = [entries.get(mask, field.zero) for mask in range(1 << m)]
        return cls(field, m, coeffs)


@dataclass
class HittingSet:
    """Point set {(f(y|_S1), ..., f(y|_Sn)) : y in T^l}, scanned in batches."""

    hard: ExplicitPoly
    design: Design
    D: int
    d: int

    def __post_init__(self):
        if self.D < 1 or self.d < 0:
            raise ParameterViolation(f"need D >= 1 and d >= 0, got D={self.D}, d={self.d}")
        if self.hard.m != self.design.m:
            raise ArityMismatch(
                f"table has m={self.hard.m}, design wants m={self.design.m}"
            )
        field = self.hard.field
        t_size = self.D * self.d + 1
        if isinstance(field, PrimeField) and field.p < t_size:
            raise FieldTooSmall(f"|T| = {t_size} exceeds field size {field.p}")
        self.t_size = t_size
        self.windows = [sorted(s) for s in self.design.sets]

    @property
    def total_points(self) -> int:
        return self.t_size ** self.design.ell

    def batches(self, limit: int | None = None):
        """Yield (columns, size) for the first min(limit, |T|^l) points in
        lexicographic y-order (y = 0 first): column i holds f(y|_Si) over the
        batch, or one field element when every coordinate of S_i is a high
        coordinate of the y-batch, whose axes are flattened to its points
        first. A scan over EXHAUSTIVE_POINT_BUDGET points is refused with
        BudgetExceeded before any point is evaluated."""
        if limit is not None:
            check_int("limit", limit)
        count = self.total_points if limit is None else min(limit, self.total_points)
        if count > EXHAUSTIVE_POINT_BUDGET:
            raise BudgetExceeded("points", f"{count} hitting points > {EXHAUSTIVE_POINT_BUDGET}")
        for ys, size in _grid_batches(self.design.ell, self.t_size, count):
            ys = _flat_columns(ys, size)
            yield [self.hard.evaluate([ys[e] for e in w]) for w in self.windows], size

    def prefix(self, count: int) -> list:
        """The first `count` points, as a list."""
        return list(self.points(limit=count))

    def points(self, limit: int | None = None):
        """Yield the points of batches(limit) as tuples of field elements."""
        for columns, size in self.batches(limit):
            yield from zip(*(c.tolist() if np.ndim(c) else [c] * size for c in columns))

    def provenance(self) -> dict:
        return {
            "design": {"n": self.design.n, "m": self.design.m, "ell": self.design.ell},
            "hard_degree": self.hard.degree(),
            "D": self.D,
            "d": self.d,
            "t_size": self.t_size,
        }


@dataclass
class PitResult:
    status: str                 # "zero" | "nonzero" | "probably-zero"
    witness: tuple | None
    points_checked: int
    exhausted: bool             # every point of the declared set was seen
    mode: str                   # "hitset" | "exhaustive" | "random"


def pit_hitset(circ: Circuit, hitset: HittingSet, limit: int | None = None) -> PitResult:
    """Evaluate on the hitting set's batches; first witness wins.

    With a limit, a 'zero' verdict only covers the examined prefix; the
    exhausted flag says whether that verdict is unconditional; a limit below
    1, which no point would back, is refused. A scan that could visit more
    than EXHAUSTIVE_POINT_BUDGET points (min(limit, |T|^l), or |T|^l
    without a limit) is refused with BudgetExceeded.
    """
    if circ.num_vars != hitset.design.n:
        raise ArityMismatch(
            f"circuit has {circ.num_vars} variables, design provides {hitset.design.n}"
        )
    if limit is not None:
        check_int("limit", limit, 1)
    checked, first, witness = _walk(circ, hitset.batches(limit))
    if first is not None:
        return PitResult("nonzero", witness, first + 1, False, "hitset")
    exhausted = limit is None or checked < limit or checked == hitset.total_points
    return PitResult("zero", None, checked, exhausted, "hitset")


def _walk(circ: Circuit, batches, want_count: bool = False):
    """Evaluate the first output over (columns, size) batches, in order.
    Returns (zero count, 0-based index of the first nonzero point or None,
    that point's coordinates or None); without want_count the walk stops at
    the batch holding that point, and the count covers the batches walked."""
    mine, walked = itertools.tee(batches)
    zero_count, start, first, point = 0, 0, None, None
    for (columns, size), (values, *_) in zip(mine, evaluate_batches(circ, walked)):
        zeros = values == 0
        zero_count += int(zeros.sum())
        if first is None and not zeros.all():
            k = int(np.argmax(~zeros))
            first = start + k
            point = tuple(c.item(k) if np.ndim(c) else c for c in _flat_columns(columns, size))
            if not want_count:
                break
        start += size
    return zero_count, first, point


# -- grid scans -------------------------------------------------------------------

def _check_grid(field: Field, grid_size: int):
    """Refuse a grid {0..grid_size-1} whose values are not distinct in the
    field: its points would repeat mod p, and no verdict on it is sound."""
    if isinstance(field, PrimeField) and field.p < grid_size:
        raise FieldTooSmall(f"grid {grid_size} exceeds field size {field.p}")


def _grid_scan(circ: Circuit, grid_size: int, want_count: bool):
    """Scan {0..grid_size-1}^n in the batches of _grid_batches, walking
    only the grid of the k variables circ reads. Returns (zero count,
    0-based index of the first nonzero point or None) on the full grid, as
    _walk counts them: the index is mapped back from the walked grid, and
    the count scaled by grid_size^(n-k). An empty grid, a grid larger than
    the field (FieldTooSmall) and a walked grid over
    EXHAUSTIVE_POINT_BUDGET points are refused before any point is
    evaluated."""
    n = circ.num_vars
    check_int("grid size", grid_size, 1)
    _check_grid(circ.field, grid_size)
    read = _active_vars(circ)
    k = len(read)
    if grid_size**k > EXHAUSTIVE_POINT_BUDGET:
        raise BudgetExceeded(
            "points", f"{grid_size}^{k} read grid points > {EXHAUSTIVE_POINT_BUDGET}"
        )
    batches = _active_grid_batches(read, grid_size, [0] * n)
    zeros, first, _ = _walk(circ, batches, want_count)
    if first is not None:
        first = sum(first // grid_size ** (k - 1 - j) % grid_size * grid_size ** (n - 1 - v)
                    for j, v in enumerate(read))
    return zeros * grid_size ** (n - k), first


def exhaustive_zero_count(circ: Circuit, grid_size: int) -> int:
    """|{a in S^n : C(a) = 0}| for S = {0..grid_size-1} embedded."""
    return _grid_scan(circ, grid_size, want_count=True)[0]


def pit_sz(
    circ: Circuit,
    d: int,
    trials: int = 64,
    seed: int = 0,
    exhaustive: bool | None = None,
) -> PitResult:
    """Schwartz-Zippel test on the grid {0..d}^n, d >= deg(C).

    Exhaustive mode decides all (d+1)^n points and is definitive, because
    d bounds the degree in every variable (a bool, a non-integer d, or a d
    below some variable's formal degree is refused). It walks only the
    (d+1)^k points of the k variables the circuit reads, and is the default
    whenever those fit the point budget; a zero verdict still reports
    (d+1)^n as points_checked, the grid it covers. Random mode samples
    seeded points and can only answer probably-zero, and needs
    1 <= trials <= EXHAUSTIVE_POINT_BUDGET (exhaustive mode ignores
    trials). A grid larger than the field is refused in both modes. A
    nonzero verdict reports the witness's 1-based position in the full
    grid's scan order as points_checked.
    """
    field = circ.field
    n = circ.num_vars
    check_int("d", d, None)
    # the total degree bounds every variable's, and one walk finds it
    if d < formal_degree_in(circ, range(n)):
        top = max((formal_degree_in(circ, v) for v in range(n)), default=0)
        if d < top:
            raise ParameterViolation(f"d = {d} is below a variable's formal degree {top}")
    grid = d + 1
    if exhaustive is None:
        exhaustive = grid ** len(_active_vars(circ)) <= EXHAUSTIVE_POINT_BUDGET
    if exhaustive:
        _, first = _grid_scan(circ, grid, want_count=False)
        if first is None:
            return PitResult("zero", None, grid**n, True, "exhaustive")
        witness = tuple(field.embed(first // grid ** (n - 1 - v) % grid) for v in range(n))
        return PitResult("nonzero", witness, first + 1, True, "exhaustive")
    _check_grid(field, grid)
    if isinstance(trials, bool) or not isinstance(trials, int) or trials < 1:
        raise ParameterViolation(f"random mode needs integer trials >= 1, got {trials!r}")
    if trials > EXHAUSTIVE_POINT_BUDGET:
        raise BudgetExceeded("points", f"{trials} random points > {EXHAUSTIVE_POINT_BUDGET}")
    rng = stream(seed, "pit-sz")
    draws = [field.embed(rng.randrange(grid)) for _ in range(trials * n)]
    rows = np.array(draws, dtype=object).reshape(trials, n)  # one point per row
    chunks = (rows[lo:lo + GRID_BATCH] for lo in range(0, trials, GRID_BATCH))
    _, first, witness = _walk(circ, ((list(chunk.T), len(chunk)) for chunk in chunks))
    if first is not None:
        return PitResult("nonzero", witness, first + 1, False, "random")
    return PitResult("probably-zero", None, trials, False, "random")


# -- hybrid locator ------------------------------------------------------------------

@dataclass
class HybridWitness:
    index: int                    # Q_index != 0 and Q_{index+1} == 0
    assignment: dict              # fixed variables keeping Q_index nonzero
    active_vars: list = dc_field(default_factory=list)


def _window_circuit(b: CircuitBuilder, hard: ExplicitPoly, window, y_base: int):
    """Gate computing hard(y|_window) inside builder b."""
    field = hard.field
    parts = []
    for mask, c in enumerate(hard.coeffs):
        if c == field.zero:
            continue
        factors = [b.const(c)]
        for j in range(hard.m):
            if mask >> j & 1:
                factors.append(b.inp(y_base + window[j]))
        parts.append(b.mul(*factors) if len(factors) > 1 else factors[0])
    return b.add(*parts) if parts else b.const(field.zero)


def _hybrid_circuit(q: Circuit, hard: ExplicitPoly, design: Design, j: int) -> Circuit:
    """Q_j = q(f(y|_S1)..f(y|_Sj), x_{j+1}.., ) over x-vars then y-vars."""
    n = design.n
    b = CircuitBuilder(q.field, n + design.ell)
    bindings = {}
    for i in range(j):
        window = sorted(design.sets[i])
        bindings[i] = _window_circuit(b, hard, window, y_base=n)
    outs = b.import_circuit(q, var_bindings=bindings)
    return b.finish(outs)


def _is_zero_exhaustive(circ: Circuit, deg_bound: int) -> bool:
    """Definitive zero test: exhaustive SZ over the active variables."""
    return _grid_scan(circ, deg_bound + 1, want_count=False)[1] is None


def hybrid_locate(q: Circuit, hard: ExplicitPoly, design: Design) -> HybridWitness:
    """Find i with Q_i != 0 and Q_{i+1} == 0 in the hybrid chain, plus an
    assignment fixing the variables outside (x_{i+1}, y|_{S_{i+1}}) that
    keeps Q_i nonzero.

    Preconditions (certified on the dense oracle at desk scale): q is not
    identically zero, and the fully composed polynomial is.
    """
    if q.num_vars != design.n:
        raise ArityMismatch(f"circuit has {q.num_vars} variables, design has n={design.n}")
    field = q.field
    n = design.n
    if expand(q, DEFAULT_BUDGET).is_zero():
        raise PreconditionFailed("q is identically zero")
    if not expand(_hybrid_circuit(q, hard, design, n), DEFAULT_BUDGET).is_zero():
        raise PreconditionFailed("q(f(y|_S1)..f(y|_Sn)) is not identically zero")

    deg_bound = max(1, q.formal_degree() * max(1, hard.degree()))
    # Q_0 != 0 by the precondition: test each later hybrid once, keep the last nonzero
    hybrid = _hybrid_circuit(q, hard, design, 0)
    for index in range(n):
        cur = _hybrid_circuit(q, hard, design, index + 1)
        if _is_zero_exhaustive(cur, deg_bound):
            break
        hybrid = cur
    else:
        raise PreconditionFailed("no switching index found; preconditions violated")

    # fix everything except x_{index+1} and y|_{S_{index+1}}
    keep = {index} | {n + e for e in design.sets[index]}
    to_fix = [v for v in _active_vars(hybrid) if v not in keep]
    assignment, cur = {}, hybrid
    for v in to_fix:
        for val in range(deg_bound + 1):
            fixed = fix_vars(cur, {v: field.embed(val)})
            if not _is_zero_exhaustive(fixed, deg_bound):
                break
        else:
            raise PreconditionFailed(f"could not fix variable {v} keeping the hybrid nonzero")
        assignment[v], cur = field.embed(val), fixed
    return HybridWitness(index=index, assignment=assignment, active_vars=_active_vars(hybrid))

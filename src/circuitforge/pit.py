"""Hitting sets from explicit hard polynomials, and identity-testing tools.

The hitting-set construction is the mechanics of the hardness-to-randomness
argument: evaluate the supplied multilinear table on the design's windows
of an assignment grid T^l with |T| = D*d + 1. Hitting sets are streamed in
lexicographic y-order (the first point is the all-f(0) point); a limit cap
guards against |T|^l enumerations, so a 'zero' verdict is certain only when
the stream was exhausted and the result says which case happened.

pit_sz runs Schwartz-Zippel on the grid {0..d}^n, either with seeded random
points or exhaustively; exhaustive mode is definitive. hybrid_locate walks
the hybrid chain of the composition argument and returns the switch index
together with a fixing assignment that keeps the last nonzero hybrid alive.

Every test here evaluates circuits in batches through circuit.evaluate_batches:
hitting points and random points in batches of POINT_BATCH. An exhaustive
scan of {0..g-1}^n runs in aligned batches of g^j points, j the largest
value with g^j <= GRID_BATCH (and j <= n): the low j coordinate columns are
built once per scan, and each of the n - j high coordinates is one integer
per batch, which numpy broadcasts. All scans run in lexicographic order,
last coordinate fastest, and report the first nonzero point as the witness.
Every grid must have distinct values in the field (else FieldTooSmall), and
no test visits more than EXHAUSTIVE_POINT_BUDGET points: larger grids,
random trial counts and hitting-set limits are refused with BudgetExceeded
before any point is drawn.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field

import numpy as np

from .circuit import IN, Circuit, CircuitBuilder, drop_unused_vars, fix_vars, formal_degree_in
from .circuit import evaluate_batches, evaluate_points, parse_header, parse_value
from .dense import DEFAULT_BUDGET, expand
from .designs import TABLE_VARS_LIMIT, Design
from .errors import (
    ArityMismatch, BudgetExceeded, CircuitSyntaxError, FieldTooSmall, ParameterViolation,
    PreconditionFailed,
)
from .fields import Field, PrimeField
from .seeding import stream

EXHAUSTIVE_POINT_BUDGET = 2_000_000
GRID_BATCH = 1 << 15


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

    def evaluate(self, point):
        """Fold one variable at a time; O(2^m) field operations."""
        if len(point) != self.m:
            raise ArityMismatch(f"point has {len(point)} coordinates, table has {self.m}")
        field = self.field
        cur = self.coeffs
        for j in range(self.m - 1, -1, -1):
            half = 1 << j
            x = point[j]
            cur = [field.add(cur[k], field.mul(x, cur[half + k])) for k in range(half)]
        return cur[0]

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
    """Streamed point set {(f(y|_S1), ..., f(y|_Sn)) : y in T^l}."""

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
        self._prefix = []  # cache of already-enumerated points (fixed order)
        self._stream = self._grid_points()  # the one live scan that extends it

    @property
    def total_points(self) -> int:
        return self.t_size ** self.design.ell

    def _grid_points(self):
        field, ell = self.hard.field, self.design.ell
        y = [0] * ell  # grid values, last coordinate fastest
        assignment = [field.embed(v) for v in y]  # y embedded, kept in step with y
        while True:
            yield tuple(
                self.hard.evaluate([assignment[e] for e in window])
                for window in self.windows
            )
            pos = ell - 1
            while pos >= 0:
                y[pos] = (y[pos] + 1) % self.t_size
                assignment[pos] = field.embed(y[pos])
                if y[pos]:
                    break
                pos -= 1
            if pos < 0:
                return

    def prefix(self, count: int) -> list:
        """The first `count` points, cached across calls."""
        return list(self.points(limit=count))

    def points(self, limit: int | None = None):
        """Yield hitting points in lexicographic y-order (y = 0 first)."""
        if limit is not None and limit < 0:
            raise ParameterViolation(f"limit must be >= 0, got {limit}")
        head = self._prefix[:limit]  # the cached points, served at C speed
        yield from head
        for i in itertools.count(len(head)) if limit is None else range(len(head), limit):
            if i == len(self._prefix):
                point = next(self._stream, None)
                if point is None:
                    return
                self._prefix.append(point)
            yield self._prefix[i]

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
    """Evaluate on streamed hitting points; first witness wins.

    With a limit, a 'zero' verdict only covers the examined prefix; the
    exhausted flag says whether that verdict is unconditional. A scan that
    could visit more than EXHAUSTIVE_POINT_BUDGET points (min(limit,
    |T|^l), or |T|^l without a limit) is refused with BudgetExceeded.
    """
    if circ.num_vars != hitset.design.n:
        raise ArityMismatch(
            f"circuit has {circ.num_vars} variables, design provides {hitset.design.n}"
        )
    wanted = hitset.total_points if limit is None else min(limit, hitset.total_points)
    if wanted > EXHAUSTIVE_POINT_BUDGET:
        raise BudgetExceeded("points", f"{wanted} hitting points > {EXHAUSTIVE_POINT_BUDGET}")
    checked, witness = _first_witness(circ, hitset.points(limit=limit))
    if witness is not None:
        return PitResult("nonzero", witness, checked, False, "hitset")
    exhausted = limit is None or checked < limit or checked == hitset.total_points
    return PitResult("zero", None, checked, exhausted, "hitset")


def _first_witness(circ: Circuit, points):
    """(1-based position, point) of the first point where circ is nonzero,
    or (number of points, None) when it vanishes on all of them."""
    checked = 0
    for batch, values in evaluate_points(circ, points):
        nonzero = np.flatnonzero(values != 0)
        if nonzero.size:
            k = int(nonzero[0])
            return checked + k + 1, batch[k]
        checked += len(batch)
    return checked, None


# -- grid scans -------------------------------------------------------------------

def _check_grid(field: Field, grid_size: int):
    """Refuse a grid {0..grid_size-1} whose values are not distinct in the
    field: its points would repeat mod p, and no verdict on it is sound."""
    if isinstance(field, PrimeField) and field.p < grid_size:
        raise FieldTooSmall(f"grid {grid_size} exceeds field size {field.p}")


def _grid_scan(circ: Circuit, grid_size: int, want_count: bool):
    """Scan {0..grid_size-1}^n in lexicographic order, in aligned batches
    (see the module docstring). Returns (zero count, 0-based index of the
    first nonzero point or None); without want_count the scan stops at the
    batch holding that point, and the count covers only the batches
    scanned. An empty grid, a grid larger than the field (FieldTooSmall) and
    a grid over EXHAUSTIVE_POINT_BUDGET points are refused before any point
    is evaluated."""
    n = circ.num_vars
    if grid_size < 1:
        raise ParameterViolation(f"grid size must be >= 1, got {grid_size}")
    _check_grid(circ.field, grid_size)
    if grid_size**n > EXHAUSTIVE_POINT_BUDGET:
        raise BudgetExceeded(
            "points", f"{grid_size}^{n} grid points > {EXHAUSTIVE_POINT_BUDGET}"
        )
    low = 0
    while low < n and grid_size ** (low + 1) <= GRID_BATCH:
        low += 1
    high = n - low
    size = grid_size**low
    idx = np.arange(size, dtype=np.int64)
    low_columns = [idx // grid_size ** (low - 1 - t) % grid_size for t in range(low)]

    def batches():
        for k in range(grid_size**high):
            high_columns = [k // grid_size ** (high - 1 - v) % grid_size for v in range(high)]
            yield high_columns + low_columns, size

    zero_count = 0
    first = None
    for k, values in enumerate(evaluate_batches(circ, batches())):
        zeros = values[0] == 0
        zero_count += int(zeros.sum())
        if first is None and not zeros.all():
            first = k * size + int(np.argmax(~zeros))
            if not want_count:
                break
    return zero_count, first


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

    Exhaustive mode scans all (d+1)^n points and is definitive, because d
    bounds the degree in every variable (a d below some variable's formal
    degree is refused); it is the default whenever the grid fits the point
    budget. Random mode samples seeded points and can only answer
    probably-zero, and needs 1 <= trials <= EXHAUSTIVE_POINT_BUDGET
    (exhaustive mode ignores trials). A grid larger than the field is
    refused in both modes. A nonzero verdict reports the witness's 1-based
    position in the scan as points_checked.
    """
    field = circ.field
    n = circ.num_vars
    # the total degree bounds every variable's, and one walk finds it
    if d < formal_degree_in(circ, range(n)):
        top = max((formal_degree_in(circ, v) for v in range(n)), default=0)
        if d < top:
            raise ParameterViolation(f"d = {d} is below a variable's formal degree {top}")
    grid = d + 1
    total = grid**n
    if exhaustive is None:
        exhaustive = total <= EXHAUSTIVE_POINT_BUDGET
    if exhaustive:
        _, first = _grid_scan(circ, grid, want_count=False)
        if first is None:
            return PitResult("zero", None, total, True, "exhaustive")
        witness = tuple(field.embed(first // grid ** (n - 1 - v) % grid) for v in range(n))
        return PitResult("nonzero", witness, first + 1, True, "exhaustive")
    _check_grid(field, grid)
    if trials < 1:
        raise ParameterViolation(f"random mode needs trials >= 1, got {trials}")
    if trials > EXHAUSTIVE_POINT_BUDGET:
        raise BudgetExceeded("points", f"{trials} random points > {EXHAUSTIVE_POINT_BUDGET}")
    rng = stream(seed, "pit-sz")
    points = [tuple(field.embed(rng.randrange(grid)) for _ in range(n)) for _ in range(trials)]
    checked, witness = _first_witness(circ, points)
    if witness is not None:
        return PitResult("nonzero", witness, checked, False, "random")
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


def _active_vars(circ: Circuit) -> list:
    return sorted({circ.gates[i][1] for i in circ.reachable() if circ.gates[i][0] == IN})


def _is_zero_exhaustive(circ: Circuit, deg_bound: int) -> bool:
    """Definitive zero test: exhaustive SZ over the active variables."""
    active = _active_vars(circ)
    small = drop_unused_vars(circ, active)
    grid = deg_bound + 1
    if grid**len(active) > EXHAUSTIVE_POINT_BUDGET:
        raise PreconditionFailed(
            f"exhaustive zero test needs {grid ** len(active)} points; desk scale exceeded"
        )
    _, first = _grid_scan(small, grid, want_count=False)
    return first is None


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
    full = _hybrid_circuit(q, hard, design, n)
    if not expand(full, DEFAULT_BUDGET).is_zero():
        raise PreconditionFailed("q(f(y|_S1)..f(y|_Sn)) is not identically zero")

    deg_bound = max(1, q.formal_degree() * max(1, hard.degree()))
    index = None
    prev = _hybrid_circuit(q, hard, design, 0)
    for j in range(1, n + 1):
        cur = _hybrid_circuit(q, hard, design, j)
        if not _is_zero_exhaustive(prev, deg_bound) and _is_zero_exhaustive(cur, deg_bound):
            index = j - 1
            break
        prev = cur
    if index is None:
        raise PreconditionFailed("no switching index found; preconditions violated")

    # fix everything except x_{index+1} and y|_{S_{index+1}}
    hybrid = _hybrid_circuit(q, hard, design, index)
    keep = {index} | {n + e for e in design.sets[index]}
    to_fix = [v for v in _active_vars(hybrid) if v not in keep]
    assignment = {}
    cur = hybrid
    for v in to_fix:
        found = None
        for val in range(deg_bound + 1):
            fixed = fix_vars(cur, {v: field.embed(val)})
            if not _is_zero_exhaustive(fixed, deg_bound):
                found = (field.embed(val), fixed)
                break
        if found is None:
            raise PreconditionFailed(f"could not fix variable {v} keeping the hybrid nonzero")
        assignment[v] = found[0]
        cur = found[1]
    return HybridWitness(index=index, assignment=assignment, active_vars=_active_vars(hybrid))

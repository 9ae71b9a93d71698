"""Arithmetic-circuit DAG representation.

A Circuit is an immutable append-only array of gates over a fixed field;
every gate references only lower-indexed gates, so the array order is a
topological order. Gates are plain tuples:

    ("in", var_index)
    ("const", value)
    ("add", (child, child, ...))    fan-in >= 2
    ("mul", (child, child, ...))    fan-in >= 2

Size is the wire count (sum of fan-ins over reachable gates); leaves
contribute no wires, so a lone input gate has size 0. Depth is measured on
the layered alternating sum/product normal form: adjacent same-op layers
merge, multiplication by a constant is transparent (linear combinations
belong to the sum layer that absorbs them), and a virtual top addition
layer is inserted when the output is a product. A sigma-pi-sigma circuit
therefore reports depth 3.

Circuits are built through CircuitBuilder, which canonicalizes as it goes:
constants fold, identities drop, and (by default) structurally identical
gates are shared. Folding runs on native numbers with Python operators, no
Field method call: ints reduced mod p once per folded value, Fractions over
Q. Constants the builder computes skip the field check that const() and
import_circuit apply to the values callers and imported circuits bring. All
transformations in this package return new circuits, and each is finished:
only CircuitBuilder.finish, which keeps the gates its outputs reach, and
the projection of remap_vars and drop_unused_vars construct one. A circuit
finished by a sharing builder is marked canonical: its gates are already
fixed points of that canonicalization, so importing or renaming it onto
distinct inputs copies the gates instead of rebuilding them, and its
projection onto distinct inputs keeps its gates in their order, each input
renamed, and stays canonical. A sharing builder importing the same circuit
object again rebuilds only the gates that read a moved binding. An empty
sharing builder adopts a canonical circuit imported with no binding as it
is: its gate list and memo are the ones that copy would write.

Circuits are immutable, so reachable() finds the reachable gates once, by
one reverse mark sweep over the topological order, and caches them for
imports, metrics, projections and expansion; a finished or projected
circuit holds only reachable gates and needs no sweep. The metrics (wires,
depth and formal degree) come from one walk and are cached too.

Circuit.evaluate walks the gates once per point; evaluate_batches walks them
once per batch of points held as numpy columns, and is what the identity
tests and Schwartz-Zippel checks run on. Every grid they walk, exhaustive
{0..g-1}^n, hitting-set y-grid or exp-sum cube, comes from one batcher,
_grid_batches: the origin alone, then aligned blocks of at most GRID_BATCH
points in lexicographic order. A whole block comes as one broadcast axis
per low coordinate, so numpy computes each gate only over the sub-grid of
the coordinates it reads; the outputs are broadcast to the block and
flattened. An exhaustive scan or exp-sum cube walks only the grid of the
variables the circuit reads (_active_vars, _active_grid_batches) and holds
every other column at one scalar.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    ArityMismatch,
    CircuitSyntaxError,
    CyclicReference,
    DanglingReference,
    DivisionByZero,
    InvariantViolated,
    ParameterViolation,
    check_int,
)
from .fields import Field, PrimeField, Rationals, is_prime, same_field, sample_grid

IN = "in"
CONST = "const"
ADD = "add"
MUL = "mul"

GRID_BATCH = 1 << 15    # largest batch of _grid_batches
SZ_POINTS = 64          # seeded points behind a Schwartz-Zippel verdict


class Circuit:
    __slots__ = ("field", "num_vars", "gates", "outputs", "_metrics", "_canonical", "_reach")

    def __init__(self, field: Field, num_vars: int, gates, outputs):
        self.field = field
        self.num_vars = num_vars
        self.gates = tuple(gates)
        self.outputs = tuple(outputs)
        self._metrics = None
        self._reach = None
        # set by CircuitBuilder.finish on a sharing builder, never by callers
        self._canonical = False
        if not self.outputs:
            raise InvariantViolated("circuit needs at least one output")

    # -- basic structure ---------------------------------------------------

    def output(self) -> int:
        if len(self.outputs) != 1:
            raise ArityMismatch("operation requires a single-output circuit")
        return self.outputs[0]

    def reachable(self) -> list:
        """Indices of gates reachable from the outputs, ascending. Walked
        once and cached: the list is shared, so callers must not mutate it."""
        if self._reach is None:
            self._reach = _reach(self.gates, self.outputs)
        return self._reach

    def size(self) -> int:
        return self.metrics()["size"]

    def depth(self) -> int:
        return self.metrics()["depth"]

    def formal_degree(self) -> int:
        return self.metrics()["formal_degree"]

    def metrics(self) -> dict:
        """Wire count, gate count, normalized depth and formal degree."""
        if self._metrics is None:
            self._metrics = _compute_metrics(self)
        return dict(self._metrics)

    # -- evaluation --------------------------------------------------------

    def evaluate(self, point):
        """Evaluate all outputs at a point (one field element per variable)."""
        if len(point) != self.num_vars:
            raise ArityMismatch(
                f"point has {len(point)} coordinates, circuit has {self.num_vars} variables"
            )
        field = self.field
        values = [None] * len(self.gates)
        for i, gate in enumerate(self.gates):
            op = gate[0]
            if op == IN:
                values[i] = point[gate[1]]
            elif op == CONST:
                values[i] = gate[1]
            elif op == ADD:
                acc = field.zero
                for c in gate[1]:
                    acc = field.add(acc, values[c])
                values[i] = acc
            else:
                acc = field.one
                for c in gate[1]:
                    acc = field.mul(acc, values[c])
                values[i] = acc
        return [values[o] for o in self.outputs]

    def evaluate1(self, point):
        return self.evaluate(point)[0]

    def __repr__(self):
        m = self.metrics()
        return (
            f"<Circuit n={self.num_vars} outputs={len(self.outputs)} "
            f"size={m['size']} depth={m['depth']} fdeg={m['formal_degree']}>"
        )


def _reach(gates, outputs) -> list:
    """Ascending indices of the gates reachable from `outputs`: one reverse
    sweep over the topological order marks each marked gate's children."""
    mark = bytearray(max(outputs, default=-1) + 1)
    for o in outputs:
        mark[o] = 1
    for i in range(len(mark) - 1, -1, -1):
        if mark[i]:
            g = gates[i]
            if g[0] == ADD or g[0] == MUL:
                for c in g[1]:
                    mark[c] = 1
    return [i for i, m in enumerate(mark) if m]


def _compute_metrics(circ: Circuit) -> dict:
    """Wires, gates, depth and formal degree in one walk of the reachable
    gates. Depth keeps, per gate, the layers it puts under a sum parent
    (`below_add`) and under a product parent (`below_mul`): its own layer
    count, plus one where the parent's op differs from its effective op, -1
    for a gate that folds to a constant. Multiplication by constants rides
    along with its one live child, a leaf counts one under either parent."""
    gates = circ.gates
    reach = circ.reachable()
    wires = 0
    below_add = [-1] * len(gates)
    below_mul = [-1] * len(gates)
    deg = [0] * len(gates)
    for i in reach:
        op, arg = gates[i]
        if op == IN:
            below_add[i] = below_mul[i] = deg[i] = 1
        elif op == ADD:
            wires += len(arg)
            deg[i] = max(map(deg.__getitem__, arg))
            k = max(map(below_add.__getitem__, arg))
            if k >= 0:
                below_add[i], below_mul[i] = k, k + 1
        elif op == MUL:
            wires += len(arg)
            deg[i] = sum(map(deg.__getitem__, arg))
            live = [c for c in arg if below_mul[c] >= 0]
            if len(live) == 1:
                below_add[i], below_mul[i] = below_add[live[0]], below_mul[live[0]]
            elif live:
                k = max(map(below_mul.__getitem__, live))
                below_add[i], below_mul[i] = k + 1, k
    # an output's depth is what it puts under the virtual top sum, 0 for an
    # input or a constant
    return {
        "size": wires,
        "gates": len(reach),
        "depth": max(0 if gates[o][0] == IN else max(below_add[o], 0) for o in circ.outputs),
        "formal_degree": max(deg[o] for o in circ.outputs),
    }


def _gate_degrees(circ: Circuit, order, chosen=None, at=None) -> list:
    """Formal degree of each gate in `order` (ascending, closed under
    children), indexed by gate: an input counts at[var] when at holds its
    variable, else 1 when chosen is None or holds its variable, else 0; an
    addition takes the max of its children, a product the sum."""
    gates = circ.gates
    deg = [0] * len(gates)
    kid = deg.__getitem__
    for i in order:
        op, arg = gates[i]
        if op == IN:
            if at and arg in at:
                deg[i] = at[arg]
            else:
                deg[i] = 1 if chosen is None or arg in chosen else 0
        elif op == ADD:
            deg[i] = max(map(kid, arg))
        elif op == MUL:
            deg[i] = sum(map(kid, arg))
    return deg


def _check_var(circ: Circuit, var: int) -> None:
    """Refuse a variable index outside 0..num_vars-1."""
    if not 0 <= var < circ.num_vars:
        raise ArityMismatch(f"variable x{var + 1} out of range (nvars={circ.num_vars})")


class CircuitBuilder:
    """Constructs circuits with on-the-fly canonicalization.

    With share=True (default) structurally identical gates are merged, which
    is what keeps repeated sub-circuit imports at DAG size. share=False
    disables merging so that tree-shaped (formula) circuits stay trees.
    """

    def __init__(self, field: Field, num_vars: int, share: bool = True):
        check_int("variable count", num_vars)
        self.field = field
        self.num_vars = num_vars
        self.share = share
        self._gates = []
        self._memo = {} if share else None
        self._imports = {}  # circuit -> gate mapping of its last import (sharing only)
        # the native arithmetic of add/mul: None over Q, else the modulus
        self._p = field.p if isinstance(field, PrimeField) else None

    def _emit(self, gate):
        gates, memo = self._gates, self._memo
        new = len(gates)
        if memo is not None:
            key = gate
            if self._p is None and gate[0] == CONST:
                # a rational constant is keyed by numerator and denominator:
                # a Fraction's hash costs a modular inverse on every lookup
                key = (CONST, gate[1].numerator, gate[1].denominator)
            i = memo.setdefault(key, new)
            if i != new:
                return i
        gates.append(gate)
        return new

    def inp(self, var: int) -> int:
        if not 0 <= var < self.num_vars:
            raise ArityMismatch(f"variable x{var + 1} out of range (nvars={self.num_vars})")
        return self._emit((IN, var))

    def const(self, value) -> int:
        self.field.check(value)
        return self._emit((CONST, value))

    def _gate(self, i: int):
        return self._gates[i]

    def add(self, *children: int) -> int:
        gates, p = self._gates, self._p
        one = self.field.one
        # collect a linear combination: scalar multiples of the same core
        # gate merge, so weighted sums stay one addition layer
        coeffs = {}
        csum = self.field.zero
        for c in children:
            op, arg = gates[c]
            if op == CONST:
                csum += arg
                continue
            coeff, core = one, c
            if op == MUL and len(arg) == 2:
                ga, gb = gates[arg[0]], gates[arg[1]]
                if ga[0] == CONST and gb[0] != CONST:
                    coeff, core = ga[1], arg[1]
                elif gb[0] == CONST and ga[0] != CONST:
                    coeff, core = gb[1], arg[0]
            if core in coeffs:
                coeffs[core] += coeff
            else:
                coeffs[core] = coeff
        live = []
        for core, w in coeffs.items():
            if p is not None:
                w %= p
            if w == 1:
                live.append(core)
            elif w != 0:
                k = self._emit((CONST, w))
                live.append(self._emit((MUL, (k, core) if k < core else (core, k))))
        if p is not None:
            csum %= p
        if csum != 0 or not live:
            live.append(self._emit((CONST, csum)))
        if len(live) == 1:
            return live[0]
        return self._emit((ADD, tuple(sorted(live))))

    def mul(self, *children: int) -> int:
        gates = self._gates
        live = []
        cprod = None  # the product of the constant children, if any
        for c in children:
            g = gates[c]
            if g[0] == CONST:
                cprod = g[1] if cprod is None else cprod * g[1]
            else:
                live.append(c)
        if cprod is not None:
            if self._p is not None:
                cprod %= self._p
            if cprod == 0 or not live:
                return self._emit((CONST, cprod))
            if cprod != 1:
                live.append(self._emit((CONST, cprod)))
        elif not live:
            return self._emit((CONST, self.field.one))
        if len(live) == 1:
            return live[0]
        return self._emit((MUL, tuple(sorted(live))))

    def neg(self, c: int) -> int:
        return self.scale(self.field.neg(self.field.one), c)

    def sub(self, a: int, b: int) -> int:
        # subtraction is Add with a Const(-1) Mul child; no dedicated gate
        return self.add(a, self.neg(b))

    def scale(self, value, c: int) -> int:
        return self.mul(self.const(value), c)

    def power(self, c: int, e: int) -> int:
        if e == 0:
            return self.const(self.field.one)
        if e == 1:
            return c
        return self.mul(*([c] * e))

    def import_circuit(self, circ: Circuit, var_bindings=None) -> list:
        """Inline another circuit's reachable gates.

        var_bindings maps the imported circuit's variable indices to gate ids
        in this builder; unbound variables pass through as inputs with the
        same index. Returns the gate ids of the imported outputs.

        A canonical circuit whose variables land on distinct input gates is
        copied gate for gate into a sharing builder: re-canonicalizing it
        would rebuild exactly the same gates. Into an empty builder, with no
        binding and the inputs in range, that copy is circ's gate list
        itself (a canonical circuit is finished, every gate reachable), so
        the builder adopts it.

        A sharing builder also keeps, per circuit object, the gate mapping of
        its last import. Importing the same object again re-canonicalizes only
        the gates that transitively read a variable whose binding moved; every
        other gate takes its id from that mapping. This is exact: a gate's
        canonical form depends only on its children's ids, so each skipped
        gate would have been a memo hit on the same id. A share=False builder
        never reuses a mapping, so it still emits trees.
        """
        same_field(self.field, circ.field)
        reach = circ.reachable()
        gates = circ.gates
        if (self.share and not self._gates and not var_bindings and circ._canonical
                and circ.num_vars <= self.num_vars):
            # adoption: the copy would write circ's own gates, ids and all (an
            # empty builder has imported nothing, so it holds no mapping)
            self._gates = list(gates)
            keys = gates if self._p is not None else [
                (CONST, g[1].numerator, g[1].denominator) if g[0] == CONST else g for g in gates]
            self._memo = dict(zip(keys, range(len(gates))))
            self._imports[circ] = range(len(gates))
            return list(circ.outputs)
        var_bindings = var_bindings or {}
        mapping = [None] * len(gates)
        kid = mapping.__getitem__
        # circ's last import here: a gate none of whose children moved from
        # their ids there keeps its own (moved[i]: gate i's id differs)
        last = self._imports.get(circ)
        moved = None if last is None else [False] * len(gates)
        stale = None if last is None else moved.__getitem__

        def rename(v):
            if v not in var_bindings:
                return v
            g = self._gates[var_bindings[v]]
            return g[1] if g[0] == IN else None

        copy = self.share and circ._canonical and _injective(circ, reach, rename)
        check, emit, add, mul = self.field.check, self._emit, self.add, self.mul
        for i in reach:
            gate = gates[i]
            op, arg = gate
            if op == IN:
                new = var_bindings[arg] if arg in var_bindings else self.inp(arg)
            elif last is not None and (op == CONST or not any(map(stale, arg))):
                mapping[i] = last[i]
                continue
            elif op == CONST:
                check(arg)
                new = emit(gate)
            elif copy:
                new = emit((op, tuple(sorted(map(kid, arg)))))
            elif op == ADD:
                new = add(*map(kid, arg))
            else:
                new = mul(*map(kid, arg))
            mapping[i] = new
            if last is not None:
                moved[i] = new != last[i]
        if self.share:
            self._imports[circ] = mapping
        return [mapping[o] for o in circ.outputs]

    def finish(self, outputs) -> Circuit:
        if isinstance(outputs, int):
            outputs = [outputs]
        # drop gates not reachable from the outputs, preserving order; a
        # gate's children come before it, so they are renumbered already
        src = self._gates
        remap = [None] * len(src)
        kid = remap.__getitem__
        gates = []
        for new, old in enumerate(_reach(src, outputs)):
            g = src[old]
            remap[old] = new
            gates.append((g[0], tuple(map(kid, g[1]))) if g[0] == ADD or g[0] == MUL else g)
        circ = Circuit(self.field, self.num_vars, gates, [remap[o] for o in outputs])
        circ._canonical = self.share
        circ._reach = list(range(len(gates)))  # finish keeps only reachable gates
        return circ


def _injective(circ: Circuit, reach, rename) -> bool:
    """True when `rename` sends the variables of circ's reachable inputs
    to distinct input variables (None marks a variable sent elsewhere)."""
    new = [rename(circ.gates[i][1]) for i in reach if circ.gates[i][0] == IN]
    return None not in new and len(set(new)) == len(new)


# -- convenience constructors ----------------------------------------------

def input_circuit(field: Field, var: int, num_vars: int) -> Circuit:
    b = CircuitBuilder(field, num_vars)
    return b.finish(b.inp(var))


def const_circuit(field: Field, value, num_vars: int) -> Circuit:
    b = CircuitBuilder(field, num_vars)
    return b.finish(b.const(value))


def substitute(circ: Circuit, bindings: dict, num_vars: int | None = None) -> Circuit:
    """Compose: replace variables by circuits.

    bindings maps variable indices of `circ` to single-output circuits over
    the same field (and a shared variable space). Bound sub-circuits are
    inlined once and shared through the DAG; unbound variables pass through.
    """
    for b_circ in bindings.values():
        same_field(circ.field, b_circ.field)
    if num_vars is None:
        num_vars = circ.num_vars
        for b_circ in bindings.values():
            num_vars = max(num_vars, b_circ.num_vars)
    builder = CircuitBuilder(circ.field, num_vars)
    var_map = {}
    for var, b_circ in bindings.items():
        _check_var(circ, var)
        b_circ.output()  # single-output contract
        var_map[var] = builder.import_circuit(b_circ)[0]
    outs = builder.import_circuit(circ, var_bindings=var_map)
    return builder.finish(outs)


def fix_vars(circ: Circuit, values: dict) -> Circuit:
    """circ with each variable in `values` replaced by its constant there."""
    for v in values:
        _check_var(circ, v)
    b = CircuitBuilder(circ.field, circ.num_vars)
    bindings = {v: b.const(c) for v, c in values.items()}
    return b.finish(b.import_circuit(circ, var_bindings=bindings))


def remap_vars(circ: Circuit, var_map: dict, new_num_vars: int) -> Circuit:
    """Rename variables: var_map maps old indices to new indices."""
    return _remap(circ, circ.reachable(), var_map, new_num_vars)


def drop_unused_vars(circ: Circuit, keep_vars: list) -> Circuit:
    """Project onto keep_vars, distinct variables of circ that must cover
    every referenced input."""
    mapping = {old: new for new, old in enumerate(keep_vars)}
    if len(mapping) != len(keep_vars):
        raise ArityMismatch("keep_vars lists a variable twice")
    reach = circ.reachable()
    for i in reach:
        gate = circ.gates[i]
        if gate[0] == IN and gate[1] not in mapping:
            raise ArityMismatch(f"variable x{gate[1] + 1} is still referenced")
    return _remap(circ, reach, mapping, len(keep_vars))


def _remap(circ: Circuit, reach, var_map: dict, num_vars: int) -> Circuit:
    """remap_vars, given circ's reachable gates; a source variable var_map
    names outside circ is an ArityMismatch. A canonical circuit renamed onto
    distinct inputs is projected with no builder: its gates in their order,
    each input renamed, its outputs, and the reachable gates and metrics
    computed for it, which a renaming does not change."""
    for old in var_map:
        _check_var(circ, old)

    def rename(v):
        new = var_map.get(v, v)
        return new if 0 <= new < num_vars else None

    if not (circ._canonical and all(0 <= new < num_vars for new in var_map.values())
            and _injective(circ, reach, rename)):
        builder = CircuitBuilder(circ.field, num_vars)
        bindings = {old: builder.inp(new) for old, new in var_map.items()}
        return builder.finish(builder.import_circuit(circ, var_bindings=bindings))
    gates = [(IN, rename(g[1])) if g[0] == IN else g for g in circ.gates]
    proj = Circuit(circ.field, num_vars, gates, circ.outputs)
    proj._canonical = True
    proj._reach = reach
    proj._metrics = circ._metrics
    return proj


def formal_degree_in(circ: Circuit, var) -> int:
    """Formal degree in one variable index or a collection of them, the
    other inputs counting as degree 0: a sound bound on the true degree in
    those variables. Over all variables it equals circ.formal_degree()."""
    chosen = {var} if isinstance(var, int) else set(var)
    for v in chosen:
        _check_var(circ, v)
    deg = _gate_degrees(circ, circ.reachable(), chosen)
    return max(deg[o] for o in circ.outputs)


def is_formula(circ: Circuit) -> bool:
    """True when every gate feeds at most one wire (tree shape)."""
    fan_out = {}
    for i in circ.reachable():
        gate = circ.gates[i]
        if gate[0] in (ADD, MUL):
            for c in gate[1]:
                fan_out[c] = fan_out.get(c, 0) + 1
    for o in circ.outputs:
        fan_out[o] = fan_out.get(o, 0) + 1
    return all(v <= 1 for v in fan_out.values())


# -- batched evaluation -------------------------------------------------------

def _column_dtype(field: Field):
    """The numpy dtype of batched values: int64 over a prime p < 2^31, where
    a*b + c of residues stays below 2^63; Python objects over other fields."""
    return np.int64 if isinstance(field, PrimeField) and field.p < 1 << 31 else object


def _grid_batches(n: int, g: int, count: int):
    """Yield (columns, size) for the first `count` points of {0..g-1}^n in
    lexicographic order, last coordinate fastest, as evaluate_batches reads
    them.

    The origin comes alone first, so a scan whose witness it is walks one
    point. The rest runs in aligned blocks of g^j points, j <= n the largest
    value with g^j <= GRID_BATCH (and j >= 1 when n >= 1), and each of the
    n - j high coordinates is one Python int per batch. A whole block comes
    as broadcast axes, built once per scan: low coordinate v is arange(g)
    along dimension v of j and length 1 along the others, so a gate reading
    only some low coordinates is computed over their sub-grid. The first
    block's size, g^j - 1, says it holds the block's last points, the
    origin having been walked. A batch cut short by `count`, and a run
    of a coordinate with g > GRID_BATCH values (walked GRID_BATCH values at
    a time), comes as flat int64 columns instead.
    """
    if count < 1:
        return
    yield [0] * n, 1
    low = min(n, 1)
    while low < n and g ** (low + 1) <= GRID_BATCH:
        low += 1
    block = g**low
    whole = block <= GRID_BATCH  # else one coordinate of g values, walked in runs
    axes = [np.arange(g, dtype=np.int64).reshape([g if u == v else 1 for u in range(low)])
            for v in range(low)] if whole else None
    start = 1
    while start < count:
        k, offset = divmod(start, block)
        stop = min(count, (k + 1) * block, start + GRID_BATCH)
        high = [k // g ** (n - low - 1 - v) % g for v in range(n - low)]
        if whole and stop == (k + 1) * block:
            yield high + axes, stop - start
        else:
            flat = np.arange(offset, offset + stop - start, dtype=np.int64)
            yield high + [flat // g ** (low - 1 - v) % g for v in range(low)], stop - start
        start = stop


def _active_vars(circ: Circuit) -> list:
    """The variables circ's reachable input gates read, ascending."""
    gates = circ.gates
    return sorted({gates[i][1] for i in circ.reachable() if gates[i][0] == IN})


def _active_grid_batches(read: list, g: int, base: list):
    """The batches of _grid_batches over all of {0..g-1}^len(read), spread
    over base's columns: column read[j] is the grid's coordinate j, every
    other column is base's scalar."""
    for columns, size in _grid_batches(len(read), g, g ** len(read)):
        row = list(base)
        for v, c in zip(read, columns):
            row[v] = c
        yield row, size


def _batch_shape(columns, size: int) -> tuple:
    """The shape a batch's columns, scalars or numpy arrays, broadcast to,
    (size,) when all are scalars: the batch is its last `size` cells in C
    order. A shape with fewer cells is an ArityMismatch."""
    # one array per shape: np.broadcast takes at most 64
    arrays = {c.shape: c for c in columns if isinstance(c, np.ndarray)}
    shape = np.broadcast(*arrays.values()).shape if arrays else ()
    shape = shape or (size,)
    if math.prod(shape) < size:
        raise ArityMismatch(f"columns of shape {shape} hold fewer than {size} points")
    return shape


def _flatten(value, shape: tuple, size: int):
    """An array over a batch of shape `shape` (a flat column, or over some
    of a grid block's axes) as the flat array of the batch's `size` points."""
    if value.shape != shape:  # filling a fresh array beats np.broadcast_to's copy
        full = np.empty(shape, dtype=value.dtype)
        full[...] = value
        value = full
    return value.reshape(-1)[-size:]


def _flat_columns(columns, size: int) -> list:
    """A batch's columns with every array flattened to its `size` points;
    scalars stay scalars."""
    shape = _batch_shape(columns, size)
    return [_flatten(c, shape, size) if isinstance(c, np.ndarray) else c for c in columns]


def evaluate_batches(circ: Circuit, batches):
    """Evaluate every output on successive batches of points.

    `batches` yields (columns, size) pairs: columns[v] holds coordinate v
    of the batch as field elements. A column is one scalar, a flat array or
    list of the `size` points, or an axis of a grid block; numpy broadcasts
    them together, so a gate is computed only over the coordinates it reads,
    and the batch is the last `size` cells of that shape in C order
    (_batch_shape). A grid scan passes the integers 0..g-1 unreduced, with
    g <= p. Over a prime p < 2^31 the gate walk runs on numpy int64
    arrays with lazy reduction: _int64_plan bounds each gate's unreduced
    value, and a value is reduced mod p only where the next sum or product
    could reach 2^63. Over any other field it runs on numpy object arrays
    of Python ints, reduced after every operation, or Fractions. Constants
    stay scalars. Yields one list of flat output arrays of length `size`
    per batch, reduced mod p over prime fields. Circuit.evaluate is the
    scalar reference.
    """
    p = circ.field.p if isinstance(circ.field, PrimeField) else None
    dtype = _column_dtype(circ.field)
    lazy = dtype is np.int64
    gates = circ.gates
    reach = circ.reachable()
    plan = _int64_plan(circ, p) if lazy else {}
    for columns, size in batches:
        if len(columns) != circ.num_vars:
            raise ArityMismatch(f"{len(columns)} columns for {circ.num_vars} variables")
        # _batch_shape reads the shapes of numpy arrays only
        columns = [np.asarray(c, dtype=dtype) if isinstance(c, list) else c for c in columns]
        shape = _batch_shape(columns, size)
        vals = [None] * len(gates)
        for i in reach:
            op, arg = gates[i]
            if op == IN:
                vals[i] = np.asarray(columns[arg], dtype=dtype)
            elif op == CONST:
                vals[i] = arg
            else:
                reduce_children, reduce_acc = plan.get(i, ((), ()))
                for c in reduce_children:
                    vals[c] = vals[c] % p
                acc = vals[arg[0]]
                for k, c in enumerate(arg[1:]):
                    if lazy and reduce_acc[k]:
                        acc = acc % p
                    acc = acc + vals[c] if op == ADD else acc * vals[c]
                    if p is not None and not lazy:
                        acc %= p
                vals[i] = acc
        outs = [vals[o] % p if p is not None else vals[o] for o in circ.outputs]
        yield [np.full(size, v, dtype=dtype) if np.ndim(v) == 0 else _flatten(v, shape, size)
               for v in outs]
        # Drop the columns before the next batch makes its own, and keep
        # this batch's values until then: equal-sized batches of a long scan
        # then reuse each other's memory rather than map it afresh.
        columns = None


def _int64_plan(circ: Circuit, p: int) -> dict:
    """Where evaluate_batches reduces mod p on the int64 path, as
    {gate: (children to reduce first, per-step flags to reduce the
    accumulator)} for every add or mul gate.

    Values stay nonnegative: an input is at most p - 1, a constant is its
    residue, and a sum or product is bounded by the sum or product of its
    operands' bounds. Before each step the larger of the accumulator and
    the next child is reduced (bound p - 1) until the result stays below
    2^63; a reduced child keeps its reduced value for later gates.
    """
    limit = 1 << 63
    bound = {}
    plan = {}
    for i in circ.reachable():
        op, arg = circ.gates[i]
        if op == IN:
            bound[i] = p - 1
            continue
        if op == CONST:
            bound[i] = arg
            continue
        reduce_children = []
        reduce_acc = []
        acc = bound[arg[0]]
        for k, c in enumerate(arg[1:]):
            reduce = False
            while (acc + bound[c] if op == ADD else acc * bound[c]) >= limit:
                if acc < bound[c]:
                    reduce_children.append(c)
                    bound[c] = p - 1
                else:
                    reduce = True
                    acc = p - 1
            reduce_acc.append(reduce)
            acc = acc + bound[c] if op == ADD else acc * bound[c]
        bound[i] = acc
        plan[i] = (tuple(reduce_children), tuple(reduce_acc))
    return plan


def evaluate_batch(circ: Circuit, columns, size: int) -> list:
    """The output arrays of evaluate_batches for one batch."""
    return next(evaluate_batches(circ, [(columns, size)]))


def sz_is_zero(circ: Circuit, grid: int, seed: int, *names: str) -> bool:
    """Schwartz-Zippel test: True when the first output vanishes on all
    SZ_POINTS points of {0..grid-1}^n drawn by sample_grid(seed, *names)."""
    nv = circ.num_vars
    coords = sample_grid(circ.field, grid, SZ_POINTS * nv, seed, *names)
    values = evaluate_batch(circ, [coords[v::nv] for v in range(nv)], SZ_POINTS)[0]
    return not (values != 0).any()


# -- text format -------------------------------------------------------------
#
#   field rationals          | field prime <p>
#   nvars <n>
#   g<k> = input x<i>        (i is 1-based)
#   g<k> = const <num>[/<den>]
#   g<k> = add g<a> g<b> ...
#   g<k> = mul g<a> g<b> ...
#   output g<k>
#
# Gate indices must be strictly increasing. Blank lines and '#' comments are
# ignored. Round-trips are semantically identical (same polynomial); the
# builder canonicalizes structure on parse. Dense polynomials (.poly) and
# hard-polynomial tables (.table) share the two header lines, tables with
# `m <n>` in place of `nvars <n>`. The count is at most HEADER_COUNT_LIMIT:
# every stage past the parser allocates per variable.

HEADER_COUNT_LIMIT = 4096


def field_line(field: Field) -> str:
    """The header line naming `field`."""
    if field.kind == "rationals":
        return "field rationals"
    return f"field prime {field.p}"


def parse_header(text: str, count_key: str = "nvars"):
    """Read the header shared by the text formats.

    The first two content lines must be the field line and `<count_key> <n>`;
    neither may appear again. Returns (field, n, body), body being the
    remaining (line number, line) pairs with comments stripped.
    """
    lines = [(no, raw.split("#", 1)[0].strip()) for no, raw in enumerate(text.splitlines(), 1)]
    lines = [(no, line) for no, line in lines if line]
    eof = (len(text.splitlines()) + 1, "")
    (field_no, field_text), (count_no, count_text) = (lines + [eof, eof])[:2]
    for line_no, key, parts in ((field_no, "field", field_text.split()),
                                (count_no, count_key, count_text.split())):
        if parts[:1] != [key]:
            raise CircuitSyntaxError(line_no, f"expected the '{key}' header line")
    parts = field_text.split()
    why = "use 'field rationals' or 'field prime <p>'"
    try:
        if parts[1:] == ["rationals"]:
            field, why = Rationals(), None
        elif len(parts) == 3 and parts[1] == "prime":
            field = PrimeField(int(parts[2]))
            why = None if is_prime(field.p) else f"modulus {field.p} is not prime"
    except (ValueError, ParameterViolation) as e:  # no integer modulus, or one PrimeField refuses
        why = e
    if why:
        raise CircuitSyntaxError(field_no, f"bad field line ({why})")
    parts = count_text.split()
    if len(parts) != 2 or not parts[1].isdecimal():
        raise CircuitSyntaxError(count_no, f"bad {count_key} line {count_text!r}")
    if int(parts[1]) > HEADER_COUNT_LIMIT:
        raise CircuitSyntaxError(
            count_no, f"{count_key} {parts[1]} is above the limit of {HEADER_COUNT_LIMIT}"
        )
    for line_no, line in lines[2:]:
        if line.split()[0] in ("field", count_key):
            raise CircuitSyntaxError(line_no, f"duplicate {line.split()[0]} line")
    return field, int(parts[1]), lines[2:]


def parse_value(field: Field, token: str, line_no: int):
    """A field element written in a text file."""
    try:
        return field.parse(token)
    except (ValueError, DivisionByZero):
        raise CircuitSyntaxError(line_no, f"bad constant {token!r}") from None


def parse_circuit(text: str) -> Circuit:
    field, num_vars, body = parse_header(text)
    builder = CircuitBuilder(field, num_vars)
    names = {}  # file gate index -> builder gate id
    last_index = -1
    outputs = []

    def fail(line_no, msg):
        raise CircuitSyntaxError(line_no, msg)

    for line_no, line in body:
        parts = line.split()
        if parts[0] == "output":
            if len(parts) != 2 or not parts[1].startswith("g"):
                fail(line_no, "bad output line")
            idx = _gate_index(parts[1], line_no)
            if idx not in names:
                raise DanglingReference(f"line {line_no}: output references undefined g{idx}")
            outputs.append(names[idx])
            continue
        # gate definition: g<k> = <op> ...
        if len(parts) < 3 or parts[1] != "=" or not parts[0].startswith("g"):
            fail(line_no, f"bad gate line {line!r}")
        idx = _gate_index(parts[0], line_no)
        if idx <= last_index:
            fail(line_no, f"gate indices must be strictly increasing (g{idx})")
        op, args = parts[2], parts[3:]
        if op == "input":
            if len(args) != 1 or not args[0].startswith("x"):
                fail(line_no, "input needs one variable")
            try:
                var = int(args[0][1:])
            except ValueError:
                fail(line_no, f"bad variable {args[0]!r}")
            if not 1 <= var <= num_vars:
                fail(line_no, f"variable {args[0]} out of range")
            gid = builder.inp(var - 1)
        elif op == "const":
            if len(args) != 1:
                fail(line_no, "const needs one value")
            gid = builder.const(parse_value(field, args[0], line_no))
        elif op in ("add", "mul"):
            if len(args) < 2:
                fail(line_no, f"{op} needs fan-in >= 2")
            child_ids = []
            for a in args:
                ref = _gate_index(a, line_no)
                if ref >= idx:
                    raise CyclicReference(
                        f"line {line_no}: g{idx} references g{ref} (not below it)"
                    )
                if ref not in names:
                    raise DanglingReference(f"line {line_no}: undefined gate g{ref}")
                child_ids.append(names[ref])
            gid = builder.add(*child_ids) if op == "add" else builder.mul(*child_ids)
        else:
            fail(line_no, f"unknown op {op!r}")
        names[idx] = gid
        last_index = idx

    if not outputs:
        raise CircuitSyntaxError(0, "no output line")
    return builder.finish(outputs)


def _gate_index(token: str, line_no: int) -> int:
    if not token.startswith("g"):
        raise CircuitSyntaxError(line_no, f"expected gate name, got {token!r}")
    try:
        return int(token[1:])
    except ValueError:
        raise CircuitSyntaxError(line_no, f"bad gate name {token!r}") from None


def emit_circuit(circ: Circuit) -> str:
    field = circ.field
    lines = [field_line(field), f"nvars {circ.num_vars}"]
    for i, gate in enumerate(circ.gates):
        op = gate[0]
        if op == IN:
            lines.append(f"g{i} = input x{gate[1] + 1}")
        elif op == CONST:
            lines.append(f"g{i} = const {field.format(gate[1])}")
        else:
            kids = " ".join(f"g{c}" for c in gate[1])
            lines.append(f"g{i} = {op} {kids}")
    for o in circ.outputs:
        lines.append(f"output g{o}")
    return "\n".join(lines) + "\n"

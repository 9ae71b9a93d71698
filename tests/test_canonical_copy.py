"""Circuits a sharing builder finished are copied, not re-canonicalized.

The copy path of import_circuit must write exactly the gates the
canonicalizing path writes for an unmarked copy of the same circuit, and
the projection of remap_vars and drop_unused_vars must be the source's
gates, each input renamed, which re-canonicalization writes as they are.
Likewise a sharing builder importing one circuit object again, which
reuses the ids of the gates whose bindings did not move, must write
exactly what importing equal but distinct objects writes.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from circuitforge import Circuit, CircuitBuilder, PrimeField, Rationals
from circuitforge.circuit import _compute_metrics, _reach, drop_unused_vars, parse_circuit
from circuitforge.circuit import remap_vars
from circuitforge.dense import expand_outputs
from circuitforge.errors import ArityMismatch

FIELDS = (Rationals(), PrimeField(1_000_003))
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def builder_circuits(draw):
    """A multi-output circuit from a sharing builder (outputs may share
    sub-circuits), with the field and variable count it was built over."""
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 4))
    b = CircuitBuilder(field, n)
    pool = [b.inp(v) for v in range(n)]
    pool.append(b.const(field.embed(draw(st.integers(-3, 3)))))
    for _ in range(draw(st.integers(1, 14))):
        op = draw(st.integers(0, 4))
        args = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
        c = field.embed(draw(st.integers(-3, 3)))
        if op == 0:
            pool.append(b.add(*args))
        elif op == 1:
            pool.append(b.mul(*args))
        elif op == 2:
            pool.append(b.scale(c, args[0]))
        elif op == 3:
            pool.append(b.add(args[0], b.const(c)))
        else:
            pool.append(b.sub(args[0], args[-1]))
    outs = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
    return b.finish(outs)


def unmarked(circ):
    return Circuit(circ.field, circ.num_vars, circ.gates, circ.outputs)


def counting_builder(field, n, share):
    """A builder that counts its add/mul calls."""
    b = CircuitBuilder(field, n, share)
    b.calls = 0
    add, mul = b.add, b.mul

    def counted(fn):
        def call(*children):
            b.calls += 1
            return fn(*children)
        return call

    b.add, b.mul = counted(add), counted(mul)
    return b


def same(a, b):
    assert (a.num_vars, a.gates, a.outputs, a._canonical) == \
        (b.num_vars, b.gates, b.outputs, b._canonical)


def renaming(draw, n, extra):
    """An injective map of a subset of 0..n-1 into 0..n+extra-1 that avoids
    the variables left unbound, as a dict in a drawn order."""
    bound = draw(st.lists(st.integers(0, n - 1), unique=True))
    free = [v for v in range(n + extra) if v not in set(range(n)) - set(bound)]
    targets = draw(st.permutations(free))[: len(bound)]
    return dict(zip(bound, targets))


@SETTINGS
@given(builder_circuits(), st.data())
def test_import_copies_what_canonicalization_writes(circ, data):
    field, n = circ.field, circ.num_vars
    assert circ._canonical
    extra = data.draw(st.integers(0, 2))
    var_map = renaming(data.draw, n, extra)
    views = [Circuit(circ.field, n, circ.gates, [o]) for o in circ.outputs]
    prefill = data.draw(st.sampled_from([None] + views))
    share = data.draw(st.booleans())
    results = []
    for src in (circ, unmarked(circ)):
        b = counting_builder(field, n + extra, share)
        if prefill is not None:
            b.import_circuit(prefill)
            b.add(b.inp(n + extra - 1), b.const(field.one))
        b.calls = 0
        ids = b.import_circuit(src, {v: b.inp(w) for v, w in var_map.items()})
        results.append((ids, list(b._gates), b.calls))
    (ids, gates, calls), (slow_ids, slow_gates, slow_calls) = results
    assert (ids, gates) == (slow_ids, slow_gates)
    assert calls == 0 if share else calls == slow_calls
    assert slow_calls > 0 or all(circ.gates[i][0] in ("in", "const") for i in circ.reachable())


def rebuilt(circ):
    """circ re-canonicalized in a fresh sharing builder."""
    b = CircuitBuilder(circ.field, circ.num_vars)
    return b.finish(b.import_circuit(unmarked(circ)))


def kept(draw, circ):
    """Distinct variables of circ, in a drawn order, that cover its inputs."""
    used = sorted({circ.gates[i][1] for i in circ.reachable() if circ.gates[i][0] == "in"})
    unused = [v for v in range(circ.num_vars) if v not in used]
    extra = draw(st.lists(st.sampled_from(unused), unique=True)) if unused else []
    return used, draw(st.permutations(used + extra))


@SETTINGS
@given(builder_circuits(), st.data())
def test_remap_and_drop_keep_the_source_order(circ, data):
    n = circ.num_vars
    extra = data.draw(st.integers(0, 2))
    var_map = renaming(data.draw, n, extra)
    used, keep = kept(data.draw, circ)
    position = {old: new for new, old in enumerate(keep)}
    for proj, new in ((remap_vars(circ, var_map, n + extra), lambda v: var_map.get(v, v)),
                      (drop_unused_vars(circ, keep), position.__getitem__)):
        assert proj._canonical and proj.outputs == circ.outputs
        assert proj.gates == tuple(("in", new(g[1])) if g[0] == "in" else g for g in circ.gates)
        same(rebuilt(proj), proj)
    # the builder fallback for an unmarked source computes the same outputs
    for proj, slow in ((remap_vars(circ, var_map, n + extra),
                        remap_vars(unmarked(circ), var_map, n + extra)),
                       (drop_unused_vars(circ, keep), drop_unused_vars(unmarked(circ), keep))):
        assert proj.metrics() == slow.metrics()
        assert expand_outputs(proj) == expand_outputs(slow)
    if used:
        short = [v for v in keep if v != used[0]]
        for src in (circ, unmarked(circ)):
            with pytest.raises(ArityMismatch):
                drop_unused_vars(src, short)


@SETTINGS
@given(builder_circuits(), st.data())
def test_projections_keep_the_metrics_of_their_source(circ, data):
    # a projection onto distinct inputs copies its source's computed
    # metrics: they must be what a fresh walk of the projection finds
    n = circ.num_vars
    extra = data.draw(st.integers(0, 2))
    var_map = renaming(data.draw, n, extra)
    _, keep = kept(data.draw, circ)
    if data.draw(st.booleans()):
        circ.metrics()
    for proj in (remap_vars(circ, var_map, n + extra), drop_unused_vars(circ, keep)):
        assert proj.metrics() == _compute_metrics(proj)


def twin(circ):
    """An equal but distinct circuit object, with the same canonical mark."""
    out = unmarked(circ)
    out._canonical = circ._canonical
    return out


def bind(b, field, spec):
    """The gate a binding spec (kind, variable, constant) names in b: an
    input, a constant, an input plus a constant or a scaled input."""
    kind, v, c = spec
    c = field.embed(c)
    if kind == 0:
        return b.inp(v)
    if kind == 1:
        return b.const(c)
    if kind == 2:
        return b.add(b.inp(v), b.const(c))
    return b.mul(b.const(c), b.inp(v))


@st.composite
def binding_runs(draw, n):
    """Two to four lists of binding specs for the variables 0..n-1 (None
    leaves one unbound), each equal to the one before but in some drawn
    variables."""
    spec = st.none() | st.tuples(st.integers(0, 3), st.integers(0, n - 1), st.integers(-2, 2))
    run = [draw(st.lists(spec, min_size=n, max_size=n))]
    for _ in range(draw(st.integers(1, 3))):
        moved = draw(st.sets(st.integers(0, n - 1)))
        run.append([draw(spec) if v in moved else s for v, s in enumerate(run[-1])])
    return run


@SETTINGS
@given(builder_circuits(), st.data())
def test_reimport_writes_what_distinct_objects_write(circ, data):
    field, n = circ.field, circ.num_vars
    run = data.draw(binding_runs(n))
    share = data.draw(st.booleans())
    src = circ if data.draw(st.booleans()) else unmarked(circ)
    results = []
    for distinct in (False, True):
        b = counting_builder(field, n, share)
        outs = []
        for specs in run:
            bindings = {v: bind(b, field, s) for v, s in enumerate(specs) if s is not None}
            outs.append(b.import_circuit(twin(src) if distinct else src, bindings))
        results.append((outs, list(b._gates), b.calls))
    (outs, gates, calls), (want_outs, want_gates, want_calls) = results
    assert (outs, gates) == (want_outs, want_gates)
    assert calls <= want_calls if share else calls == want_calls


@pytest.mark.parametrize("field", FIELDS, ids=["QQ", "Fp"])
def test_non_sharing_reimport_still_emits_trees(field):
    b = CircuitBuilder(field, 2)
    formula = b.finish(b.add(b.mul(b.inp(0), b.inp(1)), b.const(field.embed(2))))
    tree = CircuitBuilder(field, 2, share=False)
    bindings = {0: tree.inp(1), 1: tree.inp(0)}  # the same gates bound in both imports
    first, second = (tree.import_circuit(formula, bindings)[0] for _ in range(2))
    # the two copies share the bound inputs and no other gate
    reached = [set(_reach(tree._gates, [out])) for out in (first, second)]
    assert reached[0] & reached[1] == set(bindings.values())


def _x0_plus_x1(field):
    b = CircuitBuilder(field, 2)
    return b.finish(b.add(b.inp(0), b.inp(1)))


@pytest.mark.parametrize("field", FIELDS, ids=["QQ", "Fp"])
def test_non_injective_binding_is_canonicalized(field):
    circ = _x0_plus_x1(field)
    b = CircuitBuilder(field, 2)
    out = b.import_circuit(circ, {0: b.inp(1)})[0]
    two_x1 = b.finish(b.scale(field.embed(2), b.inp(1)))
    same(b.finish(out), two_x1)
    same(remap_vars(circ, {0: 1}, 2), two_x1)


def test_hand_built_duplicates_are_merged():
    field = Rationals()
    two = field.embed(2)
    gates = [("in", 0), ("const", two), ("const", two), ("add", (0, 1)), ("add", (0, 2)),
             ("mul", (3, 4))]
    circ = Circuit(field, 1, gates, [5])
    assert not circ._canonical
    b = CircuitBuilder(field, 1)
    got = b.finish(b.import_circuit(circ))
    assert got.gates == (("in", 0), ("const", two), ("add", (0, 1)), ("mul", (2, 2)))
    same(remap_vars(circ, {0: 0}, 1), got)
    same(drop_unused_vars(circ, [0]), got)


def test_only_sharing_builders_mark():
    field = Rationals()
    b = CircuitBuilder(field, 1, share=False)
    assert not b.finish(b.add(b.inp(0), b.inp(0)))._canonical
    assert parse_circuit("field rationals\nnvars 1\ng1 = input x1\noutput g1\n")._canonical
    assert not unmarked(_x0_plus_x1(field))._canonical

"""The shared gate walks against the general paths they stand for.

Reachability is one reverse mark sweep, the metrics one fused walk, an
empty sharing builder adopts a canonical circuit's gate list, and the
expansion kernel has a two-child branch and takes its top degree from the
cached metrics. Each is checked here against a plain reference written in
the test, or against the general path on an unmarked copy, over Q,
F_1000003 and F_{2^62-57}.
"""

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from circuitforge import Circuit, CircuitBuilder, DensePoly, PrimeField, Rationals, emit_circuit
from circuitforge.circuit import ADD, IN, MUL, _compute_metrics, _reach, formal_degree_in
from circuitforge.dense import ExpansionBudget, expand, expand_outputs
from circuitforge.errors import BudgetExceeded, InvariantViolated
from circuitforge.fields import SIXTY_TWO_BIT_PRIME

FIELDS = (Rationals(), PrimeField(1_000_003), PrimeField(SIXTY_TWO_BIT_PRIME))
FIELD_IDS = ["QQ", "F1000003", "F2^62-57"]
SETTINGS = settings(max_examples=80, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])
ROOMY = ExpansionBudget(max_terms=10**6, max_degree=10**3)


@st.composite
def builders(draw):
    """A sharing or tree builder holding a random gate list, with the pool
    of gate ids it built (many of them unreachable from any one output)."""
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 4))
    b = CircuitBuilder(field, n, share=draw(st.booleans()))
    pool = [b.inp(v) for v in range(n)]
    pool.append(b.const(field.embed(draw(st.integers(-3, 3)))))
    for _ in range(draw(st.integers(2, 16))):
        op = draw(st.integers(0, 3))
        args = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))
        c = field.embed(draw(st.sampled_from([-3, -1, 1, 2, 3])))
        c = c / 2 if isinstance(field, Rationals) else c  # rational constants over Q
        if op == 0:
            pool.append(b.add(*args))
        elif op == 1:
            pool.append(b.mul(*args))
        elif op == 2:
            pool.append(b.scale(c, args[0]))
        else:
            pool.append(b.add(args[0], b.const(c)))
    return b, pool


@st.composite
def circuits(draw):
    """A finished circuit whose first output is the builder's last gate, or
    an unmarked single-output view of it, which shares its gate array."""
    b, pool = draw(builders())
    circ = b.finish([pool[-1]] + draw(st.lists(st.sampled_from(pool), max_size=2)))
    if draw(st.booleans()) and len(circ.outputs) > 1:
        circ = draw(st.sampled_from(split(circ)))
    return circ


def unmarked(circ):
    return Circuit(circ.field, circ.num_vars, circ.gates, circ.outputs)


def split(multi):
    """One unmarked single-output view per output of multi."""
    return [Circuit(multi.field, multi.num_vars, multi.gates, [o]) for o in multi.outputs]


def dfs_reach(gates, outputs):
    seen, stack = set(), list(outputs)
    while stack:
        i = stack.pop()
        if i not in seen:
            seen.add(i)
            if gates[i][0] in (ADD, MUL):
                stack.extend(gates[i][1])
    return sorted(seen)


# -- reachability and finish ----------------------------------------------------

@SETTINGS
@given(builders(), st.data())
def test_reach_sweep_is_the_dfs(built, data):
    b, pool = built
    outs = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
    assert _reach(b._gates, outs) == dfs_reach(b._gates, outs)
    circ = b.finish(outs)
    assert _reach(circ.gates, circ.outputs) == list(range(len(circ.gates)))
    for view in split(circ):
        assert view.reachable() == dfs_reach(view.gates, view.outputs)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_finish_with_no_output_is_an_invariant_violation(field):
    b = CircuitBuilder(field, 2)
    b.add(b.inp(0), b.inp(1))
    with pytest.raises(InvariantViolated, match="at least one output"):
        b.finish([])


# -- metrics ------------------------------------------------------------------------

def reference_depth(circ):
    """The layered depth walked gate by gate on effective ops."""
    eop, dep = {}, {}
    for i in circ.reachable():
        op, arg = circ.gates[i]
        dep[i] = 0
        if op in (IN, "const"):
            eop[i] = "leaf" if op == IN else "const"
            continue
        live = [c for c in arg if eop[c] != "const"]
        if not live:
            eop[i] = "const"
        elif op == MUL and len(live) == 1:
            eop[i], dep[i] = eop[live[0]], dep[live[0]]
        else:
            eop[i] = op
            dep[i] = max(dep[c] + (eop[c] != op) for c in live)
    return max(dep[o] + (eop[o] == MUL or (eop[o] == "leaf" and circ.gates[o][0] != IN))
               for o in circ.outputs)


@SETTINGS
@given(circuits())
def test_fused_metrics_walk_is_the_separate_walks(circ):
    reach = circ.reachable()
    m = _compute_metrics(unmarked(circ))
    assert m["size"] == sum(len(circ.gates[i][1]) for i in reach
                            if circ.gates[i][0] in (ADD, MUL))
    assert m["gates"] == len(reach)
    assert m["formal_degree"] == formal_degree_in(circ, range(circ.num_vars))
    assert m["depth"] == reference_depth(circ)


# -- adoption -------------------------------------------------------------------------

def run_steps(circ, steps, n):
    """Import circ into a fresh sharing builder, emit each of its constants
    again (memo hits), then further gates: sums and products over the
    imported outputs and the inputs, a doubled input, and a second import of
    the same object with one variable bound. Returns the ids, the gate list
    and the bytes."""
    field = circ.field
    b = CircuitBuilder(field, n)
    ids = list(b.import_circuit(circ))
    ids += [b.const(g[1]) for g in circ.gates if g[0] == "const"]
    for kind, a, c in steps:
        if kind == 0:
            ids.append(b.scale(field.embed(2), b.inp(a % n)))
        elif kind == 1:
            ids.append(b.add(ids[a % len(ids)], b.inp(c % n)))
        elif kind == 2:
            ids.append(b.mul(ids[a % len(ids)], ids[c % len(ids)], b.const(field.embed(2))))
        else:
            ids += b.import_circuit(circ, {c % circ.num_vars: b.const(field.embed(a))})
    out = b.finish(ids)
    return ids, list(b._gates), emit_circuit(out)


@SETTINGS
@given(circuits(), st.data())
def test_adoption_writes_what_the_rebuild_writes(circ, data):
    n = circ.num_vars + data.draw(st.integers(0, 1))
    steps = data.draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 5),
                                         st.integers(0, 5)), max_size=5))
    assert run_steps(circ, steps, n) == run_steps(unmarked(circ), steps, n)
    if circ._canonical:
        b = CircuitBuilder(circ.field, n)
        assert b.import_circuit(circ) == list(circ.outputs)
        assert b._gates == list(circ.gates)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_an_adopted_memo_hits_the_constants_it_holds(field):
    # (x1 + c) * x2 + 3c, c = 1/2 over Q: each constant emitted again after
    # the import must be a memo hit on the adopted gate, as after a copy
    c = field.embed(1) / 2 if isinstance(field, Rationals) else field.embed(5)
    b = CircuitBuilder(field, 2)
    circ = b.finish(b.add(b.mul(b.add(b.inp(0), b.const(c)), b.inp(1)), b.const(3 * c)))
    steps = [(1, 0, 1), (2, 0, 0), (3, 2, 1)]
    assert run_steps(circ, steps, 3) == run_steps(unmarked(circ), steps, 3)
    adopted = CircuitBuilder(field, 2)
    adopted.import_circuit(circ)
    assert adopted._gates == list(circ.gates)
    for v in (c, 3 * c):
        assert adopted.const(v) == circ.gates.index(("const", v))


@SETTINGS
@given(builders(), st.data())
def test_a_split_view_writes_its_finished_projection(built, data):
    # each output finished alone from the builder that holds them all is
    # what re-canonicalizing its view of the multi-output finish writes
    b, pool = built
    assume(b.share)
    outs = data.draw(st.lists(st.sampled_from(pool), min_size=2, max_size=3))
    for o, view in zip(outs, split(b.finish(outs))):
        rebuilt = CircuitBuilder(view.field, view.num_vars)
        want = rebuilt.finish(rebuilt.import_circuit(view))
        assert emit_circuit(b.finish(o)) == emit_circuit(want)


# -- expansion -----------------------------------------------------------------------

def reference_expand(circ, cap=None, at=None):
    """Each gate's polynomial as a term map walked term by term with Field
    arithmetic, every map cut at total degree cap."""
    field, n, at = circ.field, circ.num_vars, at or {}
    zero_e = (0,) * n

    def cut(terms):
        return {e: c for e, c in terms.items() if c != field.zero
                and (cap is None or sum(e) <= cap)}

    vals = {}
    for i in circ.reachable():
        op, arg = circ.gates[i]
        if op == IN:
            terms = dict(at[arg].terms) if arg in at else {
                tuple(int(v == arg) for v in range(n)): field.one}
        elif op == "const":
            terms = {zero_e: arg}
        elif op == ADD:
            terms = {}
            for c in arg:
                for e, v in vals[c].items():
                    terms[e] = field.add(terms.get(e, field.zero), v)
        else:
            terms = {zero_e: field.one}
            for c in arg:
                prod = {}
                for e1, v1 in terms.items():
                    for e2, v2 in vals[c].items():
                        e = tuple(x + y for x, y in zip(e1, e2))
                        prod[e] = field.add(prod.get(e, field.zero), field.mul(v1, v2))
                terms = cut(prod)
        vals[i] = cut(terms)
    return [DensePoly(field, n, vals[o]) for o in circ.outputs]


@SETTINGS
@given(circuits(), st.data())
def test_expansion_is_the_term_by_term_reference(circ, data):
    field, n = circ.field, circ.num_vars
    cap = data.draw(st.none() | st.integers(0, 6))
    at = {}
    for v in data.draw(st.sets(st.integers(0, n - 1), max_size=2)):
        terms = data.draw(st.dictionaries(
            st.tuples(*[st.integers(0, 2)] * n), st.integers(-3, 3), max_size=3))
        at[v] = DensePoly(field, n, {e: field.embed(c) for e, c in terms.items()})
    for src in (circ, unmarked(circ)):
        assert expand_outputs(src, ROOMY, cap=cap, at=at) == reference_expand(src, cap, at)


def _power_sum(field, n, k):
    """(x_1 + ... + x_n)^k as one product gate of k equal sums."""
    b = CircuitBuilder(field, n)
    s = b.add(*(b.inp(v) for v in range(n)))
    return b.finish(b.mul(*[s] * k) if k > 1 else s)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_tight_budgets_refuse_with_the_same_kind_and_text(field):
    def refusal(circ, budget, **kw):
        with pytest.raises(BudgetExceeded) as e:
            expand_outputs(circ, budget, **kw)
        return e.value.kind, str(e.value)

    # a gate's own term count: the sum of four inputs
    assert refusal(_power_sum(field, 4, 1), ExpansionBudget(max_terms=3)) == \
        ("terms", "budget exceeded (terms) 4 > 3")
    # a product row: (x1 + x2)(x3 + x4) passes 3 terms on its second row
    b = CircuitBuilder(field, 4)
    two = b.finish(b.mul(b.add(b.inp(0), b.inp(1)), b.add(b.inp(2), b.inp(3))))
    assert refusal(two, ExpansionBudget(max_terms=3)) == \
        ("terms", "budget exceeded (terms) over 3 terms")
    # the formal degree is over the bound, and so is the actual one
    assert refusal(_power_sum(field, 2, 5), ExpansionBudget(max_degree=4)) == \
        ("degree", "budget exceeded (degree) 5 > 4")
    # under a cap no kept key is above it, whatever the formal degree
    capped = _power_sum(field, 2, 5)
    assert expand_outputs(capped, ExpansionBudget(max_degree=4), cap=3) == \
        reference_expand(capped, cap=3)
    # a bound input counts its value's degree
    x1_cubed = DensePoly(field, 2, {(3, 0): field.one})
    b = CircuitBuilder(field, 2)
    xy = b.finish(b.mul(b.inp(0), b.inp(1)))
    assert refusal(xy, ExpansionBudget(max_degree=3), at={0: x1_cubed}) == \
        ("degree", "budget exceeded (degree) 4 > 3")


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_a_formal_degree_over_the_bound_that_cancels_expands(field):
    # (x + 1)^2 - x^2 - 2x has formal degree 2 and degree 0: the per-gate
    # check reads each gate's actual degree, here at most 2
    b = CircuitBuilder(field, 1)
    x = b.inp(0)
    sq = b.mul(b.add(x, b.const(field.one)), b.add(x, b.const(field.one)))
    circ = b.finish(b.add(sq, b.neg(b.mul(x, x)), b.scale(field.embed(-2), x)))
    assert circ.formal_degree() == 2
    assert expand(circ, ExpansionBudget(max_degree=2)) == DensePoly.const(field, 1, field.one)
    with pytest.raises(BudgetExceeded, match=r"\(degree\) 2 > 1"):
        expand(circ, ExpansionBudget(max_degree=1))

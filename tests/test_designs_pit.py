import hashlib
import itertools
import json

import numpy as np
import pytest

from circuitforge import (
    CircuitBuilder,
    ExplicitPoly,
    HittingSet,
    PrimeField,
    Rationals,
    expand,
    hybrid_locate,
    nw_design,
    pit_hitset,
    pit_sz,
)
from circuitforge import circuit, pit
from circuitforge.circuit import HEADER_COUNT_LIMIT, _active_vars, fix_vars, remap_vars
from circuitforge.designs import DESIGN_ELL_FACTOR, TABLE_VARS_LIMIT, Design, SmallGF
from circuitforge.fields import SIXTY_TWO_BIT_PRIME
from circuitforge import designs
from circuitforge.errors import (
    ArityMismatch, BudgetExceeded, FieldTooSmall, InvariantViolated, ParameterViolation,
    PreconditionFailed,
)
from circuitforge.pit import (
    EXHAUSTIVE_POINT_BUDGET, PitResult, _is_zero_exhaustive, exhaustive_zero_count,
)

from conftest import SMALL_PRIME, random_circuit, rng_for


def test_design_example_n4_m3():
    d = nw_design(4, 3)
    assert (d.q, d.dprime, d.ell) == (3, 2, 9)
    assert all(len(s) == 3 for s in d.sets)
    for i in range(4):
        for j in range(i + 1, 4):
            assert len(d.sets[i] & d.sets[j]) <= 1


def test_design_smallest_case():
    d = nw_design(2, 2)
    assert len(d.sets[0] & d.sets[1]) <= 1
    d.check()


def test_design_invariants_sweep():
    # subset of the exhaustive acceptance sweep, including prime-power q
    for n, m in ((3, 2), (7, 3), (15, 4), (31, 5), (63, 6), (16, 8), (64, 16), (50, 14)):
        d = nw_design(n, m)
        d.check()
        assert d.ell <= DESIGN_ELL_FACTOR * m * m


def test_design_parameter_violation():
    with pytest.raises(ParameterViolation):
        nw_design(4, 2)  # n >= 2^m
    with pytest.raises(ParameterViolation):
        nw_design(1, 3)


def test_design_with_more_sets_than_circuit_variables_is_refused():
    # no circuit has more than HEADER_COUNT_LIMIT variables; the O(n^2) law
    # check is never reached (n = 4097 < 2^13 passes the other guards)
    with pytest.raises(ParameterViolation, match=f"n <= {HEADER_COUNT_LIMIT}"):
        nw_design(HEADER_COUNT_LIMIT + 1, 13)
    data = json.loads(nw_design(4, 3).to_json())
    with pytest.raises(ParameterViolation, match=f"n <= {HEADER_COUNT_LIMIT}"):
        Design.from_json(json.dumps(dict(data, n=HEADER_COUNT_LIMIT + 1)))


def test_design_with_sets_larger_than_any_table_is_refused():
    # no ExplicitPoly table has more than TABLE_VARS_LIMIT variables
    with pytest.raises(ParameterViolation, match=f"m <= {TABLE_VARS_LIMIT}"):
        nw_design(100, TABLE_VARS_LIMIT + 1)
    data = json.loads(nw_design(4, 3).to_json())
    with pytest.raises(ParameterViolation, match=f"m <= {TABLE_VARS_LIMIT}"):
        Design.from_json(json.dumps(dict(data, m=TABLE_VARS_LIMIT + 1)))
    with pytest.raises(ParameterViolation, match=f"m <= {TABLE_VARS_LIMIT}"):
        ExplicitPoly(PrimeField(SMALL_PRIME), TABLE_VARS_LIMIT + 1, [])


def test_small_gf_axioms():
    for q in (4, 8, 9, 16, 5, 7):
        gf = SmallGF(q)
        els = range(q)
        for a in els:
            assert gf.add(a, 0) == a
            assert gf.mul(a, 1) == a
            assert gf.mul(a, 0) == 0
        # associativity/commutativity/distributivity on all triples
        for a in els:
            for b in els:
                assert gf.add(a, b) == gf.add(b, a)
                assert gf.mul(a, b) == gf.mul(b, a)
                for c in els:
                    assert gf.mul(a, gf.add(b, c)) == gf.add(gf.mul(a, b), gf.mul(a, c))
        # every nonzero element has an inverse (field, not just a ring)
        for a in range(1, q):
            assert any(gf.mul(a, b) == 1 for b in range(1, q))


# sha256 prefixes of the field tables and of design files: a change of
# modulus or of Horner order moves one of them
GF_TABLE_DIGESTS = {
    2: "090b5ea336d2a3fa", 3: "f9287b0c3bb4fee9", 4: "fc7e342da9b4f0b5", 5: "52ba69e53329b3b2",
    7: "1b4435bbb6ea8cb7", 8: "0e386441c46b1123", 9: "db74138954ff101e",
    11: "d3056bc16c3096b3", 13: "f3034a90fb9bb8a7", 16: "70c9fb2d0f13a41d",
    17: "6fea06b6df2c1ab8", 19: "7b58829892fb1137", 23: "2b5debbdc2a7ff0e",
    25: "2cf8cafe66104011", 27: "37b83e6bb1290fbe", 29: "e7d6d2cf7bc17660",
    31: "ced68c7c0630cca5", 32: "4df5c5f27ca1dd0c",
}
DESIGN_DIGESTS = {  # every extension field m <= 24 selects: q = 4, 8, 9, 16, 25
    (3, 4): "be5edcc0494f1ec5", (9, 4): "58e4372272102ab9", (15, 4): "c09d99ce577d200e",
    (7, 8): "884f72ad22f173ee", (64, 8): "af56e67ed931ba5a", (255, 8): "7a502cc6da23626a",
    (10, 9): "50cadcb39ed94f03", (81, 9): "5f4bc8c80742e4bd", (500, 9): "589c451bc96434b1",
    (17, 14): "ef26d31adbc98226", (256, 14): "7f5c2d7e58985bbf",
    (1000, 14): "469d964e96e15ec8", (16, 16): "72d602d4d9e333ac",
    (257, 16): "7c507b6c8b55cb2a", (4000, 16): "3e6d20de70d0af56",
    (26, 24): "3bdb6bcca37b6eb1", (625, 24): "e3f6fc6abef9e794", (626, 24): "6b0dbe6208443e53",
    (4096, 24): "8b64adba5720057c",
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def test_small_gf_tables_and_designs_keep_their_bytes():
    for q, want in GF_TABLE_DIGESTS.items():
        gf = SmallGF(q)
        pairs = list(itertools.product(range(q), repeat=2))
        data = bytes(gf.add(a, b) for a, b in pairs) + bytes(gf.mul(a, b) for a, b in pairs)
        assert _digest(data) == want, q
    for (n, m), want in DESIGN_DIGESTS.items():
        assert _digest(nw_design(n, m).to_json().encode()) == want, (n, m)


def _random_table(field, m, seed):
    return ExplicitPoly.random_full_support(field, m, 50, seed)


def test_hitting_set_t_size_and_first_point():
    F = PrimeField(SMALL_PRIME)
    tab = _random_table(F, 3, 3)
    design = nw_design(4, 3)
    hs = HittingSet(tab, design, D=2, d=3)
    assert hs.t_size == 2 * 3 + 1
    first = next(hs.points(limit=1))
    f0 = tab.evaluate([F.zero, F.zero, F.zero])
    assert all(v == f0 for v in first)


def test_hitting_set_table_design_mismatch():
    F = PrimeField(SMALL_PRIME)
    with pytest.raises(ArityMismatch):
        HittingSet(_random_table(F, 4, 0), nw_design(4, 3), D=2, d=3)


def test_hitting_set_refuses_bad_degrees_and_limits():
    F = PrimeField(SMALL_PRIME)
    tab = _random_table(F, 3, 3)
    design = nw_design(4, 3)
    for D, d in ((0, 3), (-5, 2), (2, -1)):
        with pytest.raises(ParameterViolation):
            HittingSet(tab, design, D=D, d=d)
    hs = HittingSet(tab, design, D=2, d=3)
    hs.prefix(3)
    with pytest.raises(ParameterViolation):
        list(hs.points(limit=-1))
    assert hs.prefix(0) == [] and len(hs.prefix(5)) == 5


def test_hitting_set_resumes_its_stream_without_listing_the_grid():
    # |T| = 10^12 + 1: the batches cut the last coordinate's run at the
    # limit, so no request lists the grid, and a longer request agrees with
    # a shorter one; the whole set is over the point budget
    F = PrimeField(SIXTY_TWO_BIT_PRIME)
    tab = ExplicitPoly(F, 3, [F.embed(v) for v in range(1, 9)])
    hs = HittingSet(tab, nw_design(4, 3), D=10**6, d=10**6)
    first = hs.prefix(3)
    later = list(hs.points(limit=5))
    assert later[:3] == first and len(later) == 5
    y = [0] * 8 + [F.embed(4)]  # the fifth point: the last coordinate at 4
    assert later[4] == tuple(tab.evaluate([y[e] for e in w]) for w in hs.windows)
    assert hs.prefix(6)[:5] == later
    with pytest.raises(BudgetExceeded):
        next(hs.points())


def test_hitting_points_match_the_window_circuits(monkeypatch, QQ):
    # |T| = 7 and batches of 7^2 = 49 y-points after the origin: 30 points
    # cut the first aligned block, 120 run across two block boundaries, and
    # the table's fold runs in slices of 50 >> 2 = 12 points. No set of
    # nw_design(2, 3) holds y9, a low coordinate of every block
    monkeypatch.setattr(circuit, "GRID_BATCH", 50)
    monkeypatch.setattr(pit, "GRID_BATCH", 50)
    for field, design in itertools.product(
            (PrimeField(SMALL_PRIME), PrimeField(SIXTY_TWO_BIT_PRIME), QQ),
            (nw_design(4, 3), nw_design(2, 3))):
        tab = _random_table(field, 3, 5)
        hs = HittingSet(tab, design, D=2, d=3)
        b = CircuitBuilder(field, design.ell)
        windows = b.finish([pit._window_circuit(b, tab, w, y_base=0) for w in hs.windows])
        grid = itertools.product(range(hs.t_size), repeat=design.ell)
        want = [tuple(windows.evaluate([field.embed(v) for v in y]))
                for y in itertools.islice(grid, 120)]
        for limit in (0, 1, 30, 120):
            assert hs.prefix(limit) == want[:limit], (field, limit)


def test_design_check_reports_the_first_bad_pair(monkeypatch):
    # n = 5 allows intersections of floor(log2 5) = 2; S_1 = S_5 and S_2 = S_4
    sets = [frozenset(s) for s in ({0, 1, 2}, {3, 4, 5}, {6, 7, 8}, {3, 4, 5}, {0, 1, 2})]
    bad = Design(n=5, m=3, q=3, dprime=2, ell=9, sets=sets)
    message = "|S_1 ∩ S_5| = 3 > floor(log2 n) = 2"
    for rows in (512, 2, 1):  # one block, and blocks that split the pairs
        monkeypatch.setattr(designs, "CHECK_BLOCK_ROWS", rows)
        with pytest.raises(InvariantViolated) as e:
            bad.check()
        assert str(e.value) == message
        with pytest.raises(ParameterViolation) as e:
            Design.from_json(bad.to_json())
        assert str(e.value) == message
        nw_design(64, 8).check()


def test_design_check_matches_the_pairwise_loop():
    # random sets in a small universe, so most draws break the law; the
    # product must name the pair the all-pairs loop meets first
    rng = rng_for("design-check-pairs")
    for _ in range(40):
        n, m = rng.randint(4, 12), rng.randint(2, 4)
        sets = [frozenset(sorted(range(2 * m), key=lambda _: rng.randrange(1 << 30))[:m])
                for _ in range(n)]
        log_n = n.bit_length() - 1
        first = next((f"|S_{i + 1} ∩ S_{j + 1}| = {len(sets[i] & sets[j])} > "
                      f"floor(log2 n) = {log_n}"
                      for i in range(n) for j in range(i + 1, n)
                      if len(sets[i] & sets[j]) > log_n), None)
        design = Design(n=n, m=m, q=m, dprime=2, ell=2 * m, sets=sets)
        if first is None:
            design.check()
            continue
        with pytest.raises(InvariantViolated) as e:
            design.check()
        assert str(e.value) == first


def test_design_file_of_the_wrong_shape_is_a_parameter_violation():
    text = nw_design(4, 3).to_json()
    assert Design.from_json(text) == nw_design(4, 3)
    data = json.loads(text)
    bad = ([1, 2], {"n": 4, "m": 3}, dict(data, n=True), dict(data, sets=[[0, 4, "8"]]),
           dict(data, sets=data["sets"][:3]), dict(data, sets=[[0, 4, 99]] + data["sets"][1:]),
           dict(data, ell=10**12), dict(data, sets=[[0, 4, 8]] * 4))
    for body in bad:
        with pytest.raises(ParameterViolation):
            Design.from_json(json.dumps(body))


def test_pit_sz_refuses_a_grid_below_a_variable_degree():
    # x1 * x2: degree 1 in each variable, so {0}^2 or an empty grid cannot decide it
    F = PrimeField(101)
    b = CircuitBuilder(F, 2)
    c = b.finish(b.mul(b.inp(0), b.inp(1)))
    for d in (-1, 0):
        for exhaustive in (True, False):
            with pytest.raises(ParameterViolation):
                pit_sz(c, d, exhaustive=exhaustive)
    assert pit_sz(c, 1, exhaustive=True).status == "nonzero"
    # x1^3 + x2 has total degree 3 but degree 3 only in x1: d = 2 is refused
    b = CircuitBuilder(F, 2)
    x1 = b.inp(0)
    c = b.finish(b.add(b.mul(x1, x1, x1), b.inp(1)))
    with pytest.raises(ParameterViolation):
        pit_sz(c, 2, exhaustive=True)
    assert pit_sz(c, 3, exhaustive=True).status == "nonzero"
    for size in (0, -3):
        with pytest.raises(ParameterViolation):
            exhaustive_zero_count(c, size)


def test_pit_hitset_zero_and_nonzero():
    F = PrimeField(SMALL_PRIME)
    tab = _random_table(F, 3, 1)
    design = nw_design(4, 3)
    hs = HittingSet(tab, design, D=2, d=3)
    b = CircuitBuilder(F, 4)
    zero = b.finish(b.sub(b.inp(0), b.inp(0)))
    res = pit_hitset(zero, hs, limit=50)
    assert res.status == "zero" and not res.exhausted
    b2 = CircuitBuilder(F, 4)
    x1 = b2.finish(b2.inp(0))
    res2 = pit_hitset(x1, hs, limit=50)
    assert res2.status == "nonzero"
    assert res2.witness[0] != F.zero


def test_pit_hitset_refuses_a_limit_below_one():
    # a limit of 0 checks no point, so a "zero" verdict would rest on nothing
    F = PrimeField(SMALL_PRIME)
    hs = HittingSet(_random_table(F, 3, 1), nw_design(4, 3), D=2, d=3)
    b = CircuitBuilder(F, 4)
    x1_plus_1 = b.finish(b.add(b.inp(0), b.const(F.one)))
    for limit in (0, -1):
        with pytest.raises(ParameterViolation, match="limit must be >= 1"):
            pit_hitset(x1_plus_1, hs, limit=limit)
    res = pit_hitset(x1_plus_1, hs, limit=1)
    assert (res.status, res.points_checked) == ("nonzero", 1)
    assert hs.prefix(0) == []  # the point set itself still has an empty prefix


def test_pit_hitset_agrees_with_exhaustive_sz():
    F = PrimeField(SMALL_PRIME)
    tab = _random_table(F, 3, 2)
    design = nw_design(4, 3)
    hs = HittingSet(tab, design, D=4, d=3)
    rng = rng_for("pit-agree")
    points = hs.prefix(4000)
    for t in range(25):
        c = random_circuit(F, rng, 4, size_limit=20, degree_limit=4)
        truth = pit_sz(c, 4, exhaustive=True)
        got = pit_hitset(c, hs, limit=4000)
        assert got.status == truth.status
        if got.status == "nonzero":  # the witness is the hitting point at its position
            assert got.witness == points[got.points_checked - 1]
            assert c.evaluate1(list(got.witness)) != F.zero


def test_pit_sz_random_mode_refuses_trials_below_one(monkeypatch):
    # x1 * x2: zero trials would be a probably-zero verdict with no evidence
    F = PrimeField(SMALL_PRIME)
    b = CircuitBuilder(F, 2)
    c = b.finish(b.mul(b.inp(0), b.inp(1)))
    assert pit_sz(c, 2, trials=1, seed=0, exhaustive=False).points_checked == 1
    monkeypatch.setattr(pit, "stream", lambda *a: pytest.fail("a point was drawn"))
    for trials in (0, -5):
        with pytest.raises(ParameterViolation):
            pit_sz(c, 2, trials=trials, exhaustive=False)
        assert pit_sz(c, 2, trials=trials, exhaustive=True).status == "nonzero"


def test_pit_sz_hand_count_example():
    # C = x1 * x2 over S = {0, 1}: 3 of 4 points vanish, <= d|S|^{n-1} = 4
    F = PrimeField(101)
    b = CircuitBuilder(F, 2)
    c = b.finish(b.mul(b.inp(0), b.inp(1)))
    assert exhaustive_zero_count(c, 2) == 3
    assert 3 <= 2 * 2  # Schwartz-Zippel bound d * |S|^(n-1)


def test_pit_sz_exhaustive_detects_identity():
    # (y - x)(y + x) - y^2 + x^2 == 0
    F = PrimeField(101)
    b = CircuitBuilder(F, 2)
    x, y = b.inp(0), b.inp(1)
    c = b.finish(b.add(
        b.mul(b.sub(y, x), b.add(y, x)),
        b.sub(b.mul(x, x), b.mul(y, y)),
    ))
    res = pit_sz(c, 2, exhaustive=True)
    assert res.status == "zero" and res.exhausted


def test_exhaustive_scan_over_point_budget_is_refused():
    # 1001^8 points: refused before the scan, whose grid index would overflow int64
    F = PrimeField(SMALL_PRIME)
    b = CircuitBuilder(F, 8)
    c = b.finish(b.mul(*(b.inp(i) for i in range(8))))
    assert 1001**8 > EXHAUSTIVE_POINT_BUDGET >= 5**8
    for scan in (lambda: pit_sz(c, 1000, exhaustive=True),
                 lambda: exhaustive_zero_count(c, 1001)):
        with pytest.raises(BudgetExceeded) as e:
            scan()
        assert e.value.kind == "points"
    assert pit_sz(c, 4, exhaustive=True).status == "nonzero"  # 5^8 points fit


def test_pit_sz_exhaustive_matches_oracle(QQ, Fp):
    for field, name in ((QQ, "qq"), (Fp, "fp")):
        rng = rng_for("sz-oracle-" + name)
        for t in range(20):
            c = random_circuit(field, rng, 2, size_limit=16, degree_limit=4)
            res = pit_sz(c, 4, exhaustive=True)
            assert (res.status == "zero") == expand(c).is_zero()


def test_pit_sz_random_mode_finds_nonzero():
    F = PrimeField(SMALL_PRIME)
    rng = rng_for("sz-random")
    found = 0
    for t in range(20):
        c = random_circuit(F, rng, 3, size_limit=16, degree_limit=4)
        if expand(c).is_zero():
            continue
        res = pit_sz(c, 4, trials=64, seed=t, exhaustive=False)
        found += res.status == "nonzero"
    assert found >= 18  # SZ failure probability is tiny on this grid


def test_hybrid_locate_constant_table():
    # q = x1 - x2, f constant: Q_0 != 0, Q_1 = c - x2 != 0, Q_2 == 0 -> i = 1
    F = PrimeField(101)
    design = nw_design(2, 2)
    c5 = F.embed(5)
    tab = ExplicitPoly(F, 2, [c5, F.zero, F.zero, F.zero])
    b = CircuitBuilder(F, 2)
    q = b.finish(b.sub(b.inp(0), b.inp(1)))
    wit = hybrid_locate(q, tab, design)
    assert wit.index == 1
    assert all(0 <= v < 101 for v in wit.assignment.values())


def test_hybrid_locate_tests_each_hybrid_once(monkeypatch):
    # locating index i scans the hybrids Q_1..Q_{i+1} once each: Q_0 = q is
    # nonzero by the precondition, and the last nonzero one is kept
    F = PrimeField(101)
    tab = ExplicitPoly(F, 2, [F.embed(5), F.zero, F.zero, F.zero])
    hybrids, scans = [], []
    real_hybrid, real_zero = pit._hybrid_circuit, pit._is_zero_exhaustive

    def hybrid(*args):
        hybrids.append(real_hybrid(*args))
        return hybrids[-1]

    def is_zero(circ, deg_bound):
        scans.append(circ)
        return real_zero(circ, deg_bound)

    monkeypatch.setattr(pit, "_hybrid_circuit", hybrid)
    monkeypatch.setattr(pit, "_is_zero_exhaustive", is_zero)
    b = CircuitBuilder(F, 2)
    x1_minus_x2 = b.finish(b.sub(b.inp(0), b.inp(1)))
    x1_minus_5 = b.finish(b.sub(b.inp(0), b.const(F.embed(5))))
    for q, index in ((x1_minus_x2, 1), (x1_minus_5, 0)):
        hybrids.clear()
        scans.clear()
        wit = hybrid_locate(q, tab, nw_design(2, 2))
        assert wit.index == index
        assert sum(any(c is h for h in hybrids) for c in scans) == index + 1


def test_hybrid_locate_postconditions():
    F = PrimeField(101)
    design = nw_design(2, 2)
    c5 = F.embed(5)
    tab = ExplicitPoly(F, 2, [c5, F.zero, F.zero, F.zero])
    b = CircuitBuilder(F, 2)
    q = b.finish(b.sub(b.inp(0), b.inp(1)))
    wit = hybrid_locate(q, tab, design)
    from circuitforge.pit import _hybrid_circuit, _is_zero_exhaustive

    qi = _hybrid_circuit(q, tab, design, wit.index)
    qnext = _hybrid_circuit(q, tab, design, wit.index + 1)
    assert not _is_zero_exhaustive(qi, 2)
    assert _is_zero_exhaustive(qnext, 2)


@pytest.mark.parametrize("field", [Rationals(), PrimeField(1000003)], ids=["qq", "f1000003"])
def test_hybrid_locate_fixes_the_variables_outside_the_switching_window(field):
    # f = y1 + y2 + y3 + y4 and q = (x1 + ... + x4) - (x5 + ... + x8) on
    # nw_design(15, 4): q(f(y|S1), ...) vanishes, Q_7 does not, and fixing
    # every active variable but x8 and y|S8 keeps Q_7 nonzero
    design = nw_design(15, 4)
    tab = ExplicitPoly(field, 4, [field.one if mask in (1, 2, 4, 8) else field.zero
                                  for mask in range(16)])
    b = CircuitBuilder(field, 15)
    q = b.finish(b.sub(b.add(*(b.inp(i) for i in range(4))),
                       b.add(*(b.inp(i) for i in range(4, 8)))))
    wit = hybrid_locate(q, tab, design)
    assert wit.index == 7 and len(wit.assignment) == 12
    window = {design.n + e for e in design.sets[7]}
    assert not ({7} | window) & set(wit.assignment)
    assert set(wit.assignment.values()) <= {field.zero, field.one}  # 0..deg_bound, deg_bound 1
    fixed = fix_vars(pit._hybrid_circuit(q, tab, design, wit.index), wit.assignment)
    assert not _is_zero_exhaustive(fixed, 1)


def test_hybrid_locate_precondition_failures():
    F = PrimeField(101)
    design = nw_design(2, 2)
    tab = ExplicitPoly(F, 2, [F.one, F.one, F.one, F.one])
    b = CircuitBuilder(F, 2)
    zero = b.finish(b.sub(b.inp(0), b.inp(0)))
    with pytest.raises(PreconditionFailed):
        hybrid_locate(zero, tab, design)
    b2 = CircuitBuilder(F, 2)
    alive = b2.finish(b2.add(b2.inp(0), b2.inp(1)))  # composition stays nonzero
    with pytest.raises(PreconditionFailed):
        hybrid_locate(alive, tab, design)


def test_pit_sz_exhaustive_counts_points_up_to_the_witness():
    F = PrimeField(SMALL_PRIME)
    b = CircuitBuilder(F, 8)
    c = b.finish(b.add(b.inp(0), b.const(F.one)))
    res = pit_sz(c, 4, exhaustive=True)
    assert res.status == "nonzero" and res.witness == (F.zero,) * 8
    assert res.points_checked == 1


def _scalar_scan(circ, g):
    """(zero count, index of the first nonzero point) of {0..g-1}^n by a
    scalar Circuit.evaluate loop, in the grid scan's lexicographic order."""
    field = circ.field
    zeros, first = 0, None
    for k, point in enumerate(itertools.product(range(g), repeat=circ.num_vars)):
        if circ.evaluate1([field.embed(a) for a in point]) == field.zero:
            zeros += 1
        elif first is None:
            first = k
    return zeros, first


def _nonzero_only_at(field, g, point):
    """A circuit that vanishes on {0..g-1}^n everywhere but at `point`."""
    b = CircuitBuilder(field, len(point))
    return b.finish(b.mul(*(b.add(b.inp(v), b.const(field.embed(-a)))
                            for v, t in enumerate(point) for a in range(g) if a != t)))


def test_grid_scan_matches_a_scalar_loop(monkeypatch, QQ):
    # after the origin, blocks of g^j <= 8 points: (n, g) = (3, 3) runs 9
    # blocks of 3 with two high columns, (4, 2) 2 of 8 and (2, 5) 5 of 5
    # with one; (1, 5), (3, 2) and g = 1 fit one block with no high column;
    # g = 20 and g = 11 exceed the batch, so the last coordinate runs in
    # runs of 8 values (with one high column for g = 11)
    monkeypatch.setattr(circuit, "GRID_BATCH", 8)
    for field in (PrimeField(SMALL_PRIME), QQ, PrimeField(SIXTY_TWO_BIT_PRIME)):
        rng = rng_for("grid-scan", field.kind == "prime" and field.p)
        cases = [(random_circuit(field, rng, n, size_limit=16, degree_limit=4), g)
                 for n, g in ((3, 3), (4, 2), (2, 5), (1, 5), (3, 2), (3, 1), (1, 20), (2, 11))
                 for _ in range(3)]
        b = CircuitBuilder(field, 0)
        cases.append((b.finish(b.const(field.embed(5))), 4))  # n = 0
        b = CircuitBuilder(field, 2)
        cases.append((b.finish([b.const(field.zero), b.const(field.one)]), 3))  # scalar outputs
        b = CircuitBuilder(field, 2)
        cases.append((b.finish(b.inp(0)), 3))  # the output is a high column
        # the only nonzero point at index 1, at the last point of block 0
        # and at the first of block 1, in blocks of 2^3 and of 3^1 points,
        # and at (2, 2, 2), the last point of the last batch
        witnesses = [(n, g, k) for n, g, block in ((4, 2, 8), (3, 3, 3))
                     for k in (1, block - 1, block)] + [(3, 3, 26)]
        for n, g, k in witnesses:
            point = [k // g ** (n - 1 - v) % g for v in range(n)]
            cases.append((_nonzero_only_at(field, g, point), g))
        for circ, g in cases:
            want = _scalar_scan(circ, g)
            assert pit._grid_scan(circ, g, want_count=True) == want
            assert pit._grid_scan(circ, g, want_count=False)[1] == want[1]
        firsts = [_scalar_scan(circ, g)[1] for circ, g in cases[-len(witnesses):]]
        assert firsts == [k for _, _, k in witnesses]
        assert want == (26, 26)


def _full_grid_pit(circ, g, first):
    """The PitResult of an exhaustive pit_sz on {0..g-1}^n whose first
    nonzero point is `first` (as _scalar_scan finds it)."""
    n = circ.num_vars
    if first is None:
        return PitResult("zero", None, g**n, True, "exhaustive")
    witness = tuple(circ.field.embed(first // g ** (n - 1 - v) % g) for v in range(n))
    return PitResult("nonzero", witness, first + 1, True, "exhaustive")


def test_grid_scan_over_unread_variables_matches_a_scalar_loop(monkeypatch, QQ):
    # circuits over k = 2..4 variables embedded among 6 with the unread ones
    # leading, interleaved or trailing. The scan walks only the g^k
    # points of the read grid, in blocks of at most 8, yet reports the first
    # nonzero index and zero count of the whole grid: the count is the read
    # grid's times g^(n-k), and pit_sz answers as a full-grid walk would
    monkeypatch.setattr(circuit, "GRID_BATCH", 8)
    walked = []
    walk = pit.evaluate_batches

    def counted(c, batches):
        for values in walk(c, batches):
            walked.append(len(values[0]))
            yield values

    monkeypatch.setattr(pit, "evaluate_batches", counted)
    layouts = {2: ((4, 5), (1, 3), (0, 1)), 3: ((3, 4, 5), (0, 2, 4), (0, 1, 2)),
               4: ((2, 3, 4, 5), (0, 2, 3, 5), (0, 1, 2, 3))}
    for field in (PrimeField(SMALL_PRIME), QQ, PrimeField(SIXTY_TWO_BIT_PRIME)):
        rng = rng_for("grid-scan-unread", field.kind == "prime" and field.p)
        cases = [(random_circuit(field, rng, k, size_limit=12, degree_limit=3), g)
                 for k, g in ((2, 3), (3, 2), (3, 3), (2, 4)) for _ in range(2)]
        # the only nonzero point at index 1 and at the edges of blocks of
        # 3^1 and 2^3 points, and at the last point of the read grid
        witnesses = [(k, g, i) for k, g, block in ((3, 3, 3), (4, 2, 8))
                     for i in (1, block - 1, block)] + [(3, 3, 26)]
        for k, g, i in witnesses:
            point = [i // g ** (k - 1 - v) % g for v in range(k)]
            cases.append((_nonzero_only_at(field, g, point), g))
        n = 6
        for small, g in cases:
            k = small.num_vars
            for slots in layouts[k]:
                circ = remap_vars(small, dict(enumerate(slots)), n)
                read = len(_active_vars(circ))
                want = _scalar_scan(circ, g)
                assert want[0] == _scalar_scan(small, g)[0] * g ** (n - k)
                walked.clear()
                assert pit._grid_scan(circ, g, want_count=True) == want
                assert sum(walked) == g**read
                assert pit._grid_scan(circ, g, want_count=False)[1] == want[1]
                assert exhaustive_zero_count(circ, g) == want[0]
                if small.formal_degree() < g:
                    assert pit_sz(circ, g - 1, exhaustive=True) == _full_grid_pit(circ, g, want[1])
        firsts = [_scalar_scan(circ, g)[1] for circ, g in cases[-len(witnesses):]]
        assert firsts == [i for _, _, i in witnesses]


def test_a_scan_is_budgeted_by_the_variables_it_reads():
    # 8 variables, 2 read: the 1001^8 points of the grid are over the point
    # budget, but the 1001^2 points walked fit, so d = 1000 gets a verdict
    F = PrimeField(SMALL_PRIME)
    assert 1001**8 > EXHAUSTIVE_POINT_BUDGET >= 1001**2
    b = CircuitBuilder(F, 8)
    c = b.finish(b.mul(b.inp(2), b.inp(6)))
    b = CircuitBuilder(F, 8)
    u, v = b.inp(2), b.inp(6)
    zero = b.finish(b.sub(b.mul(b.add(u, v), u), b.add(b.mul(u, u), b.mul(v, u))))
    assert _active_vars(c) == _active_vars(zero) == [2, 6]
    # the first nonzero point is x3 = x7 = 1, every unread coordinate 0
    witness = tuple(F.embed(1 if v in (2, 6) else 0) for v in range(8))
    want = PitResult("nonzero", witness, 1001**5 + 1001 + 1, True, "exhaustive")
    assert pit_sz(c, 1000, exhaustive=True) == want
    assert pit_sz(c, 1000) == want  # auto mode counts the walked points too
    assert pit_sz(zero, 1000) == PitResult("zero", None, 1001**8, True, "exhaustive")
    assert _is_zero_exhaustive(zero, 1000) and not _is_zero_exhaustive(c, 1000)
    assert exhaustive_zero_count(c, 1001) == (1001**2 - 1000**2) * 1001**6


def test_pit_sz_refuses_a_bool_or_non_integer_degree(QQ):
    # True would pass for d = 1, which bounds x1 * x2 in each variable
    b = CircuitBuilder(QQ, 2)
    c = b.finish(b.mul(b.inp(0), b.inp(1)))
    for d in (True, 1.0, 1.5):
        for exhaustive in (True, False, None):
            with pytest.raises(ParameterViolation):
                pit_sz(c, d, exhaustive=exhaustive)
    assert pit_sz(c, 1).status == "nonzero"


def test_an_exhaustive_scan_passes_whole_blocks_as_axes(monkeypatch):
    # g = 3 and GRID_BATCH = 27: the origin, then 3 blocks of 3^3 points.
    # Each block is one high coordinate and three axes of the 3 grid values,
    # the first block holding its last 26 points; flat columns of 27 points
    # would make every gate over 27 cells however few coordinates it reads
    monkeypatch.setattr(circuit, "GRID_BATCH", 27)
    F = PrimeField(SMALL_PRIME)
    b = CircuitBuilder(F, 4)
    x = [b.inp(v) for v in range(4)]
    circ = b.finish(b.add(b.mul(x[0], x[1]), b.mul(x[2], x[3])))
    seen = []
    walk = pit.evaluate_batches

    def recorded(c, batches):
        def record():
            for columns, size in batches:
                seen.append(([np.shape(col) for col in columns], size, columns))
                yield columns, size
        yield from walk(c, record())

    monkeypatch.setattr(pit, "evaluate_batches", recorded)
    assert exhaustive_zero_count(circ, 3) == _scalar_scan(circ, 3)[0]
    assert [(shapes, size) for shapes, size, _ in seen] == (
        [([()] * 4, 1)] + [([(), (3, 1, 1), (1, 3, 1), (1, 1, 3)], size) for size in (26, 27, 27)])
    for k, (_, _, columns) in enumerate(seen[1:]):
        assert columns[0] == k
        assert all(col.ravel().tolist() == [0, 1, 2] for col in columns[1:])


def test_a_wide_grid_runs_in_runs_of_grid_batch_values(monkeypatch):
    # g = 200,000 > GRID_BATCH: the origin, then 7 runs of at most GRID_BATCH
    # values, not one point per batch; -1 is a non-residue mod 1000003
    # (1000003 = 3 mod 4), so x1^2 + 1 has no zero on the grid
    F = PrimeField(SMALL_PRIME)
    b = CircuitBuilder(F, 1)
    x = b.inp(0)
    circ = b.finish(b.add(b.mul(x, x), b.const(F.one)))
    sizes = []
    walk = pit.evaluate_batches

    def counted(c, batches):
        for values in walk(c, batches):
            sizes.append(len(values[0]))
            yield values

    monkeypatch.setattr(pit, "evaluate_batches", counted)
    assert exhaustive_zero_count(circ, 200_000) == 0
    assert len(sizes) <= 8 and sum(sizes) == 200_000


def test_an_exhaustive_zero_test_over_the_point_budget_is_refused():
    # hybrid_locate's zero test reports an oversized grid as every scan does:
    # BudgetExceeded, exit 3, not a claim that failed to verify
    F = PrimeField(SMALL_PRIME)
    b = CircuitBuilder(F, 8)
    prod = b.finish(b.mul(*(b.inp(v) for v in range(8))))
    with pytest.raises(BudgetExceeded) as e:
        _is_zero_exhaustive(prod, 999)
    assert (e.value.kind, e.value.exit_code) == ("points", 3)


def test_a_grid_larger_than_the_field_is_refused():
    # over F_7, {0..9} holds 0 and 7 as two points, so x1 would count 2 zeros
    F7 = PrimeField(7)
    b = CircuitBuilder(F7, 1)
    x1 = b.finish(b.inp(0))
    assert exhaustive_zero_count(x1, 7) == 1
    for scan in (lambda: exhaustive_zero_count(x1, 10),
                 lambda: pit_sz(x1, 7, exhaustive=True),
                 lambda: pit_sz(x1, 7, exhaustive=False)):
        with pytest.raises(FieldTooSmall):
            scan()
    # x^3 - x vanishes on F_3 but is not zero: 4 grid values mod 3 called it zero
    F3 = PrimeField(3)
    b = CircuitBuilder(F3, 1)
    x = b.inp(0)
    with pytest.raises(FieldTooSmall):
        _is_zero_exhaustive(b.finish(b.sub(b.mul(x, x, x), x)), 3)
    # hybrid_locate's grid has deg_bound + 1 = 4 values; mod 3 every hybrid
    # of this q vanishes on them, so no switch index would be found
    tab = ExplicitPoly(F3, 2, [F3.embed(2), F3.zero, F3.zero, F3.zero])
    b = CircuitBuilder(F3, 2)
    x1, x2 = b.inp(0), b.inp(1)
    q = b.finish(b.sub(b.sub(b.mul(x1, x1, x1), x1), b.sub(b.mul(x2, x2, x2), x2)))
    with pytest.raises(FieldTooSmall):
        hybrid_locate(q, tab, nw_design(2, 2))


def test_random_trials_over_the_point_budget_are_refused(monkeypatch):
    F = PrimeField(SMALL_PRIME)
    b = CircuitBuilder(F, 2)
    c = b.finish(b.mul(b.inp(0), b.inp(1)))
    monkeypatch.setattr(pit, "stream", lambda *a: pytest.fail("a point was drawn"))
    with pytest.raises(BudgetExceeded) as e:
        pit_sz(c, 2, trials=EXHAUSTIVE_POINT_BUDGET + 1, exhaustive=False)
    assert e.value.kind == "points"


def test_hitset_scan_over_the_point_budget_is_refused(monkeypatch):
    F = PrimeField(SMALL_PRIME)
    tab = _random_table(F, 3, 1)
    b = CircuitBuilder(F, 4)
    zero = b.finish(b.sub(b.inp(0), b.inp(0)))
    hs = HittingSet(tab, nw_design(4, 3), D=2, d=3)  # 7^9 points
    assert hs.total_points > EXHAUSTIVE_POINT_BUDGET
    with monkeypatch.context() as mp:  # refused before any batch is evaluated
        mp.setattr(pit, "_grid_batches", lambda *a: pytest.fail("a batch was drawn"))
        mp.setattr(ExplicitPoly, "evaluate", lambda *a: pytest.fail("a point was evaluated"))
        for limit in (None, EXHAUSTIVE_POINT_BUDGET + 1, 10**12):
            with pytest.raises(BudgetExceeded) as e:
                pit_hitset(zero, hs, limit=limit)
            assert e.value.kind == "points"
    small = HittingSet(tab, nw_design(4, 3), D=1, d=1)  # 2^9 points
    res = pit_hitset(zero, small, limit=10**12)
    assert (res.status, res.points_checked, res.exhausted) == ("zero", 512, True)

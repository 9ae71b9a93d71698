"""The four workloads: seeded inputs, operation sets and output checks.

Each workload is built from the imported package `cf` and a seed, using
its own `random.Random` streams; the library only ever sees the circuits
built here. `round_ops()` returns one round of operations. An operation's
`call` is the timed library call, `check` verifies its result with the
independent checker (outside the timed region) and `out_wires` counts the
wires of the circuits it outputs. `reference` names the loop of
`run.REFERENCES` whose speed the workload's times are scaled by.
"""

from __future__ import annotations

import random

import checker

PLANT_COEFF_BOUND = 9
CHECK_COORD_BOUND = 10**6


class CheckFailed(Exception):
    """An output disagreed with the independent checker."""


class Op:
    __slots__ = ("kind", "call", "check", "out_wires")

    def __init__(self, kind, call, check, out_wires=None):
        self.kind = kind
        self.call = call
        self.check = check
        self.out_wires = out_wires


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


def fresh(cf, circ):
    """A copy of `circ` without its cached metrics, so every round does the
    same work."""
    return cf.Circuit(circ.field, circ.num_vars, circ.gates, circ.outputs)


def rng_for(seed, *names):
    return random.Random("/".join([str(seed)] + [str(n) for n in names]))


class Draw:
    """Two seeded streams for one input. `shape` fixes the structure
    (supports, gate wiring, counts) and the seed handed to the library
    call (its translations, shifts and evaluation points) from the input's
    name alone; `value` draws coefficients and constants from the workload
    seed. A new seed thus gives new values on the same structures, worked
    on along the same path."""

    def __init__(self, seed, *names):
        self.shape = rng_for("shape", *names)
        self.value = rng_for(seed, *names)

    def signed(self, field, bound):
        """A value in ±1..bound."""
        v = self.value.randint(1, bound)
        return field.embed(v if self.value.randrange(2) else -v)

    def positive(self, field, bound):
        """A value in 2..bound. Positive values cannot cancel in sums, and
        leaving out 1 keeps the builder from dropping a scalar factor, so
        the circuit's shape does not depend on the value."""
        return field.embed(self.value.randint(2, bound))


def random_point(field, rng, n):
    return [field.embed(rng.randrange(1, CHECK_COORD_BOUND)) for _ in range(n)]


# -- planted polynomials ---------------------------------------------------------

def random_sparse(field, draw, n, deg, terms):
    """{exponents: nonzero coeff}, total degree <= deg, at most `terms` terms."""
    out = {}
    for _ in range(terms):
        budget = deg
        e = []
        for _ in range(n):
            k = draw.shape.randrange(budget + 1)
            e.append(k)
            budget -= k
        out[tuple(e)] = draw.signed(field, PLANT_COEFF_BOUND)
    return out


def poly_gate(b, field, terms):
    """Gate computing the polynomial `terms` inside builder `b`."""
    parts = []
    for e in sorted(terms):
        factors = [b.const(terms[e])]
        for v, k in enumerate(e):
            factors += [b.inp(v)] * k
        parts.append(b.mul(*factors) if len(factors) > 1 else factors[0])
    if not parts:
        return b.const(field.zero)
    return b.add(*parts) if len(parts) > 1 else parts[0]


def linear_form(b, field, draw, n, const):
    """Gate for const + sum c_i x_i (c_i in 2..5) and its terms."""
    terms = {(0,) * n: const}
    for v in range(n):
        if draw.shape.randrange(9):  # each x_i present with probability 8/9
            e = [0] * n
            e[v] = 1
            terms[tuple(e)] = draw.positive(field, 5)
    return poly_gate(b, field, terms), terms


def distinct_consts(field, rng, count, lo=1, hi=9):
    consts = []
    while len(consts) < count:
        c = field.embed(rng.randint(lo, hi))
        if c not in consts:
            consts.append(c)
    return consts


def linear_product_value(field, forms, point, y):
    """prod (y - L(x)) at `point`, y being point[y]."""
    ar = checker.Arith(field)
    acc = ar.norm(1)
    for terms in forms:
        acc = ar.mul(acc, ar.sub(point[y], checker.eval_dense(field, terms, point)))
    return acc


def random_circuit(cf, field, draw, n, size_limit, degree_limit):
    """Random circuit with formal degree <= degree_limit, about size_limit
    wire draws; wiring from draw.shape, constants from draw.value."""
    rng = draw.shape
    b = cf.CircuitBuilder(field, n)
    pool = [(b.inp(i), 1) for i in range(n)]
    for _ in range(3):
        pool.append((b.const(draw.positive(field, 5)), 0))
    wires = 0
    gid, _ = pool[rng.randrange(len(pool))]
    while wires < size_limit:
        op = rng.randrange(3)
        a, da = pool[rng.randrange(len(pool))]
        if op == 0:
            c, dc = pool[rng.randrange(len(pool))]
            gid, deg = b.add(a, c), max(da, dc)
        elif op == 1:
            c, dc = pool[rng.randrange(len(pool))]
            if da + dc > degree_limit:
                continue
            gid, deg = b.mul(a, c), da + dc
        else:
            gid, deg = b.add(a, b.const(draw.positive(field, 4))), da
        pool.append((gid, deg))
        wires += 2
    return b.finish(gid)


# -- lift: Hensel root recovery --------------------------------------------------------

LIFT_QQ_DEGREES = [1] * 12 + [2] * 14 + [3] * 14 + [4] * 6 + [5] * 4
LIFT_FP_DEGREES = [1] * 6 + [2] * 10 + [3] * 10 + [4] * 12 + [5] * 12


def plant_root_instance(cf, field, draw, n, deg_f, shape):
    """P = (y - f) * g with y = x_{n+1}; returns (P, f terms, pinned alpha).

    'yfree' multiplies by a y-free g (alpha is searched for); 'multi' adds
    two (y - c) factors with distinct constants and pins alpha = f(0)."""
    while True:
        f = random_sparse(field, draw, n, deg_f, min(5, 2 + deg_f))
        if max(sum(e) for e in f) == deg_f:
            break
    b = cf.CircuitBuilder(field, n + 1)
    y = b.inp(n)
    factors = [b.sub(y, poly_gate(b, field, f))]
    alpha = None
    if shape == "yfree":
        g = random_sparse(field, draw, n, 2, 3)
        factors.append(poly_gate(b, field, g))
    else:
        f0 = f.get((0,) * n, field.zero)
        for c in distinct_consts(field, draw.value, 3, -8, 8):
            if c != f0 and len(factors) < 3:
                factors.append(b.sub(y, b.const(c)))
        alpha = f0
    return b.finish(b.mul(*factors)), f, alpha


class LiftWorkload:
    """lift_root on 100 planted P = (y - f) g over Q and F_{2^62-57}."""

    name = "lift"
    reference = "interpreter"

    def __init__(self, cf, seed, smoke=False):
        self.cf = cf
        qq = cf.Rationals()
        fp = cf.PrimeField(cf.SIXTY_TWO_BIT_PRIME)
        plans = [(qq, "qq", i, d) for i, d in enumerate(LIFT_QQ_DEGREES)]
        plans += [(fp, "fp", i, d) for i, d in enumerate(LIFT_FP_DEGREES)]
        if smoke:
            plans = [p for p in plans if p[3] <= 3][::9]
        self.instances = []
        for field, tag, i, d in plans:
            draw = Draw(seed, "lift", tag, i)
            n = 1 + i % 3
            shape = "multi" if i % 10 in (3, 7, 9) else "yfree"
            P, f, alpha = plant_root_instance(cf, field, draw, n, d, shape)
            self.instances.append((P, f, alpha, n, d, draw.shape.randrange(1 << 30),
                                   rng_for(seed, "lift-check", tag, i).random()))

    def round_ops(self):
        return [self._op(*inst) for inst in self.instances]

    def _op(self, P, f, alpha, n, d, lift_seed, check_key):
        cf = self.cf

        def call():
            return cf.lifting.lift_root(fresh(cf, P), y=n, d=d, seed=lift_seed, alpha=alpha)

        def check(cert):
            ar = checker.Arith(P.field)
            rng = random.Random(check_key)
            for _ in range(4):
                x = random_point(P.field, rng, n)
                r = checker.eval1(cert.root, x)
                require(r == checker.eval_dense(P.field, f, x),
                        "root differs from the planted f")
                require(ar.is_zero(checker.eval1(P, x + [r])), "P(x, root) != 0")

        return Op("lift_root", call, check, lambda cert: checker.wires(cert.root))


# -- factor: factor extraction ---------------------------------------------------------

FACTOR_FAMILY = [(1, 1)] * 40 + [(2, 1)] * 35 + [(3, 1)] * 15 + [(2, 2)] * 7 + [(3, 2)] * 3


def plant_factor_instance(cf, field, draw, n, kf, kg):
    """P = prod_{i < kf+kg} (y - L_i) with distinct L_i(0); f = the first kf.
    Returns (P, forms L_i, subset of f in the sorted root order)."""
    consts = distinct_consts(field, draw.value, kf + kg)
    b = cf.CircuitBuilder(field, n + 1)
    y = b.inp(n)
    forms, factors = [], []
    for c in consts:
        gate, terms = linear_form(b, field, draw, n, c)
        forms.append(terms)
        factors.append(b.sub(y, gate))
    P = b.finish(b.mul(*factors))
    order = sorted(range(len(consts)), key=lambda i: consts[i])
    subset = tuple(sorted(order.index(i) for i in range(kf)))
    return P, forms, subset


class FactorWorkload:
    """extract_factor on half of the 100-instance family of planted products
    of (y - L_i), in given-subset and subset-search mode.

    The half is the odd instances below 74 and the even ones from 74 on,
    which keeps the shape mix of either parity: (1,1) x20, (2,1) x18,
    (3,1) x7, (2,2) x4, (3,2) x1. Its (1,1) instances fill the first 40
    latencies and its F_p (2,1) instances, all with 3 x-variables, the next
    26, so the median falls inside a run of like operations (in the even
    half it fell on the edge between 2- and 3-variable ones); its cubic
    factors are the cheaper even ones (the odd half took a third longer)."""

    name = "factor"
    reference = "interpreter"

    def __init__(self, cf, seed, smoke=False):
        self.cf = cf
        qq = cf.Rationals()
        fp = cf.PrimeField(cf.SIXTY_TWO_BIT_PRIME)
        picks = [i for i in range(len(FACTOR_FAMILY)) if i % 2 == (i < 74)]
        if smoke:
            picks = [0, 1, 42, 43]
        self.instances = []
        for i in picks:
            kf, kg = FACTOR_FAMILY[i]
            draw = Draw(seed, "factor", i)
            field = qq if i % 3 == 0 else fp
            n = 2 if (i % 4 == 0 or kf >= 3) else 3
            P, forms, subset = plant_factor_instance(cf, field, draw, n, kf, kg)
            self.instances.append((P, forms, subset, n, kf, draw.shape.randrange(1 << 30),
                                   rng_for(seed, "factor-check", i).random()))

    def round_ops(self):
        ops = []
        for inst in self.instances:
            ops.append(self._op(*inst, given=True))
            ops.append(self._op(*inst, given=False))
        return ops

    def _op(self, P, forms, subset, n, kf, fac_seed, check_key, given):
        cf = self.cf
        field = P.field

        def call():
            return cf.factoring.extract_factor(fresh(cf, P), y=n, d=kf,
                                               subset=subset if given else None,
                                               seed=fac_seed)

        def check_given(res):
            require(res.multiplicity == 1, f"multiplicity {res.multiplicity} != 1")
            rng = random.Random(check_key)
            for _ in range(4):
                pt = random_point(field, rng, n + 1)
                require(checker.eval1(res.factor, pt) == linear_product_value(field, forms[:kf], pt, n),
                        "given-subset factor differs from the planted f")

        def check_search(res):
            require(res.multiplicity >= 1, "factor does not divide P")
            rng = random.Random(check_key + 0.5)
            pts = [random_point(field, rng, n + 1) for _ in range(2)]
            got = [checker.eval1(res.factor, pt) for pt in pts]
            k = len(forms)
            for mask in range(1, (1 << k) - 1):  # nonempty proper subsets
                chosen = [forms[i] for i in range(k) if mask >> i & 1]
                if all(g == linear_product_value(field, chosen, pt, n) for g, pt in zip(got, pts)):
                    return
            raise CheckFailed("searched factor is no product of a proper subset of the planted factors")

        kind = "extract_factor.given" if given else "extract_factor.search"
        return Op(kind, call, check_given if given else check_search,
                  lambda res: checker.wires(res.factor))


# -- pit: identity testing -------------------------------------------------------------

FPS_PRIME = 1_000_003
# (tag, field, table m, design n, D, limit, nonzero circuits, constructed
# zeros, whether the zeros also get pit_hitset)
# Pair A's zeros get the exhaustive test only: their full 390,625-point
# numpy scans are about 60% of a round's operations, so the median and the
# 90th percentile both fall among them, a run of compute-bound latencies.
# The vectorized pit_hitset calls convert the whole point prefix to an
# array each time; their latency moves by a third from one process to the
# next, so no percentile is left on them.
PIT_PAIRS = (
    ("A", "small", 6, 8, 4, 4000, 10, 70, False),
    ("B", "small", 5, 6, 3, 2000, 3, 1, True),
    ("C", "p62", 3, 4, 4, 600, 2, 1, True),
)
ZERO_COUNT_CIRCUITS = (("small", 2), ("p62", 1))


def zero_circuit(cf, field, draw, n, deg):
    """(u + v) w - u w - v w for random u, v, w: zero, but not syntactically."""
    b = cf.CircuitBuilder(field, n)
    half = max(1, deg // 2)
    u, v, w = (b.import_circuit(random_circuit(cf, field, draw, n, 8, half))[0] for _ in range(3))
    return b.finish(b.sub(b.mul(b.add(u, v), w), b.add(b.mul(u, w), b.mul(v, w))))


def nonzero_circuit(cf, field, draw, n, size, deg):
    """Random circuit the checker finds nonzero at a seeded point."""
    while True:
        c = random_circuit(cf, field, draw, n, size, deg)
        if checker.eval1(c, random_point(field, draw.value, n)) != 0:
            return c


class PitWorkload:
    """pit_hitset, exhaustive pit_sz and exhaustive_zero_count on seeded
    degree <= 4 circuits, over three table/design pairs."""

    name = "pit"
    # Most of a round is numpy grid scans, whose speed does not follow the
    # interpreter loop: scaled by it, per-operation times got noisier than
    # wall time; scaled by the numpy loop, they got steadier.
    reference = "numpy"

    def __init__(self, cf, seed, smoke=False):
        self.cf = cf
        fields = {"small": cf.PrimeField(FPS_PRIME),
                  "p62": cf.PrimeField(cf.SIXTY_TWO_BIT_PRIME)}
        self.pairs = []
        for tag, fkey, m, n, D, limit, n_nonzero, n_zero, hit_zeros in PIT_PAIRS:
            field = fields[fkey]
            draw = Draw(seed, "pit", tag)
            if smoke:
                n_nonzero, n_zero = 3, 1
            table = cf.ExplicitPoly(field, m, [field.embed(1 + draw.value.randrange(999))
                                               for _ in range(1 << m)])
            design = cf.designs.nw_design(n, m)
            circuits = [(nonzero_circuit(cf, field, draw, n, 40, D), False)
                        for _ in range(n_nonzero)]
            # spread the constructed zeros among the nonzero circuits
            for k in range(n_zero):
                circuits.insert(k * (len(circuits) // n_zero + 1),
                                (zero_circuit(cf, field, draw, n, D), True))
            self.pairs.append((table, design, D, limit, circuits, hit_zeros))
        self.counted = []
        for fkey, count in ZERO_COUNT_CIRCUITS:
            field = fields[fkey]
            draw = Draw(seed, "pit-count", fkey)
            for _ in range(2 if smoke else count):
                n = 1 + draw.shape.randrange(3)
                c = nonzero_circuit(cf, field, draw, n, 18, 4)
                d = checker.formal_degree(c)
                for s in range(d + 1, 2 * d + 2):
                    self.counted.append((c, d, s))

    def input_wires(self):
        total = sum(checker.wires(c) for pair in self.pairs for c, _ in pair[4])
        return total + sum(checker.wires(c) for c, d, s in self.counted if s == d + 1)

    def round_ops(self):
        cf = self.cf
        ops = []
        for table, design, D, limit, circuits, hit_zeros in self.pairs:
            # a fresh hitting set per round: its point cache starts empty
            hitset = cf.HittingSet(table, design, D=D, d=table.degree())
            for c, is_zero in circuits:
                if hit_zeros or not is_zero:
                    ops.append(self._hitset_op(c, is_zero, hitset, limit))
                ops.append(self._sz_op(c, is_zero, D))
        for c, d, s in self.counted:
            ops.append(self._count_op(c, d, s))
        return ops

    def _verdict_check(self, c, is_zero, definitive):
        """Constructed zeros must be called zero and every nonzero verdict
        must carry a witness the checker finds nonzero. A nonzero circuit
        must be called nonzero by a definitive test; a capped hitting-set
        scan may call it zero only with exhausted=False (a prefix verdict)."""
        def check(res):
            if is_zero:
                require(res.status == "zero", f"constructed zero called {res.status}")
                return
            if res.status == "zero" and not (definitive or res.exhausted):
                return
            require(res.status == "nonzero", f"nonzero circuit called {res.status}")
            require(checker.eval1(c, list(res.witness)) != 0,
                    "witness is not a nonzero point")
        return check

    def _hitset_op(self, c, is_zero, hitset, limit):
        cf = self.cf
        return Op("pit_hitset", lambda: cf.pit.pit_hitset(fresh(cf, c), hitset, limit=limit),
                  self._verdict_check(c, is_zero, definitive=False))

    def _sz_op(self, c, is_zero, D):
        cf = self.cf
        return Op("pit_sz", lambda: cf.pit.pit_sz(fresh(cf, c), D, exhaustive=True),
                  self._verdict_check(c, is_zero, definitive=True))

    def _count_op(self, c, d, s):
        cf = self.cf

        def check(zeros):
            field = c.field
            n = c.num_vars
            want = 0
            for idx in range(s ** n):
                point = [field.embed(idx // s ** (n - 1 - v) % s) for v in range(n)]
                want += checker.eval1(c, point) == 0
            require(zeros == want, f"zero count {zeros} != {want}")
            require(zeros <= d * s ** (n - 1), "Schwartz-Zippel bound violated")

        return Op("exhaustive_zero_count",
                  lambda: cf.pit.exhaustive_zero_count(fresh(cf, c), s), check)


# -- vnp: exp-sum factoring and calculus ----------------------------------------------

# (factor degree d, planted linear factors k, auxiliaries m, x-variables besides y, field)
# Per round, 30 factor_vnp calls and 20 calculus operations, each the six
# calculus calls on one group of inputs (a single call takes 0.03-0.6 ms,
# too short to time steadily; a group takes about 1 ms). A run is three
# rounds, 150 latencies: the 60 calculus ones, then the degree-1 factors
# by auxiliaries (1: 30, 2: 12, 3: 24, 4: 18), then 6 degree-2 ones. The
# median falls in the middle of the one-auxiliary group and the 90th
# percentile in the middle of the four-auxiliary group. Latencies within a
# group differ by up to 1.5x from input to input and by 5-10% from one run
# of an input to the next, so a quantile at a group's edge, or over fewer
# latencies, moved by about 9% from seed to seed.
VNP_DEGREE1_AUX = (1, 1, 1, 1, 1, 2, 2, 3, 3, 3, 3, 4, 4, 4)
VNP_FACTOR_PLANS = tuple((1, 2, m, 1, "fp") for m in VNP_DEGREE1_AUX) + ((2, 3, 0, 1, "qq"),) \
    + tuple((1, 2, m, 1, "fp") for m in VNP_DEGREE1_AUX) + ((2, 3, 0, 1, "fp"),)
VNP_CALCULUS_GROUPS = 20


def plant_expsum(cf, field, draw, nxv, k, m):
    """Exp-sum representing prod_{i<k} (y - L_i(x)) with m auxiliaries.

    Variables: x_1..x_nxv, then y, then the auxiliaries. The verifier is
    P * a_1 ... a_m + q(x) (2 a_1 - 1): the first part sums to P over the
    cube, the second to zero, so the verifier really depends on the cube.
    """
    nv = nxv + 1 + m
    b = cf.CircuitBuilder(field, nv)
    y = b.inp(nxv)
    consts = distinct_consts(field, draw.value, k)
    forms, factors = [], []
    for c in consts:
        gate, terms = linear_form(b, field, draw, nxv, c)
        forms.append(terms)
        factors.append(b.sub(y, gate))
    P = b.mul(*factors)
    if m:
        aux = [b.inp(nxv + 1 + j) for j in range(m)]
        q = b.add(b.mul(b.const(draw.positive(field, 5)), b.inp(draw.shape.randrange(nxv))),
                  b.const(draw.positive(field, 4)))
        noise = b.mul(q, b.sub(b.mul(b.const(field.embed(2)), aux[0]), b.const(field.one)))
        out = b.add(b.mul(P, *aux), noise)
    else:
        out = P
    E = cf.expsum.ExpSumPoly(b.finish(out), tuple(range(nxv + 1, nv)))
    order = sorted(range(k), key=lambda i: consts[i])
    return E, forms, order


def random_expsum(cf, field, draw, nx, m, size=12, deg=3):
    circ = random_circuit(cf, field, draw, nx + m, size, deg)
    return cf.expsum.ExpSumPoly(circ, tuple(range(nx, nx + m)))


def leaf_formula(cf, field, shape):
    """The small tree-shaped combinators of the leaf-substitution contract."""
    b = cf.CircuitBuilder(field, 2, share=False)
    z1a, z1b, z2 = b.inp(0), b.inp(0), b.inp(1)
    if shape == 0:
        return b.finish(b.mul(z1a, z1b))
    if shape == 1:
        return b.finish(b.add(z1a, b.mul(z2, z1b)))
    return b.finish(b.add(b.mul(z1a, z2), z1b))


def expsum_value(E, x):
    return checker.cube_sum(E.verifier, E.aux, x)


class VnpWorkload:
    """factor_vnp on planted exp-sums plus the exp-sum calculus on seeded
    random exp-sums."""

    name = "vnp"
    reference = "interpreter"
    min_ops = 150  # three rounds (see VNP_FACTOR_PLANS)

    def __init__(self, cf, seed, smoke=False):
        self.cf = cf
        self.seed = seed
        fields = {"qq": cf.Rationals(), "fp": cf.PrimeField(cf.SIXTY_TWO_BIT_PRIME)}
        plans = VNP_FACTOR_PLANS[:2] if smoke else VNP_FACTOR_PLANS
        self.factor_inputs = []
        for i, (d, k, m, nxv, fkey) in enumerate(plans):
            draw = Draw(seed, "vnp", i)
            E, forms, order = plant_expsum(cf, fields[fkey], draw, nxv, k, m)
            subset = tuple(sorted(order.index(j) for j in range(d)))
            self.factor_inputs.append((E, forms, subset, d, nxv, draw.shape.randrange(1 << 30)))
        self.calculus = []
        for i in range(1 if smoke else VNP_CALCULUS_GROUPS):
            draw = Draw(seed, "vnp-calculus", i)
            field = fields["qq" if i % 2 else "fp"]
            aux = draw.shape.randint
            e1 = random_expsum(cf, field, draw, 2, aux(1, 3), size=24)
            e2 = random_expsum(cf, field, draw, 2, aux(1, 3), size=24)
            e3 = random_expsum(cf, field, draw, 2, aux(1, 3), size=30, deg=4)
            l1 = random_expsum(cf, field, draw, 1, aux(1, 2), size=12)
            l2 = random_expsum(cf, field, draw, 1, aux(1, 2), size=12)
            B = leaf_formula(cf, field, i % 3)
            self.calculus.append((field, e1, e2, e3, l1, l2, B, draw.value.random()))

    def round_ops(self):
        ops = [self._factor_op(*inp) for inp in self.factor_inputs]
        for inp in self.calculus:
            ops.append(self._calculus_op(*inp))
        return ops

    def _factor_op(self, E, forms, subset, d, nxv, vnp_seed):
        cf = self.cf
        field = E.field

        def call():
            return cf.expsum.factor_vnp(cf.expsum.ExpSumPoly(fresh(cf, E.verifier), E.aux),
                                        d, subset=subset, seed=vnp_seed)

        def check(res):
            out, _ = res
            rng = rng_for(self.seed, "vnp-check", vnp_seed)
            planted = [forms[i] for i in range(d)]
            for _ in range(3):
                x = random_point(field, rng, nxv + 1)
                require(expsum_value(out, x) == linear_product_value(field, planted, x, nxv),
                        "represented factor differs from the planted f")

        return Op("factor_vnp", call, check, lambda res: checker.wires(res[0].verifier))

    def _calculus_op(self, field, e1, e2, e3, l1, l2, B, check_key):
        """One operation: sum_compose, prod_compose, leaf_substitute,
        coeff_exp_sums, homog_x_upto and exp_sum_expand on one group."""
        cf = self.cf
        es = cf.expsum
        ar = checker.Arith(field)

        def points(tag, count=2, n=2):
            rng = random.Random(f"{check_key}/{tag}")
            return [random_point(field, rng, n) for _ in range(count)]

        def check_sum(out):
            for x in points("sum"):
                require(expsum_value(out, x) == ar.add(expsum_value(e1, x), expsum_value(e2, x)),
                        "sum_compose differs from the sum of its inputs")

        def check_prod(out):
            for x in points("prod"):
                require(expsum_value(out, x) == ar.mul(expsum_value(e1, x), expsum_value(e2, x)),
                        "prod_compose differs from the product of its inputs")

        def check_leaf(out):
            for x in points("leaf", n=1):
                want = checker.eval1(B, [expsum_value(l1, x), expsum_value(l2, x)])
                require(expsum_value(out, x) == want, "leaf_substitute differs from B(e1, e2)")

        dmax = checker.formal_degree(e3.verifier)

        def check_coeffs(outs):
            require(len(outs) == dmax + 1, "wrong number of coefficient exp-sums")
            for x in points("coeff"):
                total = ar.norm(0)
                for j, cj in enumerate(outs):
                    total = ar.add(total, ar.mul(expsum_value(cj, x), ar.norm(x[1] ** j)))
                require(total == expsum_value(e3, x), "coefficients do not rebuild the exp-sum")

        def check_homog(out):
            deg = checker.formal_degree(e3.verifier, only={0, 1})
            for x in points("homog", count=1):
                vals = [expsum_value(e3, [ar.mul(ar.norm(t), v) for v in x]) for t in range(deg + 1)]
                coeffs = checker.interpolate(ar, vals)
                want = ar.norm(0)
                for c in coeffs[:2]:
                    want = ar.add(want, c)
                require(expsum_value(out, x) == want, "homog_x_upto differs from H_<=1")

        def check_expand(poly):
            for x in points("expand"):
                require(checker.eval_dense(field, poly.terms, x) == expsum_value(e3, x),
                        "exp_sum_expand differs from the cube sum")

        def fr(e):
            return es.ExpSumPoly(fresh(cf, e.verifier), e.aux)

        def call():
            return (es.sum_compose(fr(e1), fr(e2)),
                    es.prod_compose(fr(e1), fr(e2)),
                    es.leaf_substitute(fresh(cf, B), {0: fr(l1), 1: fr(l2)}),
                    es.coeff_exp_sums(fr(e3), 1, dmax),
                    es.homog_x_upto(fr(e3), 1),
                    es.exp_sum_expand(fr(e3)))

        checks = (check_sum, check_prod, check_leaf, check_coeffs, check_homog, check_expand)

        def check(outs):
            for chk, out in zip(checks, outs):
                chk(out)

        def out_wires(outs):
            sums, prods, leaves, coeffs, homog, _ = outs
            return sum(checker.wires(e.verifier) for e in (sums, prods, leaves, homog, *coeffs))

        return Op("calculus", call, check, out_wires)


WORKLOADS = {w.name: w for w in (LiftWorkload, FactorWorkload, PitWorkload, VnpWorkload)}

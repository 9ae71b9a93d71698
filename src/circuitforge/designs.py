"""Nisan-Wigderson combinatorial designs via the Reed-Solomon construction.

Sets are graphs of distinct low-degree polynomials over the smallest prime
power q >= m, restricted to the first m points, inside the universe
F_q x F_q. Two distinct polynomials of degree < d' agree on at most d'-1
points, which is what caps the pairwise intersections at floor(log2 n).
F_q is SmallGF: an addition and a multiplication table, built once in
numpy, and nw_design evaluates all n polynomials at the m points in one
Horner pass of table lookups.

The universe size here is l = q^2 <= 4*m^2, not the paper-tight
O(m^2 / log n) packing; at desk scale the log-n saving buys nothing and
the flat construction keeps every invariant checkable by enumeration.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .circuit import HEADER_COUNT_LIMIT
from .errors import InvariantViolated, ParameterViolation

DESIGN_ELL_FACTOR = 4  # l = q^2 <= 4 * m^2 by Bertrand's postulate
TABLE_VARS_LIMIT = 24  # m of the largest ExplicitPoly table, 2^24 coefficients
CHECK_BLOCK_ROWS = 512  # sets per block of Design.check's intersection product


def _check_size(n: int, m: int) -> None:
    """Refuse, before any work (the law check is O(n^2)), sizes nw_design cannot
    build: more sets than circuits have variables, or sets larger than tables."""
    if n > HEADER_COUNT_LIMIT or m > TABLE_VARS_LIMIT:
        raise ParameterViolation(
            f"designs have n <= {HEADER_COUNT_LIMIT} and m <= {TABLE_VARS_LIMIT}, got n={n}, m={m}"
        )
    if n < 2 or m < 2:
        raise ParameterViolation("need n >= 2 and m >= 2")
    if n >= 2**m:
        raise ParameterViolation(f"need n < 2^m, got n={n}, m={m}")


def _smallest_prime_factor(n: int) -> int:
    f = 2
    while f * f <= n:
        if n % f == 0:
            return f
        f += 1
    return n


def _is_prime_power(n: int):
    """Return (p, k) when n = p^k for prime p, else None."""
    if n < 2:
        return None
    p = _smallest_prime_factor(n)
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return (p, k) if n == 1 else None


class SmallGF:
    """GF(p^k) for tiny q, as two q x q lookup tables, add_table and mul_table.

    Elements are integers 0..q-1 encoding base-p digit vectors (digit j is
    the coefficient of x^j). Sums add digits mod p; products convolve them
    and reduce modulo x^k + low, low the first code whose product table has
    no zero divisor among the nonzero elements. The quotient ring is a field
    exactly when the modulus is irreducible, so the modulus is the
    lexicographically first monic irreducible and the construction is
    deterministic (for k = 1 it is x, and the tables are the integers mod p).
    """

    def __init__(self, q: int):
        pk = _is_prime_power(q)
        if pk is None:
            raise ParameterViolation(f"{q} is not a prime power")
        p, k = pk
        self.q, self.p, self.k = q, p, k
        weights = p ** np.arange(k)
        digits = np.arange(q)[:, None] // weights % p  # digits[a, j]: digit j of a
        self.add_table = (digits[:, None] + digits[None, :]) % p @ weights
        prod = np.zeros((q, q, 2 * k - 1), dtype=np.int64)
        for i in range(k):
            prod[:, :, i:i + k] += digits[:, None, i, None] * digits[None, :]
        for low in range(q):
            rem = prod.copy()
            for i in range(2 * k - 2, k - 1, -1):  # x^i = -low(x) * x^(i-k)
                rem[:, :, i - k:i] -= rem[:, :, i, None] * digits[low]
            self.mul_table = rem[:, :, :k] % p @ weights
            if self.mul_table[1:, 1:].all():
                break

    def add(self, a: int, b: int) -> int:
        return int(self.add_table[a, b])

    def mul(self, a: int, b: int) -> int:
        return int(self.mul_table[a, b])


@dataclass
class Design:
    n: int
    m: int
    q: int
    dprime: int
    ell: int
    sets: list  # n frozensets of universe indices in [0, ell)

    def check(self, error=InvariantViolated) -> None:
        """Raise `error` unless the design laws hold: a bug in a design that
        nw_design built, bad input in one read from a file."""
        log_n = self.n.bit_length() - 1  # floor(log2 n)
        if len(self.sets) != self.n:
            raise error(f"{len(self.sets)} sets, n = {self.n}")
        if self.ell > DESIGN_ELL_FACTOR * self.m * self.m:
            raise error(f"universe {self.ell} exceeds {DESIGN_ELL_FACTOR}*m^2")
        for i, s in enumerate(self.sets):
            if len(s) != self.m:
                raise error(f"|S_{i + 1}| = {len(s)} != m")
            if any(not 0 <= e < self.ell for e in s):
                raise error(f"S_{i + 1} leaves the universe")
        # |S_i ∩ S_j| is entry (i, j) of M M^T, M the 0/1 incidence matrix: a
        # block of rows at a time, exact in float32 for counts up to 2^24
        incidence = np.zeros((self.n, self.ell), dtype=np.float32)
        for i, s in enumerate(self.sets):
            incidence[i, list(s)] = 1
        for lo in range(0, self.n, CHECK_BLOCK_ROWS):
            inter = incidence[lo:lo + CHECK_BLOCK_ROWS] @ incidence.T
            bad = np.argwhere(np.triu(inter > log_n, k=lo + 1))  # j > i, row-major
            if len(bad):
                r, j = bad[0]
                raise error(f"|S_{lo + r + 1} ∩ S_{j + 1}| = {int(inter[r, j])} "
                            f"> floor(log2 n) = {log_n}")

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.n,
                "m": self.m,
                "q": self.q,
                "dprime": self.dprime,
                "ell": self.ell,
                "sets": [sorted(s) for s in self.sets],
            },
            indent=0,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "Design":
        """A design as to_json writes it; any other shape, a size nw_design
        refuses, or a set that breaks a design law, is a ParameterViolation."""
        data = json.loads(text)
        keys = ("n", "m", "q", "dprime", "ell")
        if not (isinstance(data, dict) and all(type(data.get(k)) is int for k in keys)
                and isinstance(data.get("sets"), list)
                and all(isinstance(s, list) and all(type(e) is int for e in s)
                        for s in data["sets"])):
            raise ParameterViolation(
                "a design file is a JSON object with integer n, m, q, dprime and ell, "
                "and sets as lists of integers"
            )
        _check_size(data["n"], data["m"])
        design = cls(**{k: data[k] for k in keys}, sets=[frozenset(s) for s in data["sets"]])
        design.check(ParameterViolation)
        return design


def nw_design(n: int, m: int) -> Design:
    """Design of n size-m subsets of [q^2] with intersections <= floor(log2 n).

    Deterministic: set i is the graph {(a, p_i(a)) : a in first m points of
    F_q} where p_i has the base-q digits of i as coefficients (degree < d').
    """
    _check_size(n, m)
    q = m
    while _is_prime_power(q) is None:
        q += 1
    gf = SmallGF(q)
    e = 1
    while q**e < n:
        e += 1
    dprime = max(2, e)
    # all n polynomials at once, Horner from the top digit down; tolist()
    # gives Python ints, which JSON can write
    digits = np.arange(n)[:, None] // q ** np.arange(dprime) % q
    points = np.arange(m)
    values = np.zeros((n, m), dtype=np.int64)
    for j in reversed(range(dprime)):
        values = gf.add_table[gf.mul_table[values, points], digits[:, j, None]]
    sets = [frozenset(row) for row in (points * q + values).tolist()]
    design = Design(n=n, m=m, q=q, dprime=dprime, ell=q * q, sets=sets)
    design.check()
    return design

"""Nisan-Wigderson combinatorial designs via the Reed-Solomon construction.

Sets are graphs of distinct low-degree polynomials over the smallest prime
power q >= m, restricted to the first m points, inside the universe
F_q x F_q. Two distinct polynomials of degree < d' agree on at most d'-1
points, which is what caps the pairwise intersections at floor(log2 n).

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
    """GF(p^k) for tiny q, with table-based arithmetic.

    Elements are integers 0..q-1 encoding base-p digit vectors (digit j is
    the coefficient of x^j). For k >= 2 the modulus is the lexicographically
    first monic irreducible polynomial, so the construction is deterministic.
    """

    def __init__(self, q: int):
        pk = _is_prime_power(q)
        if pk is None:
            raise ParameterViolation(f"{q} is not a prime power")
        self.q = q
        self.p, self.k = pk
        if self.k == 1:
            self._modpoly = None
        else:
            self._modpoly = self._find_irreducible()

    def _digits(self, a: int) -> list:
        out = []
        for _ in range(self.k):
            out.append(a % self.p)
            a //= self.p
        return out

    def _encode(self, digits) -> int:
        val = 0
        for d in reversed(digits):
            val = val * self.p + d
        return val

    def _polymod(self, coeffs: list) -> list:
        # reduce a coefficient list (low-to-high) modulo the irreducible
        m = self._modpoly
        coeffs = [c % self.p for c in coeffs]
        for i in range(len(coeffs) - 1, self.k - 1, -1):
            c = coeffs[i]
            if c:
                for j in range(self.k + 1):
                    coeffs[i - self.k + j] = (coeffs[i - self.k + j] - c * m[j]) % self.p
        return coeffs[: self.k] + [0] * max(0, self.k - len(coeffs))

    def _find_irreducible(self) -> list:
        p, k = self.p, self.k
        for code in range(p**k):
            cand = []
            c = code
            for _ in range(k):
                cand.append(c % p)
                c //= p
            cand = cand + [1]  # monic degree-k polynomial
            if self._irreducible(cand):
                return cand
        raise InvariantViolated("no irreducible polynomial found")  # impossible

    def _irreducible(self, f: list) -> bool:
        p = self.p
        k = len(f) - 1
        for deg in range(1, k // 2 + 1):
            for code in range(p**deg):
                g = []
                c = code
                for _ in range(deg):
                    g.append(c % p)
                    c //= p
                g = g + [1]
                if _polydivides(g, f, p):
                    return False
        return True

    def add(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        da, db = self._digits(a), self._digits(b)
        return self._encode([(x + y) % self.p for x, y in zip(da, db)])

    def mul(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a * b) % self.p
        da, db = self._digits(a), self._digits(b)
        prod = [0] * (2 * self.k - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % self.p
        return self._encode(self._polymod(prod))

    def poly_eval(self, coeffs: list, x: int) -> int:
        acc = 0
        for c in reversed(coeffs):
            acc = self.add(self.mul(acc, x), c)
        return acc


def _polydivides(g: list, f: list, p: int) -> bool:
    """Does monic g divide monic f over F_p (coefficient lists low-to-high)?"""
    rem = [c % p for c in f]
    dg = len(g) - 1
    while rem and rem[-1] == 0:
        rem.pop()
    while rem and len(rem) - 1 >= dg:
        c = rem[-1]
        off = len(rem) - 1 - dg
        for j in range(dg + 1):
            rem[off + j] = (rem[off + j] - c * g[j]) % p
        while rem and rem[-1] == 0:
            rem.pop()
    return not rem


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
    sets = []
    for i in range(n):
        coeffs = []
        c = i
        for _ in range(dprime):
            coeffs.append(c % q)
            c //= q
        sets.append(frozenset(a * q + gf.poly_eval(coeffs, a) for a in range(m)))
    design = Design(n=n, m=m, q=q, dprime=dprime, ell=q * q, sets=sets)
    design.check()
    return design

"""Exact coefficient arithmetic over the two supported domains.

Elements are plain canonical Python values: `fractions.Fraction` over the
rationals, `int` residues in [0, p) over a prime field. The Field object
carries the configuration and performs all arithmetic; containers (circuits,
dense polynomials) hold a Field reference and raw element values. Equal
elements therefore compare equal bit-for-bit, and everything is hashable.

There is no floating point anywhere in this package.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import BoundExceedsField, DivisionByZero, MixedFieldConfig, ParameterViolation, check_int
from .seeding import stream

# 2**62 - 57, used by the acceptance suite as the "sufficiently large" prime.
SIXTY_TWO_BIT_PRIME = 4611686018427387847


class Field:
    """Common interface; use the Rationals / PrimeField subclasses."""

    kind = "abstract"

    # subclasses define: zero, one, add, sub, mul, neg, inv, embed, check

    def div(self, a, b):
        if b == self.zero:
            raise DivisionByZero("division by zero")
        return self.mul(a, self.inv(b))

    def pow(self, a, e: int):
        if e < 0:
            return self.inv(self.pow(a, -e))
        result = self.one
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def min_degree_capacity(self) -> int | None:
        """Largest total degree D this field is declared safe for, i.e. the
        largest D with modulus > 2*D**2. None means unbounded (rationals)."""
        return None

    def parse(self, text: str):
        """An integer or `num/den`; a zero denominator is a DivisionByZero."""
        if "/" in text:
            num, den = text.split("/", 1)
            return self.div(self.embed(int(num)), self.embed(int(den)))
        return self.embed(int(text))

    def format(self, v) -> str:
        raise NotImplementedError


class Rationals(Field):
    kind = "rationals"
    zero = Fraction(0)
    one = Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise DivisionByZero("inverse of zero")
        return 1 / Fraction(a)

    def embed(self, n: int):
        return Fraction(n)

    def check(self, v):
        if not isinstance(v, Fraction):
            raise MixedFieldConfig(f"{v!r} is not a rational field element")
        return v

    def format(self, v) -> str:
        if v.denominator == 1:
            return str(v.numerator)
        return f"{v.numerator}/{v.denominator}"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("rationals")

    def __repr__(self):
        return "Rationals()"


class PrimeField(Field):
    """Z/pZ for an odd prime p. The caller is responsible for choosing p
    prime (the text formats and the CLI refuse a modulus `is_prime`
    rejects); sessions additionally enforce p > 2*D_max**2 so that every
    binomial coefficient and interpolation determinant the pipeline divides
    by is a unit."""

    kind = "prime"

    def __init__(self, p: int):
        if p < 3:
            raise ParameterViolation("modulus must be an odd prime >= 3")
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise DivisionByZero("inverse of zero")
        return pow(a, -1, self.p)

    def embed(self, n: int):
        return n % self.p

    def check(self, v):
        if not isinstance(v, int) or isinstance(v, bool) or not (0 <= v < self.p):
            raise MixedFieldConfig(f"{v!r} is not a residue mod {self.p}")
        return v

    def min_degree_capacity(self) -> int:
        # 2*D*D < p  <=>  D*D <= (p - 1) // 2
        return math.isqrt((self.p - 1) // 2)

    def format(self, v) -> str:
        return str(v)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


# Miller-Rabin to the first 13 prime bases is exact below this bound
# (Sorenson and Webster 2015); above it, passing all 13 makes n a strong
# probable prime.
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_EXACT_BELOW = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic primality: exact below MR_EXACT_BELOW (about
    3.3 * 10**24), a strong probable-prime test to MR_BASES above it."""
    if n < 2:
        return False
    for a in MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def same_field(a: Field, b: Field) -> Field:
    if a != b:
        raise MixedFieldConfig(f"mixed field configs: {a!r} vs {b!r}")
    return a


def assert_degree_capacity(field: Field, max_degree: int) -> None:
    """Refuse degrees the field is not declared large enough for."""
    cap = field.min_degree_capacity()
    if cap is not None and max_degree > cap:
        raise BoundExceedsField(
            f"field mod {field.p} supports total degree <= {cap}, "
            f"requested {max_degree}"
        )


def sample_grid(field: Field, bound: int, count: int, seed: int, *names: str):
    """`count` deterministic pseudo-random elements of {0..bound-1} embedded
    in the field. Same seed (and stream names) => same list."""
    check_int("bound", bound, 1)
    check_int("count", count)
    if isinstance(field, PrimeField) and bound > field.p:
        raise BoundExceedsField(f"grid bound {bound} exceeds field size {field.p}")
    rng = stream(seed, "sample_grid", *names)
    return [field.embed(rng.randrange(bound)) for _ in range(count)]


def _shift_candidates(field: Field, n: int, bound: int, count: int, seed: int, *names: str,
                      units: bool = False):
    """The all-zero n-tuple, then (with units) e_1..e_n, then `count`
    n-tuples over {0..bound-1} drawn lazily from stream(seed, *names): the
    shift search order of the lift, monic and separating-shift stages."""
    yield (field.zero,) * n
    for i in range(n if units else 0):
        yield (field.zero,) * i + (field.one,) + (field.zero,) * (n - 1 - i)
    rng = stream(seed, *names)
    for _ in range(count):
        yield tuple(field.embed(rng.randrange(bound)) for _ in range(n))

from fractions import Fraction

import pytest

from circuitforge import PrimeField, Rationals, sample_grid
from circuitforge.errors import BoundExceedsField, DivisionByZero, MixedFieldConfig
from circuitforge.fields import assert_degree_capacity

from conftest import rng_for


def test_rational_add_example(QQ):
    assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)


def test_sub_self_is_zero(QQ, Fp):
    rng = rng_for("sub-self")
    for _ in range(50):
        x = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
        assert QQ.sub(x, x) == QQ.zero
        r = Fp.embed(rng.randint(-10**6, 10**6))
        assert Fp.sub(r, r) == 0


def test_prime_division_example():
    F7 = PrimeField(7)
    q = F7.div(3, 4)
    assert q == 6
    # brute-force check: 4 * q == 3 mod 7
    assert (4 * q) % 7 == 3


def test_field_axioms_random_triples(QQ, Fp):
    for field, name in ((QQ, "qq"), (Fp, "fp")):
        rng = rng_for("axioms-" + name)
        for _ in range(1000):
            a = field.embed(rng.randint(-40, 40))
            b = field.embed(rng.randint(-40, 40))
            c = field.embed(rng.randint(-40, 40))
            assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
            assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
            assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))
            if b != field.zero:
                assert field.mul(b, field.inv(b)) == field.one
                assert field.mul(field.div(a, b), b) == a


def test_canonical_values_compare_bitwise(QQ, Fp):
    assert QQ.div(QQ.embed(2), QQ.embed(4)) == Fraction(1, 2)
    assert Fraction(-1, -2) == Fraction(1, 2)  # Fraction canonicalizes signs
    assert Fp.embed(-1) == Fp.p - 1
    assert hash(Fp.embed(Fp.p + 5)) == hash(5)


def test_division_by_zero(QQ, Fp):
    with pytest.raises(DivisionByZero):
        QQ.div(QQ.one, QQ.zero)
    with pytest.raises(DivisionByZero):
        Fp.inv(0)
    for field in (QQ, Fp):  # both fields parse a zero denominator alike
        with pytest.raises(DivisionByZero):
            field.parse("1/0")
    assert QQ.parse("-3/6") == QQ.div(QQ.embed(-1), QQ.embed(2))


def test_mixed_field_config(QQ, Fp):
    with pytest.raises(MixedFieldConfig):
        QQ.check(3)  # int is not a rational element
    with pytest.raises(MixedFieldConfig):
        Fp.check(Fraction(1, 2))


def test_sample_grid_one_point(QQ):
    assert sample_grid(QQ, 1, 5, 123) == [Fraction(0)] * 5


def test_sample_grid_range_and_determinism():
    F101 = PrimeField(101)
    a = sample_grid(F101, 5, 3, 7)
    b = sample_grid(F101, 5, 3, 7)
    assert a == b
    assert all(0 <= v < 5 for v in a)
    assert sample_grid(F101, 5, 3, 8) != a  # different seed, different stream


def test_sample_grid_bound_exceeds_field():
    with pytest.raises(BoundExceedsField):
        sample_grid(PrimeField(101), 102, 1, 0)


def test_degree_capacity_rule():
    # modulus must exceed 2 * D^2
    F101 = PrimeField(101)
    assert_degree_capacity(F101, 7)  # 2*49 = 98 < 101
    with pytest.raises(BoundExceedsField):
        assert_degree_capacity(F101, 8)  # 2*64 = 128 > 101
    assert_degree_capacity(Rationals(), 10**9)  # unbounded


def _capacity_by_search(p):
    d = 0
    while 2 * (d + 1) ** 2 < p:
        d += 1
    return d


def test_degree_capacity_exact_for_huge_modulus():
    p = 2**1279 - 1
    d = PrimeField(p).min_degree_capacity()
    assert 2 * d * d < p <= 2 * (d + 1) ** 2


def test_degree_capacity_matches_search_on_small_moduli():
    for p in range(3, 4001, 2):
        assert PrimeField(p).min_degree_capacity() == _capacity_by_search(p)


def test_is_prime_matches_sympy():
    import sympy

    from circuitforge.fields import MR_EXACT_BELOW, SIXTY_TWO_BIT_PRIME, is_prime

    assert [n for n in range(-2, 20_000) if is_prime(n) != sympy.isprime(n)] == []
    rng = rng_for("is-prime")
    for bits in (31, 62, 80):
        for _ in range(300):
            n = (rng.next_u64() << 64 | rng.next_u64()) >> (128 - bits) | 1
            assert is_prime(n) == sympy.isprime(n), n
    # strong pseudoprimes to the first 7 and 12 prime bases
    for n in (3_215_031_751, 318_665_857_834_031_151_167_461):
        assert not is_prime(n)
    assert is_prime(SIXTY_TWO_BIT_PRIME) and is_prime(2**127 - 1) and is_prime(2**521 - 1)
    assert not is_prime((2**61 - 1) * (2**89 - 1))
    # the smallest composite passing all 13 bases is where exactness ends
    assert MR_EXACT_BELOW == 1_287_836_182_261 * 2_575_672_364_521

import math
import random

import pytest

from ratnets.fields import COMPLEX, REAL, DEFAULT_PRIME, PrimeField, ScalarField, is_prime
from ratnets.poly import HomPoly


def test_prime_field_arithmetic():
    gf = PrimeField(101)
    assert gf.add(70, 40) == 9
    assert gf.mul(20, 6) == 19
    assert gf.sub(3, 10) == 94
    for a in range(1, 101):
        assert gf.mul(a, gf.inv(a)) == 1


def test_prime_field_rejects_composite():
    with pytest.raises(ValueError):
        PrimeField(2147483646)
    assert is_prime(DEFAULT_PRIME)
    assert not is_prime(1)


PRIMES = [2, 3, 37, 41, 1000003, 2 ** 31 - 1, 2 ** 61 - 1, 2 ** 62 - 57, 2 ** 62 + 135]
COMPOSITES = [0, 1, 4, 561, 41041, 1000001, 3215031751, 2 ** 31, 2 ** 31 + 1, 2 ** 61 + 1]


@pytest.mark.parametrize("n,want", [(n, True) for n in PRIMES] + [(n, False) for n in COMPOSITES])
def test_is_prime_answers_stay_the_same_when_cached(n, want):
    # 561 and 41041 are Carmichael numbers; 3215031751 is one too and a
    # strong pseudoprime to the bases 2, 3, 5 and 7
    hits = is_prime.cache_info().hits
    assert [is_prime(n), is_prime(n)] == [want, want]
    assert is_prime.cache_info().hits > hits


def test_is_prime_matches_trial_division():
    for n in range(2000):
        assert is_prime(n) == (n > 1 and all(n % q for q in range(2, math.isqrt(n) + 1)))


def test_prime_field_random_nonzero():
    gf = PrimeField(7)
    rng = random.Random(0)
    draws = {gf.random(rng) for _ in range(200)}
    assert 0 not in draws
    assert draws == {1, 2, 3, 4, 5, 6}


@pytest.mark.parametrize("p", [10 ** 6 + 3, 2 ** 31 - 1, 2 ** 61 - 1, 2 ** 62 + 135])
@pytest.mark.parametrize("n", [0, 1, 7, 300])
def test_prime_field_randoms_continue_the_randrange_stream(p, n):
    # 10^6 + 3 rejects about 5 % of its 20-bit words, so a batch needs refills
    gf = PrimeField(p)
    batch, single, reference = random.Random(n), random.Random(n), random.Random(n)
    got = gf.randoms(batch, n)
    assert got == [gf.random(single) for _ in range(n)] == [reference.randrange(1, p)
                                                            for _ in range(n)]
    assert all(1 <= v < p for v in got)
    assert batch.random() == single.random() == reference.random()  # the streams stay in step


GF = PrimeField(101)
FLOATS = [0.0, -0.0, math.nan, math.inf, 5e-324]


@pytest.mark.parametrize("field, value",
                         [(REAL, v) for v in FLOATS]
                         + [(COMPLEX, complex(v)) for v in FLOATS]
                         + [(COMPLEX, complex(-0.0, -0.0)), (COMPLEX, complex(math.nan, 0))]
                         + [(GF, 0), (GF, 101), (GF, 203)])
def test_is_zero_is_the_fields_own_and_agrees_with_magnitude(field, value):
    assert type(field).is_zero is not ScalarField.is_zero
    assert field.is_zero(value) == (field.magnitude(value) == 0.0)


EDGE = FLOATS + [-math.inf, 1.5]


@pytest.mark.parametrize("field, values",
                         [(REAL, EDGE),
                          (COMPLEX, [complex(v) for v in EDGE]
                           + [complex(-0.0, -0.0), complex(math.nan, 0), complex(0, 1.5),
                              complex(1e308, 1e308)])],  # its modulus is beyond the float range
                         ids=["real", "complex"])
def test_float_field_ops_are_the_python_operators(field, values):
    def same(x, y):
        return repr(x) == repr(y)  # NaN equal to NaN, -0.0 unequal to 0.0

    for a in values:
        assert same(field.neg(a), -a) and field.is_zero(a) == (a == 0)
        for b in values:
            assert same(field.add(a, b), a + b)
            assert same(field.sub(a, b), a - b)
            assert same(field.mul(a, b), a * b)


def test_dual_epsilon_squares_to_zero(dual_field):
    d = dual_field(REAL)
    eps = (0.0, 1.0)
    assert d.mul(eps, eps) == (0.0, 0.0)


def test_dual_inverse(dual_field):
    d = dual_field(REAL)
    x = (2.0, 3.0)
    prod = d.mul(x, d.inv(x))
    assert abs(prod[0] - 1.0) < 1e-15
    assert abs(prod[1]) < 1e-15


def test_dual_over_prime_field(dual_field):
    gf = PrimeField(97)
    d = dual_field(gf)
    x = (5, 3)
    y = (7, 11)
    assert d.mul(x, y) == ((5 * 7) % 97, (5 * 11 + 3 * 7) % 97)
    assert d.mul(x, d.inv(x)) == (1, 0)


def test_nested_dual_rejected(dual_field):
    with pytest.raises(ValueError):
        dual_field(dual_field(REAL))


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_dual_directional_derivative_matches_finite_differences(field, dual_field):
    # evaluate with x_i + eps*v_i returns (value, directional derivative)
    rng = random.Random(42)
    dual = dual_field(field)
    for _ in range(20):
        nvars, deg = rng.randint(2, 4), rng.randint(1, 4)
        p = _random_poly(field, nvars, deg, rng)
        pd = HomPoly(dual, nvars, deg, {e: dual.lift(c) for e, c in p.terms.items()})
        x = [field.random(rng) for _ in range(nvars)]
        v = [field.random(rng) for _ in range(nvars)]
        val, deriv = pd.evaluate([(xi, vi) for xi, vi in zip(x, v)])
        h = 1e-6
        xp = [xi + h * vi for xi, vi in zip(x, v)]
        xm = [xi - h * vi for xi, vi in zip(x, v)]
        fd = (p.evaluate(xp) - p.evaluate(xm)) / (2 * h)
        assert abs(val - p.evaluate(x)) < 1e-12
        assert abs(deriv - fd) <= 1e-6 * max(1.0, abs(fd))


def _random_poly(field, nvars, deg, rng):
    from ratnets.poly import monomials
    terms = {e: field.random(rng) for e in monomials(nvars, deg) if rng.random() < 0.7}
    if not terms:
        terms = {tuple([deg] + [0] * (nvars - 1)): field.one()}
    return HomPoly(field, nvars, deg, terms)

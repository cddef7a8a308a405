import ast
import inspect
from math import gcd
from operator import sub
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from partx import counting, series
from partx.series import (
    PowerSeries,
    double_sum_expansion,
    euler_inverse_product,
    euler_product,
    euler_product_pow,
    format_series,
    freshman_dream_check,
    qk_generating_function,
)


def naive_mul(a, b, trunc):
    """Reference convolution, independent of PowerSeries internals."""
    out = [0] * (trunc + 1)
    for i, ai in enumerate(a[: trunc + 1]):
        for j, bj in enumerate(b[: trunc + 1 - i]):
            out[i + j] += ai * bj
    return out


def naive_euler_product(trunc):
    """prod (1 - x^n), one factor at a time into a fresh list."""
    acc = [1] + [0] * trunc
    for n in range(1, trunc + 1):
        acc = [acc[d] - (acc[d - n] if d >= n else 0) for d in range(trunc + 1)]
    return acc


def slice_map_euler_product(trunc):
    """prod (1 - x^n), one factor per slice map: c[d] -= old c[d - n] for d >= n."""
    c = [1] + [0] * trunc
    for n in range(1, trunc + 1):
        c[n:] = map(sub, c[n:], c[: trunc + 1 - n])
    return c


def naive_inverse(a, modulus):
    """Dense reference: b_0 = 1/a_0, b_i = -(1/a_0) * sum_{j=1..i} a_j b_{i-j}."""
    inv0 = a[0] if modulus is None else pow(a[0], -1, modulus)
    b = [inv0]
    for i in range(1, len(a)):
        b.append(-inv0 * sum(a[j] * b[i - j] for j in range(1, i + 1)))
        if modulus is not None:
            b[i] %= modulus
    return b


def reduced(values, modulus):
    return list(values) if modulus is None else [v % modulus for v in values]


@st.composite
def series_tuples(draw, count, unit=False):
    """A ring (None for Z, else Z/m, m in 2..30) and ``count`` coefficient lists
    of one length, each with its own share of zeros at random places; with
    ``unit`` each constant term is a unit of the ring."""
    modulus = draw(st.none() | st.integers(2, 30))
    size = draw(st.integers(1, 41))
    rnd = Random(draw(st.integers(0, 2**32 - 1)))  # places and values of the coefficients
    if modulus is None:
        units = [1, -1]
    else:
        units = [u for u in range(1, modulus) if gcd(u, modulus) == 1]
    lists = []
    for _ in range(count):
        zeros = draw(st.integers(0, 10)) / 10  # 0: dense, 1: all zero
        coeffs = [0 if rnd.random() < zeros else rnd.randint(-10**6, 10**6) for _ in range(size)]
        if unit:
            coeffs[0] = draw(st.sampled_from(units))
        lists.append(coeffs)
    return modulus, lists


def test_mul_geometric_inverse():
    trunc = 20
    one_minus_x = PowerSeries([1, -1] + [0] * (trunc - 1))
    geometric = PowerSeries([1] * (trunc + 1))
    assert one_minus_x * geometric == PowerSeries.one(trunc)


def test_mul_square():
    s = PowerSeries([1, 1, 0])
    assert (s * s).coeffs == (1, 2, 1)


def test_mul_rejects_mismatch():
    with pytest.raises(ValueError, match="ring"):
        PowerSeries([1, 1]) * PowerSeries([1, 1], modulus=5)
    with pytest.raises(ValueError, match="truncation"):
        PowerSeries([1, 1]) * PowerSeries([1, 1, 1])


def test_inverse_of_one_minus_x():
    trunc = 15
    inv = PowerSeries([1, -1] + [0] * (trunc - 1)).inverse()
    assert inv.coeffs == (1,) * (trunc + 1)


def test_inverse_of_one():
    assert PowerSeries.one(7).inverse() == PowerSeries.one(7)


def test_inverse_round_trips():
    s = PowerSeries([1, 5, -2, 7, 0, 3])
    assert s * s.inverse() == PowerSeries.one(5)
    t = PowerSeries([3, 1, 4, 1, 5], modulus=7)
    assert t * t.inverse() == PowerSeries.one(4, modulus=7)


def test_inverse_rejects_non_unit():
    with pytest.raises(ValueError, match="unit"):
        PowerSeries([2, 1]).inverse()
    with pytest.raises(ValueError, match="invertible"):
        PowerSeries([5, 1], modulus=10).inverse()


def test_pentagonal_series_inverts_to_partition_counts():
    trunc = 30
    inv = euler_product(trunc).inverse()
    assert list(inv.coeffs) == [counting.partition_count(i) for i in range(trunc + 1)]


def test_euler_product_matches_naive_expansion():
    trunc = 300
    expected = naive_euler_product(trunc)
    assert list(euler_product(trunc).coeffs) == expected
    assert list(euler_product(trunc, modulus=7).coeffs) == [c % 7 for c in expected]


def test_euler_product_pentagonal_pattern():
    assert list(euler_product(12).coeffs) == [1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1]


def no_product(*args):
    raise AssertionError("the product ran before the modulus was checked")


def test_bad_modulus_rejected_before_the_product(monkeypatch):
    monkeypatch.setattr(series, "_divisor_sums", no_product)
    builders = [
        lambda: euler_product(6000, 1),
        lambda: euler_inverse_product(6000, 1),
        lambda: euler_product_pow(4, 6000, 0),
        lambda: qk_generating_function(5, 6000, 1),
    ]
    for build in builders:
        with pytest.raises(ValueError, match="modulus must be >= 2"):
            build()


def test_float_modulus_rejected(monkeypatch):
    # An exact series takes no float modulus, not even 5.0.
    monkeypatch.setattr(series, "_divisor_sums", no_product)
    for modulus in (2.5, 5.0):
        with pytest.raises(TypeError):
            PowerSeries([3, 4], modulus)
        with pytest.raises(TypeError):
            euler_product(4, modulus)
        with pytest.raises(TypeError):
            qk_generating_function(5, 10, modulus)


def test_divisor_sums():
    expected = [0] + [sum(d for d in range(1, m + 1) if m % d == 0) for m in range(1, 201)]
    assert series._divisor_sums(200) == expected
    assert series._divisor_sums(0) == [0]


def test_euler_product_refuses_an_inexact_division(monkeypatch):
    # A wrong divisor sum makes some n * e_n indivisible by n; the
    # recurrence must say so rather than floor.
    sums = series._divisor_sums

    def off_by_one(trunc):
        sigma = sums(trunc)
        sigma[2] += 1
        return sigma

    monkeypatch.setattr(series, "_divisor_sums", off_by_one)
    with pytest.raises(ArithmeticError, match="e_2 = -3/2 is not an integer"):
        euler_product(10)


@pytest.mark.parametrize("modulus", [None, 5, 125])
def test_euler_product_matches_slice_map_product(modulus):
    trunc = 1500
    assert list(euler_product(trunc, modulus).coeffs) == reduced(slice_map_euler_product(trunc),
                                                                modulus)


def test_euler_times_its_inverse_is_one():
    trunc = 50
    assert euler_product(trunc) * euler_inverse_product(trunc) == PowerSeries.one(trunc)


def test_euler_inverse_product_values():
    assert euler_inverse_product(4).coeffs == (1, 1, 2, 3, 5)
    assert euler_inverse_product(1).coeffs == (1, 1)
    with pytest.raises(ValueError):
        euler_inverse_product(0)


def test_euler_inverse_product_mod_five_ramanujan_zeros():
    f5 = euler_inverse_product(60, modulus=5)
    for m in range(4, 61, 5):
        assert f5[m] == 0, m


def test_qk_generating_function_values():
    assert qk_generating_function(5, 9)[9] == 5
    assert qk_generating_function(3, 6)[6] == 4
    g2 = qk_generating_function(2, 5)
    assert g2[4] == 3
    assert g2[5] == 4


def test_qk_generating_function_rejects_short_trunc():
    with pytest.raises(ValueError, match="trunc"):
        qk_generating_function(5, 4)
    with pytest.raises(ValueError):
        qk_generating_function(0, 4)


def test_qk_matches_occurrence_counts():
    trunc = 120
    for k in (1, 2, 3, 4, 5, 7, 11):
        gk = qk_generating_function(k, trunc)
        for m in range(trunc + 1):
            assert gk[m] == counting.occurrence_count(k, m), (k, m)


@pytest.mark.parametrize("modulus", [None, 7, 125])
def test_qk_running_sums_match_occurrence_counts(modulus):
    trunc = 600
    for k in range(1, 13):
        expected = reduced([counting.occurrence_count(k, d) for d in range(trunc + 1)], modulus)
        assert list(qk_generating_function(k, trunc, modulus).coeffs) == expected, k
    # k = trunc: the only occurrence is the one-part partition (trunc).
    edge = qk_generating_function(trunc, trunc, modulus).coeffs
    assert edge == (0,) * trunc + (1,)
    assert qk_generating_function(1, 1, modulus).coeffs == (0, 1)


def test_qk_identity_algebra():
    # G_k * (1 - x^k) == x^k * F through the truncation
    trunc = 60
    f = euler_inverse_product(trunc)
    for k in (1, 2, 3, 5, 8):
        one_minus_xk = [1] + [0] * trunc
        one_minus_xk[k] = -1
        lhs = qk_generating_function(k, trunc) * PowerSeries(one_minus_xk)
        assert lhs.coeffs == (0,) * k + f.coeffs[:-k], k


def test_coefficient_agreement_with_count_table():
    trunc = 120
    f = euler_inverse_product(trunc)
    assert list(f.coeffs) == [counting.partition_count(m) for m in range(trunc + 1)]


def test_euler_product_pow_trivials():
    assert euler_product_pow(4, 0).coeffs == (1,)
    with pytest.raises(ValueError):
        euler_product_pow(0, 10)


def test_euler_product_pow_fourth_power():
    got = euler_product_pow(4, 12)
    base = naive_euler_product(12)
    expected = base
    for _ in range(3):
        expected = naive_mul(expected, base, 12)
    assert list(got.coeffs) == expected
    assert got[4] == -5


@pytest.mark.parametrize("power, products",
                         [(0, 0), (1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (8, 3)])
def test_power_spends_no_product_on_the_unit(monkeypatch, power, products):
    expected = [1] + [0] * 50
    for _ in range(power):
        expected = naive_mul(expected, naive_euler_product(50), 50)
    base = euler_product(50)
    calls = []
    real_mul = PowerSeries.__mul__
    monkeypatch.setattr(PowerSeries, "__mul__", lambda a, b: calls.append(1) or real_mul(a, b))
    assert list((base ** power).coeffs) == expected
    assert len(calls) == products


def test_double_sum_smallest_term():
    assert double_sum_expansion(1).coeffs == (0, 1)
    with pytest.raises(ValueError):
        double_sum_expansion(0)


def test_double_sum_equals_shifted_fourth_power():
    for trunc in (1, 2, 5, 50, 200, 2500):
        fourth = euler_product_pow(4, trunc).coeffs
        assert double_sum_expansion(trunc).coeffs == (0,) + fourth[:-1], trunc


def test_double_sum_multiples_of_five():
    ds = double_sum_expansion(200)
    for m in range(5, 201, 5):
        assert ds[m] % 5 == 0, m


def test_freshman_dream():
    assert freshman_dream_check(5, 100) is True
    assert freshman_dream_check(7, 100) is True
    assert freshman_dream_check(2, 40) is True
    with pytest.raises(ValueError, match="prime"):
        freshman_dream_check(4, 10)
    with pytest.raises(ValueError, match="prime"):
        freshman_dream_check(9, 10)
    with pytest.raises(ValueError):
        freshman_dream_check(5, 0)


@pytest.mark.parametrize("modulus", [5, 7, 11, 25, 125])
def test_ring_homomorphism(modulus):
    # Reducing a series built over Z, or over Z/125 when m divides 125, gives
    # the series built over Z/m; the constructor does the reduction.
    trunc = 60
    for build in (
        euler_product,
        euler_inverse_product,
        lambda t, m=None: euler_product_pow(4, t, m),
        lambda t, m=None: qk_generating_function(5, t, m),
    ):
        assert PowerSeries(build(trunc).coeffs, modulus) == build(trunc, modulus)
        if 125 % modulus == 0:
            assert PowerSeries(build(trunc, 125).coeffs, modulus) == build(trunc, modulus)


def test_pow_and_shift_basics():
    s = PowerSeries([1, 1, 1])
    assert (s ** 0) == PowerSeries.one(2)
    assert (s ** 2).coeffs == (1, 2, 3)
    with pytest.raises(ValueError):
        s ** -1


def test_modulus_validation():
    with pytest.raises(ValueError):
        PowerSeries([1, 2], modulus=1)
    reduced = PowerSeries([7, -1], modulus=5)
    assert reduced.coeffs == (2, 4)
    assert PowerSeries([True, False, 3]).coeffs == (1, 0, 3)
    with pytest.raises(TypeError):
        PowerSeries([1.7, 2.9])  # an exact series takes no floats


def test_format_series():
    text = format_series(PowerSeries([1, 0, 4], modulus=5))
    assert text == "#series v1 ring=Zmod:5 trunc=2\n0,1\n1,0\n2,4\n"
    text = format_series(PowerSeries([1, -1]))
    assert text.splitlines()[0] == "#series v1 ring=Z trunc=1"


def test_immutability_and_equality():
    s = PowerSeries([1, 2, 3])
    assert isinstance(s.coeffs, tuple)
    assert s == PowerSeries((1, 2, 3))
    assert s != PowerSeries([1, 2, 3], modulus=5)


@settings(deadline=None)
@given(series_tuples(2))
def test_mul_matches_schoolbook(case):
    modulus, (a, b) = case
    product = PowerSeries(a, modulus) * PowerSeries(b, modulus)
    assert list(product.coeffs) == reduced(naive_mul(a, b, len(a) - 1), modulus)


# Coefficients on both sides of 2**64, where a fixed-width packing would overflow.
EDGES_64 = [1, -1, 2**64 - 1, 2**64, -(2**64), -(2**64) - 1]


@st.composite
def wide_pairs(draw):
    """Two coefficient lists of one length (1 to 30, so trunc 0 too), each
    all zero or a mix of zeros, EDGES_64 and signed values of up to 100 bits."""
    size = draw(st.integers(1, 30))
    rnd = Random(draw(st.integers(0, 2**32 - 1)))
    pair = []
    for _ in range(2):
        if draw(st.booleans()) and draw(st.booleans()):
            pair.append([0] * size)
            continue
        pool = [0] + EDGES_64 + [rnd.randint(-(2**100), 2**100) for _ in range(size)]
        pair.append([rnd.choice(pool) for _ in range(size)])
    return pair


@settings(deadline=None)
@given(wide_pairs())
@example([[0], [5]])
@example([[-3], [2**70]])
def test_mul_matches_schoolbook_beyond_64_bits(pair):
    a, b = pair
    product = PowerSeries(a) * PowerSeries(b)
    assert list(product.coeffs) == naive_mul(a, b, len(a) - 1)


@settings(deadline=None)
@given(wide_pairs(), st.integers(2, 2**80))
@example([[0, 0, 0], [1, 2, 3]], 7)
def test_mul_matches_schoolbook_beyond_64_bits_mod_m(pair, modulus):
    a, b = pair
    product = PowerSeries(a, modulus) * PowerSeries(b, modulus)
    assert list(product.coeffs) == reduced(naive_mul(a, b, len(a) - 1), modulus)


@pytest.mark.parametrize("modulus", [None, 7, 125])
def test_dense_products_equal_schoolbook(modulus):
    # The products behind series euler4 and gk, at a size where both are dense.
    trunc = 600
    e = naive_euler_product(trunc)
    e2 = naive_mul(e, e, trunc)
    got = euler_product(trunc, modulus) * euler_product(trunc, modulus)
    assert list(got.coeffs) == reduced(e2, modulus)
    assert list((got * got).coeffs) == reduced(naive_mul(e2, e2, trunc), modulus)
    geometric = [1 if d and d % 5 == 0 else 0 for d in range(trunc + 1)]
    p = euler_inverse_product(trunc)
    got = PowerSeries(geometric, modulus) * euler_inverse_product(trunc, modulus)
    assert list(got.coeffs) == reduced(naive_mul(geometric, list(p.coeffs), trunc), modulus)


@settings(deadline=None)
@given(series_tuples(1, unit=True))
def test_inverse_matches_schoolbook(case):
    modulus, (a,) = case
    s = PowerSeries(a, modulus)
    assert list(s.inverse().coeffs) == naive_inverse(list(s.coeffs), modulus)
    assert s * s.inverse() == PowerSeries.one(s.trunc, modulus)


@settings(deadline=None)
@given(series_tuples(3))
def test_ring_laws(case):
    modulus, coeffs = case
    a, b, c = (PowerSeries(x, modulus) for x in coeffs)

    def plus(x, y):
        return PowerSeries(map(sum, zip(x.coeffs, y.coeffs)), modulus)

    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * plus(b, c) == plus(a * b, a * c)
    assert a * PowerSeries.one(a.trunc, modulus) == a


def test_series_imports_no_other_route():
    # The series route must stay independent of the recurrence and the oracle.
    tree = ast.parse(inspect.getsource(series))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
            names.update(alias.name for alias in node.names)
    assert not {name.split(".")[-1] for name in names} & {"counting", "partitions"}, names

"""Truncated formal power series with exact coefficients.

Coefficients live in the integers (``modulus=None``) or in the integers
mod m.  A series of truncation degree N stores coefficients for x^0..x^N;
every operation is exact through degree N and drops anything above it.
Every series is made by the :class:`PowerSeries` constructor, the one place
where coefficients are checked and reduced mod m.
Multiplication is by Kronecker substitution: both factors are packed into
one integer each, with a slot per coefficient wide enough for any
coefficient of the product, multiplied once as integers and unpacked; over
Z/m the product of the representatives is reduced afterwards.  Inversion
uses the standard recurrence
b_0 = 1/a_0, b_i = -(1/a_0) * sum_{j=1..i} a_j b_{i-j}, summed over the
nonzero a_j only.

The named constructors build the partition generating series: the Euler
product E = prod_{n>=1} (1 - x^n), its inverse (whose coefficients are
P(m)), the occurrence-count series for a fixed part k (coefficients
Q_k(m)), and the shifted two-index expansion of x * E^4.

E comes from its logarithmic derivative.  log E = sum_n log(1 - x^n) and
x * d/dx log(1 - x^n) = -sum_{k>=1} n * x^(nk), so
x * E'/E = -sum_{m>=1} sigma(m) x^m, where sigma(m) is the sum of the
divisors of m, and n * e_n = -sum_{j<n} sigma(n - j) * e_j.  The
recurrence follows from the definition of E alone and reads no pentagonal
number, so P(m) read off 1/E does not rest on the pentagonal theorem.  The
kernel skips the e_j it finds to be zero, but assumes nothing about where
they lie.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate, islice, repeat
from operator import add, index, mul, neg
from typing import Iterable

SERIES_HEADER = "#series v1"


def _truncated_product(a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
    """The first len(a) coefficients of a * b over Z, by Kronecker substitution.

    Each factor becomes one integer with a slot of ``width`` bytes per
    coefficient, and one big-integer product gives every convolution sum at
    once.  A coefficient of the product is a sum of at most len(a) terms, so
    ``bound`` caps its magnitude, and a slot of one bit more holds it signed.
    Coefficients go in offset by half a slot, which makes every chunk
    nonnegative, and the offsets are subtracted again as one integer; the
    low len(a) slots of the product come out the same way.
    """
    size = len(a)
    bound = max(map(abs, a)) * max(map(abs, b)) * size
    if not bound:
        return [0] * size
    width = (bound.bit_length() + 8) // 8  # bytes for bound plus a sign bit
    half = 1 << (8 * width - 1)
    slots = (1 << (8 * width * size)) - 1  # mask of the low ``size`` slots
    offsets = slots // ((1 << (8 * width)) - 1) * half  # half in every slot

    def pack(coeffs):
        chunks = map(int.to_bytes, map(add, coeffs, repeat(half)), repeat(width), repeat("little"))
        return int.from_bytes(b"".join(chunks), "little") - offsets

    raw = ((pack(a) * pack(b) + offsets) & slots).to_bytes(width * size, "little")
    return [int.from_bytes(raw[i : i + width], "little") - half for i in range(0, len(raw), width)]


def _check_modulus(modulus: int | None) -> int | None:
    """The modulus as an int (None for Z); a float or a modulus < 2 raises."""
    if modulus is None:
        return None
    modulus = index(modulus)
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    return modulus


class PowerSeries:
    """Immutable truncated series over Z or Z/m.

    The constructor, the only way a series is made, checks and reduces mod m.
    """

    __slots__ = ("coeffs", "modulus")

    def __init__(self, coeffs: Iterable[int], modulus: int | None = None):
        modulus = _check_modulus(modulus)
        coeffs = tuple(map(index, coeffs))
        if not coeffs:
            raise ValueError("a series needs at least the constant coefficient")
        if modulus is not None:
            coeffs = tuple(c % modulus for c in coeffs)
        self.coeffs = coeffs
        self.modulus = modulus

    @classmethod
    def one(cls, trunc: int, modulus: int | None = None) -> "PowerSeries":
        return cls([1] + [0] * trunc, modulus)

    @property
    def trunc(self) -> int:
        return len(self.coeffs) - 1

    @property
    def ring_name(self) -> str:
        return "Z" if self.modulus is None else f"Zmod:{self.modulus}"

    def __getitem__(self, degree: int) -> int:
        return self.coeffs[degree]

    def __eq__(self, other):
        if isinstance(other, PowerSeries):
            return self.modulus == other.modulus and self.coeffs == other.coeffs
        return NotImplemented

    def _check_compat(self, other: "PowerSeries") -> None:
        if self.modulus != other.modulus:
            raise ValueError(
                f"ring mismatch: {self.ring_name} vs {other.ring_name}"
            )
        if len(self.coeffs) != len(other.coeffs):
            raise ValueError(
                f"truncation mismatch: {self.trunc} vs {other.trunc}"
            )

    def __mul__(self, other):
        if not isinstance(other, PowerSeries):
            return NotImplemented
        self._check_compat(other)
        return PowerSeries(_truncated_product(self.coeffs, other.coeffs), self.modulus)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"exponent must be a nonnegative integer, got {exponent!r}")
        if exponent < 2:
            return self if exponent else PowerSeries.one(self.trunc, self.modulus)
        # Square and multiply down to self ** 1: no product is spent on the unit.
        half = self ** (exponent >> 1)
        square = half * half
        return square * self if exponent & 1 else square

    def inverse(self) -> "PowerSeries":
        """Multiplicative inverse through the truncation degree."""
        a = self.coeffs
        a0 = a[0]
        m = self.modulus
        if m is None:
            if a0 not in (1, -1):
                raise ValueError(
                    f"constant term {a0} is not a unit over the integers"
                )
            inv0 = a0
        else:
            try:
                inv0 = pow(a0, -1, m)
            except ValueError:
                raise ValueError(
                    f"constant term {a0} is not invertible mod {m}"
                ) from None
        # The nonzero a_j, j >= 1, by negated degree: while b_i is computed
        # len(b) == i, so b[-j] is b_{i-j}.
        offsets = [-j for j in range(1, len(a)) if a[j]]
        weights = [a[-g] for g in offsets]
        b = [inv0 % m if m is not None else inv0]
        at = b.__getitem__
        for i in range(1, len(a)):
            used = bisect_right(offsets, i, key=neg)
            v = -inv0 * sum(map(mul, islice(weights, used), map(at, islice(offsets, used))))
            b.append(v % m if m is not None else v)
        return PowerSeries(b, m)


def _divisor_sums(trunc: int) -> list[int]:
    """sigma(m), the sum of the divisors of m, for m = 0..trunc (sigma(0) = 0)."""
    sigma = [0] * (trunc + 1)
    for d in range(1, trunc + 1):  # d divides d, 2d, 3d, ...
        sigma[d::d] = map(add, sigma[d::d], repeat(d))
    return sigma


def euler_product(trunc: int, modulus: int | None = None) -> PowerSeries:
    """prod_{n>=1} (1 - x^n) through degree ``trunc``.

    The coefficients e_n come from the logarithmic derivative of the
    product: x * E' = -E * sum_{m>=1} sigma(m) x^m, so
    n * e_n = -sum_{j<n} sigma(n - j) * e_j.  Once e_j is known and found
    nonzero, its terms sigma(n - j) * e_j are added to every later sum at
    once; a zero e_j costs nothing.  The work is O(trunc) per nonzero
    coefficient, a sparsity observed as the recurrence runs, not assumed
    from the pentagonal theorem.  Each division by n must be exact, and a
    remainder raises.  Over Z/m the coefficients are computed over Z and
    reduced at the end, since n need not be invertible mod m.
    """
    if trunc < 0:
        raise ValueError(f"trunc must be nonnegative, got {trunc}")
    modulus = _check_modulus(modulus)
    sigma = _divisor_sums(trunc)
    # sums[n] gathers sum_{j<n} sigma(n - j) * e_j over the nonzero e_j
    # found so far; e_0 = 1 contributes sigma(n) itself.
    sums = sigma[:]
    c = [1] + [0] * trunc
    for n in range(1, trunc + 1):
        e, rem = divmod(-sums[n], n)
        if rem:
            raise ArithmeticError(f"e_{n} = {-sums[n]}/{n} is not an integer")
        if e:
            c[n] = e
            sums[n + 1 :] = map(add, sums[n + 1 :], map(mul, sigma[1 : trunc + 1 - n], repeat(e)))
    return PowerSeries(c, modulus)


def euler_inverse_product(trunc: int, modulus: int | None = None) -> PowerSeries:
    """prod_{n>=1} 1/(1 - x^n): coefficient of x^m is P(m)."""
    if trunc < 1:
        raise ValueError(f"trunc must be >= 1, got {trunc}")
    return euler_product(trunc, modulus).inverse()


def euler_product_pow(power: int, trunc: int, modulus: int | None = None) -> PowerSeries:
    """[prod_{n>=1} (1 - x^n)] ** power through degree ``trunc``."""
    if power < 1:
        raise ValueError(f"power must be >= 1, got {power}")
    return euler_product(trunc, modulus) ** power


def qk_generating_function(k: int, trunc: int, modulus: int | None = None) -> PowerSeries:
    """Series whose coefficient of x^m is Q_k(m).

    G_k = x^k/(1 - x^k) * F, F = prod 1/(1 - x^n) the partition-count
    series.  Dividing by (1 - x^k) is a running sum along each residue
    class mod k: G_k[d] = F[d - k] + G_k[d - k].
    """
    if k < 1:
        raise ValueError(f"k must be a positive integer, got k={k}")
    if trunc < k:
        raise ValueError(f"trunc must be >= k, got trunc={trunc} < k={k}")
    f = euler_inverse_product(trunc, modulus).coeffs
    g = [0] * (trunc + 1)
    for r in range(k):
        g[r + k :: k] = accumulate(f[r : trunc + 1 - k : k])
    return PowerSeries(g, modulus)


def double_sum_expansion(trunc: int) -> PowerSeries:
    """Two-index expansion of x * [prod (1 - x^n)]^4 over the integers.

    Accumulates (-1)^(mu+nu) * (2*mu + 1) * x^e over all mu >= 0 and all
    integers nu, where e = 1 + mu(mu+1)/2 + nu(3nu+1)/2, keeping e <= trunc.
    The pairs (nu(3nu+1)/2, (-1)^nu) are listed once, for
    nu = 0, 1, -1, 2, -2, ... while nu = -t still fits; the order is fixed
    for reproducibility though integer addition makes it immaterial.
    """
    if trunc < 1:
        raise ValueError(f"trunc must be >= 1, got {trunc}")
    pentagonal = [(0, 1)]
    t = 1
    while 1 + t * (3 * t - 1) // 2 <= trunc:
        sign = -1 if t & 1 else 1
        pentagonal += [(t * (3 * t + 1) // 2, sign), (t * (3 * t - 1) // 2, sign)]
        t += 1
    coeffs = [0] * (trunc + 1)
    mu, base = 0, 1  # base = 1 + mu(mu+1)/2
    while base <= trunc:
        weight = -(2 * mu + 1) if mu & 1 else 2 * mu + 1
        for e, sign in pentagonal:
            if base + e <= trunc:
                coeffs[base + e] += weight * sign
        mu += 1
        base += mu
    return PowerSeries(coeffs)


def _is_prime(m: int) -> bool:
    if m < 2:
        return False
    if m < 4:
        return True
    if m % 2 == 0:
        return False
    f = 3
    while f * f <= m:
        if m % f == 0:
            return False
        f += 2
    return True


def freshman_dream_check(m: int, trunc: int) -> bool:
    """True iff (1 - x)^m == 1 - x^m through ``trunc`` in Z/m.

    Holds for every prime m (all inner binomial coefficients of (1 - x)^m
    vanish mod m); non-prime m is rejected.  Both sides have constant term
    1, so this is (1 - x^m) / (1 - x)^m == 1 without forming the inverse.
    """
    if trunc < 1:
        raise ValueError(f"trunc must be >= 1, got {trunc}")
    if not _is_prime(m):
        raise ValueError(f"m must be prime, got {m}")
    one_minus_x = PowerSeries([1, -1] + [0] * (trunc - 1), m)
    one_minus_xm = [1] + [0] * trunc
    if m <= trunc:
        one_minus_xm[m] = -1
    return one_minus_x ** m == PowerSeries(one_minus_xm, m)


def format_series(series: PowerSeries) -> str:
    """Render in the series v1 dump format: header plus one degree,coefficient per line."""
    lines = [f"{SERIES_HEADER} ring={series.ring_name} trunc={series.trunc}"]
    lines.extend(f"{d},{c}" for d, c in enumerate(series.coeffs))
    return "\n".join(lines) + "\n"

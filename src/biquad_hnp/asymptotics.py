"""Euler-product constants, main terms, and exact class-weight identities.

The two counting asymptotics are

    S(X)      ~ (23/960)  * sqrt(X) * (log X)^2 * C_total
    S~(X)     ~ (1/(3*sqrt(2*pi))) * sqrt(X log X) * C_failing

with C_total = prod_p (1-1/p)^3 (1+3/p) and
C_failing = prod_p (1-1/p)^(3/2) (1+3/(2p)).  The integers 23 and 112,
and the signed sums of signed_failing_class_weights, which cancel to 0
in each sign pair, are exact weighted counts over the kernel's class
tables (``_kernels._class_tables``: the weight factor c, the failure
compatibility ok and the reciprocity sign u of each of its 1024 ids, by
sign pair, factor-of-2 slot and odd residues mod 8).  Every
exact sum here is a rational sum over those tables, so the identities
check the classes every count uses.

Exactly, 6 S(X) = (1/64) sum_id F_0(isqrt(X) // scale(id)) - D(X), with
F_0(y) the sum of 3^omega(n) over odd squarefree n <= y,
scale = c 2^[slot > 0] and D the degenerate tuples.  Hence

    S(X) = sqrt(X) (A log^2 X + B log X + C) + O(X^(1/2 - delta)),

A = (23/960) C_total = 0.0027524, B = 0.0513796, C = -0.214858, so that
S/main - 1 is about (B/A) / log X = 18.67 / log X; see
expansion_total_coefficients.  Floating point appears only in the Euler
products, the Laurent data and the main terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product

import numpy as np

from . import _kernels, arith
from .arith import DEFAULT_PRIME_LIMIT

# (sign2, sign3) of the sign pair s of a class id
SIGN_PAIRS = tuple(product((1, -1), repeat=2))


@dataclass(frozen=True)
class EulerProductValue:
    """Truncated Euler product with a rigorous truncation bound.

    The omitted factors all lie in (0, 1), so the true value sits in
    [value - tail_bound, value].
    """

    value: float
    tail_bound: float


# The bytes per n up to a prime limit that constants and compare may
# need, against physical memory: the sieve's flags, the primes twice as
# int64, and the float arrays of the Euler products over them.  Measured
# as the peak RSS growth of `constants --prime-limit L` in a fresh
# process: 2.76 bytes per n at L = 1e7 and 2.32 at 1e8.
PRIME_BYTES_PER_N = 3


@lru_cache(maxsize=8)
def _primes_up_to(limit: int) -> np.ndarray:
    """_kernels.primes_up_to(limit), or MemoryError, raised before
    anything is allocated, when the products over the primes to limit
    would need more than the physical memory."""
    arith.refuse_beyond_memory(PRIME_BYTES_PER_N, limit, "the primes")
    return _kernels.primes_up_to(limit)


def _euler_product(a: float, tail: tuple[float, float], prime_limit: int) -> EulerProductValue:
    """prod_{p <= limit} (1 - 1/p)^a (1 + a/p), with the relative tail
    bound tail[0]/P + tail[1]/P^2 at P = prime_limit."""
    if prime_limit < 2:
        raise ValueError("prime_limit must be >= 2")
    x = 1.0 / _primes_up_to(prime_limit)
    value = math.exp(float(np.sum(a * np.log1p(-x) + np.log1p(a * x))))
    tail_log = tail[0] / prime_limit + tail[1] / prime_limit**2
    return EulerProductValue(value=value, tail_bound=value * tail_log)


def euler_product_total(prime_limit: int = DEFAULT_PRIME_LIMIT) -> EulerProductValue:
    """prod_{p <= limit} (1 - 1/p)^3 (1 + 3/p), the all-fields constant.

    Each factor is 1 - 6/p^2 + 8/p^3 - 3/p^4, so |log factor| <= 6/p^2 + 8/p^3
    (checked to hold from p = 3 on); the tail over p > limit is bounded by
    the corresponding integrals, 6/P + 4/P^2.
    """
    return _euler_product(3.0, (6.0, 4.0), prime_limit)


def euler_product_failing(prime_limit: int = DEFAULT_PRIME_LIMIT) -> EulerProductValue:
    """prod_{p <= limit} (1 - 1/p)^(3/2) (1 + 3/(2p)), the failing-fields constant.

    |log factor| <= 2/p^2 + 2/p^3 from p = 3 on (leading term is 15/(8p^2)),
    giving the tail bound 2/P + 1/P^2.
    """
    return _euler_product(1.5, (2.0, 1.0), prime_limit)


def main_term_total(X: float, constant: float | None = None) -> float:
    """(23/960) sqrt(X) (log X)^2 times the all-fields Euler product."""
    if X < 1:
        raise ValueError("X must be >= 1")
    c = euler_product_total().value if constant is None else constant
    return (23.0 / 960.0) * math.sqrt(X) * math.log(X) ** 2 * c


def main_term_failing(X: float, constant: float | None = None) -> float:
    """sqrt(X log X) / (3 sqrt(2 pi)) times the failing-fields Euler product."""
    if X < 1:
        raise ValueError("X must be >= 1")
    c = euler_product_failing().value if constant is None else constant
    return math.sqrt(X * math.log(X)) / (3.0 * math.sqrt(2.0 * math.pi)) * c


def _scales() -> np.ndarray:
    """scale = c 2^[slot > 0] of each class id (its cores are the
    n <= isqrt(X) // scale), reshaped to (4, 4, 64): an id is
    ((s * 4 + slot) << 6) | ecode, with sign pair SIGN_PAIRS[s]."""
    c = _kernels._class_tables()[0]
    slot = _kernels.class_labels()[:, 2]
    return (c * np.where(slot == 0, 1, 2)).reshape(4, 4, 64)


def _block_sums(weights) -> np.ndarray:
    """Sum of weight / scale over the 64 ids of each (sign pair, slot)
    block, exactly: a (4, 4) object array of Fractions.

    weights holds an int per class id, or one int for all.  Each block
    sums integer numerators over the lcm L of all scales (16 on the
    kernel's table), so the sums are exact for any positive c.
    """
    scales = _scales()
    lcm = int(np.lcm.reduce(scales.ravel()))
    weights = np.broadcast_to(weights, (_kernels.CLASS_SPACE,)).reshape(scales.shape)
    numerators = (weights * (lcm // scales)).sum(axis=2)
    return numerators.astype(object) * Fraction(1, lcm)


def total_class_weight() -> Fraction:
    """Sum of 1/(c 2^k) over all classes mod 4, each 8 ids of the table;
    must equal 23 = 14 + 3 + 3 + 3 (by slot) exactly."""
    return _block_sums(1).sum() / 8


def failing_class_weight() -> Fraction:
    """Sum of 1/(c 2^k) over the failure-compatible ids; must equal
    112 = 88 + 8 + 8 + 8 (by slot)."""
    return _block_sums(_kernels._class_tables()[1]).sum()


def signed_failing_class_weights() -> tuple[Fraction, ...]:
    """Sum of u/(c 2^k) over the failure-compatible ids of each sign pair,
    in SIGN_PAIRS order, with u the reciprocity sign of the class table.
    Each cancels to 0 (block by block), and so does their total."""
    _c, ok, u = _kernels._class_tables()
    return tuple(_block_sums(ok * u).sum(axis=1))


@dataclass(frozen=True)
class ConstantCrossCheck:
    """Agreement test between the two closed forms of the failing main term."""

    agrees: bool
    direct: float
    assembled: float
    residual: float  # |direct - assembled| / assembled
    combined_tail: float


def main_term_constant_crosscheck(prime_limit: int) -> ConstantCrossCheck:
    """Compare the two coefficient-times-product forms of the failing constant.

    Direct form:    (1/(3 sqrt(2 pi)))  prod (1-1/p)^(3/2) (1+3/(2p))
    Assembled form: (1/6) * 112 * (6/pi^2) * (1/(56 sqrt(2 pi)))
                    prod (1-1/p)^(1/2) (1+1/(2p+2))

    They are equal: (1+1/p)(1+1/(2p+2)) = 1+3/(2p) and
    prod (1-1/p^2) = 6/pi^2.  At finite truncation they differ by the tail
    of prod (1-1/p^2); agreement is checked against the combined rigorous
    tail bounds.
    """
    failing = euler_product_failing(prime_limit)
    direct = failing.value / (3.0 * math.sqrt(2.0 * math.pi))
    tail_direct = failing.tail_bound / (3.0 * math.sqrt(2.0 * math.pi))
    p = _primes_up_to(prime_limit).astype(np.float64)
    assembled_log = float(np.sum(0.5 * np.log1p(-1.0 / p) + np.log1p(1.0 / (2.0 * p + 2.0))))
    coeff = (1.0 / 6.0) * 112.0 * (6.0 / math.pi**2) / (56.0 * math.sqrt(2.0 * math.pi))
    assembled = coeff * math.exp(assembled_log)
    tail_assembled = assembled * (1.0 / prime_limit + 1.0 / prime_limit**2)
    combined = tail_direct + tail_assembled
    diff = abs(direct - assembled)
    return ConstantCrossCheck(
        agrees=diff <= combined,
        direct=direct,
        assembled=assembled,
        residual=diff / assembled,
        combined_tail=combined,
    )


# Laurent data at s = 1: zeta(1+u) = 1/u + gamma - gamma_1 u + O(u^2),
# with the Stieltjes constants gamma = gamma_0 and gamma_1.
EULER_GAMMA = 0.5772156649015329
STIELTJES_GAMMA1 = -0.0728158454836767


def _series_mul(a: list[float], b: list[float]) -> list[float]:
    """Product of two power series in u, truncated after u^2."""
    return [sum(a[i] * b[n - i] for i in range(n + 1)) for n in range(3)]


def _f0_polynomial(prime_limit: int) -> list[float]:
    """[c0, c1, c2] with F_0(y) = y (c2 L^2 + c1 L + c0) + o(y), L = log y.

    The Dirichlet series of F_0 is zeta(s)^3 G(s) with
    G(s) = prod_p (1 + a_p p^-s) (1 - p^-s)^3, a_p = 3 for odd p, a_2 = 0.
    The main part of F_0(y) is its residue times y^s / s at s = 1 + u:
    y [u^2] of phi(u) e^(uL), phi = (u zeta)^3 G / (1+u), from G's Taylor
    data [G, G', G''/2].  G's log-factors are O(1/p^2), and so are their
    s-derivatives up to powers of log p: the error is O(log^2 P / P).
    """
    primes = _primes_up_to(prime_limit)
    a = np.where(primes == 2, 0.0, 3.0)
    x = 1.0 / primes
    ell = np.log(primes)
    # f(x) = log factor as a function of x = p^-s, and its x-derivatives
    f0 = np.log1p(a * x) + 3 * np.log1p(-x)
    f1 = a / (1 + a * x) - 3 / (1 - x)
    f2 = -((a / (1 + a * x)) ** 2) - 3 / (1 - x) ** 2
    # dx/ds = -x log p
    log_g = float(np.sum(f0))
    d1 = float(np.sum(-ell * x * f1))
    d2 = float(np.sum(ell * ell * (x * x * f2 + x * f1)))
    g = math.exp(log_g)
    phi = _series_mul([g, g * d1, g * (d2 + d1 * d1) / 2.0], [1.0, -1.0, 1.0])
    for _ in range(3):
        phi = _series_mul(phi, [1.0, EULER_GAMMA, -STIELTJES_GAMMA1])
    return [phi[2], phi[1], phi[0] / 2]


def class_moments() -> list[Fraction]:
    """[M0, M1, M2], Mj = sum over the class ids of t^j / (64 2^t), exactly,
    where 2^t is the id's scale.

    The character expansion of a class indicator weighs F_0 by 1/8, and a
    class mod 4 is 8 ids of the table.  M0 is total_class_weight() / 8.
    """
    t = np.frexp(_scales().ravel())[1] - 1  # the bit length of the scale, less 1
    return [_block_sums(t**j).sum() / 64 for j in range(3)]


def degenerate_class_weight() -> Fraction:
    """Sum of 1/(c 2^k) over the degenerate tuple classes; equals 9.

    A degenerate tuple has two equal components +-1 (it names a quadratic
    field, and the enumeration skips it): one component holds the whole
    core m and carries the factor 2, if any, and the other two are units
    of the same sign, with odd parts 1.  Summed over the classes of m mod 8.
    """
    sign2, sign3, slot, *residues = _kernels.class_labels().T
    units = (1, sign2, sign3)
    # per id, the components j that can hold the core, with units i and k
    patterns = sum(
        ((slot == 0) | (slot == j + 1))
        & (residues[i] == 1)
        & (residues[k] == 1)
        & (units[i] == units[k])
        for j, (i, k) in enumerate(((1, 2), (0, 2), (0, 1)))
    )
    # the core m lies in one of the 2 ids of its class mod 4
    return _block_sums(patterns).sum() / 2


@dataclass(frozen=True)
class TotalExpansion:
    """S(X) = sqrt(X) (A log^2 X + B log X + C) + O(X^(1/2 - delta))."""

    A: float
    B: float
    C: float


@lru_cache(maxsize=1)
def expansion_total_coefficients() -> TotalExpansion:
    """The three coefficients of the expansion of S(X), from the classes.

    6 S(X) = (1/64) sum_id F_0(isqrt(X) // scale(id)) - D(X), scale = 2^t.
    The character expansion of a class indicator also weighs F_k by the
    elementary symmetric e_k of its residues mod 4 for k = 1, 2, 3, but
    those weights sum to 0 over the ids of each scale: negating all
    residues, or one of the last two with its component's sign, keeps c
    and the slot, and each monomial of e_k changes sign under one of
    these maps.  With F_0(y) = y P_0(log y)
    and log y = log X / 2 - t log 2, the moments of class_moments() give
    A, B and C.  D(X) = (2/pi^2) sqrt(X) degenerate_class_weight() +
    o(sqrt(X)): odd squarefree m <= y in one class mod 4 number
    (2/pi^2) y.  A equals (23/960) times the all-fields Euler product.
    The Euler data run over the primes to DEFAULT_PRIME_LIMIT.
    """
    log2 = math.log(2.0)
    m0, m1, m2 = (float(m) for m in class_moments())
    c0, c1, c2 = _f0_polynomial(DEFAULT_PRIME_LIMIT)
    a = c2 * m0 / 4.0
    b = c1 * m0 / 2.0 - c2 * log2 * m1
    c = c0 * m0 - c1 * log2 * m1 + c2 * log2 * log2 * m2
    c -= 2.0 / math.pi**2 * float(degenerate_class_weight())
    return TotalExpansion(A=a / 6.0, B=b / 6.0, C=c / 6.0)


def expansion_total(X: float) -> float:
    """sqrt(X) (A log^2 X + B log X + C), the three-term expansion of S(X)."""
    if X < 1:
        raise ValueError("X must be >= 1")
    e = expansion_total_coefficients()
    log_x = math.log(X)
    return math.sqrt(X) * (e.A * log_x**2 + e.B * log_x + e.C)

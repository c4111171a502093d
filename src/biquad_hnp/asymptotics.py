"""Euler-product constants, main terms, and exact class-weight identities.

The two counting asymptotics are

    S(X)      ~ (23/960)  * sqrt(X) * (log X)^2 * C_total
    S~(X)     ~ (1/(3*sqrt(2*pi))) * sqrt(X log X) * C_failing

with C_total = prod_p (1-1/p)^3 (1+3/p) and
C_failing = prod_p (1-1/p)^(3/2) (1+3/(2p)).  The integers 23 and 112 are
exact weighted counts over the finite class decomposition of the
enumeration (sign pair, factor-of-2 slot, odd residues mod 8).  That
decomposition is the kernel's class table (``_kernels._class_tables``:
the weight factor c and failure compatibility of each of its 1024 ids),
and every exact sum here (23, 112, the signed variant that cancels to
zero, the class moments and the degenerate weight) is a rational sum over
that table, so the identities check the classes every count uses.

The all-fields count has the three-term expansion

    S(X) = sqrt(X) (A log^2 X + B log X + C) + O(X^(1/2 - delta)),

A = (23/960) C_total = 0.0027524, B = 0.0513796, C = -0.214858, so that
S/main - 1 is about (B/A) / log X = 18.67 / log X (expansion_total).  B and
C come from the Laurent expansion of zeta(s)^3 times an Euler product at
s = 1 and from exact class moments; see expansion_total_coefficients.
Floating point appears only in the Euler products, the Laurent data and
the main terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product

import numpy as np

from . import _kernels
from .arith import kronecker, reciprocity_exponent

DEFAULT_PRIME_LIMIT = 10_000_000

# factor-of-2 placements: slot 0 = all components odd, slot i = component i even
EVEN_SLOTS = (0, 1, 2, 3)
SIGN_PAIRS = tuple(product((1, -1), repeat=2))


@dataclass(frozen=True)
class EulerProductValue:
    """Truncated Euler product with a rigorous truncation bound.

    The omitted factors all lie in (0, 1), so the true value sits in
    [value - tail_bound, value].
    """

    value: float
    tail_bound: float
    prime_limit: int


_primes_up_to = lru_cache(maxsize=8)(_kernels.primes_up_to)


def euler_product_total(prime_limit: int = DEFAULT_PRIME_LIMIT) -> EulerProductValue:
    """prod_{p <= limit} (1 - 1/p)^3 (1 + 3/p), the all-fields constant.

    Each factor is 1 - 6/p^2 + 8/p^3 - 3/p^4, so |log factor| <= 6/p^2 + 8/p^3
    (checked to hold from p = 3 on); the tail over p > limit is bounded by
    the corresponding integrals, 6/P + 4/P^2.
    """
    if prime_limit < 2:
        raise ValueError("prime_limit must be >= 2")
    x = 1.0 / _primes_up_to(prime_limit)
    log_value = float(np.sum(3.0 * np.log1p(-x) + np.log1p(3.0 * x)))
    value = math.exp(log_value)
    tail_log = 6.0 / prime_limit + 4.0 / prime_limit**2
    return EulerProductValue(value=value, tail_bound=value * tail_log, prime_limit=prime_limit)


def euler_product_failing(prime_limit: int = DEFAULT_PRIME_LIMIT) -> EulerProductValue:
    """prod_{p <= limit} (1 - 1/p)^(3/2) (1 + 3/(2p)), the failing-fields constant.

    |log factor| <= 2/p^2 + 2/p^3 from p = 3 on (leading term is 15/(8p^2)),
    giving the tail bound 2/P + 1/P^2.
    """
    if prime_limit < 2:
        raise ValueError("prime_limit must be >= 2")
    x = 1.0 / _primes_up_to(prime_limit)
    log_value = float(np.sum(1.5 * np.log1p(-x) + np.log1p(1.5 * x)))
    value = math.exp(log_value)
    tail_log = 2.0 / prime_limit + 1.0 / prime_limit**2
    return EulerProductValue(value=value, tail_bound=value * tail_log, prime_limit=prime_limit)


@lru_cache(maxsize=2)
def _default_constant(which: str) -> float:
    if which == "total":
        return euler_product_total().value
    return euler_product_failing().value


def main_term_total(X: float, constant: float | None = None) -> float:
    """(23/960) sqrt(X) (log X)^2 times the all-fields Euler product."""
    if X < 1:
        raise ValueError("X must be >= 1")
    c = _default_constant("total") if constant is None else constant
    return (23.0 / 960.0) * math.sqrt(X) * math.log(X) ** 2 * c


def main_term_failing(X: float, constant: float | None = None) -> float:
    """sqrt(X log X) / (3 sqrt(2 pi)) times the failing-fields Euler product."""
    if X < 1:
        raise ValueError("X must be >= 1")
    c = _default_constant("failing") if constant is None else constant
    return math.sqrt(X * math.log(X)) / (3.0 * math.sqrt(2.0 * math.pi)) * c


def u_factor(
    k1: int, k2: int, k3: int, even_slot: int, sign2: int, sign3: int
) -> int:
    """Reciprocity sign attached to a class: +1 or -1.

    For odd k1, k2, k3 this is
    (-1)^(nu(k1)nu(k2) + nu(k2)nu(k3) + nu(k3)nu(k1)) times the three
    Kronecker symbols (t2 | k2 k3)(t3 | k3 k1)(t4 | k1 k2), where the
    upper entries carry the factor of 2 of the even slot and the signs of
    the last two components.  Depends on the k_i only mod 8.
    """
    for k in (k1, k2, k3):
        if k % 2 == 0:
            raise ValueError(f"u_factor arguments must be odd, got {k}")
    if even_slot not in EVEN_SLOTS:
        raise ValueError("even_slot must be 0..3")
    n1, n2, n3 = (
        reciprocity_exponent(k1),
        reciprocity_exponent(k2),
        reciprocity_exponent(k3),
    )
    sign = -1 if (n1 * n2 + n2 * n3 + n3 * n1) % 2 else 1
    top2 = 2 if even_slot == 1 else 1
    top3 = (2 if even_slot == 2 else 1) * sign2
    top4 = (2 if even_slot == 3 else 1) * sign3
    return (
        sign
        * kronecker(top2, k2 * k3)
        * kronecker(top3, k3 * k1)
        * kronecker(top4, k1 * k2)
    )


def _class_rows():
    """(sign2, sign3, slot, residues, scale, ok) for every id of the kernel's
    class table.

    residues are the odd parts of the three components mod 8, ok is the
    kernel's failure compatibility, and scale = c 2^[slot > 0] bounds the
    class's cores: it admits n <= isqrt(X) / scale.
    """
    c_table, ok_table = _kernels._class_tables()
    labels = _kernels.class_labels()
    scales = c_table * np.where(labels[:, 2] == 0, 1, 2)
    for cid in range(_kernels.CLASS_SPACE):
        sign2, sign3, slot, *residues = labels[cid].tolist()
        yield sign2, sign3, slot, residues, int(scales[cid]), bool(ok_table[cid])


def _class_weight(
    even_slots: tuple[int, ...] = EVEN_SLOTS,
    sign_pairs: tuple[tuple[int, int], ...] = SIGN_PAIRS,
    failing: bool = False,
    signed: bool = False,
) -> Fraction:
    """Sum of 1/scale over the classes of the given slots and sign pairs.

    With failing false the sum runs over the classes mod 4, each of which
    holds 8 ids of the mod-8 table.  With failing true it runs over the
    failure-compatible ids, and signed weights each by its u_factor.
    """
    total = Fraction(0)
    for sign2, sign3, slot, residues, scale, ok in _class_rows():
        if slot not in even_slots or (sign2, sign3) not in sign_pairs:
            continue
        if not failing:
            total += Fraction(1, 8 * scale)
        elif ok:
            total += Fraction(u_factor(*residues, slot, sign2, sign3) if signed else 1, scale)
    return total


def total_class_weight() -> int:
    """Sum of 1/(c 2^k) over all classes; must equal 23 exactly."""
    value = _class_weight()
    if value.denominator != 1:
        raise AssertionError(f"class weight sum is not an integer: {value}")
    return int(value)


def failing_class_weight() -> int:
    """Sum of 1/(c 2^k) over failure-compatible classes; must equal 112."""
    value = _class_weight(failing=True)
    if value.denominator != 1:
        raise AssertionError(f"class weight sum is not an integer: {value}")
    return int(value)


def signed_failing_class_weight(
    sign_pairs: tuple[tuple[int, int], ...] = SIGN_PAIRS,
) -> Fraction:
    """u-weighted version of failing_class_weight; cancels to 0 exactly.

    Restricting sign_pairs to a single pair still gives 0: the
    cancellation happens block by block.
    """
    return _class_weight(sign_pairs=sign_pairs, failing=True, signed=True)


@dataclass(frozen=True)
class ConstantCrossCheck:
    """Agreement test between the two closed forms of the failing main term."""

    agrees: bool
    direct: float
    assembled: float
    residual: float  # |direct - assembled| / assembled
    combined_tail: float
    prime_limit: int


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
        prime_limit=prime_limit,
    )


# Laurent and Taylor data at s = 1:
#   zeta(1+u)      = 1/u + gamma - gamma_1 u + O(u^2)   (Stieltjes constants)
#   L(1+u, chi_4)  = pi/4 + L'(1, chi_4) u + O(u^2)
# L'(1, chi_4) in closed form, from the Kronecker limit formula for Q(i).
EULER_GAMMA = 0.5772156649015329
STIELTJES_GAMMA1 = -0.0728158454836767
L1_CHI4 = math.pi / 4.0
L1_CHI4_DERIVATIVE = L1_CHI4 * (
    EULER_GAMMA + 2.0 * math.log(2.0) + 3.0 * math.log(math.pi) - 4.0 * math.lgamma(0.25)
)


def _series_mul(a: list[float], b: list[float]) -> list[float]:
    """Product of two power series in u, truncated after u^2."""
    return [sum(a[i] * b[n - i] for i in range(n + 1)) for n in range(3)]


def _euler_series(k: int, prime_limit: int) -> list[float]:
    """Taylor coefficients [G, G', G''/2] at s = 1 of the Euler product G_k.

    G_k(s) = prod_p (1 + a_p p^-s) (1 - p^-s)^(3-k) (1 - chi_4(p) p^-s)^k
    with a_p = (3-k) + k chi_4(p) for odd p and a_2 = 0, so that
    zeta(s)^(3-k) L(s, chi_4)^k G_k(s) is the Dirichlet series of F_k.
    Each log-factor is O(1/p^2), and so are its s-derivatives up to
    powers of log p: the truncation error is O(log^2 P / P).
    """
    primes = _primes_up_to(prime_limit)
    chi = np.where(primes % 4 == 1, 1.0, -1.0)
    chi[primes == 2] = 0.0
    a = (3 - k) + k * chi
    a[primes == 2] = 0.0
    x = 1.0 / primes
    ell = np.log(primes)
    # f(x) = log factor as a function of x = p^-s, and its x-derivatives
    f0 = np.log1p(a * x) + (3 - k) * np.log1p(-x) + k * np.log1p(-chi * x)
    f1 = a / (1 + a * x) - (3 - k) / (1 - x) - k * chi / (1 - chi * x)
    f2 = -((a / (1 + a * x)) ** 2) - (3 - k) / (1 - x) ** 2 - k * (chi / (1 - chi * x)) ** 2
    # dx/ds = -x log p
    log_g = float(np.sum(f0))
    d1 = float(np.sum(-ell * x * f1))
    d2 = float(np.sum(ell * ell * (x * x * f2 + x * f1)))
    g = math.exp(log_g)
    return [g, g * d1, g * (d2 + d1 * d1) / 2.0]


def _f_k_polynomial(k: int, prime_limit: int) -> list[float]:
    """[c0, c1, c2] with F_k(y) = y (c2 L^2 + c1 L + c0) + o(y), L = log y.

    F_k(y) sums prod_{p | n} ((3-k) + k chi_4(p)) over odd squarefree
    n <= y.  Its Dirichlet series has a pole of order 3-k at s = 1, and
    the main part of F_k(y) is the residue there of the series times
    y^s / s.  Writing s = 1 + u, that residue is y [u^(2-k)] of
    phi(u) e^(uL) with phi = (u zeta)^(3-k) L(., chi_4)^k G_k / (1+u).
    F_3 has no pole and contributes nothing at this order.
    """
    order = 3 - k
    if order <= 0:
        return [0.0, 0.0, 0.0]
    phi = _series_mul(_euler_series(k, prime_limit), [1.0, -1.0, 1.0])
    for _ in range(order):
        phi = _series_mul(phi, [1.0, EULER_GAMMA, -STIELTJES_GAMMA1])
    for _ in range(k):
        phi = _series_mul(phi, [L1_CHI4, L1_CHI4_DERIVATIVE, 0.0])
    m = order - 1
    out = [0.0, 0.0, 0.0]
    for i in range(m + 1):
        out[m - i] = phi[i] / math.factorial(m - i)
    return out


def class_moments() -> list[list[Fraction]]:
    """M[k][j] = sum over classes of e_k(eps) t^j / (8 2^t), exactly.

    e_k is the k-th elementary symmetric polynomial of the residues eps:
    the character expansion of the class indicator
    prod_i (1 + eps_i chi_4(m_i)) / 2 weights F_k by e_k / 8.  M[0][0] is
    total_class_weight() / 8, and M[k] = 0 for every k >= 1: c depends only
    on which signed residues agree, so it is unchanged by negating all of
    eps, or eps_i together with the sign of component i (i = 2, 3), while
    each monomial of e_k changes sign under one of these maps.
    """
    moments = [[Fraction(0)] * 3 for _ in range(4)]
    for _s2, _s3, _slot, residues, scale, _ok in _class_rows():
        e1, e2, e3 = (1 if r % 4 == 1 else -1 for r in residues)
        t = scale.bit_length() - 1
        sym = (1, e1 + e2 + e3, e1 * e2 + e1 * e3 + e2 * e3, e1 * e2 * e3)
        for k in range(4):
            for j in range(3):
                # a class mod 4 is 8 ids of the table: 1/(8 2^t) / 8
                moments[k][j] += Fraction(sym[k] * t**j, 64 * scale)
    return moments


def degenerate_class_weight() -> Fraction:
    """Sum of 1/(c 2^k) over the degenerate tuple classes; equals 9.

    A degenerate tuple has two equal components +-1 (it names a quadratic
    field, and the enumeration skips it): one component holds the whole
    core m and carries the factor 2, if any, and the other two are units
    of the same sign, with odd parts 1.  Summed over the classes of m mod 8.
    """
    total = Fraction(0)
    for sign2, sign3, slot, residues, scale, _ok in _class_rows():
        units = (1, sign2, sign3)
        for j in range(3):
            i, k = [x for x in range(3) if x != j]
            if slot in (0, j + 1) and residues[i] == residues[k] == 1 and units[i] == units[k]:
                # the core m lies in one of the 2 ids of its class mod 4
                total += Fraction(1, 2 * scale)
    return total


@dataclass(frozen=True)
class TotalExpansion:
    """S(X) = sqrt(X) (A log^2 X + B log X + C) + O(X^(1/2 - delta))."""

    A: float
    B: float
    C: float
    prime_limit: int


@lru_cache(maxsize=4)
def expansion_total_coefficients(prime_limit: int = DEFAULT_PRIME_LIMIT) -> TotalExpansion:
    """The three coefficients of the expansion of S(X), from the classes.

    6 S(X) = sum over classes of (1/8) sum_T eps_T F_|T|(isqrt(X) / 2^t)
    minus the degenerate tuples, with T running over subsets of the three
    components.  Substituting F_k(y) = y P_k(log y) with
    log y = log X / 2 - t log 2 and collecting powers of log X gives A, B
    and C through the exact moments of class_moments().  The degenerate
    tuples are (2/pi^2) sqrt(X) degenerate_class_weight() + o(sqrt(X)),
    since odd squarefree m <= y in one class mod 4 number (2/pi^2) y.
    A equals (23/960) times the all-fields Euler product.
    """
    if prime_limit < 2:
        raise ValueError("prime_limit must be >= 2")
    log2 = math.log(2.0)
    a = b = c = 0.0
    for k, row in enumerate(class_moments()):
        if not any(row):
            continue  # every k >= 1: the chi_4 terms cancel over the classes
        m0, m1, m2 = (float(m) for m in row)
        c0, c1, c2 = _f_k_polynomial(k, prime_limit)
        a += c2 * m0 / 4.0
        b += c1 * m0 / 2.0 - c2 * log2 * m1
        c += c0 * m0 - c1 * log2 * m1 + c2 * log2 * log2 * m2
    c -= 2.0 / math.pi**2 * float(degenerate_class_weight())
    return TotalExpansion(A=a / 6.0, B=b / 6.0, C=c / 6.0, prime_limit=prime_limit)


def expansion_total(X: float) -> float:
    """sqrt(X) (A log^2 X + B log X + C), the three-term expansion of S(X)."""
    if X < 1:
        raise ValueError("X must be >= 1")
    e = expansion_total_coefficients()
    log_x = math.log(X)
    return math.sqrt(X) * (e.A * log_x**2 + e.B * log_x + e.C)

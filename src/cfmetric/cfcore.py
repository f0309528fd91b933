"""Exact continued-fraction arithmetic.

Digit words, convergents, cylinder intervals and the Gauss measure, all in
exact integer / rational arithmetic.  Floating point only appears in the
log-magnitude shadows used by the pressure engine.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Sequence, Union

LOG2 = math.log(2.0)

# A double carries 53 mantissa bits; each continued-fraction digit of a
# generic point consumes ~2.4 of them (Levy growth of q_n), so digits past
# this depth are not pinned down by the input float.
FLOAT_RELIABLE_DEPTH = int(53 / 2.4)  # 22

RationalLike = Union[int, Fraction]


def ln_big(n: int) -> float:
    """Natural log of a positive integer, safe far beyond float range."""
    if n <= 0:
        raise ValueError("ln_big requires a positive integer")
    shift = n.bit_length() - 53
    if shift <= 0:
        return math.log(n)
    return math.log(n >> shift) + shift * LOG2


def ln_fraction(x: Fraction) -> float:
    if x <= 0:
        raise ValueError("ln_fraction requires a positive rational")
    return ln_big(x.numerator) - ln_big(x.denominator)


class DomainError(ValueError):
    """Raised when an operation is called outside its stated domain."""


@dataclass(frozen=True)
class DigitWord:
    """A finite block of partial quotients a_1..a_n (all >= 1).

    The empty word stands for the whole interval [0, 1).  Any integral digit
    is accepted (numpy's included) and stored as a Python int, so that the
    continuants never overflow a fixed width.
    """

    digits: tuple[int, ...]

    def __post_init__(self):
        for a in self.digits:
            if not isinstance(a, numbers.Integral) or isinstance(a, bool) or a < 1:
                raise DomainError(f"digit {a!r} is not a positive integer")
        object.__setattr__(self, "digits", tuple(map(int, self.digits)))

    def __len__(self) -> int:
        return len(self.digits)

    def __iter__(self) -> Iterator[int]:
        return iter(self.digits)

    def __getitem__(self, k: int) -> int:
        return self.digits[k]

    def concat(self, other: "DigitWord") -> "DigitWord":
        return DigitWord(self.digits + other.digits)

    def drop(self, k: int) -> "DigitWord":
        """Word with the k-th digit removed (1-based)."""
        if not 1 <= k <= len(self.digits):
            raise DomainError(f"index {k} out of range 1..{len(self.digits)}")
        return DigitWord(self.digits[: k - 1] + self.digits[k:])

    def evaluate(self) -> Fraction:
        """Exact value of the finite continued fraction [a_1, ..., a_n]."""
        _, _, p, q = continuant_tail(self.digits)
        return Fraction(p, q)


def word(*digits: int) -> DigitWord:
    return DigitWord(tuple(digits))


@dataclass(frozen=True)
class ConvergentPair:
    """Exact numerator/denominator p_k, q_k with a float shadow of ln(q_k)."""

    p: int
    q: int
    log_q: float

    @classmethod
    def from_pq(cls, p: int, q: int) -> "ConvergentPair":
        return cls(p, q, ln_big(q))

    def value(self) -> Fraction:
        return Fraction(self.p, self.q)


def _continuants(word: Iterable[int]) -> Iterator[tuple[int, int, int, int]]:
    """(p_{k-1}, q_{k-1}, p_k, q_k) for k = 1..n by p_k = a_k p_{k-1} + p_{k-2},
    from the seeds p_{-1} = 1, q_{-1} = 0, p_0 = 0, q_0 = 1."""
    p_prev, q_prev, p, q = 1, 0, 0, 1
    for a in word:
        p_prev, q_prev, p, q = p, q, a * p + p_prev, a * q + q_prev
        yield p_prev, q_prev, p, q


def continuant_tail(word: DigitWord | Sequence[int]) -> tuple[int, int, int, int]:
    """(p_{n-1}, q_{n-1}, p_n, q_n) for the word; the seeds (1, 0, 0, 1) if empty."""
    tail = (1, 0, 0, 1)
    for tail in _continuants(word):
        pass
    return tail


def convergents(w: DigitWord) -> list[ConvergentPair]:
    """All convergents (p_k, q_k), k = 1..n, via the standard recursion."""
    return [ConvergentPair.from_pq(p, q) for _, _, p, q in _continuants(w)]


def denominator(w: DigitWord | Sequence[int]) -> int:
    return continuant_tail(w)[3]


def expand_rational(p: int, q: int) -> DigitWord:
    """Continued fraction of p/q in [0, 1) by the Euclidean algorithm.

    The result is canonical: for nonzero p/q the final digit is >= 2, so
    evaluate(expand_rational(p, q)) == p/q round-trips exactly.
    """
    if q <= 0:
        raise DomainError("denominator must be >= 1")
    if not 0 <= p < q:
        raise DomainError(f"{p}/{q} is not in [0, 1)")
    digits: list[int] = []
    while p:
        a, rem = divmod(q, p)
        digits.append(a)
        p, q = rem, p
    return DigitWord(tuple(digits))


class Expansion(NamedTuple):
    word: DigitWord
    truncated: bool
    reliable_depth: int


def expand_real(x: Union[float, Fraction], depth: int) -> Expansion:
    """First `depth` digits of x in [0, 1).

    Floats are expanded exactly as the binary rationals they are, but the
    output is capped at FLOAT_RELIABLE_DEPTH: past that point the digits of
    the float no longer say anything about the underlying real, and the
    `truncated` flag is set instead of emitting garbage.  Fraction inputs are
    expanded exactly to any depth.
    """
    if depth < 0:
        raise DomainError("depth must be >= 0")
    if isinstance(x, Fraction):
        exact = expand_rational(x.numerator, x.denominator)
        if len(exact) > depth:
            return Expansion(DigitWord(exact.digits[:depth]), True, depth)
        return Expansion(exact, False, depth)
    if not 0.0 <= x < 1.0:
        raise DomainError(f"{x} is not in [0, 1)")
    frac = Fraction(x)
    exact = expand_rational(frac.numerator, frac.denominator)
    horizon = min(depth, FLOAT_RELIABLE_DEPTH)
    if len(exact) <= horizon:
        return Expansion(exact, False, FLOAT_RELIABLE_DEPTH)
    return Expansion(DigitWord(exact.digits[:horizon]), True, FLOAT_RELIABLE_DEPTH)


def evaluate(w: DigitWord) -> Fraction:
    return w.evaluate()


@dataclass(frozen=True)
class Cylinder:
    """The interval of points whose expansion starts with `word`."""

    word: DigitWord
    left: Fraction
    right: Fraction
    closed_left: bool
    closed_right: bool

    @property
    def length(self) -> Fraction:
        return self.right - self.left

    def contains(self, x: RationalLike) -> bool:
        if x < self.left or x > self.right:
            return False
        if x == self.left:
            return self.closed_left
        if x == self.right:
            return self.closed_right
        return True

    def overlaps(self, other: "Cylinder") -> bool:
        lo = max(self.left, other.left)
        hi = min(self.right, other.right)
        if lo > hi:
            return False
        if lo < hi:
            return True
        # single shared point: both must include it
        a = self.closed_left if lo == self.left else self.closed_right
        b = other.closed_left if lo == other.left else other.closed_right
        return a and b


def cylinder(w: DigitWord) -> Cylinder:
    """Exact cylinder interval for a nonempty word.

    Endpoints are p_n/q_n and (p_n + p_{n-1})/(q_n + q_{n-1}); for even n the
    convergent itself is the closed left endpoint, for odd n it is the closed
    right endpoint.  The length is exactly 1/(q_n (q_n + q_{n-1})).
    """
    n = len(w)
    if n == 0:
        raise DomainError("cylinder needs a word of length >= 1")
    p_prev, q_prev, p, q = continuant_tail(w)
    end_a = Fraction(p, q)
    end_b = Fraction(p + p_prev, q + q_prev)
    if n % 2 == 0:
        return Cylinder(w, end_a, end_b, True, False)
    return Cylinder(w, end_b, end_a, False, True)


class RatioBounds(NamedTuple):
    ratio: Fraction
    lower: Fraction
    upper: Fraction


def remove_digit_ratio(w: DigitWord, k: int) -> RatioBounds:
    """q_n(word) / q_{n-1}(word without digit k), with its proven bracket.

    The ratio lies in [(a_k + 1)/2, a_k + 1].  The upper endpoint is attained
    exactly when the digit next to position k is 1 and the surviving side
    collapses (e.g. word (3, 1) with k = 1 gives ratio 4), so the bound is
    closed here.
    """
    if not 1 <= k <= len(w):
        raise DomainError(f"index {k} out of range 1..{len(w)}")
    q_full = denominator(w)
    q_drop = denominator(w.drop(k))
    ratio = Fraction(q_full, q_drop)
    a_k = w[k - 1]
    lower = Fraction(a_k + 1, 2)
    upper = Fraction(a_k + 1)
    if not (lower <= ratio <= upper):
        raise RuntimeError(
            f"removed-digit ratio {ratio} escaped [{lower}, {upper}] for {w}, k={k}"
        )
    return RatioBounds(ratio, lower, upper)


def gauss_measure(a: RationalLike | float, b: RationalLike | float) -> float:
    """Gauss measure of [a, b]: (ln(1+b) - ln(1+a)) / ln 2.

    Computed as log1p((b-a)/(1+a)) so that exact rational endpoints of a deep
    cylinder keep full relative accuracy instead of cancelling.  A nonempty
    interval whose measure falls below the normal float range (a cylinder
    deeper than about 300 digits) raises DomainError; ln_gauss_measure gives
    its logarithm instead.
    """
    if not (0 <= a <= b <= 1):
        raise DomainError(f"[{a}, {b}] is not a subinterval of [0, 1]")
    if isinstance(a, float) or isinstance(b, float):
        delta = (float(b) - float(a)) / (1.0 + float(a))
    else:
        delta = float(Fraction(b - a) / (1 + Fraction(a)))
    measure = math.log1p(delta) / LOG2
    if b > a and measure < sys.float_info.min:
        raise DomainError(
            "Gauss measure underflows a float (below 2.2e-308); use ln_gauss_measure"
        )
    return measure


def ln_gauss_measure(a: RationalLike | float, b: RationalLike | float) -> float:
    """Natural log of the Gauss measure of [a, b], at any cylinder depth.

    ln(ln(1 + delta) / ln 2) with delta = (b-a)/(1+a) taken exactly from the
    rational endpoints (floats are read as the binary rationals they are), so
    it stays finite where gauss_measure underflows.  An empty interval gives
    -inf.
    """
    if not (0 <= a <= b <= 1):
        raise DomainError(f"[{a}, {b}] is not a subinterval of [0, 1]")
    a, b = Fraction(a), Fraction(b)
    if a == b:
        return -math.inf
    delta = (b - a) / (1 + a)
    # ln ln(1+d) = ln d + ln(log1p(d)/d); the correction is about -d/2 and
    # is 0 once d underflows
    d = float(delta)
    correction = math.log(math.log1p(d) / d) if d > 0.0 else 0.0
    return ln_fraction(delta) + correction - math.log(LOG2)


def lebesgue_measure(a: RationalLike | float, b: RationalLike | float) -> float:
    if not (0 <= a <= b <= 1):
        raise DomainError(f"[{a}, {b}] is not a subinterval of [0, 1]")
    return float(b - a)


def gauss_digit_law(k: int) -> float:
    """Gauss-Kuzmin probability of a single digit equal to k."""
    if k < 1:
        raise DomainError("digit must be >= 1")
    return math.log2(1.0 + 1.0 / (k * (k + 2)))


def gauss_digit_tail(t: float) -> float:
    """Gauss measure of {a_1 >= t}, i.e. of (0, 1/ceil(t)].

    t = inf (the value of a threshold that overflows) gives 0.0: no digit
    reaches it."""
    if t != t:
        raise DomainError("threshold t is nan")
    if t < 1:
        raise DomainError("threshold must be >= 1")
    if t == math.inf:
        return 0.0
    return math.log2(1.0 + 1.0 / math.ceil(t))

"""Exact continued-fraction arithmetic.

Digit words, convergents and cylinder intervals in exact integer / rational
arithmetic.  The results that are floats are computed from exact inputs: the
Gauss measure of an interval and its logarithm, the Gauss-Kuzmin digit law
and tail, and the logarithms ln_big, ln_fraction and ConvergentPair.log_q of
big integers and rationals.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Union

LOG2 = math.log(2.0)

RationalLike = Union[int, Fraction]


def ln_big(n: int) -> float:
    """Natural log of a positive integer, safe far beyond float range."""
    n = _require_int("n", n, 1)
    shift = n.bit_length() - 53
    if shift <= 0:
        return math.log(n)
    return math.log(n >> shift) + shift * LOG2


def ln_fraction(x: Fraction) -> float:
    """Natural log of a positive rational: a Fraction or an integer, not a bool."""
    if not isinstance(x, numbers.Rational) or isinstance(x, bool) or x <= 0:
        raise DomainError(f"x must be a positive rational, got {x!r}")
    return ln_big(x.numerator) - ln_big(x.denominator)


class DomainError(ValueError):
    """Raised when an operation is called outside its stated domain."""


def _require_int(name: str, value, least: int | None = None, most: int | None = None) -> int:
    """value as an int, or a DomainError that names the limit unless it is an
    integer (a bool is not) with least <= value <= most.  A `most` needs a
    `least`."""
    # type() is int first: the abstract-class check costs a dimension query
    # about 1 us per call
    if ((type(value) is int or isinstance(value, numbers.Integral) and not isinstance(value, bool))
            and (least is None or value >= least) and (most is None or value <= most)):
        return int(value)
    if most is not None:
        limit = f" in [{least}, {most}]"
    elif least is not None:
        limit = f" >= {least}"
    else:
        limit = ""
    raise DomainError(f"{name} must be an integer{limit}, got {value!r}")


def _is_real(value) -> bool:
    """Whether value is a real number; a bool is not."""
    # isinstance of float first: it covers numpy's float64 at a fraction of
    # the abstract-class check's cost
    return isinstance(value, float) or (isinstance(value, numbers.Real) and not isinstance(value, bool))


def _require_real(name: str, value) -> None:
    """A DomainError that names value unless it is a real number: an int, a
    float, a Fraction or a numpy number, not a bool or a string."""
    if not _is_real(value):
        raise DomainError(f"{name} must be a real number, got {value!r}")


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
    evaluate(expand_rational(p, q)) == p/q round-trips exactly.  p and q are
    integers (a bool is not).
    """
    p = _require_int("p", p)
    q = _require_int("q", q, 1)
    if not 0 <= p < q:
        raise DomainError(f"{p}/{q} is not in [0, 1)")
    digits: list[int] = []
    while p:
        a, rem = divmod(q, p)
        digits.append(a)
        p, q = rem, p
    return DigitWord(tuple(digits))


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


def gauss_measure(a: RationalLike | float, b: RationalLike | float) -> float:
    """Gauss measure of [a, b]: (ln(1+b) - ln(1+a)) / ln 2.

    Computed as log1p((b-a)/(1+a)) so that exact rational endpoints of a deep
    cylinder keep full relative accuracy instead of cancelling.  A nonempty
    interval whose measure falls below the normal float range (a cylinder
    deeper than about 300 digits) raises DomainError; ln_gauss_measure gives
    its logarithm instead.  a and b are real numbers, not bools.
    """
    _require_real("a", a)
    _require_real("b", b)
    if not (0 <= a <= b <= 1):
        raise DomainError(f"[{a}, {b}] is not a subinterval of [0, 1]")
    if not (isinstance(a, numbers.Rational) and isinstance(b, numbers.Rational)):
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
    -inf.  a and b are real numbers, not bools.
    """
    _require_real("a", a)
    _require_real("b", b)
    if not (0 <= a <= b <= 1):
        raise DomainError(f"[{a}, {b}] is not a subinterval of [0, 1]")
    # a float that is not a Python float (numpy's float32) goes through float
    a, b = (Fraction(x if isinstance(x, (numbers.Rational, float)) else float(x)) for x in (a, b))
    if a == b:
        return -math.inf
    delta = (b - a) / (1 + a)
    # ln ln(1+d) = ln d + ln(log1p(d)/d); the correction is about -d/2 and
    # is 0 once d underflows
    d = float(delta)
    correction = math.log(math.log1p(d) / d) if d > 0.0 else 0.0
    return ln_fraction(delta) + correction - math.log(LOG2)


def gauss_digit_law(k: int) -> float:
    """Gauss-Kuzmin probability of a single digit equal to k.

    log1p of the integer quotient 1/(k(k+2)), which true division rounds
    once without converting k to a float, so the law keeps its relative
    accuracy for any k (it is 0.0 only once it underflows)."""
    k = _require_int("k", k, 1)
    return math.log1p(1 / (k * (k + 2))) / LOG2


def gauss_digit_tail(t: float) -> float:
    """Gauss measure of {a_1 >= t}, i.e. of (0, 1/ceil(t)].

    t = inf (the value of a threshold that overflows) gives 0.0: no digit
    reaches it.  Otherwise it is log1p of the integer quotient 1/ceil(t),
    rounded once without converting ceil(t) to a float, so an integer t past
    float range gives 0.0 and a large one keeps full relative accuracy.  t is
    a real number, not a bool."""
    _require_real("t", t)
    if t != t:
        raise DomainError("threshold t is nan")
    if t < 1:
        raise DomainError("threshold must be >= 1")
    if t == math.inf:
        return 0.0
    return math.log1p(1 / math.ceil(t)) / LOG2

import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cfmetric
from cfmetric.cfcore import (
    DigitWord,
    DomainError,
    ConvergentPair,
    convergents,
    cylinder,
    denominator,
    expand_rational,
    evaluate,
    gauss_digit_law,
    gauss_digit_tail,
    gauss_measure,
    ln_big,
    ln_fraction,
    ln_gauss_measure,
    word,
)
from cfmetric.sampler import _window_state_bounds


def _ref_evaluate(digits):
    """[a_1, ..., a_n] by the reverse fold 1/(a + value), the test-only
    reference for the continuant recursion."""
    value = Fraction(0)
    for a in reversed(digits):
        value = Fraction(1, 1) / (a + value)
    return value


# words of up to 30 digits, small or up to 10^12, possibly empty
_digit_lists = st.lists(
    st.one_of(st.integers(1, 4), st.integers(1, 10**12)), max_size=30
)


def random_word(rng, max_len=12, max_digit=10):
    n = rng.randint(1, max_len)
    return DigitWord(tuple(rng.randint(1, max_digit) for _ in range(n)))


class TestExpandRational:
    @pytest.mark.parametrize(
        "p,q,digits",
        [(1, 2, (2,)), (3, 4, (1, 3)), (2, 5, (2, 2)), (0, 1, ()), (2, 4, (2,)),
         (np.int64(3), np.int64(4), (1, 3))],
    )
    def test_examples(self, p, q, digits):
        assert expand_rational(p, q).digits == digits

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            expand_rational(1, 0)
        with pytest.raises(DomainError):
            expand_rational(5, 5)
        with pytest.raises(DomainError):
            expand_rational(7, 5)

    @pytest.mark.parametrize("p, q, message", [
        (True, 3, "p must be an integer, got True"),
        (0.5, 1, "p must be an integer, got 0.5"),
        (1, 2.0, "q must be an integer >= 1, got 2.0"),
        (0, False, "q must be an integer >= 1, got False"),
        (1, 0, "q must be an integer >= 1, got 0"),
    ])
    def test_integer_arguments(self, p, q, message):
        # a bool or a float used to pass: True/3 gave (3,), and 0.5/1 failed
        # inside the loop on the digit 2.0
        with pytest.raises(DomainError, match=message):
            expand_rational(p, q)

    def test_round_trip_both_ways(self):
        rng = random.Random(704)
        for _ in range(500):
            q = rng.randint(2, 10**6)
            p = rng.randint(0, q - 1)
            w = expand_rational(p, q)
            assert evaluate(w) == Fraction(p, q)
            if len(w) >= 1:
                assert w.digits[-1] >= 2  # canonical form
            # canonical words round-trip through evaluate
            v = evaluate(w)
            assert expand_rational(v.numerator, v.denominator) == w


class TestAgainstReverseFold:
    @settings(max_examples=200, deadline=None)
    @given(digits=_digit_lists, end_in_one=st.booleans())
    def test_evaluate_and_convergents(self, digits, end_in_one):
        digits = digits + [1] * end_in_one
        w = DigitWord(tuple(digits))
        assert evaluate(w) == _ref_evaluate(digits)
        conv = convergents(w)
        assert len(conv) == len(digits)
        for k, c in enumerate(conv, 1):
            assert Fraction(c.p, c.q) == _ref_evaluate(digits[:k])

    @settings(max_examples=200, deadline=None)
    @given(rev=_digit_lists, end_in_one=st.booleans())
    def test_window_state_bounds(self, rev, end_in_one):
        rev = rev + [1] * end_in_one
        if rev:
            beta = _ref_evaluate(rev[:-1] + [rev[-1] + 1])
            gamma = _ref_evaluate(rev)
        else:
            beta, gamma = Fraction(1), Fraction(0)  # the Gauss start
        assert _window_state_bounds(rev, True) == (beta, beta, gamma, gamma)
        # the w most recent digits enclose both ends of the full history's state
        for w in range(len(rev)):
            blo, bhi, glo, ghi = _window_state_bounds(rev[:w], False)
            assert blo <= beta <= bhi and glo <= gamma <= ghi


class TestDigitWord:
    def test_numpy_digits_are_stored_as_ints(self):
        w = word(np.int64(2**62), np.int64(2**62))
        assert all(type(a) is int for a in w.digits)
        # int64 continuants would overflow: q_2 = 2^124 + 1
        assert w.evaluate() == Fraction(2**62, 2**124 + 1)
        assert w == word(2**62, 2**62)

    @pytest.mark.parametrize("bad", [True, False, 0, -3, np.int64(0), 2.0, "1"])
    def test_refused(self, bad):
        with pytest.raises(DomainError, match="not a positive integer"):
            word(1, bad)


class TestConvergents:
    def test_fibonacci(self):
        qs = [c.q for c in convergents(word(1, 1, 1, 1, 1))]
        assert qs == [1, 2, 3, 5, 8]

    def test_two_two(self):
        c = convergents(word(2, 2))[-1]
        assert (c.p, c.q) == (2, 5)

    def test_value_matches_evaluate(self):
        rng = random.Random(5)
        for _ in range(300):
            w = random_word(rng)
            c = convergents(w)[-1]
            assert Fraction(c.p, c.q) == evaluate(w)
            assert math.gcd(c.p, c.q) == 1

    def test_quasi_multiplicativity(self):
        # q(a) q(b) <= q(ab) <= 2 q(a) q(b), 10^4 random pairs
        rng = random.Random(20230817)
        for _ in range(10_000):
            a = random_word(rng, max_len=8)
            b = random_word(rng, max_len=8)
            qa, qb = denominator(a), denominator(b)
            qab = denominator(DigitWord(a.digits + b.digits))
            assert qa * qb <= qab <= 2 * qa * qb

    def test_denominator_growth(self):
        rng = random.Random(99)
        for _ in range(200):
            w = random_word(rng)
            cs = convergents(w)
            for n, c in enumerate(cs, start=1):
                assert c.q**2 >= 2 ** (n - 1)
            for prev, nxt in zip(cs, cs[1:]):
                assert nxt.q >= prev.q

    def test_log_shadow(self):
        w = word(*([1] * 400))
        c = convergents(w)[-1]
        # q_400 is a Fibonacci number far beyond float range
        assert c.q.bit_length() > 250
        assert abs(c.log_q - ln_big(c.q)) == 0.0
        approx = 400 * math.log((1 + math.sqrt(5)) / 2)
        assert abs(c.log_q - approx) < 1.0


class TestCylinder:
    def test_one_one(self):
        c = cylinder(word(1, 1))
        assert (c.left, c.right) == (Fraction(1, 2), Fraction(2, 3))
        assert (c.closed_left, c.closed_right) == (True, False)
        assert c.length == Fraction(1, 6)
        assert Fraction(1, 8) <= c.length <= Fraction(1, 4)

    @pytest.mark.parametrize("a", [1, 2, 3, 7, 50])
    def test_single_digit(self, a):
        c = cylinder(word(a))
        assert (c.left, c.right) == (Fraction(1, a + 1), Fraction(1, a))
        assert (c.closed_left, c.closed_right) == (False, True)

    def test_two_three(self):
        # recomputed by hand: (p1,q1)=(1,2), (p2,q2)=(3,7) -> [3/7, 4/9)
        c = cylinder(word(2, 3))
        assert (c.left, c.right) == (Fraction(3, 7), Fraction(4, 9))
        assert c.closed_left and not c.closed_right

    def test_length_law_and_sandwich(self):
        rng = random.Random(12)
        for _ in range(2000):
            w = random_word(rng, max_len=12, max_digit=10)
            c = cylinder(w)
            p_prev_q = convergents(w)
            q = p_prev_q[-1].q
            q_prev = p_prev_q[-2].q if len(w) > 1 else 1
            assert c.length == Fraction(1, q * (q + q_prev))
            assert Fraction(1, 2 * q * q) <= c.length <= Fraction(1, q * q)

    def test_same_depth_disjoint(self):
        rng = random.Random(13)
        shared = 0
        for _ in range(500):
            n = rng.randint(1, 6)
            w1 = DigitWord(tuple(rng.randint(1, 6) for _ in range(n)))
            w2 = DigitWord(tuple(rng.randint(1, 6) for _ in range(n)))
            if w1 == w2:
                continue
            c1, c2 = sorted((cylinder(w1), cylinder(w2)), key=lambda c: c.left)
            assert c1.right <= c2.left
            if c1.right == c2.left:
                # a shared endpoint belongs to at most one of them
                shared += 1
                assert not (c1.closed_right and c2.closed_left)
        assert shared > 0

    def test_member_expansion_has_prefix(self):
        rng = random.Random(14)
        for _ in range(200):
            w = random_word(rng, max_len=6, max_digit=5)
            c = cylinder(w)
            x = c.left + (c.right - c.left) * Fraction(rng.randint(1, 99), 100)
            assert c.contains(x)
            got = expand_rational(x.numerator, x.denominator)
            assert got.digits[: len(w)] == w.digits

    def test_empty_word_rejected(self):
        with pytest.raises(DomainError):
            cylinder(DigitWord(()))

    def test_contains_ends(self):
        # [2] is (1/3, 1/2], so 1 lies outside it; [1] is (1/2, 1], closed at 1
        assert not cylinder(word(2)).contains(Fraction(1))
        assert cylinder(word(1)).contains(Fraction(1))


def removed_digit_ratio(w, k):
    """q_n(w) / q_{n-1}(w without its k-th digit), k 1-based."""
    return Fraction(denominator(w), denominator(w.digits[: k - 1] + w.digits[k:]))


class TestRemoveDigitRatio:
    """The removed-digit lemma: the ratio lies in [(a_k + 1)/2, a_k + 1]."""

    def test_single(self):
        assert removed_digit_ratio(word(5), 1) == 5

    def test_two_three(self):
        assert removed_digit_ratio(word(2, 3), 2) == Fraction(7, 2)

    def test_random_words(self):
        rng = random.Random(0xC0FFEE)
        for _ in range(10_000):
            w = random_word(rng, max_len=12, max_digit=10)
            k = rng.randint(1, len(w))
            a_k = w[k - 1]
            assert Fraction(a_k + 1, 2) <= removed_digit_ratio(w, k) <= a_k + 1

    def test_upper_bound_attained(self):
        assert removed_digit_ratio(word(3, 1), 1) == 4


class TestGaussMeasure:
    def test_normalization(self):
        assert gauss_measure(0, 1) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("measure, a, b", [
        (gauss_measure, 0.5, 0.2), (ln_gauss_measure, 0, 2),
    ])
    def test_not_a_subinterval(self, measure, a, b):
        with pytest.raises(DomainError, match=rf"\[{a}, {b}\] is not a subinterval of \[0, 1\]"):
            measure(a, b)

    def test_digit_law(self):
        # integrate the density over I_1(k) = (1/(k+1), 1/k]
        for k in range(1, 30):
            m = gauss_measure(Fraction(1, k + 1), Fraction(1, k))
            assert m == pytest.approx(gauss_digit_law(k), abs=1e-14)

    def test_tail_set(self):
        for t in [1, 2, 3, 7.2, 100]:
            m = gauss_measure(0, Fraction(1, math.ceil(t)))
            assert m == pytest.approx(math.log2(1 + 1 / math.ceil(t)), abs=1e-14)

    def test_big_fraction_endpoints(self):
        # deep cylinder: measure ~ 1e-229, far below naive log-difference noise
        w = word(*([2] * 300))
        c = cylinder(w)
        m = gauss_measure(c.left, c.right)
        assert m > 0
        # density between 1/(2 ln 2) and 1/ln 2, so ln(m/|I|) in [-ln(2ln2), -ln(ln2)]
        cs = convergents(w)
        ln_len = -cs[-1].log_q - ln_big(cs[-1].q + cs[-2].q)
        assert -0.33 < math.log(m) - ln_len < 0.37

    def test_deep_cylinder_underflow_raises(self):
        c = cylinder(word(*([5] * 300)))
        with pytest.raises(DomainError, match="ln_gauss_measure"):
            gauss_measure(c.left, c.right)
        assert ln_gauss_measure(c.left, c.right) == pytest.approx(-988.25, abs=0.01)

    def test_ln_measure_of_1000_digit_cylinder(self):
        # density between 1/(2 ln 2) and 1/ln 2 bounds ln(mu/|I|)
        c = cylinder(word(*([3, 1, 7] * 333 + [2])))
        gap = ln_gauss_measure(c.left, c.right) - ln_fraction(c.length)
        assert -math.log(2 * math.log(2)) <= gap <= -math.log(math.log(2))

    def test_ln_measure_matches_measure(self):
        for a, b in [(0, 1), (Fraction(1, 3), Fraction(1, 2)), (0.25, 0.75)]:
            assert ln_gauss_measure(a, b) == pytest.approx(
                math.log(gauss_measure(a, b)), abs=1e-14
            )
        c = cylinder(word(*([2] * 300)))
        assert ln_gauss_measure(c.left, c.right) == pytest.approx(
            math.log(gauss_measure(c.left, c.right)), rel=1e-14
        )
        assert ln_gauss_measure(Fraction(1, 2), Fraction(1, 2)) == -math.inf

    @pytest.mark.parametrize("t, want", [
        (1, 1.0), (2.5, 0.4150374992788438), (math.inf, 0.0),
        (math.nan, "nan"), (0.5, ">= 1"), (-math.inf, ">= 1"),
        (10**400, 0.0), (2**1100, 0.0),
    ])
    def test_digit_tail_edges(self, t, want):
        if isinstance(want, str):
            with pytest.raises(DomainError, match=want):
                gauss_digit_tail(t)
        else:
            assert gauss_digit_tail(t) == want

    @pytest.mark.parametrize("call, name, bad", [
        # a bool was read as 0 or 1: gauss_digit_tail(True) gave 1.0,
        # gauss_measure(False, True) 1.0 and ln_gauss_measure(False, True) 0.0;
        # a string raised a bare TypeError
        (lambda: gauss_digit_tail(True), "t", "True"),
        (lambda: gauss_digit_tail("5"), "t", "'5'"),
        (lambda: gauss_measure(False, True), "a", "False"),
        (lambda: gauss_measure(0, True), "b", "True"),
        (lambda: gauss_measure("0", "1"), "a", "'0'"),
        (lambda: ln_gauss_measure(False, True), "a", "False"),
        (lambda: ln_gauss_measure(Fraction(1, 3), "1"), "b", "'1'"),
    ])
    def test_bools_and_strings_are_not_numbers(self, call, name, bad):
        with pytest.raises(DomainError, match=rf"^{name} must be a real number, got {bad}$"):
            call()

    @pytest.mark.parametrize("a, b", [
        (0, 1), (Fraction(1, 3), Fraction(1, 2)), (0.25, 0.75), (np.int64(0), np.int64(1)),
        (np.float64(0.25), np.float64(0.75)), (Fraction(1, 4), 0.75), (np.float32(0.25), np.float32(0.75)),
    ])
    def test_every_real_type_is_a_number(self, a, b):
        # np.float32 raised a bare TypeError, as Fraction() refuses it; it is
        # read as the float it holds
        want = math.log2((1 + float(b)) / (1 + float(a)))
        assert gauss_measure(a, b) == pytest.approx(want, rel=1e-15)
        assert ln_gauss_measure(a, b) == pytest.approx(math.log(want), abs=1e-15)
        assert gauss_digit_tail(b * 4) == gauss_digit_tail(float(b * 4))

    def test_additivity_over_digit_partition(self):
        total = sum(gauss_digit_law(k) for k in range(1, 2000))
        total += gauss_measure(0, Fraction(1, 2000))
        assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("k", [1, 29, 10**4, 10**8, 2**60])
    def test_digit_law_against_mpmath(self, k):
        with mpmath.workdps(50):
            want = mpmath.log(1 + mpmath.mpf(1) / (k * (k + 2)), 2)
            assert abs(gauss_digit_law(k) - want) <= 4e-16 * want

    @pytest.mark.parametrize("t", [2.5, 10**12, 2**53 + 2, 2**60])
    def test_digit_tail_against_mpmath(self, t):
        with mpmath.workdps(50):
            want = mpmath.log(1 + mpmath.mpf(1) / math.ceil(t), 2)
            assert abs(gauss_digit_tail(t) - want) <= 4e-16 * want

    def test_digit_law_past_float_range(self):
        # k(k + 2) = 10^400 is no float, and the law underflows to 0.0
        assert gauss_digit_law(10**200) == 0.0

    @pytest.mark.parametrize("k", [0, -1, 2.5, 3.0, True, np.float64(2.0)])
    def test_digit_law_refuses_non_digits(self, k):
        with pytest.raises(DomainError, match="k must be an integer >= 1, got "):
            gauss_digit_law(k)

    def test_digit_law_numpy_integer(self):
        assert gauss_digit_law(np.int64(7)) == gauss_digit_law(7)

    @pytest.mark.parametrize("n", [0, -3, 2.5, 4.0, True])
    def test_ln_big_refuses_non_positive_integers(self, n):
        # 0 raised a bare ValueError and 2.5 an AttributeError
        with pytest.raises(DomainError, match="n must be an integer >= 1, got "):
            ln_big(n)

    @pytest.mark.parametrize("x", [Fraction(0), Fraction(-1, 3), 0, 2.5, True, "1/2"])
    def test_ln_fraction_refuses_non_positive_rationals(self, x):
        with pytest.raises(DomainError, match="x must be a positive rational, got "):
            ln_fraction(x)

    def test_ln_big_of_a_numpy_integer(self):
        # np.int64 has no bit_length, which raised an AttributeError
        assert ln_big(np.int64(10)) == math.log(10)


class TestPublicSurface:
    def test_all_is_the_kept_set(self):
        assert set(cfmetric.__all__) == {
            "ConvergentPair", "Cylinder", "DigitWord", "DomainError",
            "convergents", "cylinder", "evaluate", "expand_rational",
            "gauss_digit_law", "gauss_digit_tail", "gauss_measure",
            "ln_gauss_measure", "word",
        }
        assert len(cfmetric.__all__) == len(set(cfmetric.__all__))
        for name in cfmetric.__all__:
            assert getattr(cfmetric, name) is getattr(cfmetric.cfcore, name)

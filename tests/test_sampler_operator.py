"""The exact sampler against the transfer operator, at every finite depth.

A word w of n digits has the cylinder length |I_w| = 1/(q_n (q_n + q_{n-1})),
so a Lebesgue-uniform point falls in I_w with probability |I_w|, and for
every y in [0, 1]

    E_Leb[(q_n + q_{n-1} y)^{-2s} q_n (q_n + q_{n-1})]
        = sum_{|w| = n} (q_n + q_{n-1} y)^{-2s} = (L_s^n 1)(y).

Under the Gauss start each word is weighted by |I_w|/mu(I_w) instead.  The
weight is about q_n^{2-2s}, whose second moment is finite for s > 3/4.  Two
limits of the same process test its dependence between digits at depth: Lévy's
constant, the mean of ln q_n / n, and P''(1)/4, the variance of ln q_n / n
(Lévy 1929; Philipp and Stackelberg, Math. Ann. 181, 1969).  The i.i.d.
sampler has the right marginals, so every test here has it as a negative
control that must fail.  The seeds are fixed: never redraw one after a
failure.
"""

import math

import numpy as np
import pytest

from cfmetric.cfcore import continuant_tail, cylinder, ln_fraction, ln_gauss_measure, word
from cfmetric.pressure import _operator_matrix, _step, _tail, pressure_eigen
from cfmetric.sampler import sample_digit_matrix, sample_iid_gauss_kuzmin

LN2 = math.log(2.0)
LEVY = math.pi**2 / (12.0 * LN2)
GRID, CAP = 32, 10_000
# the identity's cells, from STREAMS streams of max(LEVELS) digits
S_VALUES = (0.9, 1.0, 1.25, 2.0)
LEVELS = (1, 2, 4, 8, 16)
STREAMS = 100_000
# the increments ln q_{2n} - ln q_n for n in HALVES, from INC_STREAMS streams
# of DEPTH digits: the i.i.d. control's Lévy z grows like sqrt(n INC_STREAMS),
# and reads 10.6 at n = 128
HALVES = (32, 64, 128)
DEPTH, INC_STREAMS = 2 * HALVES[-1], 20_000


def convergents(digits, levels):
    """ln q_n, r_n = q_{n-1}/q_n and u_n = p_n/q_n of every stream of a
    (n_streams, depth) digit matrix at each level n in levels, stacked as a
    (3, len(levels), n_streams) array.

    q_n/q_{n-1} = a_n + r_{n-1} from r_0 = 0, so ln q_n sums the logs of those
    ratios, each at least 1, and no float overflows.  u_n adds
    (-1)^{n-1}/(q_n q_{n-1}) to u_{n-1} from u_0 = 0, because
    p_n q_{n-1} - p_{n-1} q_n = (-1)^{n-1}.
    """
    out = np.empty((3, len(levels), digits.shape[0]))
    lnq = r = u = np.zeros(digits.shape[0])
    for n in range(1, max(levels) + 1):
        ratio = digits[:, n - 1] + r
        lnq_prev, lnq = lnq, lnq + np.log(ratio)
        u = u + (-1.0) ** (n - 1) * np.exp(-(lnq + lnq_prev))
        r = 1.0 / ratio
        if n in levels:
            out[:, levels.index(n)] = lnq, r, u
    return out


def ln_gauss_weight(lnq, r, u, n):
    """ln(|I_w|/mu(I_w)) of the level-n cylinders, from the convergents of
    level n.  mu(I_w) = |log1p((-1)^n t)|/ln 2 with
    t = 1/((q_n + q_{n-1})(q_n + p_n)), and |I_w| = t (1 + u_n).  log1p keeps
    mu's relative accuracy where log2(1 +- t) would round to 0 (by n = 16)."""
    ln_length = -(2.0 * lnq + np.log1p(r))
    t = np.exp(ln_length - np.log1p(u))
    return ln_length + math.log(LN2) - np.log(np.abs(np.log1p((-1.0) ** n * t)))


@pytest.fixture(scope="module")
def operator_iterates():
    """(lo, hi) enclosures of (L_s^n 1)(y), shaped (s, level, y), for s in
    S_VALUES, n in LEVELS and y = 0 and 1, the grid's first and last nodes:
    n tailed steps of the grid-32, cap-10 000 operator from the constant 1."""
    lo_hi = np.empty((2, len(S_VALUES), max(LEVELS), 2))
    for i, s in enumerate(S_VALUES):
        M, tail = _operator_matrix(s, GRID, CAP), _tail(s, GRID, CAP)
        lo = hi = np.ones(GRID)
        for k in range(max(LEVELS)):
            lo, hi = _step(M, lo, hi, tail)
            lo_hi[:, i, k] = lo[[0, -1]], hi[[0, -1]]
    return lo_hi[:, :, np.array(LEVELS) - 1]


def identity_z(digits, start, operator_iterates):
    """z of each (s, n, y) cell: the sample mean's distance from the operator
    enclosure of (L_s^n 1)(y), in standard errors, 0 inside it."""
    lnq, r, u = convergents(digits, LEVELS)
    # X = q_n^{2-2s} (1 + r_n) (1 + r_n y)^{-2s} = (q_n + q_{n-1} y)^{-2s} / |I_w|,
    # and under the Gauss start X |I_w|/mu(I_w)
    ln_weight = 2.0 * lnq + np.log1p(r)
    if start == "gauss":
        ln_weight += ln_gauss_weight(lnq, r, u, np.array(LEVELS)[:, None])
    minus_2s = -2.0 * np.array(S_VALUES)[:, None, None]
    z = np.empty((len(S_VALUES), len(LEVELS), 2))
    for j, y in enumerate((0.0, 1.0)):
        x = np.exp(minus_2s * (lnq + np.log1p(r * y)) + ln_weight)
        mean = x.mean(axis=-1)
        se = x.std(axis=-1, ddof=1) / math.sqrt(x.shape[-1])
        lo, hi = operator_iterates[:, :, :, j]
        z[:, :, j] = np.where(mean > hi, mean - hi, np.minimum(mean - lo, 0.0)) / se
    return z


def worst(z):
    """The largest |z| and its (s, n, y) cell, for a failure message."""
    i, k, j = np.unravel_index(np.abs(z).argmax(), z.shape)
    return abs(z[i, k, j]), (S_VALUES[i], LEVELS[k], j)


class TestConvergentReducer:
    def test_matches_exact_continuants(self):
        # exact and i.i.d. digits, and the all-ones word, whose cylinders
        # are the longest of each level
        digits = np.vstack([sample_digit_matrix(1, 12, 16), sample_iid_gauss_kuzmin(1, 12, 16),
                            np.ones((1, 16), dtype=np.int64)])
        lnq, r, u = convergents(digits, tuple(range(1, 17)))
        for j, row in enumerate(digits.tolist()):
            for n in range(1, 17):
                w = word(*row[:n])
                p_prev, q_prev, p, q = continuant_tail(w)
                got = lnq[n - 1, j], r[n - 1, j], u[n - 1, j]
                assert got[0] == pytest.approx(math.log(q), rel=1e-13)
                assert got[1] == pytest.approx(q_prev / q, rel=1e-13)
                assert got[2] == pytest.approx(p / q, rel=1e-13)
                c = cylinder(w)
                want = ln_fraction(c.length) - ln_gauss_measure(c.left, c.right)
                assert ln_gauss_weight(*got, n) == pytest.approx(want, abs=1e-12)


class TestFiniteIdentity:
    """Every (s, n, y) cell of E[X] = (L_s^n 1)(y), within 4 sigma of the
    operator enclosure, from 1e5 streams of 16 digits."""

    @pytest.mark.parametrize("start, seed", [("lebesgue", 5), ("gauss", 6)])
    def test_exact_sampler_meets_the_operator(self, operator_iterates, start, seed):
        digits = sample_digit_matrix(seed, STREAMS, max(LEVELS), start=start)
        z = identity_z(digits, start, operator_iterates)
        assert worst(z)[0] <= 4.0, worst(z)

    def test_iid_digits_fail_it(self, operator_iterates):
        z = identity_z(sample_iid_gauss_kuzmin(6, STREAMS, max(LEVELS)), "gauss", operator_iterates)
        assert worst(z)[0] >= 8.0, worst(z)


def increments(digits):
    """ln q_{2n} - ln q_n of every stream for n in HALVES, as a (len(HALVES),
    n_streams) array: the difference cancels the start's O(1) offset of
    ln q_n, where ln q_n / n itself reads z = -4.6 against Lévy at n = 64."""
    lnq = convergents(digits, HALVES + (DEPTH,))[0]
    return lnq[1:] - lnq[:-1]


def levy_z(inc):
    """z of each n's mean increment / n against Lévy's constant."""
    n = np.array(HALVES)
    return (inc.mean(axis=-1) / n - LEVY) / (inc.std(axis=-1, ddof=1) / n / math.sqrt(inc.shape[-1]))


def variance_z(inc, p2):
    """z of each n's increment variance / n against P''(1)/4; the standard
    error is the sample's, from the squared deviations."""
    n = np.array(HALVES)
    dev2 = (inc - inc.mean(axis=-1, keepdims=True)) ** 2
    se = dev2.std(axis=-1, ddof=1) / math.sqrt(inc.shape[-1])
    return (dev2.mean(axis=-1) - n * p2 / 4.0) / se


@pytest.fixture(scope="module")
def p2():
    """P''(1) by the five-point rule on the eigen P(s), h = 1e-3."""
    h = 1e-3
    p = [pressure_eigen(1.0 + k * h, GRID, CAP).value for k in (-2, -1, 0, 1, 2)]
    return (-p[0] + 16.0 * p[1] - 30.0 * p[2] + 16.0 * p[3] - p[4]) / (12.0 * h * h)


class TestLevyAndCurvature:
    """ln q_{2n} - ln q_n under the Gauss start: mean / n tends to Lévy's
    constant pi^2/(12 ln 2) = -P'(1)/2 and variance / n to P''(1)/4."""

    @pytest.fixture(scope="class")
    def exact(self):
        return increments(sample_digit_matrix(2, INC_STREAMS, DEPTH))

    @pytest.fixture(scope="class")
    def iid(self):
        return increments(sample_iid_gauss_kuzmin(2, INC_STREAMS, DEPTH))

    def test_curvature_anchor(self, p2):
        # 3.44859 at grid 64 by the same rule; central differences at grid 32
        # give 3.4486 for h from 2e-3 to 1e-2
        assert p2 == pytest.approx(3.44859, abs=1e-5)

    def test_levy_constant(self, exact):
        z = levy_z(exact)
        assert np.abs(z).max() <= 4.0, z

    def test_variance_is_a_quarter_of_the_curvature(self, exact, p2):
        z = variance_z(exact, p2)
        assert np.abs(z).max() <= 4.0, z

    def test_iid_digits_fail_both(self, iid, p2):
        zl, zv = levy_z(iid), variance_z(iid, p2)
        assert np.abs(zl).max() >= 8.0 and np.abs(zv).max() >= 8.0, (zl, zv)

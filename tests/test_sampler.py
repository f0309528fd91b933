import hashlib
import math
import sys
import threading
import time
from fractions import Fraction

import numpy as np
import pytest

from cfmetric import sampler
from cfmetric.cfcore import DomainError, cylinder, gauss_digit_law, gauss_measure, word
from cfmetric.sampler import (
    BulkDigitStream,
    _FLAT_DELTA,
    _digit_band,
    _exact_digit,
    _inverse_cdf,
    _mix,
    _mix_scalar,
    _stream_keys,
    _uniforms,
    _window_state_bounds,
    _word_scalar,
    sample_digit_matrix,
    sample_iid_gauss_kuzmin,
)


class TestBitSource:
    def test_scalar_vector_agreement(self):
        xs = np.arange(0, 2**60, 2**55, dtype=np.uint64)
        vec = _mix(xs)
        for x, v in zip(xs.tolist(), vec.tolist()):
            assert _mix_scalar(int(x)) == int(v)


def _mp_digit_variable(mp, w, b, g):
    """The x = 1/u with F(u) = w at mp's precision, at the exact floats b, g."""
    w, b, g = (mp.mpf(float(t)) for t in (w, b, g))
    if b == g:
        return (1 + g) / w - g
    return (b - g) / mp.expm1(w * mp.log1p((b - g) / (1 + g))) - g


def _shift(b, g):
    """(delta, l1) of the point state (b, g), as BulkDigitStream.step makes
    them: delta = b - g folded to _FLAT_DELTA where it is 0, and
    l1 = L(1) = log1p(delta/(1 + g))."""
    delta = np.where(b == g, _FLAT_DELTA, b - g)
    return delta, np.log1p(delta / (1.0 + g))


class TestFlatGuard:
    """_inverse_cdf at a folded flat state (delta == 0 made _FLAT_DELTA) gives
    the flat limit (1 + g)/w - g, and the fold leaves every other element's
    value as it was."""

    @staticmethod
    def _pairs(mix: bool):
        rng = np.random.default_rng(17)
        p = rng.uniform(0.0, 1.0, 400)
        q = rng.uniform(0.0, 1.0, 400)
        # near-equal but distinct pairs, where the quotient cancels most
        q[:40] = p[:40] * (1.0 + rng.uniform(-1e-12, 1e-12, 40))
        q[:40] = np.where(q[:40] == p[:40], np.nextafter(p[:40], 2.0), q[:40])
        if mix:
            q[40::7] = p[40::7]
        return p, q

    @pytest.mark.parametrize("mix", [False, True])
    def test_inverse_cdf_against_mpmath(self, mix):
        from mpmath import mp

        b, g = self._pairs(mix)
        w = np.random.default_rng(18).uniform(0.0, 1.0, b.size) + 2.0**-54
        delta, l1 = _shift(b, g)
        assert np.any(b == g) == mix
        got = _inverse_cdf(w, delta, g, l1)
        # against the exact state's closed form, (1 + g)/w - g where b == g
        with mp.workdps(50):
            want = [_mp_digit_variable(mp, *x) for x in zip(w, b, g)]
        rel = [abs((mp.mpf(float(x)) - y) / y) for x, y in zip(got.tolist(), want)]
        assert max(rel) <= 1e-13
        # the mixed input's distinct elements take the values of the
        # unfolded b - g, alone
        distinct = b != g
        unfolded = b[distinct] - g[distinct]
        assert np.array_equal(got[distinct], _inverse_cdf(
            w[distinct], unfolded, g[distinct], np.log1p(unfolded / (1.0 + g[distinct]))))

    @pytest.mark.parametrize("p, q", [(0.3, 0.3), (0.5, 0.5 + 1e-14), (1.0, 0.0), (0.9, 0.2),
                                      (0.0, 0.0)])
    def test_inverse_cdf_at_awkward_points(self, p, q):
        # flat states, one nearly flat, and the two starts, as one-element
        # arrays: the step passes arrays only
        from mpmath import mp

        w = 0.625
        delta, l1 = _shift(np.array([p]), np.array([q]))
        x = _inverse_cdf(np.array([w]), delta, np.array([q]), l1)
        with mp.workdps(50):
            assert abs(float(x[0]) / _mp_digit_variable(mp, w, p, q) - 1) <= 1e-13


# the relative radius of the engine's float state around the exact one
_RADIUS = Fraction(1, 2**50)


def _cdf_mid(x, b, g):
    """F(1/x) = L(x)/L(1) at the point state (b, g), in shift form with
    L(m) = log1p(delta/(m + g)); (1 + g)/(x + g) where delta == 0."""
    delta = b - g
    with np.errstate(invalid="ignore"):  # 0/0 where flat, replaced
        shift = np.log1p(delta / (x + g)) / np.log1p(delta / (1.0 + g))
    return np.where(delta == 0.0, (1.0 + g) / (x + g), shift)


def _engine_states(seed, n, start, levels):
    """(b, g, beta, gamma) of n streams at each of levels: the engine's float
    state and the exact one, carried as z -> 1/(a + z)."""
    eng = BulkDigitStream(seed, n, start=start)
    beta, gamma = [Fraction(start == "gauss")] * n, [Fraction(0)] * n
    states = []
    for level in range(max(levels) + 1):
        if level in levels:
            states += [(eng._beta[j], eng._gamma[j], beta[j], gamma[j]) for j in range(n)]
        digits = eng.step().tolist()
        beta = [1 / (a + b) for a, b in zip(digits, beta)]
        gamma = [1 / (a + g) for a, g in zip(digits, gamma)]
    return states


@pytest.fixture(scope="module")
def bulk_sample():
    return sample_digit_matrix(31337, 60_000, 6)


class TestBulkDigitStream:
    def test_deterministic_and_offset_consistent(self):
        full = sample_digit_matrix(99, 64, 12)
        again = sample_digit_matrix(99, 64, 12)
        assert np.array_equal(full, again)
        # splitting into blocks by stream offset reproduces the same digits,
        # which is what makes worker-count independence automatic
        left = sample_digit_matrix(99, 40, 12)
        right = sample_digit_matrix(99, 24, 12, stream_offset=40)
        assert np.array_equal(np.vstack([left, right]), full)
        # a single stream is the scalar API: the same digits as its row
        one = sample_digit_matrix(99, 1, 12, stream_offset=63)
        assert np.array_equal(one[0], full[63])
        assert not np.array_equal(one[0], full[62])

    def test_deterministic(self):
        # one stream is fixed by (seed, stream index); its neighbour differs
        a = sample_digit_matrix(2024, 1, 60, stream_offset=5)
        b = sample_digit_matrix(2024, 1, 60, stream_offset=5)
        assert np.array_equal(a, b)
        assert not np.array_equal(sample_digit_matrix(2024, 1, 60, stream_offset=6), a)

    def test_golden_digits(self):
        # SHA-256 of the int64 digits; any change to the sampled process,
        # past the 160-digit history window included, moves these
        def digest(a):
            return hashlib.sha256(np.asarray(a, dtype=np.int64).tobytes()).hexdigest()

        assert digest(sample_digit_matrix(2024, 1000, 8)) == (
            "a566066d1d189fd13cd11fb151e7fb6f7c32e0e1876d72add578ac761c51b977")
        assert digest(sample_digit_matrix(2024, 1000, 8, start="lebesgue")) == (
            "762476c2f51685b57c6f48ab4411a332ba9f02257c0c7ef36e4da3888da3c089")
        eng = BulkDigitStream(7, 1, stream_offset=3)
        deep = [int(eng.step()[0]) for _ in range(400)]
        assert digest(deep) == (
            "d83038c7a3b9bbc842f9c2161cb6f90f136f1b7ed146609c5dd6815af2e56a3d")
        assert eng.fallbacks == 0

    @pytest.mark.parametrize("start, want", [
        ("gauss", "b9ad74e7af88bf0085c8745993666947b089502599c2b7d596a73ad4235987cc"),
        ("lebesgue", "1510208021bf6c8af48d6f4f8352bb7e75a19ce1ac2e7a5dbbf6b7ed1a992b48"),
    ], ids=["gauss", "lebesgue"])
    def test_golden_digits_past_level_32(self, start, want):
        # 64 levels, past level 32, from where every Gauss-start stream is
        # flat; the Lebesgue start is flat at every level.  Some Gauss level
        # mixes flat and other streams, so the fold's masked write runs
        got = sample_digit_matrix(2024, 4000, 64, start=start)
        assert _digest(got) == want
        eng = BulkDigitStream(2024, 4000, start=start)
        flat = []
        for k in range(64):
            flat.append(int(np.count_nonzero(eng._beta == eng._gamma)))
            assert np.array_equal(eng.step(), got[:, k])
        assert flat[-1] == 4000
        if start == "gauss":
            assert flat[0] == 0 and any(0 < f < 4000 for f in flat)
        else:
            assert set(flat) == {4000}

    def test_marginals(self, bulk_sample):
        m = bulk_sample
        n = m.shape[0]
        for k in (1, 2, 3):
            want = gauss_digit_law(k)
            se = math.sqrt(want * (1 - want) / n)
            for pos in (0, 5):
                freq = float(np.mean(m[:, pos] == k))
                assert abs(freq - want) <= 4 * se, (k, pos, freq)

    def test_digit_marginals_match_gauss_kuzmin(self):
        # 20_000 independent streams x 50 digits = 1e6 emitted digits.
        # Streams are i.i.d., so a cluster-robust standard error over
        # per-stream counts gives an honest 3-sigma band.
        n_streams, depth = 20_000, 50
        m = sample_digit_matrix(20260810, n_streams, depth)
        for k in range(1, 9):
            counts = np.sum(m == k, axis=1)
            freq = counts.sum() / (n_streams * depth)
            se = counts.std(ddof=1) / (depth * math.sqrt(n_streams))
            want = gauss_digit_law(k)
            assert abs(freq - want) <= 3.0 * se + 1e-6, (k, freq, want, se)

    def test_pair_correlations_are_exact_not_iid(self, bulk_sample):
        # P(a_k = 1, a_{k+1} = 1) is the Gauss measure of the cylinder [1,1],
        # well below the iid square of the marginal
        m = bulk_sample
        n = m.shape[0]
        c = cylinder(word(1, 1))
        want = gauss_measure(c.left, c.right)
        iid = gauss_digit_law(1) ** 2
        se = math.sqrt(want * (1 - want) / n)
        for i in (0, 3):
            freq = float(np.mean((m[:, i] == 1) & (m[:, i + 1] == 1)))
            assert abs(freq - want) <= 4 * se
            assert abs(freq - iid) > 6 * se  # clearly not the iid process

    def test_fast_path_agrees_with_exact_fallback(self):
        eng = BulkDigitStream(123, 8)
        taken = [eng.step().copy() for _ in range(25)]
        # replay: at a few (stream, level) spots the exact sampler must
        # reproduce the digit the float fast path accepted
        replay = BulkDigitStream(123, 8)
        for level in range(25):
            for j in (0, 3, 7):
                rev = replay._history(j)
                d = _exact_digit(123, j, level, rev)
                assert d == int(taken[level][j])
            replay.step()

    def test_window_state_bounds(self):
        rng = np.random.default_rng(31)
        for n in (1, 2, 7, 30):
            rev = [int(a) for a in rng.choice([1, 1, 2, 3, 7, 500], size=n)]
            beta = word(*rev[:-1], rev[-1] + 1).evaluate()
            gamma = word(*rev).evaluate()
            assert _window_state_bounds(rev, True) == (beta, beta, gamma, gamma)
            # the Lebesgue start has beta_0 = gamma_0 = 0, so beta = gamma
            assert _window_state_bounds(rev, True, 0) == (gamma, gamma, gamma, gamma)
            # a truncated window of the w most recent digits still encloses both
            for w in range(1, n):
                blo, bhi, glo, ghi = _window_state_bounds(rev[:w], False)
                assert blo <= beta <= bhi and glo <= gamma <= ghi

    @pytest.mark.parametrize("start, b0, g0", [("gauss", 1, 0), ("lebesgue", 0, 0)])
    def test_state_within_radius_of_exact_state(self, start, b0, g0):
        # the float beta and gamma stay within relative 2^-50 of the exact
        # state, carried as z -> 1/(a + z), at every level past the
        # 160-digit window
        n, levels = 48, 400
        eng = BulkDigitStream(11, n, start=start)
        beta = [Fraction(b0)] * n
        gamma = [Fraction(g0)] * n
        for _ in range(levels):
            digits = eng.step().tolist()
            beta = [1 / (a + b) for a, b in zip(digits, beta)]
            gamma = [1 / (a + g) for a, g in zip(digits, gamma)]
            for got, exact in ((eng._beta, beta), (eng._gamma, gamma)):
                for j in range(n):
                    assert abs(Fraction(got[j]) - exact[j]) <= _RADIUS * exact[j], (eng.level, j)

    def test_advance_keeps_radius_for_huge_digits(self):
        # digits past 2^53 (exact fallbacks are not clipped) round when they
        # convert to float; from a state at the radius, or exact, one step
        # still lands within it
        ds = [1, 2**53 + 1, 2**62 + 3, 2**63 - 1]
        for z in (0.0, 0.5, 1.0 - 2.0**-53, 1.0):
            for exact in (Fraction(z) * (1 + f) for f in (-_RADIUS, 0, _RADIUS)):
                if exact > 1:
                    continue
                eng = BulkDigitStream(1, len(ds))
                eng._beta[:] = eng._gamma[:] = z
                eng._advance(np.array(ds, dtype=np.int64))
                for k, dk in enumerate(ds):
                    want = 1 / (dk + exact)
                    for got in (eng._beta[k], eng._gamma[k]):
                        assert abs(Fraction(got) - want) <= _RADIUS * want, (dk, z, exact)

    @pytest.mark.parametrize("start", ["gauss", "lebesgue"])
    def test_fallbacks_share_one_mpmath_context(self, monkeypatch, start):
        # an engine builds its fallback context once, not once per digit, and
        # its fallbacks draw the digits of its own start, within the history
        # window (levels 0..160) and past it
        import mpmath

        want = sample_digit_matrix(7, 4, 200, start=start)
        made = []

        class Counted(mpmath.MPContext):
            def __init__(self):
                made.append(self)
                super().__init__()

        monkeypatch.setattr(mpmath, "MPContext", Counted)
        # a band that accepts no digit sends every digit to the fallback
        monkeypatch.setattr(sampler, "_digit_band",
                            lambda d, *args: (np.ones_like(d), np.zeros_like(d)))
        eng = BulkDigitStream(7, 4, start=start)
        got = np.column_stack([eng.step() for _ in range(200)])
        assert eng.fallbacks == 800
        assert len(made) == 1
        assert np.array_equal(got, want)

    def test_fallback_past_history_window(self, monkeypatch):
        # levels 200..399 lie past the 160-digit window, so the exact
        # fallback works from a truncated history (full_history=False)
        want = BulkDigitStream(7, 4)
        taken = [want.step().copy() for _ in range(400)]
        eng = BulkDigitStream(7, 4)
        for _ in range(200):
            eng.step()
        assert eng.fallbacks == 0
        # a band that accepts no digit sends every digit to the fallback
        monkeypatch.setattr(sampler, "_digit_band",
                            lambda d, *args: (np.ones_like(d), np.zeros_like(d)))
        for level in range(200, 400):
            assert np.array_equal(eng.step(), taken[level]), level
        assert eng.fallbacks == 800

    @pytest.mark.parametrize("start", ["gauss", "lebesgue"])
    def test_natural_fallbacks(self, start):
        # seed 3's streams 5578 and 18836 draw digits near 1.4e9 and 1.2e8 at
        # levels 171 and 243, from either start: F(1/m) - F(1/(m+1)) is then
        # below V's 2^-53, so no band settles them and each goes to
        # _exact_digit, the second past the 160-digit history window
        for stream, level in ((5578, 171), (18836, 243)):
            eng = BulkDigitStream(3, 1, stream_offset=stream, start=start)
            for _ in range(level):
                eng.step()
            assert eng.fallbacks == 0
            want = _exact_digit(3, stream, level, eng._history(0))
            assert eng.step()[0] == want
            assert eng.fallbacks == 1

    def test_bit_budget_diagnostic(self, monkeypatch):
        # at the Gauss start F(1/2) = log2(1.5); a V whose 53-bit interval
        # straddles it cannot pick the first digit within 53 bits
        from mpmath import mp

        with mp.workdps(40):
            v_num = int(mp.floor(mp.log(1.5, 2) * 2**53))
        monkeypatch.setattr(sampler, "_word_scalar", lambda *args: v_num << 11)
        monkeypatch.setattr(sampler, "_ROUNDS", ((40, 53),))
        with pytest.raises(RuntimeError, match="undecidable within a 53-bit uniform"):
            _exact_digit(1, 0, 0, [])

    def test_escalation_settles_a_straddling_uniform(self, monkeypatch):
        # the 53-bit V of test_bit_budget_diagnostic straddles F(1/2) =
        # log2(1.5); the later rounds of _ROUNDS read more words
        from mpmath import mp

        with mp.workdps(40):
            v_num = int(mp.floor(mp.log(1.5, 2) * 2**53))
        drawn = []

        def word_scalar(*args):
            drawn.append(args)
            return v_num << 11

        monkeypatch.setattr(sampler, "_word_scalar", word_scalar)
        got = _exact_digit(1, 0, 0, [])
        assert len(drawn) > 1
        # the same V to 53 + 64 * 20 bits, compared at 200 digits: digit 2
        # if V < F(1/2), else 1
        bits = 53 + 64 * 20
        v = v_num
        for _ in range(20):
            v = (v << 64) | (v_num << 11)
        with mp.workdps(200):
            want = 2 if mp.mpf(v) / mp.mpf(2) ** bits < mp.log(1.5, 2) else 1
        assert got == want

    def test_digit_variable_is_monotone(self):
        # _search_digit bounds x = 1/u by its values at two corners of the box
        # of (V, beta, gamma), which needs x to rise in beta and in gamma and
        # fall in V over states in [0, 1]^2, flat states (beta == gamma) too
        from mpmath import MPContext

        mp = MPContext()
        mp.dps = 50
        rng = np.random.default_rng(35)
        x = sampler._digit_variable
        tol = mp.mpf(10) ** -40  # far above the rounding at 50 digits

        def draw(least=0):
            # a third from {0, 1/2, 1}, so that ties and the box's ends occur
            if rng.random() < 1 / 3:
                return mp.mpf(int(rng.integers(least, 3))) / 2
            return 1 - mp.mpf(rng.random())  # in (0, 1]

        for _ in range(1000):
            (b1, b2), (g1, g2), (v1, v2) = (sorted((draw(least), draw(least)))
                                            for least in (0, 0, 1))
            b, g, v = draw(), draw(), draw(1)
            assert x(mp, v, b1, g) <= x(mp, v, b2, g) * (1 + tol), (v, b1, b2, g)
            assert x(mp, v, b, g1) <= x(mp, v, b, g2) * (1 + tol), (v, b, g1, g2)
            assert x(mp, v2, b, g) <= x(mp, v1, b, g) * (1 + tol), (v1, v2, b, g)
        # so a digit that _search_digit settles holds at every corner of a
        # wide box: the truncated window [1] pins beta and gamma in [1/2, 1]
        state = _window_state_bounds([1], False)  # (lo, hi, lo, hi)
        lo, hi = (mp.mpf(z.numerator) / z.denominator for z in state[:2])
        corners = [(b, g) for b in (lo, hi) for g in (lo, hi)]
        settled = 0
        for v_num in rng.integers(1, 2**53, 300).tolist():
            d = sampler._search_digit(mp, state, v_num, 53)
            settled += d is not None
            for v in (mp.mpf(v_num) / 2**53, mp.mpf(v_num + 1) / 2**53):
                assert d is None or all(d <= x(mp, v, b, g) < d + 1 for b, g in corners)
        assert 0 < settled < 300

    def test_fallback_past_two_to_the_200(self, monkeypatch):
        # V's first 53 bits and its first three extension words are 0 and
        # every later word is c, so V is near 2^-246 and its digit has 247
        # bits; a doubling search once gave up above 2^200
        from mpmath import mp

        c = 0x9E3779B97F4A7C15
        monkeypatch.setattr(sampler, "_word_scalar",
                            lambda seed, stream, level, rnd=0: 0 if rnd <= 3 else c)
        d = _exact_digit(1, 0, 0, [])
        assert d.bit_length() == 247
        # V's 501-bit interval lies in the Gauss start's interval of digit d,
        # [log2(1 + 1/(d + 1)), log2(1 + 1/d)], compared at 2000 digits
        v_num, bits = sum(c << 64 * k for k in range(4)), 53 + 64 * 7
        with mp.workdps(2000):
            lo, hi = (mp.log(1 + 1 / mp.mpf(m), 2) for m in (d + 1, d))
            assert lo <= mp.mpf(v_num) / 2**bits
            assert mp.mpf(v_num + 1) / 2**bits <= hi

    def test_digit_word_from_step_rows(self):
        eng = BulkDigitStream(9, 3)
        rows = [eng.step() for _ in range(40)]
        for j in range(3):
            digits = [row[j] for row in rows]
            assert isinstance(digits[0], np.int64)
            w = word(*digits)
            assert w == word(*(int(a) for a in digits))
            assert cylinder(w).contains(w.evaluate())

    def test_fold_keeps_every_nonzero_delta(self):
        # the fold writes _FLAT_DELTA where delta == 0 and nowhere else: at
        # Gauss level 1 every delta is negative (beta_1 = 1/(a + 1) < gamma_1
        # = 1/a), so a floor such as np.maximum would move them; Gauss level
        # 12 mixes flat and other streams, and Lebesgue levels are all flat
        n_flat = {}
        for start, levels in (("gauss", (1, 12, 40)), ("lebesgue", (1, 2))):
            eng = BulkDigitStream(5, 2000, start=start)
            while eng.level <= max(levels):
                level, diff = eng.level, eng._beta - eng._gamma
                eng.step()
                if level in levels:
                    assert np.array_equal(eng._delta, np.where(diff == 0.0, _FLAT_DELTA, diff))
                    n_flat[start, level] = int(np.count_nonzero(diff == 0.0))
                if (start, level) == ("gauss", 1):
                    assert np.all(eng._delta < 0.0)
        assert 0 < n_flat.pop(("gauss", 12)) < 2000
        assert n_flat == {("gauss", 1): 0, ("gauss", 40): 2000,
                          ("lebesgue", 1): 2000, ("lebesgue", 2): 2000}

    def test_folded_shift_form_rounding(self):
        # at a folded flat state, F(1/m) = L(m)/L(1) evaluated as the band
        # evaluates it (before its slop) is the flat limit (1 + g)/(m + g) to
        # at most 3.54 u, the module docstring's figure, measured over 1486
        # such states of which these are a part
        from mpmath import mp

        gs = []
        for seed in range(4):
            for start, levels in (("gauss", (40, 60, 200)), ("lebesgue", (0, 1, 2, 5, 40))):
                eng = BulkDigitStream(seed, 8, start=start)
                while eng.level <= max(levels):
                    if eng.level in levels:
                        gs += eng._gamma[eng._beta == eng._gamma].tolist()
                    eng.step()
        rng = np.random.default_rng(1)
        gs += rng.uniform(0.0, 1.0, 200)[:20].tolist() + [0.0, 1.0, 0.5, 1.0 - 2.0**-53]
        assert len(gs) > 250
        ms = [1, 2, 3, 7, 10, 1000, 12345, 1e8, 2**30, 2**50 - 1, 2**50, 2**50 + 1]
        ms = np.concatenate([ms, np.floor(np.exp(rng.uniform(0.0, np.log(2.0**50), 100)[:40]))])
        g = np.array(gs)[:, None]
        f = np.log1p(_FLAT_DELTA / (ms + g)) / np.log1p(_FLAT_DELTA / (1.0 + g))
        with mp.workdps(40):
            worst = max(abs(mp.mpf(x) * (mp.mpf(m) + gg) / (1 + mp.mpf(gg)) - 1)
                        for gg, row in zip(gs, f.tolist()) for m, x in zip(ms.tolist(), row))
        assert worst <= 3.54 * 2.0**-53

    def test_lebesgue_start(self):
        m = sample_digit_matrix(5, 40_000, 1, start="lebesgue")
        # uniform x: P(a_1 = k) = 1/(k(k+1))
        for k in (1, 2, 3):
            want = 1.0 / (k * (k + 1))
            se = math.sqrt(want * (1 - want) / 40_000)
            assert abs(float(np.mean(m[:, 0] == k)) - want) <= 4 * se

    def test_inverse_cdf_guess(self):
        # the closed-form seed of each digit inverts F at the point state
        rng = np.random.default_rng(5)
        blo = rng.uniform(0.0, 1.0, 2000)
        glo = rng.uniform(0.0, 1.0, 2000)
        b = np.concatenate([blo, glo, [0.0, 1.0, 0.37]])
        g = np.concatenate([glo, glo, [0.0, 0.0, 0.37]])  # glo, glo: delta == 0
        w = rng.uniform(0.0, 1.0, b.size) + 2.0**-54
        delta, l1 = _shift(b, g)
        x = _inverse_cdf(w, delta, g, l1)
        assert np.max(np.abs(_cdf_mid(x, b, g) - w)) <= 1e-12
        # at the Gauss start F(1/x) = log2(1 + 1/x); 2^w - 1 in floats
        # cancels for small w, so the reference is mpmath's
        from mpmath import mp, mpf

        w = np.concatenate([w[:200], [2.0**-54, 1e-9, 1.0 - 2.0**-53]])
        one, zero = np.ones_like(w), np.zeros_like(w)
        delta, l1 = _shift(one, zero)
        x = _inverse_cdf(w, delta, zero, l1)
        with mp.workdps(40):
            want = [float(1 / (mp.power(2, mpf(t)) - 1)) for t in w.tolist()]
        assert np.allclose(x, want, rtol=1e-15, atol=0.0)

    def test_digit_band_encloses_exact_cdf(self):
        # top >= F(1/(d+1)) and bottom <= F(1/d) at every state within the
        # radius of the engine's float state: the exact one and the corners
        # at relative +/-2^-50, for states the engine reaches from both starts
        # (the Lebesgue start keeps beta == gamma; at level 40 the float beta
        # and gamma coincide) and point states with delta = 0 across [0, 1],
        # each folded as the step folds it.  The reference is F in shift form
        # at the exact rational delta = beta - gamma,
        # log1p(delta/(m + gamma)) / log1p(delta/(1 + gamma)): unlike a
        # difference of two logs, it does not cancel at 50 digits
        from mpmath import mp

        states = []
        for seed, levels in [(11, (0, 1, 40))] + [(seed, (40,)) for seed in range(6)]:
            for start in ("gauss", "lebesgue"):
                states += _engine_states(seed, 4, start, levels)
        for x in (0.0, 2.0**-40, 0.37, 0.5, 1.0 - 2.0**-53, 1.0):
            x = np.float64(x)
            states.append((x, x, Fraction(x), Fraction(x)))
        assert len(states) == 24 + 48 + 6
        assert sum(b == g for b, g, _, _ in states) > 40

        ds = [1, 2, 7, 10**3, 10**8, 2**50]
        with mp.workdps(50):
            def mp_of(r):
                return mp.mpf(r.numerator) / r.denominator

            def cdf(m, beta, gamma):
                """F(1/m) at the exact rational state (beta, gamma)."""
                delta = beta - gamma
                if delta == 0:
                    return mp_of((1 + gamma) / (m + gamma))
                return mp.log1p(mp_of(delta / (m + gamma))) / mp.log1p(mp_of(delta / (1 + gamma)))

            shifts = [1 - _RADIUS, 1, 1 + _RADIUS]
            for b, g, beta, gamma in states:
                delta, l1 = _shift(b, g)
                top, bottom = _digit_band(np.array(ds, dtype=np.float64), delta, g, l1)
                near = [(Fraction(b) * fb, Fraction(g) * fg) for fb in shifts for fg in shifts]
                near.append((beta, gamma))
                for k, d in enumerate(ds):
                    for nb, ng in near:
                        assert mp.mpf(float(top[k])) >= cdf(d + 1, nb, ng), (b, g, d)
                        assert mp.mpf(float(bottom[k])) <= cdf(d, nb, ng), (b, g, d)

    def test_wrong_guesses_move_to_the_same_digits(self, monkeypatch):
        # guesses off by -3..+3 on test_golden_digits' samples, (seed,
        # streams, offset, depth, start), still give their digits: the band
        # accepts no wrong candidate, and each one goes to the exact fallback
        cases = [(2024, 1000, 0, 8, "gauss"), (2024, 1000, 0, 8, "lebesgue"),
                 (7, 1, 3, 400, "gauss")]

        def sample(seed, n, offset, depth, start):
            eng = BulkDigitStream(seed, n, offset, start)
            return np.column_stack([eng.step() for _ in range(depth)]), eng.fallbacks

        want = [sample(*case)[0] for case in cases]
        inverse = sampler._inverse_cdf
        shifts = np.random.default_rng(0)
        guessed = []

        def off_by_a_few(*args):
            x = np.floor(inverse(*args)) + shifts.integers(-3, 4, size=np.size(args[0]))
            guessed.append(np.maximum(x, 1.0))  # the candidate after the step's clip
            return x + 0.5

        monkeypatch.setattr(sampler, "_inverse_cdf", off_by_a_few)
        for case, digits in zip(cases, want):
            guessed.clear()
            got, fallbacks = sample(*case)
            assert np.array_equal(got, digits), case
            # every digit's guess went through the shifted inverse, and a
            # fallback drew exactly the digits whose candidate was wrong
            candidates = np.column_stack(guessed)
            assert candidates.shape == digits.shape, case
            wrong = np.count_nonzero(candidates != digits)
            assert fallbacks == wrong > 0, case

    @pytest.mark.parametrize("where", [
        # V's 2^-53 interval holds F(1/2) = log2(1.5) at the Gauss start, so
        # neither digit 1 nor digit 2 fits it
        "F(1/2)",
        # V = 1 - 2^-53: the bottom test of digit 1 fails and no digit is lower
        "top",
    ])
    def test_undecidable_band_goes_to_exact_digit(self, monkeypatch, where):
        # one band test per step; the streams it does not accept go straight
        # to the exact fallback
        from mpmath import mp

        with mp.workdps(40):
            v_num = int(mp.floor(mp.log(1.5, 2) * 2**53)) if where == "F(1/2)" else 2**53 - 1
        monkeypatch.setattr(sampler, "_word_scalar", lambda *args: v_num << 11)
        monkeypatch.setattr(sampler, "_words", lambda ctr, keys, *scratch:
                            np.full(keys.size, v_num << 11, dtype=np.uint64))
        want = _exact_digit(1, 0, 0, [])
        band = sampler._digit_band
        calls = []

        def counted(*args):
            calls.append(args[0].size)
            return band(*args)

        monkeypatch.setattr(sampler, "_digit_band", counted)
        eng = BulkDigitStream(1, 3)
        assert eng.step().tolist() == [want] * 3
        assert eng.fallbacks == 3
        assert calls == [3]

    @pytest.mark.parametrize("start, flat", [("gauss", False), ("lebesgue", True)])
    def test_step_evaluates_three_logs_and_one_expm1_per_digit(self, monkeypatch, start, flat):
        # one step takes one log1p per stream for L(1), two for the band (one
        # per bound) and one expm1 for the guess, on a step with no flat
        # stream and on one where every stream is flat; the band is tested
        # once per step
        counts = {"log1p": 0, "expm1": 0}

        class CountedNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def log1p(self, x, *args, **kwargs):
                counts["log1p"] += np.size(x)
                return np.log1p(x, *args, **kwargs)

            def expm1(self, x, *args, **kwargs):
                counts["expm1"] += np.size(x)
                return np.expm1(x, *args, **kwargs)

        n = 500
        eng = BulkDigitStream(3, n, start=start)
        for _ in range(3):
            eng.step()
        assert np.all((eng._beta == eng._gamma) == flat)
        monkeypatch.setattr(sampler, "np", CountedNumpy())
        eng.step()
        assert eng.fallbacks == 0
        assert counts == {"log1p": 3 * n, "expm1": n}

    def test_history_memory(self):
        # the history holds one row per level so far, not a full 160-level
        # window (128 MB at 1e5 streams)
        import tracemalloc

        tracemalloc.start()
        try:
            eng = BulkDigitStream(1, 100_000)
            for _ in range(4):
                eng.step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # measured 10.67 MB: the engine's scratch, state and keys (74 bytes a
        # stream, 7.4 MB), four rows (3.2 MB) and the uniforms' cast buffer
        assert peak < 11e6, peak
        assert len(eng.hist) == 4

    def test_streams_are_immutable(self):
        # the keys hash the stream indices once and the exact fallback reads
        # them again; a writable array once let a write move only the
        # fallback's digits, so stream 0 drew stream 555's
        eng = BulkDigitStream(4, 3, stream_offset=-1)
        assert eng.streams == range(-1, 2)
        with pytest.raises(TypeError):
            eng.streams[0] = 555

    def test_steps_allocate_only_their_row(self):
        # with seed 1, no stream is flat at levels 2-4 from the Gauss start,
        # and every stream is at Lebesgue level 2 and Gauss level 45; either
        # way a step writes into the engine's scratch and makes only the row
        # it returns, as the fold writes into delta.  Measured: 66.9 KB more,
        # 64 KB of it numpy's buffer for the cast of the shifted words' int64
        # view to float64 in _uniforms (an all-flat step made 1.6 MB more
        # before the fold)
        import tracemalloc

        for start, levels, flat in (("gauss", (2, 3, 4), False), ("lebesgue", (2,), True),
                                    ("gauss", (45,), True)):
            eng = BulkDigitStream(1, 100_000, start=start)
            while eng.level < levels[0]:
                eng.step()
            tracemalloc.start()
            try:
                for _ in levels:
                    assert np.all((eng._beta == eng._gamma) == flat)
                    tracemalloc.reset_peak()
                    before, _ = tracemalloc.get_traced_memory()
                    row = eng.step()
                    _, peak = tracemalloc.get_traced_memory()
                    assert peak - before <= row.nbytes + 100_000, (start, eng.level, peak - before)
            finally:
                tracemalloc.stop()

    def test_history_keeps_the_returned_row(self):
        eng = BulkDigitStream(4, 16)
        for _ in range(3):
            row = eng.step()
            assert row is eng.hist[-1]
            assert not row.flags.writeable
            with pytest.raises(ValueError):
                row[0] = 1

    def test_helpers_give_the_same_values_in_buffers(self):
        # on states the engine reaches, none flat (level 1), some (16) and
        # all (40, and every Lebesgue level), each helper returns the same
        # values into the step's buffers as into new arrays, and _shift makes
        # the folded delta and the L(1) that the step leaves in its buffers
        states = []
        for start in ("gauss", "lebesgue"):
            eng = BulkDigitStream(11, 64, start=start)
            for level in range(41):
                state = (eng.level, eng._beta.copy(), eng._gamma.copy())
                eng.step()
                if level in (1, 16, 40):
                    states.append(state + (eng._delta.copy(), eng._l1.copy()))
        assert any(np.any(b != g) and np.any(b == g) for _, b, g, _, _ in states)
        keys = _stream_keys(11, range(64))
        for level, b, g, step_delta, step_l1 in states:
            delta, l1 = _shift(b, g)
            assert np.array_equal(delta, step_delta)
            assert np.array_equal(l1, step_l1)
            # a folded L(1) is delta/(1 + g), a normal float
            assert np.all(l1[b == g] == _FLAT_DELTA / (1.0 + g[b == g]))
            v = _uniforms(level, keys, *np.empty((2, 64), dtype=np.uint64), np.empty(64))
            # V from the scalar word hash of each stream, as the exact fallback reads it
            assert v.tolist() == [(_word_scalar(11, j, level) >> 11) * 2.0**-53 for j in range(64)]
            mid = v + 2.0**-54
            x = _inverse_cdf(mid, delta, g, l1)
            assert np.array_equal(_inverse_cdf(mid, delta, g, l1, np.empty(64)), x)
            d = np.clip(np.floor(x), 1.0, 2.0**50)
            got = _digit_band(d, delta, g, l1, np.empty(64), np.empty(64))
            for a, want in zip(got, _digit_band(d, delta, g, l1)):
                assert np.array_equal(a, want)
            words = keys ^ np.uint64(level)
            assert np.array_equal(_mix(words, *np.empty((2, 64), dtype=np.uint64)), _mix(words))

    def test_budget_guard(self):
        with pytest.raises(DomainError, match="digit budget"):
            sample_digit_matrix(1, 10**6, 10**4)

    def test_exact_digit_keeps_off_the_global_mpmath_context(self, monkeypatch):
        # mpmath.mp's precision is shared by every thread; the fallback must
        # compute in a context of its own
        import mpmath

        eng = BulkDigitStream(123, 4)
        for _ in range(30):
            eng.step()
        cases = [(j, eng._history(j)) for j in range(4)]
        want = eng.step().tolist()

        class Untouchable:
            def __getattr__(self, name):
                raise AssertionError(f"mpmath.mp.{name} used")

        monkeypatch.setattr(mpmath, "mp", Untouchable())
        got = []
        # a fresh thread builds its context while mpmath.mp is unusable
        worker = threading.Thread(target=lambda: got.extend(
            _exact_digit(123, j, 30, rev) for j, rev in cases))
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert got == want


def _digest(a):
    return hashlib.sha256(np.asarray(a, dtype=np.int64).tobytes()).hexdigest()


class TestBlocks:
    """sample_digit_matrix's split into stream blocks and worker threads."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_golden_digits_multi_block(self, monkeypatch, cpus, workers):
        # at blocks of at most 32 768 streams, 70 000 streams make 3 blocks on
        # one worker and 4 on two (at the default 65 536, 2 on either); the
        # digests are those of one engine over all the streams
        monkeypatch.setattr(sampler, "_BLOCK", 32_768)
        cpus(workers)
        assert _digest(sample_digit_matrix(2024, 70_000, 3)) == (
            "eff5c8d8e69c14fef9a902d7d72d911a413b5a7f2df7372135cc65f05bcfc8f2")
        assert _digest(sample_digit_matrix(2024, 70_000, 3, start="lebesgue")) == (
            "a18b9ca144f43d02aa543926d8434433a900aa88a15d83cd9a091b332fe145da")

    def test_one_engine_past_a_block_matches_the_blocks(self):
        # perfbench's traced sample_bulk steps one engine over 1e5 streams,
        # more than _BLOCK; sample_digit_matrix cuts as many into two blocks
        n = sampler._BLOCK + 8
        eng = BulkDigitStream(31, n)
        got = np.stack([eng.step() for _ in range(2)], axis=1)
        assert np.array_equal(got, sample_digit_matrix(31, n, 2))
        assert type(eng.fallbacks) is int

    @pytest.mark.parametrize("workers, n_blocks", [(1, 7), (2, 8), (3, 9)])
    def test_blocks_match_scalar_streams(self, monkeypatch, cpus, workers, n_blocks):
        made = []

        class Recorded(BulkDigitStream):
            def __init__(self, seed, n_streams, stream_offset=0, start="gauss"):
                made.append((stream_offset, n_streams))
                super().__init__(seed, n_streams, stream_offset, start)

        monkeypatch.setattr(sampler, "BulkDigitStream", Recorded)
        monkeypatch.setattr(sampler, "_BLOCK", 16)
        monkeypatch.setattr(sampler, "_MIN_BLOCK", 4)
        cpus(workers)
        m = sample_digit_matrix(77, 100, 6, stream_offset=1000)
        # the fewest blocks of at most 16 streams, in a multiple of the
        # worker count, contiguous and of equal size within one stream
        made.sort()
        assert len(made) == n_blocks
        assert [off for off, _ in made] == [1000 + 100 * i // n_blocks for i in range(n_blocks)]
        assert {n for _, n in made} <= {100 // n_blocks, -(-100 // n_blocks)}
        for j in range(100):
            eng = BulkDigitStream(77, 1, stream_offset=1000 + j)
            assert [int(eng.step()[0]) for _ in range(6)] == m[j].tolist(), j

    @pytest.mark.parametrize("n_streams, blocks", [
        (2 * sampler._MIN_BLOCK - 1, [(0, 2 * sampler._MIN_BLOCK - 1)]),
        (2 * sampler._MIN_BLOCK, [(0, sampler._MIN_BLOCK), (sampler._MIN_BLOCK, sampler._MIN_BLOCK)]),
        (100_000, [(0, 50_000), (50_000, 50_000)]),
    ])
    def test_two_cpus_split_from_twice_the_least_block(self, monkeypatch, cpus, n_streams, blocks):
        # a second worker joins at 2 _MIN_BLOCK streams, about the measured
        # crossover; below it one block runs on one worker, and 1e5 streams
        # stay two blocks of 50 000, the split of the benchmark's calls
        made = []

        class Recorded(BulkDigitStream):
            def __init__(self, seed, n_streams, stream_offset=0, start="gauss"):
                made.append((stream_offset, n_streams))
                super().__init__(seed, n_streams, stream_offset, start)

        monkeypatch.setattr(sampler, "BulkDigitStream", Recorded)
        cpus(2)
        assert sampler._MIN_BLOCK <= 50_000
        sample_digit_matrix(5, n_streams, 1)
        assert sorted(made) == blocks

    @pytest.mark.parametrize("workers", [1, 2])
    def test_history_is_views_of_the_result(self, monkeypatch, cpus, workers):
        # 1e5 streams make two blocks of 50 000 on one worker or two; each
        # level's digits go straight into the result's column, and the
        # engine's history keeps read-only views of those columns
        made = []

        class Recorded(BulkDigitStream):
            def __init__(self, *args):
                made.append(self)
                super().__init__(*args)

        monkeypatch.setattr(sampler, "BulkDigitStream", Recorded)
        cpus(workers)
        m = sample_digit_matrix(9, 100_000, 3)
        assert sorted((eng.streams for eng in made), key=lambda r: r.start) == [
            range(0, 50_000), range(50_000, 100_000)]
        assert m.flags.writeable
        for eng in made:
            assert len(eng.hist) == 3
            for k, row in enumerate(eng.hist):
                assert np.shares_memory(row, m)
                assert np.array_equal(row, m[eng.streams.start:eng.streams.stop, k])
                assert not row.flags.writeable

    @pytest.mark.parametrize("start, b0", [("gauss", 1), ("lebesgue", 0)])
    def test_level_zero_from_the_exact_start(self, start, b0):
        # level 0 reads the start's exact state (beta_0, 0) as scalars, not
        # the engine's state arrays; its digits are the exact ones
        mp = sampler._new_context()
        got = sample_digit_matrix(12, 256, 1, start=start)[:, 0].tolist()
        assert got == [_exact_digit(12, j, 0, [], mp=mp, b0=b0) for j in range(256)]

    def test_threaded_fallback_matches_serial(self, monkeypatch, cpus):
        want = sample_digit_matrix(5, 48, 3)
        monkeypatch.setattr(sampler, "_BLOCK", 8)
        monkeypatch.setattr(sampler, "_MIN_BLOCK", 4)
        cpus(3)
        # a band that accepts no digit sends every digit to the fallback
        monkeypatch.setattr(sampler, "_digit_band",
                            lambda d, *args: (np.ones_like(d), np.zeros_like(d)))
        calls = []
        exact = sampler._exact_digit

        def counted(*args, **kw):
            calls.append(threading.get_ident())
            return exact(*args, **kw)

        monkeypatch.setattr(sampler, "_exact_digit", counted)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads inside mpmath
        try:
            got = sample_digit_matrix(5, 48, 3)
        finally:
            sys.setswitchinterval(interval)
        assert len(calls) == 48 * 3
        assert len(set(calls)) > 1
        assert np.array_equal(got, want)

    def test_block_error_reaches_caller(self, monkeypatch, cpus):
        # the error reaches the caller only once no other block is running
        lock = threading.Lock()
        running = set()

        # sample_digit_matrix runs each level through the engine's row
        # writer, not through step()
        class Failing(BulkDigitStream):
            def _step_into(self, row):
                first = self.streams[0]
                with lock:
                    running.add(first)
                try:
                    if first == 50:
                        raise RuntimeError("block at stream 50 failed")
                    time.sleep(0.02)
                    super()._step_into(row)
                finally:
                    with lock:
                        running.discard(first)

        monkeypatch.setattr(sampler, "BulkDigitStream", Failing)
        monkeypatch.setattr(sampler, "_BLOCK", 25)
        monkeypatch.setattr(sampler, "_MIN_BLOCK", 4)
        cpus(2)
        with pytest.raises(RuntimeError, match="stream 50"):
            sample_digit_matrix(3, 100, 2)
        assert not running

    def test_no_digits_builds_no_block(self, monkeypatch):
        made = []

        class Recorded(BulkDigitStream):
            def __init__(self, *args):
                made.append(args)
                super().__init__(*args)

        monkeypatch.setattr(sampler, "BulkDigitStream", Recorded)
        m = sample_digit_matrix(1, 100_000, 0)
        assert m.shape == (100_000, 0) and m.dtype == np.int64
        assert made == []


@pytest.mark.parametrize("sample", [sample_digit_matrix, sample_iid_gauss_kuzmin])
@pytest.mark.parametrize("n_streams, depth, message", [
    (0, 3, "n_streams"),
    (-1, 3, "n_streams"),
    (2.0, 3, "n_streams"),
    (2, -1, "depth"),
    (2, 1.5, "depth"),
    (10**6, 10**4, "digit budget"),
])
def test_samplers_share_shape_rules(sample, n_streams, depth, message):
    with pytest.raises(DomainError, match=message):
        sample(1, n_streams, depth)
    # the edges that are allowed: no digits, numpy integers
    assert sample(1, 3, 0).shape == (3, 0)
    assert sample(1, np.int64(2), np.int64(1)).shape == (2, 1)


def _engine_row(seed, n_streams, stream_offset=0):
    return BulkDigitStream(seed, n_streams, stream_offset).step()


def _matrix(seed, n_streams, stream_offset=0):
    return sample_digit_matrix(seed, n_streams, 2, stream_offset=stream_offset)


def _iid(seed, n_streams, stream_offset=0):
    return sample_iid_gauss_kuzmin(seed, n_streams, 2, stream_offset=stream_offset)


@pytest.mark.parametrize("sample", [_engine_row, _matrix, _iid])
@pytest.mark.parametrize("seed, n_streams, offset, message", [
    (1.5, 2, 0, r"seed must be an integer in \[0, 18446744073709551615\], got 1.5"),
    (True, 2, 0, r"seed must be an integer in \[0, 18446744073709551615\], got True"),
    (-1, 2, 0, r"seed must be an integer in \[0, 18446744073709551615\], got -1"),
    (2**64, 2, 0, r"seed must be an integer in .*, got 18446744073709551616"),
    (1, 2.5, 0, r"n_streams must be an integer >= 1, got 2.5"),
    (1, True, 0, r"n_streams must be an integer >= 1, got True"),
    (1, 2, 1.5, r"stream_offset must be an integer in \[-9223372036854775808, "
                r"9223372036854775807\], got 1.5"),
    (1, 2, False, "stream_offset must be an integer"),
    (1, 2, 2**63, "stream_offset must be an integer in"),
    (1, 2, -2**63 - 1, "stream_offset must be an integer in"),
    (1, 2, 2**63 - 1, r"stream indices must fit in int64: .* = 9223372036854775808 is over"),
])
def test_sampler_arguments_name_their_limit(sample, seed, n_streams, offset, message):
    with pytest.raises(DomainError, match=message):
        sample(seed, n_streams, offset)


@pytest.mark.parametrize("depth", [0, 3])
@pytest.mark.parametrize("start", ["bogus", "Gauss", None, 1])
def test_start_checked_once_before_any_block(monkeypatch, depth, start):
    made = []

    class Recorded(BulkDigitStream):
        def __init__(self, *args):
            made.append(args)
            super().__init__(*args)

    monkeypatch.setattr(sampler, "BulkDigitStream", Recorded)
    message = "start must be 'gauss' or 'lebesgue', got "
    with pytest.raises(DomainError, match=message):
        sample_digit_matrix(1, 10, depth, start=start)
    assert made == []
    with pytest.raises(DomainError, match=message):
        BulkDigitStream(1, 10, start=start)


@pytest.mark.parametrize("sample", [_engine_row, _matrix, _iid])
def test_streams_at_the_ends_of_int64(sample):
    # the first and the last int64 stream index are streams like any other
    for offset in (2**63 - 1, -2**63):
        a = sample(5, 1, offset)
        assert a.dtype == np.int64 and np.all(a >= 1)
        assert np.array_equal(a, sample(np.int64(5), np.int64(1), np.int64(offset)))


@pytest.mark.parametrize("sample", [_engine_row, _matrix, _iid])
def test_seeds_at_the_ends_of_uint64(sample):
    # the hash reads 64 bits of the seed, so only [0, 2^64) is taken: outside
    # it, 5 + 2^64 once gave seed 5's digits and -1 gave 2^64 - 1's
    for seed in (0, 2**64 - 1):
        assert np.array_equal(sample(seed, 4), sample(np.uint64(seed), 4))


@pytest.mark.parametrize("stream", [2**63 - 1, -2**63])
def test_end_streams_agree_with_exact_digit(stream):
    # the exact fallback hashes a stream by its uint64 view, as the engine does
    eng = BulkDigitStream(5, 1, stream)
    rows = [int(eng.step()[0]) for _ in range(3)]
    assert sample_digit_matrix(5, 1, 3, stream_offset=stream)[0].tolist() == rows
    assert _exact_digit(5, stream, 0, []) == rows[0]


def test_engine_checks_its_arguments_once(monkeypatch):
    calls = []
    check = sampler._require_int
    monkeypatch.setattr(sampler, "_require_int", lambda *a: calls.append(a[0]) or check(*a))
    eng = BulkDigitStream(3, 4, 10)
    assert sorted(calls) == ["n_streams", "seed", "stream_offset"]
    for _ in range(5):
        eng.step()
    assert len(calls) == 3


class TestIidMode:
    @pytest.mark.parametrize("word, lo, hi", [(0, 2**54, 2**55), (2**64 - 1, 1, 2)])
    def test_extreme_uniforms_give_positive_digits(self, monkeypatch, word, lo, hi):
        # V = 0 once made x = 2^V - 1 = 0 and the digit -2^63
        monkeypatch.setattr(sampler, "_words", lambda seed, streams, *args:
                            np.full(streams.size, word, dtype=np.uint64))
        m = sample_iid_gauss_kuzmin(3, 4, 2)
        assert m.dtype == np.int64
        assert np.all((lo <= m) & (m < hi)), m

    def test_golden_digits(self):
        # SHA-256 of the int64 digits; a change to the uniforms or to the
        # float steps from V to the digit moves these
        assert _digest(sample_iid_gauss_kuzmin(2024, 1000, 8)) == (
            "f44150dac676b45d29ef383ddc197af1593bc5c0b38ff32427afc3ed5a08fdf6")
        assert _digest(sample_iid_gauss_kuzmin(7, 70_000, 3, stream_offset=-5)) == (
            "93e90f91dc0ecea8a8ba05ee977e7dcb51b4660e300ada43fd142033d9850e27")

    def test_uniforms_apart_from_the_exact_sampler(self):
        # i.i.d. seed s once keyed its words as exact seed s ^ 0x1D, so seed
        # 0's first digits equalled exact seed 29's in every stream; with
        # independent uniforms they agree with probability sum_k p_k^2 = 0.2175
        n = 100_000
        iid = sample_iid_gauss_kuzmin(0, n, 1)[:, 0]
        agree = float(np.mean(iid == sample_digit_matrix(29, n, 1)[:, 0]))
        p2 = sum(gauss_digit_law(k) ** 2 for k in range(1, 10_000))
        assert abs(agree - p2) <= 4 * math.sqrt(p2 * (1 - p2) / n)

    def test_marginals_and_determinism(self):
        m = sample_iid_gauss_kuzmin(11, 50_000, 2)
        assert np.array_equal(m, sample_iid_gauss_kuzmin(11, 50_000, 2))
        want = gauss_digit_law(1)
        se = math.sqrt(want * (1 - want) / 50_000)
        assert abs(float(np.mean(m[:, 0] == 1)) - want) <= 4 * se
        # iid mode really is a different process: pairs factorize
        p11 = float(np.mean((m[:, 0] == 1) & (m[:, 1] == 1)))
        assert abs(p11 - want**2) <= 5 * se

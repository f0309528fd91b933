import hashlib
import math

import numpy as np
import pytest

from cfmetric import sampler
from cfmetric.cfcore import DomainError, cylinder, gauss_digit_law, gauss_measure, word
from cfmetric.sampler import (
    BulkDigitStream,
    _cdf_mid,
    _exact_digit,
    _inverse_cdf,
    _mix,
    _mix_scalar,
    _phi,
    _window_state_bounds,
    sample_digit_matrix,
    sample_iid_gauss_kuzmin,
)


class TestBitSource:
    def test_scalar_vector_agreement(self):
        xs = np.arange(0, 2**60, 2**55, dtype=np.uint64)
        vec = _mix(xs)
        for x, v in zip(xs.tolist(), vec.tolist()):
            assert _mix_scalar(int(x)) == int(v)

    def test_phi_stability(self):
        # divided difference of log1p against mpmath at awkward points
        from mpmath import mp, mpf

        for p, q in [(0.3, 0.3), (0.5, 0.5 + 1e-14), (1.0, 0.0), (0.9, 0.2)]:
            got = float(_phi(p, q))
            with mp.workdps(50):
                if p == q:
                    want = 1.0 / (1.0 + p)
                else:
                    want = float((mp.log(1 + mpf(p)) - mp.log(1 + mpf(q))) / (mpf(p) - mpf(q)))
            assert got == pytest.approx(want, rel=1e-13)


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
        # reproduce the digit the interval fast path accepted
        replay = BulkDigitStream(123, 8)
        for level in range(25):
            for j in (0, 3, 7):
                rev = replay._history(j)
                d = _exact_digit(123, j, level, rev, full_history=replay.level <= 160)
                assert d == int(taken[level][j])
            replay.step()

    def test_window_state_bounds(self):
        rng = np.random.default_rng(31)
        for n in (1, 2, 7, 30):
            rev = [int(a) for a in rng.choice([1, 1, 2, 3, 7, 500], size=n)]
            beta = word(*rev[:-1], rev[-1] + 1).evaluate()
            gamma = word(*rev).evaluate()
            assert _window_state_bounds(rev, True) == (beta, beta, gamma, gamma)
            # a truncated window of the w most recent digits still encloses both
            for w in range(1, n):
                blo, bhi, glo, ghi = _window_state_bounds(rev[:w], False)
                assert blo <= beta <= bhi and glo <= gamma <= ghi

    def test_fallback_past_history_window(self, monkeypatch):
        # levels 200..399 lie past the 160-digit window, so the exact
        # fallback works from a truncated history (full_history=False)
        want = BulkDigitStream(7, 4)
        taken = [want.step().copy() for _ in range(400)]
        eng = BulkDigitStream(7, 4)
        for _ in range(200):
            eng.step()
        assert eng.fallbacks == 0
        # float bounds that decide nothing send every digit to the fallback
        monkeypatch.setattr(sampler, "_cdf_bounds",
                            lambda u, *args: (np.zeros_like(u), np.ones_like(u)))
        for level in range(200, 400):
            assert np.array_equal(eng.step(), taken[level]), level
        assert eng.fallbacks == 800

    def test_bit_budget_diagnostic(self, monkeypatch):
        # at the Gauss start F(1/2) = log2(1.5); a V whose 53-bit interval
        # straddles it cannot pick the first digit within 53 bits
        from mpmath import mp

        with mp.workdps(40):
            v_num = int(mp.floor(mp.log(1.5, 2) * 2**53))
        monkeypatch.setattr(sampler, "_word_scalar", lambda *args: v_num << 11)
        with pytest.raises(RuntimeError, match="budget"):
            _exact_digit(1, 0, 0, [], True, bit_budget=53)

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
        u = _inverse_cdf(w, b, g)
        assert np.max(np.abs(_cdf_mid(u, b, g, _phi(b, g)) - w)) <= 1e-12
        # at the Gauss start F(u) = log2(1 + u); 2^w - 1 in floats cancels
        # for small w, so the reference is mpmath's
        from mpmath import mp, mpf

        w = np.concatenate([w[:200], [2.0**-54, 1e-9, 1.0 - 2.0**-53]])
        u = _inverse_cdf(w, np.ones_like(w), np.zeros_like(w))
        with mp.workdps(40):
            want = [float(mp.power(2, mpf(x)) - 1) for x in w.tolist()]
        assert np.allclose(u, want, rtol=1e-15, atol=0.0)

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
        assert peak < 40e6, peak
        assert len(eng.hist) == 4

    def test_budget_guard(self):
        with pytest.raises(DomainError, match="digit budget"):
            sample_digit_matrix(1, 10**6, 10**4)


class TestIidMode:
    def test_marginals_and_determinism(self):
        m = sample_iid_gauss_kuzmin(11, 50_000, 2)
        assert np.array_equal(m, sample_iid_gauss_kuzmin(11, 50_000, 2))
        want = gauss_digit_law(1)
        se = math.sqrt(want * (1 - want) / 50_000)
        assert abs(float(np.mean(m[:, 0] == 1)) - want) <= 4 * se
        # iid mode really is a different process: pairs factorize
        p11 = float(np.mean((m[:, 0] == 1) & (m[:, 1] == 1)))
        assert abs(p11 - want**2) <= 5 * se

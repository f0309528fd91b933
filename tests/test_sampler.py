import hashlib
import math
import sys
import threading

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

    def test_escalation_settles_a_straddling_uniform(self, monkeypatch):
        # the 53-bit V of test_bit_budget_diagnostic straddles F(1/2) =
        # log2(1.5); the default budget lets later rounds read more words
        from mpmath import mp

        with mp.workdps(40):
            v_num = int(mp.floor(mp.log(1.5, 2) * 2**53))
        drawn = []

        def word_scalar(*args):
            drawn.append(args)
            return v_num << 11

        monkeypatch.setattr(sampler, "_word_scalar", word_scalar)
        got = _exact_digit(1, 0, 0, [], True)
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

    def test_digit_word_from_step_rows(self):
        eng = BulkDigitStream(9, 3)
        rows = [eng.step() for _ in range(40)]
        for j in range(3):
            digits = [row[j] for row in rows]
            assert isinstance(digits[0], np.int64)
            w = word(*digits)
            assert w == word(*(int(a) for a in digits))
            assert cylinder(w).contains(w.evaluate())

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
            _exact_digit(123, j, 30, rev, full_history=True) for j, rev in cases))
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert got == want


def _digest(a):
    return hashlib.sha256(np.asarray(a, dtype=np.int64).tobytes()).hexdigest()


class TestBlocks:
    """sample_digit_matrix's split into stream blocks and worker threads."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_golden_digits_multi_block(self, monkeypatch, workers):
        # 70 000 streams make 3 blocks on one worker and 4 on two; the digests
        # are those of one engine over all the streams
        monkeypatch.setattr(sampler, "_cpus", lambda: workers)
        assert _digest(sample_digit_matrix(2024, 70_000, 3)) == (
            "eff5c8d8e69c14fef9a902d7d72d911a413b5a7f2df7372135cc65f05bcfc8f2")
        assert _digest(sample_digit_matrix(2024, 70_000, 3, start="lebesgue")) == (
            "a18b9ca144f43d02aa543926d8434433a900aa88a15d83cd9a091b332fe145da")

    @pytest.mark.parametrize("workers, n_blocks", [(1, 7), (2, 8), (3, 9)])
    def test_blocks_match_scalar_streams(self, monkeypatch, workers, n_blocks):
        made = []

        class Recorded(BulkDigitStream):
            def __init__(self, seed, n_streams, stream_offset=0, start="gauss"):
                made.append((stream_offset, n_streams))
                super().__init__(seed, n_streams, stream_offset, start)

        monkeypatch.setattr(sampler, "BulkDigitStream", Recorded)
        monkeypatch.setattr(sampler, "_BLOCK", 16)
        monkeypatch.setattr(sampler, "_MIN_BLOCK", 4)
        monkeypatch.setattr(sampler, "_cpus", lambda: workers)
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

    def test_threaded_fallback_matches_serial(self, monkeypatch):
        want = sample_digit_matrix(5, 48, 3)
        monkeypatch.setattr(sampler, "_BLOCK", 8)
        monkeypatch.setattr(sampler, "_MIN_BLOCK", 4)
        monkeypatch.setattr(sampler, "_cpus", lambda: 3)
        # float bounds that decide nothing send every digit to the fallback
        monkeypatch.setattr(sampler, "_cdf_bounds",
                            lambda u, *args: (np.zeros_like(u), np.ones_like(u)))
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

    def test_block_error_reaches_caller(self, monkeypatch):
        class Failing(BulkDigitStream):
            def step(self):
                if self.streams[0] == 50:
                    raise RuntimeError("block at stream 50 failed")
                return super().step()

        monkeypatch.setattr(sampler, "BulkDigitStream", Failing)
        monkeypatch.setattr(sampler, "_BLOCK", 25)
        monkeypatch.setattr(sampler, "_MIN_BLOCK", 4)
        monkeypatch.setattr(sampler, "_cpus", lambda: 2)
        with pytest.raises(RuntimeError, match="stream 50"):
            sample_digit_matrix(3, 100, 2)


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

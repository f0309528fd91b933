"""Exact sampling of Gauss-distributed partial-quotient sequences.

BulkDigitStream is the one exact engine: it draws the digit process of the
Gauss (or Lebesgue) measure for a block of streams, level by level, and is
deterministic in (seed, stream index).  Given the digits so far, the tail
y = T^k x has conditional density proportional to 1/((1 + beta y)(1 + gamma y))
where beta = (p+q)'/(p+q) and gamma = q'/q both update as z -> 1/(a+z).  Each
digit is drawn by inverting the conditional CDF against a 53-bit uniform: the
closed-form inverse at the midpoint state only seeds the digit, every decision
is verified against rigorous float interval bounds, and the rare ambiguous
case is settled exactly by _exact_digit: the window's exact state from one
continuant recursion, then one ladder of rounds that each read more bits of
the uniform and raise the mpmath precision.  BulkDigitStream(seed, 1,
stream_offset=j) is the scalar stream j; the exact enclosure of its point
after n digits is cfcore.cylinder(word(*digits)).

sample_digit_matrix cuts its streams into equal contiguous blocks of at most
_BLOCK streams, so that one engine's float64 temporaries stay in the CPU
cache.  Each block is its own BulkDigitStream, which runs every level and
writes the block's rows of the result.  The blocks run on a thread pool with
one worker per available CPU, but at most one per _MIN_BLOCK streams; numpy
releases the interpreter lock inside its array loops.  The exact fallback
makes a new mpmath context on every call, so threads that overlap never change
each other's working precision.

sample_iid_gauss_kuzmin is the deliberate non-exact baseline: i.i.d. digits
with the Gauss-Kuzmin marginal, without the dependence between positions.

Randomness comes from a splitmix64 counter generator keyed by
(seed, stream, level, round), and streams share no state.  So stream j gets
the same digits whatever block it falls in and however many blocks and
workers a call uses.
"""

from __future__ import annotations

import numbers
import os
from collections import deque
from fractions import Fraction

import numpy as np

from .cfcore import DomainError, continuant_tail

U64 = np.uint64
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_M64 = (1 << 64) - 1

# domain separator of the uniforms V that select each digit
_DOM_VBITS = 0x9D8F0A6B42E1C753

TWO_NEG53 = 2.0**-53
_SLOP = 1e-13  # relative widening that dominates float rounding in F
PER_DIGIT_BIT_BUDGET = 4096


def _mix_scalar(x: int) -> int:
    z = (x + _GOLDEN) & _M64
    z = ((z ^ (z >> 30)) * _MIX1) & _M64
    z = ((z ^ (z >> 27)) * _MIX2) & _M64
    return z ^ (z >> 31)


def _mix(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        z = x + U64(_GOLDEN)
        z = (z ^ (z >> U64(30))) * U64(_MIX1)
        z = (z ^ (z >> U64(27))) * U64(_MIX2)
        return z ^ (z >> U64(31))


def _word_scalar(seed: int, domain: int, stream: int, ctr: int, rnd: int = 0) -> int:
    h = _mix_scalar((seed ^ domain) & _M64)
    h = _mix_scalar(h ^ (stream & _M64))
    h = _mix_scalar(h ^ (ctr & _M64))
    if rnd:
        h = _mix_scalar(h ^ (rnd & _M64))
    return h


def _words(seed: int, domain: int, streams: np.ndarray, ctr: int, rnd: int = 0) -> np.ndarray:
    h = U64(_mix_scalar((seed ^ domain) & _M64))
    h = _mix(h ^ streams.astype(U64))
    h = _mix(h ^ U64(ctr & _M64))
    if rnd:
        h = _mix(h ^ U64(rnd & _M64))
    return h


# ---------------------------------------------------------------------------
# conditional CDF of the tail given the (beta, gamma) state
# ---------------------------------------------------------------------------


def _phi(p, q):
    """Divided difference (ln(1+p) - ln(1+q)) / (p - q), stable near p = q.

    Decreasing in both arguments, which is what makes interval evaluation a
    one-liner."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    d = p - q
    safe = np.where(d == 0.0, 1.0, d)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log1p(safe / (1.0 + q)) / safe
    return np.where(d == 0.0, 1.0 / (1.0 + p), out)


def _cdf_bounds(u, blo, bhi, glo, ghi):
    """Rigorous enclosure of F(u) = u Phi(beta u, gamma u) / Phi(beta, gamma)."""
    z_lo = _phi(bhi, ghi) * (1.0 - _SLOP)
    z_hi = _phi(blo, glo) * (1.0 + _SLOP)
    n_lo = u * _phi(bhi * u, ghi * u) * (1.0 - _SLOP)
    n_hi = u * _phi(blo * u, glo * u) * (1.0 + _SLOP)
    return n_lo / z_hi, n_hi / z_lo


def _cdf_mid(u, b, g, z):
    return u * _phi(b * u, g * u) / z


def _inverse_cdf(w, b, g):
    """The u with F(u) = w at the point state (b, g), in closed form.

    F(u) = w means (1 + b u)/(1 + g u) = E with E = exp(w (b - g) Phi(b, g)),
    so u = e/(1 - g e) with e = (E - 1)/(b - g), which tends to w Phi(b, g)
    as b - g -> 0."""
    z = _phi(b, g)
    d = b - g
    safe = np.where(d == 0.0, 1.0, d)
    e = np.where(d == 0.0, w * z, np.expm1(w * safe * z) / safe)
    return e / (1.0 - g * e)


# ---------------------------------------------------------------------------
# exact scalar fallback
# ---------------------------------------------------------------------------

# (decimal digits, bits of V) of each precision round of _exact_digit: V
# grows by 64-bit words to about as many bits as the working precision holds
_ROUNDS = ((40, 53), (80, 245), (160, 501), (320, 1077), (400, 1333))


def _window_state_bounds(rev_digits, full_history):
    """Enclosure of beta = [0; a_k..a_1+1] and gamma = [0; a_k..a_1] from the
    most-recent-first digit window.

    [0; a_k..a_1] = p/q and [0; a_k..a_1 + 1] = [0; a_k..a_1, 1] =
    (p + p')/(q + q') are the two ends of the cylinder of the reversed word.
    With the full history they are gamma and beta exactly; a truncated window
    pins both inside that closed cylinder, width <= 1/q_w^2.
    """
    p_prev, q_prev, p, q = continuant_tail(rev_digits)
    gamma = Fraction(p, q)
    beta = Fraction(p + p_prev, q + q_prev)
    if full_history:
        return beta, beta, gamma, gamma
    lo, hi = sorted((gamma, beta))
    return lo, hi, lo, hi


def _search_digit(mp, state, v_num: int, v_bits: int):
    """The digit that V in [v_num, v_num + 1] / 2^v_bits selects, from CDF
    enclosures at mp's precision; None if a comparison is undecided."""
    mpf = mp.mpf
    eps = mpf(10) ** (8 - mp.dps)  # dominates the rounding of every step
    blo, bhi, glo, ghi = (mpf(x.numerator) / mpf(x.denominator) for x in state)
    v_lo, v_hi = (mpf(v) / mpf(2) ** v_bits for v in (v_num, v_num + 1))

    def phi(p, q):
        return 1 / (1 + p) if p == q else mp.log1p((p - q) / (1 + q)) / (p - q)

    z_lo = phi(bhi, ghi) * (1 - eps)
    z_hi = phi(blo, glo) * (1 + eps)

    def below(m: int):
        """True if V < F(1/m); False if V > F(1/m); None if undecided."""
        u = 1 / mpf(m)
        if v_lo >= u * phi(blo * u, glo * u) * (1 + eps) / z_lo:
            return False
        if v_hi <= u * phi(bhi * u, ghi * u) * (1 - eps) / z_hi:
            return True
        return None

    # doubling to bracket the digit, then bisection
    hi = 2
    while verdict := below(hi):
        hi *= 2
        if hi > 1 << 200:
            raise RuntimeError("runaway digit search")
    lo = hi // 2  # V <= F(1/lo) held (or lo == 1, where F(1) = 1 > V)
    while verdict is not None and hi - lo > 1:
        mid = (lo + hi) // 2
        verdict = below(mid)
        lo, hi = (mid, hi) if verdict else (lo, mid)
    return None if verdict is None else lo


def _exact_digit(
    seed: int,
    stream: int,
    level: int,
    rev_digits: list,
    full_history: bool,
    bit_budget: int = PER_DIGIT_BIT_BUDGET,
) -> int:
    """Draw one digit exactly: rigorous mpmath CDF enclosures against a lazily
    refined dyadic uniform.  Used when the float fast path cannot separate.

    Each round of _ROUNDS extends V by 64-bit words (extra word k hashes
    (seed, stream, level, k)) and searches again at a higher precision.  A comparison gives a verdict
    only when its bounds separate V from F(1/m), so the digit does not depend
    on the round that decides it."""
    from mpmath import MPContext  # a context per call: threads never share it

    mp = MPContext()
    state = _window_state_bounds(rev_digits, full_history)
    v_num, v_bits, rnd = _word_scalar(seed, _DOM_VBITS, stream, level) >> 11, 53, 0
    for dps, bits in _ROUNDS:
        if bits > bit_budget:
            break
        while v_bits < bits:
            rnd += 1
            v_num = (v_num << 64) | _word_scalar(seed, _DOM_VBITS, stream, level, rnd)
            v_bits += 64
        mp.dps = dps
        digit = _search_digit(mp, state, v_num, v_bits)
        if digit is not None:
            return digit
    raise RuntimeError(f"digit undecidable within {bit_budget}-bit budget "
                       f"(stream {stream}, level {level})")


# ---------------------------------------------------------------------------
# bulk engine
# ---------------------------------------------------------------------------

_HIST_WINDOW = 160


class BulkDigitStream:
    """Level-synchronous exact sampler for a block of streams.

    start="gauss" draws x from the Gauss measure, start="lebesgue" from the
    uniform measure (both give the exact digit process of the measure).
    """

    def __init__(self, seed: int, n_streams: int, stream_offset: int = 0,
                 start: str = "gauss"):
        if n_streams < 1:
            raise DomainError("need at least one stream")
        self.seed = int(seed)
        self.streams = np.arange(stream_offset, stream_offset + n_streams, dtype=np.int64)
        self.level = 0
        if start == "gauss":
            b0, g0 = 1.0, 0.0
        elif start == "lebesgue":
            b0, g0 = 0.0, 0.0
        else:
            raise DomainError("start must be 'gauss' or 'lebesgue'")
        n = n_streams
        self.blo = np.full(n, b0)
        self.bhi = np.full(n, b0)
        self.glo = np.full(n, g0)
        self.ghi = np.full(n, g0)
        # digit rows of the last _HIST_WINDOW levels, oldest first
        self.hist = deque(maxlen=_HIST_WINDOW)
        self.fallbacks = 0

    def step(self) -> np.ndarray:
        """Sample the next digit of every stream."""
        n = len(self.streams)
        v = (_words(self.seed, _DOM_VBITS, self.streams.view(np.uint64),
                    self.level) >> U64(11)).astype(np.float64) * TWO_NEG53
        # aim at the middle of V's 2^-53 interval from the midpoint state
        u = _inverse_cdf(v + TWO_NEG53 * 0.5, 0.5 * (self.blo + self.bhi),
                         0.5 * (self.glo + self.ghi))
        with np.errstate(divide="ignore", over="ignore"):
            d = np.floor(1.0 / u).astype(np.int64)
        np.clip(d, 1, 1 << 50, out=d)

        digits = np.zeros(n, dtype=np.int64)
        undecided = np.ones(n, dtype=bool)
        for _ in range(80):
            idx = np.nonzero(undecided)[0]
            if idx.size == 0:
                break
            # while every stream is undecided (the first pass), read the
            # state arrays whole instead of copying them by index
            sel = slice(None) if idx.size == n else idx
            dd = d[sel].astype(np.float64)
            blo, bhi = self.blo[sel], self.bhi[sel]
            glo, ghi = self.glo[sel], self.ghi[sel]
            vv = v[sel]
            # rows F(1/(d+1)) and F(1/d) share one evaluation of the normaliser
            (f_lo_in, f_lo_out), (f_hi_in, f_hi_out) = _cdf_bounds(
                1.0 / np.stack([dd + 1.0, dd]), blo, bhi, glo, ghi)
            ok = (vv >= f_hi_in) & (vv + TWO_NEG53 <= f_lo_out)
            move_dn = vv >= f_hi_out                # V > F(1/d): digit < d
            move_up = vv + TWO_NEG53 <= f_lo_in     # V <= F(1/(d+1)): digit > d
            stuck = ~(ok | move_dn | move_up)
            take = idx[ok]
            digits[take] = d[take]
            undecided[take] = False
            d[idx[move_dn]] -= 1
            d[idx[move_up]] += 1
            if np.any(stuck):
                for j in idx[stuck]:
                    digits[j] = self._fallback(int(j))
                    undecided[j] = False
        else:
            for j in np.nonzero(undecided)[0]:
                digits[j] = self._fallback(int(j))

        self._advance(digits)
        return digits

    def _fallback(self, j: int) -> int:
        self.fallbacks += 1
        return _exact_digit(
            self.seed, int(self.streams[j]), self.level, self._history(j),
            full_history=self.level <= _HIST_WINDOW,
        )

    def _history(self, j: int) -> list:
        """Stream j's last min(level, _HIST_WINDOW) digits, most recent first."""
        return [int(row[j]) for row in reversed(self.hist)]

    def _advance(self, digits: np.ndarray) -> None:
        d = digits.astype(np.float64)
        # z -> 1/(d+z) is decreasing, so ends swap; outward rounding keeps the
        # enclosure rigorous
        new_blo = np.nextafter(1.0 / np.nextafter(d + self.bhi, np.inf), 0.0)
        new_bhi = np.nextafter(1.0 / np.nextafter(d + self.blo, -np.inf), np.inf)
        new_glo = np.nextafter(1.0 / np.nextafter(d + self.ghi, np.inf), 0.0)
        new_ghi = np.nextafter(1.0 / np.nextafter(d + self.glo, -np.inf), np.inf)
        self.blo, self.bhi = new_blo, new_bhi
        self.glo, self.ghi = new_glo, new_ghi
        self.hist.append(digits.copy())  # the caller owns the returned row
        self.level += 1


# Most streams per engine.  A block's float64 temporaries then take at most
# 256 KB each, so the few that one array expression keeps live stay in a 2 MB
# L2 cache; at 1e5 streams they take 800 KB each.
_BLOCK = 32_768
_MIN_BLOCK = 8_192  # fewest streams per worker thread
_MAX_DIGITS = 80_000_000


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _check_shape(n_streams, depth) -> None:
    """The argument rules that both samplers share."""
    for name, value, least in (("n_streams", n_streams, 1), ("depth", depth, 0)):
        if not isinstance(value, numbers.Integral) or value < least:
            raise DomainError(f"{name} must be an integer >= {least}, got {value!r}")
    # also bounds the engine's history, n_streams * min(depth, 160) digits
    if int(n_streams) * int(depth) > _MAX_DIGITS:
        raise DomainError(f"digit budget exceeded: n_streams * depth is over "
                          f"{_MAX_DIGITS:.0e}; sample fewer streams or digits")


def sample_digit_matrix(
    seed: int,
    n_streams: int,
    depth: int,
    stream_offset: int = 0,
    start: str = "gauss",
) -> np.ndarray:
    """Digits a_1..a_depth for a block of streams, shape (n_streams, depth).

    Row j is stream stream_offset + j.  The rows are cut into equal contiguous
    blocks of at most _BLOCK streams, each sampled by its own BulkDigitStream.
    The blocks run on min(CPUs, n_streams // _MIN_BLOCK) threads, at least one,
    and their count is the smallest multiple of the thread count that keeps
    them that small.  A digit the float bounds cannot settle goes to
    _exact_digit, which works in an mpmath context of its own.  Each
    uniform is keyed by (seed, stream, level, round) and no state is shared
    between streams, so the digits are the same for any split and any number
    of threads."""
    _check_shape(n_streams, depth)
    workers = max(1, min(_cpus(), n_streams // _MIN_BLOCK))
    n_blocks = workers * -(-n_streams // (_BLOCK * workers))
    bounds = [n_streams * i // n_blocks for i in range(n_blocks + 1)]
    out = np.empty((n_streams, depth), dtype=np.int64)

    def run(lo: int, hi: int) -> None:
        eng = BulkDigitStream(seed, hi - lo, stream_offset + lo, start)
        for k in range(depth):
            out[lo:hi, k] = eng.step()

    # imported on first use, not with the package: about 10 ms of import
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers) as pool:
        # reading every result re-raises the first block's error
        list(pool.map(run, bounds, bounds[1:]))
    return out


def sample_iid_gauss_kuzmin(seed: int, n_streams: int, depth: int,
                            stream_offset: int = 0) -> np.ndarray:
    """i.i.d. digits with the Gauss-Kuzmin marginal (speed-over-exactness
    mode; the digit process loses its cross-position dependence)."""
    _check_shape(n_streams, depth)
    streams = np.arange(stream_offset, stream_offset + n_streams, dtype=np.int64)
    out = np.empty((n_streams, depth), dtype=np.int64)
    for k in range(depth):
        v = (_words(seed ^ 0x1D, _DOM_VBITS, streams.view(np.uint64), k)
             >> U64(11)).astype(np.float64) * TWO_NEG53
        x = np.exp2(v) - 1.0
        np.clip(x, 1e-300, 1.0, out=x)
        out[:, k] = np.floor(1.0 / x).astype(np.int64)
    return out


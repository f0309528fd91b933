"""Exact sampling of Gauss-distributed partial-quotient sequences.

BulkDigitStream is the one exact engine: it draws the digit process of the
Gauss (or Lebesgue) measure for a block of streams, level by level, and is
deterministic in (seed, stream index).  Given the digits so far, the tail
y = T^k x has conditional density proportional to 1/((1 + beta y)(1 + gamma y))
where beta = (p+q)'/(p+q) and gamma = q'/q both update as z -> 1/(a+z).  Each
digit is drawn by inverting the conditional CDF against a 53-bit uniform: the
closed-form inverse at the float state only seeds the digit, a digit is
accepted only when V lies inside its rigorous float band (an upper bound of
F(1/(d+1)) and a lower bound of F(1/d)), and every digit that one band test
does not accept is settled exactly by _exact_digit: the window's exact state
from one continuant recursion, then one ladder of rounds that each read more
bits of the uniform and raise the mpmath precision.  BulkDigitStream(seed, 1,
stream_offset=j) is the scalar stream j; the exact enclosure of its point
after n digits is cfcore.cylinder(word(*digits)).

An engine owns its per-level scratch: uint64 words and their shifts, float64
V, delta, L(1), guess and band, and two bool masks.  Every array operation
of a step writes into them, so the one array a level makes is the digit
row it returns.  The history keeps that row itself, made read-only, so a
caller that needs a writable row copies it.  Only a step with a flat stream
makes a few more arrays, in the flat branch.

sample_digit_matrix cuts its streams into equal contiguous blocks of at most
_BLOCK streams.  Each block is its own BulkDigitStream, which runs every
level and writes the block's rows of the result.  The blocks run on the
package's shared thread pool (_threads), on one worker per available CPU but
at most one per _MIN_BLOCK streams; numpy releases the interpreter lock
inside its array loops.  An engine makes one mpmath context at its first
exact fallback and keeps it for the rest; one engine runs on one thread, so
threads that overlap never change each other's working precision.
_exact_digit called on its own makes a context per call.

The band and the guess work in shift form: with delta = b - g and
L(m) = log1p(delta/(m + g)) = ln((m + b)/(m + g)), F(1/m) = L(m)/L(1), one
log1p of one quotient per bound, and the guess inverts it for x = 1/u.
L(1) = delta Phi(b, g) comes from the normaliser Phi(p, q) =
(ln(1+p) - ln(1+q)) / (p - q).  Where delta == 0 a stream is flat and
F(1/m) = (1 + g)/(m + g); a step finds its flat streams once, and only a
step with one pays for that branch (as _phi pays for its limit p = q only
when some element reaches it).  No stream is flat on the Gauss start's first
levels, where sample_digit_matrix's shallow calls run; deeper, the float
beta and gamma coincide (in about half the streams at level 16, in all from
level 32 on), and the Lebesgue start keeps them equal.

A step is one pass over the block: the guess, clipped to [1, 2^50], one band
test at the guess, and the exact fallback for each stream it does not accept:
a guess a digit off, a guess clipped at 2^50, or a V whose interval holds a
digit boundary.  The guess is off by a few u of F, far inside the band's
slop, so a wrong one is rare (none in 2e7 digits drawn from both starts).

The engine keeps the state as one float point per stream, updated as
z -> 1/(d + z), and the error budget of the float band is:
- The state.  With u = 2^-53, the exact beta and gamma lie in [0, 1] and
  d >= 1, so a relative error rho of z shrinks to at most rho/2 in 1/(d + z);
  the digit's conversion past 2^53, the sum and the quotient add at most one
  rounding u each.  From rho_0 = 0, rho_{k+1} <= rho_k/2 + 3u + O(u^2) keeps
  every level's rho below 7u + O(u^2) < 2^-50 (its fixed point is 6u).
- F.  Phi(p, q) is the mean of 1/(1 + x) over [q, p], so relative moves of p
  and q by at most rho move Phi by a factor in [1/(1 + rho), 1/(1 - rho)],
  and F(u) = u Phi(beta u, gamma u) / Phi(beta, gamma) by one in
  [(1 - rho)/(1 + rho), (1 + rho)/(1 - rho)]: at most 2^-49, 16 u.
  Evaluating F in shift form at the float state rounds it by a few u more
  (at most 4.61 u, measured against mpmath over 740 engine states and
  digits 1 to 2^50).
- The slop.  The band multiplies F's ratio by 1 +/- 2 _SLOP once: about
  1800 u, well above the two sources together (the smallest margin measured
  over those states and the corners of their radius is 1793 u), so the band
  stays a rigorous enclosure of the exact CDF and every digit it accepts is
  the exact digit.

sample_iid_gauss_kuzmin is the deliberate non-exact baseline: i.i.d. digits
with the Gauss-Kuzmin marginal, without the dependence between positions.

Randomness comes from a splitmix64 counter generator keyed by
(seed, stream, level, round), and streams share no state.  So stream j gets
the same digits whatever block it falls in and however many blocks and
workers a call uses.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction

import numpy as np

from ._threads import cpus as _cpus, thread_map
from .cfcore import DomainError, _require_int, continuant_tail

U64 = np.uint64
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_M64 = (1 << 64) - 1

# domain separator of the uniforms V that select each digit
_DOM_VBITS = 0x9D8F0A6B42E1C753

TWO_NEG53 = 2.0**-53
_LN2 = float(np.log(2.0))
# half the relative widening of F's band, applied once to each bound as
# 1 +/- 2 _SLOP: it dominates the state's radius 2^-50 (F moves by at most
# 2^-49) and the float rounding of F in shift form (a few u)
_SLOP = 1e-13


def _mix_scalar(x: int) -> int:
    z = (x + _GOLDEN) & _M64
    z = ((z ^ (z >> 30)) * _MIX1) & _M64
    z = ((z ^ (z >> 27)) * _MIX2) & _M64
    return z ^ (z >> 31)


def _mix(x: np.ndarray, out: np.ndarray | None = None,
         tmp: np.ndarray | None = None) -> np.ndarray:
    """splitmix64's finaliser of each word of the uint64 array x, in out; tmp
    holds the shifted words.  Either is a new array when None.  numpy's array
    arithmetic wraps modulo 2^64 without a warning."""
    z = np.add(x, U64(_GOLDEN), out=out)
    tmp = np.right_shift(z, U64(30), out=tmp)
    z ^= tmp
    z *= U64(_MIX1)
    z ^= np.right_shift(z, U64(27), out=tmp)
    z *= U64(_MIX2)
    z ^= np.right_shift(z, U64(31), out=tmp)
    return z


def _word_scalar(seed: int, stream: int, ctr: int, rnd: int = 0) -> int:
    h = _mix_scalar((seed ^ _DOM_VBITS) & _M64)
    h = _mix_scalar(h ^ (stream & _M64))
    h = _mix_scalar(h ^ (ctr & _M64))
    if rnd:
        h = _mix_scalar(h ^ (rnd & _M64))
    return h


def _stream_keys(seed: int, streams: np.ndarray) -> np.ndarray:
    """The level-free part of each int64 stream's word hash, computed once."""
    h = U64(_mix_scalar((seed ^ _DOM_VBITS) & _M64))
    return _mix(h ^ streams.view(U64))


def _words(ctr: int, keys: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """The words of counter ctr, _word_scalar's for round 0, mixed in out with
    tmp as _mix's scratch."""
    np.bitwise_xor(keys, U64(ctr & _M64), out=out)
    return _mix(out, out, tmp)


def _uniforms(ctr: int, keys: np.ndarray, w: np.ndarray, tmp: np.ndarray,
              v: np.ndarray) -> np.ndarray:
    """V = (word >> 11) 2^-53 of counter ctr for each key, in the float64 v;
    w and tmp are _words' uint64 scratch.  Both samplers draw through it."""
    w = _words(ctr, keys, w, tmp)
    w >>= U64(11)
    return np.multiply(w, TWO_NEG53, out=v)


# ---------------------------------------------------------------------------
# conditional CDF of the tail given the (beta, gamma) state
# ---------------------------------------------------------------------------


def _phi(p, q, d=None, flat=None, out=None):
    """Divided difference (ln(1+p) - ln(1+q)) / (p - q), stable near p = q.

    Decreasing in both arguments: it is the mean of 1/(1 + x) over [q, p].
    Only an input with some p == q pays for the limit 1/(1 + p), in a new
    array: otherwise the quotient is computed in place, in out if given,
    with the same operations in the same order, so each value is the same to
    the bit.  A caller that has d = p - q and flat, the mask of d == 0 or
    None where no element is 0, passes both, with p and q float arrays."""
    if d is None:
        p = np.asarray(p, dtype=float)
        q = np.asarray(q, dtype=float)
        d = p - q
        flat = d == 0.0
        if not np.count_nonzero(flat):
            flat = None
    if flat is not None:
        safe = np.where(flat, 1.0, d)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.log1p(safe / (1.0 + q)) / safe
        return np.where(flat, 1.0 / (1.0 + p), out)
    if out is None:
        out = np.empty_like(d)  # an array even when d is a numpy scalar
    np.add(1.0, q, out=out)
    np.divide(d, out, out=out)
    np.log1p(out, out=out)
    out /= d
    return out


def _digit_band(d, delta, g, l1, flat, top=None, bottom=None):
    """(top, bottom): a rigorous upper bound of F(1/(d+1)) and a rigorous lower
    bound of F(1/d) at an exact state within relative 2^-50 of the float state
    (b, g), in shift form: F(1/m) = L(m)/l1 with L(m) = log1p(delta/(m + g)),
    delta = b - g and l1 = L(1) = delta Phi(b, g).  flat is the mask of
    delta == 0, where F(1/m) = (1 + g)/(m + g), or None if none is 0.

    A uniform known to lie in [V, V + 2^-53] selects digit d when V >= top
    and V + 2^-53 <= bottom.  Each bound is the ratio times 1 +/- 2 _SLOP,
    evaluated in place; the slop covers the state's radius and the rounding
    of F (see _SLOP).  top and bottom, if given, hold the result."""
    bottom = np.add(d, g, out=bottom)  # m + g at m = d
    top = np.add(bottom, 1.0, out=top)  # and at m = d + 1
    for s, slop in ((top, 2.0 * _SLOP), (bottom, -2.0 * _SLOP)):
        f_flat = None if flat is None else (1.0 + g) / s
        np.divide(delta, s, out=s)
        np.log1p(s, out=s)
        if flat is None:
            s /= l1
        else:
            with np.errstate(invalid="ignore"):  # 0/0 where flat, overwritten
                s /= l1
            np.copyto(s, f_flat, where=flat)
        s *= 1.0 + slop
    return top, bottom


def _inverse_cdf(w, delta, g, l1, flat, out=None):
    """The digit variable x = 1/u with F(u) = w at the point state (b, g), in
    closed form, given delta, l1 and flat as _digit_band takes them.

    F(1/x) = w means log1p(delta/(x + g)) = w l1, so x = delta/expm1(w l1) - g;
    where flat, (1 + g)/(x + g) = w gives x = (1 + g)/w - g.  w, delta, g, l1
    and flat share one shape (or are scalars).  out, if given, holds x; it
    must not be w, which the flat branch reads again."""
    x = np.asarray(np.multiply(w, l1, out=out))  # an array even for scalars
    np.expm1(x, out=x)
    if flat is None:
        np.divide(delta, x, out=x)
    else:
        with np.errstate(invalid="ignore"):  # 0/0 where flat, overwritten
            np.divide(delta, x, out=x)
        np.copyto(x, (1.0 + g) / w, where=flat)
    x -= g
    return x


# ---------------------------------------------------------------------------
# exact scalar fallback
# ---------------------------------------------------------------------------


def _new_context():
    """A fresh mpmath context, so the precision it is given stays private."""
    from mpmath import MPContext  # imported on first use: fallbacks are rare

    return MPContext()


# (decimal digits, bits of V) of each precision round of _exact_digit: V
# grows by 64-bit words to about as many bits as the working precision holds
_ROUNDS = ((40, 53), (80, 245), (160, 501), (320, 1077), (400, 1333))


def _window_state_bounds(rev_digits, full_history, b0=1):
    """Enclosure of beta = [0; a_k..a_1 + beta_0] and gamma = [0; a_k..a_1]
    from the most-recent-first digit window, where the start has gamma_0 = 0
    and beta_0 = b0: 1 for the Gauss measure, 0 for the Lebesgue one.

    [0; a_k..a_1 + z] = (p + z p')/(q + z q'), so z = 0 and z = 1 give the two
    ends p/q and (p + p')/(q + q') of the cylinder of the reversed word.  With
    the full history, gamma = p/q and beta = (p + b0 p')/(q + b0 q') exactly; a
    truncated window pins both inside that closed cylinder, width <= 1/q_w^2.
    """
    p_prev, q_prev, p, q = continuant_tail(rev_digits)
    gamma = Fraction(p, q)
    if full_history:
        beta = Fraction(p + b0 * p_prev, q + b0 * q_prev)
        return beta, beta, gamma, gamma
    lo, hi = sorted((gamma, Fraction(p + p_prev, q + q_prev)))
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
    mp=None,
    b0: int = 1,
) -> int:
    """Draw one digit exactly: rigorous mpmath CDF enclosures against a lazily
    refined dyadic uniform.  Used for every digit the float band cannot settle.

    Each round of _ROUNDS extends V by 64-bit words (extra word k hashes
    (seed, stream, level, k)) and searches again at a higher precision.  A comparison gives a verdict
    only when its bounds separate V from F(1/m), so the digit does not depend
    on the round that decides it.  mp is an mpmath context that no other
    thread uses (its precision is set here); None makes a new one.  b0 is the
    start's beta_0, as _window_state_bounds takes it."""
    if mp is None:
        mp = _new_context()
    state = _window_state_bounds(rev_digits, full_history, b0)
    v_num, v_bits, rnd = _word_scalar(seed, stream, level) >> 11, 53, 0
    for dps, bits in _ROUNDS:
        while v_bits < bits:
            rnd += 1
            v_num = (v_num << 64) | _word_scalar(seed, stream, level, rnd)
            v_bits += 64
        mp.dps = dps
        digit = _search_digit(mp, state, v_num, v_bits)
        if digit is not None:
            return digit
    raise RuntimeError(f"digit undecidable within a {v_bits}-bit uniform "
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
        self.seed = _require_int("seed", seed)
        n, offset = _stream_range(n_streams, stream_offset)
        self.streams = np.arange(n, dtype=np.int64) + offset
        self._keys = _stream_keys(self.seed, self.streams)
        # each level's scratch, written in place: the words and their shifts,
        # then V, delta, L(1), the guess, the band and two masks
        self._w, self._tmp = np.empty((2, n), dtype=U64)
        self._v, self._delta, self._l1, self._guess, self._top, self._bottom = np.empty((6, n))
        self._mask, self._ok = np.empty((2, n), dtype=bool)
        self.level = 0
        if start not in ("gauss", "lebesgue"):
            raise DomainError("start must be 'gauss' or 'lebesgue'")
        # the exact start: gamma_0 = 0, and beta_0 = 1 (Gauss) or 0 (Lebesgue)
        self._b0 = int(start == "gauss")
        # float beta and gamma, each within relative 2^-50 of the exact state
        self._beta = np.full(n, float(self._b0))
        self._gamma = np.zeros(n)
        # digit rows of the last _HIST_WINDOW levels, oldest first
        self.hist = deque(maxlen=_HIST_WINDOW)
        self.fallbacks = 0
        self._mp = None  # the exact fallback's mpmath context, made on first use

    def step(self) -> np.ndarray:
        """Sample the next digit of every stream."""
        v = _uniforms(self.level, self._keys, self._w, self._tmp, self._v)
        b, g = self._beta, self._gamma
        delta = np.subtract(b, g, out=self._delta)
        # the flat mask, None when no stream is flat; once the band is made,
        # its buffer takes the band's second test
        flat = np.equal(delta, 0.0, out=self._mask)
        if not np.count_nonzero(flat):
            flat = None
        # L(1) = delta Phi(b, g) = log1p(delta/(1 + g))
        l1 = np.multiply(delta, _phi(b, g, delta, flat, self._l1), out=self._l1)
        # aim at the middle of V's 2^-53 interval; the band around F is about
        # 2e-13 wide, relative, so the guess is almost always right
        mid = np.add(v, TWO_NEG53 * 0.5, out=self._top)  # top is free until the band
        d = _inverse_cdf(mid, delta, g, l1, flat, self._guess)
        np.floor(d, out=d)
        np.clip(d, 1.0, 2.0**50, out=d)
        # one band test: the guess is the digit where V's interval lies in its
        # band; every other stream, a guess off by a digit, one clipped at
        # 2^50 or a V too close to a boundary, goes to the exact fallback
        top, bottom = _digit_band(d, delta, g, l1, flat, self._top, self._bottom)
        ok = np.greater_equal(v, top, out=self._ok)  # the digit is at most d
        v += TWO_NEG53  # the top of V's interval; V is not read again
        ok &= np.less_equal(v, bottom, out=self._mask)  # and at least d
        digits = d.astype(np.int64)  # the level's one new array
        for j in np.flatnonzero(np.logical_not(ok, out=ok)):
            digits[j] = self._fallback(int(j))
        self._advance(digits)
        return digits

    def _fallback(self, j: int) -> int:
        self.fallbacks += 1
        if self._mp is None:
            self._mp = _new_context()
        return _exact_digit(
            self.seed, int(self.streams[j]), self.level, self._history(j),
            full_history=self.level <= _HIST_WINDOW, mp=self._mp, b0=self._b0,
        )

    def _history(self, j: int) -> list:
        """Stream j's last min(level, _HIST_WINDOW) digits, most recent first."""
        return [int(row[j]) for row in reversed(self.hist)]

    def _advance(self, digits: np.ndarray) -> None:
        """beta, gamma <- 1/(d + beta), 1/(d + gamma) in place, each within
        relative 2^-50 of the exact state (see the module docstring).  The
        history keeps the row itself, made read-only."""
        for z in (self._beta, self._gamma):
            z += digits  # each digit rounds to float64 as astype does
            np.divide(1.0, z, out=z)
        digits.flags.writeable = False
        self.hist.append(digits)
        self.level += 1


# Most streams per engine, a measured choice.  An engine keeps about 12
# arrays of 8 bytes per stream (scratch, state, keys and stream indices),
# 3 MB at this size.  On 1e5 x 4 digits (2 vCPUs, best of 20 per round, 3
# rounds), blocks of at most 16384, 32768 and 65536 streams took 13.4-14.3,
# 11.3-11.8 and 11.1-12.1 ms on two workers; 8192 lost to one worker
# (15.4-24.4 against 13.3-14.3 ms), and 65536 took 21.5-28.8 ms on one.
_BLOCK = 32_768
_MIN_BLOCK = 8_192  # fewest streams per worker thread
_MAX_DIGITS = 80_000_000


_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1


def _stream_range(n_streams, stream_offset) -> tuple[int, int]:
    """(n_streams, stream_offset) as ints, or a DomainError naming the limit
    that one of them breaks: every stream index, stream_offset + j for
    j < n_streams, is an int64."""
    n = _require_int("n_streams", n_streams, 1)
    offset = _require_int("stream_offset", stream_offset, _INT64_MIN, _INT64_MAX)
    if offset + n - 1 > _INT64_MAX:
        raise DomainError(f"stream indices must fit in int64: stream_offset + n_streams - 1 "
                          f"= {offset + n - 1} is over 2^63 - 1")
    return n, offset


def _check_shape(seed, n_streams, depth, stream_offset) -> tuple[int, int, int]:
    """The argument rules that both samplers share; returns the seed,
    n_streams and stream_offset as ints."""
    seed = _require_int("seed", seed)
    n, offset = _stream_range(n_streams, stream_offset)
    depth = _require_int("depth", depth, 0)
    # also bounds the engine's history, n_streams * min(depth, 160) digits
    if n * depth > _MAX_DIGITS:
        raise DomainError(f"digit budget exceeded: n_streams * depth is over "
                          f"{_MAX_DIGITS:.0e}; sample fewer streams or digits")
    return seed, n, offset


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
    _exact_digit, which works in its block engine's own mpmath context.  Each
    uniform is keyed by (seed, stream, level, round) and no state is shared
    between streams, so the digits are the same for any split and any number
    of threads."""
    seed, n_streams, stream_offset = _check_shape(seed, n_streams, depth, stream_offset)
    out = np.empty((n_streams, depth), dtype=np.int64)
    if not depth:  # no digits: no block to build
        return out
    workers = max(1, min(_cpus(), n_streams // _MIN_BLOCK))
    n_blocks = workers * -(-n_streams // (_BLOCK * workers))
    bounds = [n_streams * i // n_blocks for i in range(n_blocks + 1)]

    def run(lo: int, hi: int) -> None:
        eng = BulkDigitStream(seed, hi - lo, stream_offset + lo, start)
        for k in range(depth):
            out[lo:hi, k] = eng.step()

    thread_map(run, workers, bounds, bounds[1:])
    return out


def sample_iid_gauss_kuzmin(seed: int, n_streams: int, depth: int,
                            stream_offset: int = 0) -> np.ndarray:
    """i.i.d. digits with the Gauss-Kuzmin marginal (speed-over-exactness
    mode; the digit process loses its cross-position dependence)."""
    seed, n_streams, stream_offset = _check_shape(seed, n_streams, depth, stream_offset)
    keys = _stream_keys(seed ^ 0x1D, np.arange(n_streams, dtype=np.int64) + stream_offset)
    w, tmp = np.empty((2, n_streams), dtype=U64)
    x = np.empty(n_streams)
    out = np.empty((n_streams, depth), dtype=np.int64)
    for k in range(depth):
        _uniforms(k, keys, w, tmp, x)  # V, which becomes x in place
        # x = 2^w - 1 at the middle w of V's 2^-53 interval lies in (0, 1]
        # (w rounds to 1 at the top), so every digit floor(1/x) is an int64
        # in [1, 2^55)
        x += TWO_NEG53 * 0.5
        x *= _LN2
        np.expm1(x, out=x)
        np.divide(1.0, x, out=x)
        out[:, k] = np.floor(x, out=x)  # whole floats, cast as astype does
    return out

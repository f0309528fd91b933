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
bits of the uniform, raise the mpmath precision and bound x = 1/u by the same
closed form at two corners of the box of (V, beta, gamma), as F rises in beta
and in gamma.  BulkDigitStream(seed, 1, stream_offset=j) is the scalar stream
j; the exact enclosure of its point after n digits is
cfcore.cylinder(word(*digits)).

An engine owns its per-level scratch, six arrays of 8 bytes per stream: the
uint64 words and their shifts, and the float64 delta, L(1), guess and band
bottom; V is written over the shifts and the band's top over the words, each
dead by then.  Two bool masks and the stream keys complete it.  Every array
operation of a level writes into them or into the level's digit row, which
the engine is given: sample_digit_matrix gives the result's column, so a
block makes no array per level and its history is read-only views of the
result; step() gives a new row, the one array a level makes there, and
returns it.  The history keeps each row itself, made read-only, so a caller
that needs a writable row copies it.  Only a step with a flat stream makes a
few more arrays, in the flat branch.  Level 0 reads the start's exact state
(beta_0, 0) as scalars, so it makes no delta or L(1) array and takes two
log1p per digit, the band's, where later levels take three.

sample_digit_matrix cuts its streams into equal contiguous blocks of at most
_BLOCK streams by _threads.spans, which keeps at most one thread busy per
_MIN_BLOCK streams, so a call of _MIN_BLOCK to _BLOCK streams per CPU runs
one block per CPU.  Each block is its own BulkDigitStream, which runs every
level and writes its digits straight into the block's rows of the result, as
one task on the package's shared pool of one thread per available CPU; numpy
releases the interpreter lock inside its array loops.  An engine makes one
mpmath context at its first exact fallback and keeps it for the rest; one
engine runs on one thread, so threads that overlap never change each other's
working precision.
_exact_digit called on its own makes a context per call.

The band and the guess work in shift form: with delta = b - g and
L(m) = log1p(delta/(m + g)) = ln((m + b)/(m + g)), F(1/m) = L(m)/L(1), one
log1p of one quotient per bound, and the guess inverts it for x = 1/u.
Where delta == 0 a stream is flat, L(1) is 0 and F(1/m) = (1 + g)/(m + g);
a step finds its flat streams once, and only a step with one pays for that
branch.  No stream is flat on the Gauss start's first levels; deeper, the
float beta and gamma coincide (in all streams from level 32 on), and the
Lebesgue start keeps them equal.

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
(seed, stream, level, round), with the seed in [0, 2^64), and streams share
no state.  So stream j gets the same digits whatever block it falls in and
however many blocks and workers a call uses.  The i.i.d. baseline hashes
its seed under a domain constant of its own, apart from the exact sampler's.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction

import numpy as np

from ._threads import spans, thread_map
from .cfcore import LOG2, DomainError, _require_int, continuant_tail

U64 = np.uint64
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_M64 = (1 << 64) - 1

# domain separators of the uniforms: V, which selects each exact digit, and
# the i.i.d. baseline's.  i.i.d. seed s shares its keys with exact seed
# s ^ _DOM_IID ^ _DOM_VBITS only, which is at least 2^63 for every s below 2^63
_DOM_VBITS = 0x9D8F0A6B42E1C753
_DOM_IID = 0x6A09E667F3BCC909

TWO_NEG53 = 2.0**-53
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


def _stream_keys(seed: int, streams: range, domain: int = _DOM_VBITS,
                 tmp: np.ndarray | None = None) -> np.ndarray:
    """The level-free part of the word hash of each stream of the range
    streams, computed once and in place: the int64 index's bits are
    offset + j modulo 2^64.  tmp is _mix's scratch, a new array when None."""
    keys = np.arange(len(streams), dtype=U64)
    keys += U64(streams.start & _M64)
    keys ^= U64(_mix_scalar((seed ^ domain) & _M64))
    return _mix(keys, keys, tmp)


def _words(ctr: int, keys: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """The words of counter ctr, _word_scalar's for round 0, mixed in out with
    tmp as _mix's scratch."""
    np.bitwise_xor(keys, U64(ctr & _M64), out=out)
    return _mix(out, out, tmp)


def _uniforms(ctr: int, keys: np.ndarray, w: np.ndarray, tmp: np.ndarray,
              v: np.ndarray) -> np.ndarray:
    """V = (word >> 11) 2^-53 of counter ctr for each key, in the float64 v;
    w and tmp are _words' uint64 scratch, and v may be tmp's memory.  The
    shifted words are below 2^53, so their int64 view converts to floats
    exactly, and faster than uint64 does.  Both samplers draw through it."""
    w = _words(ctr, keys, w, tmp)
    w >>= U64(11)
    return np.multiply(w.view(np.int64), TWO_NEG53, out=v)


# ---------------------------------------------------------------------------
# conditional CDF of the tail given the (beta, gamma) state
# ---------------------------------------------------------------------------


def _digit_band(d, delta, g, l1, flat, top=None, bottom=None):
    """(top, bottom): a rigorous upper bound of F(1/(d+1)) and a rigorous lower
    bound of F(1/d) at an exact state within relative 2^-50 of the float state
    (b, g), in shift form: F(1/m) = L(m)/l1 with L(m) = log1p(delta/(m + g)),
    delta = b - g and l1 = L(1).  flat is the mask of delta == 0, where
    F(1/m) = (1 + g)/(m + g), or None if none is 0.

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
    where flat, (1 + g)/(x + g) = w gives x = (1 + g)/w - g.  w, delta, g
    and l1 are arrays of one shape.  out, if given, holds x; it must not be
    w, which the flat branch reads again."""
    x = np.multiply(w, l1, out=out)
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


def _digit_variable(mp, v, b, g):
    """x = 1/u with F(u) = v > 0 at the state (b, g), at mp's precision, by
    _inverse_cdf's closed form."""
    if b == g:
        return (1 + g) / v - g
    return (b - g) / mp.expm1(v * mp.log1p((b - g) / (1 + g))) - g


def _search_digit(mp, state, v_num: int, v_bits: int):
    """The digit d that V in [v_num, v_num + 1] / 2^v_bits selects, when one
    enclosure [x_lo, x_hi] of x = 1/u at mp's precision lies in [d, d + 1);
    None if it does not.

    F rises in beta and in gamma, as d/dbeta ln h = -y/(1 + beta y) falls in
    y for the density h, and likewise for gamma.  So x rises in beta and gamma
    and falls in V, and the corners (V_hi, beta_lo, gamma_lo) and (V_lo,
    beta_hi, gamma_hi) of the box give x_lo and x_hi, each widened by eps."""
    mpf = mp.mpf
    eps = mpf(10) ** (8 - mp.dps)  # dominates the rounding of every step
    blo, bhi, glo, ghi = (mpf(x.numerator) / mpf(x.denominator) for x in state)
    v_lo, v_hi = (mpf(v) / mpf(2) ** v_bits for v in (v_num, v_num + 1))
    x_lo = _digit_variable(mp, v_hi, blo, glo) * (1 - eps)
    x_hi = _digit_variable(mp, v_lo, bhi, ghi) * (1 + eps) if v_num else mp.inf
    d = max(1, int(mp.floor(x_lo)))  # x >= 1, since V <= 1
    return d if x_hi < d + 1 else None


def _exact_digit(seed: int, stream: int, level: int, rev_digits: list,
                 mp=None, b0: int = 1) -> int:
    """Draw one digit exactly from mpmath enclosures of x = 1/u and a lazily
    refined dyadic uniform, for every digit the float band cannot settle.

    Each round of _ROUNDS extends V by 64-bit words (extra word k hashes
    (seed, stream, level, k)) and encloses x at a higher precision, between
    the closed form's values at two corners of the box of V and the state,
    as x rises in beta and gamma and falls in V (see _search_digit).  A round
    gives a digit d only when its enclosure lies in [d, d + 1), so the digit
    does not depend on the round that decides it.  rev_digits
    is the window of the last min(level, _HIST_WINDOW) digits, most recent
    first, so it is the full history when it holds level digits.  mp is an
    mpmath context that no other thread uses (its precision is set here);
    None makes a new one.  b0 is the start's beta_0, as _window_state_bounds
    takes it."""
    if mp is None:
        mp = _new_context()
    state = _window_state_bounds(rev_digits, len(rev_digits) == level, b0)
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
        self.seed = _require_int("seed", seed, 0, _M64)
        n, offset = _stream_range(n_streams, stream_offset)
        # immutable: the keys hash the indices once, and the exact fallback
        # reads them again
        self.streams = range(offset, offset + n)
        # each level's scratch, written in place: the words and their shifts,
        # then delta, L(1), the guess, the band's bottom and two masks; V is
        # written over the shifts and the band's top over the words, each
        # dead by then
        self._w, self._tmp = np.empty((2, n), dtype=U64)
        self._v, self._top = self._tmp.view(np.float64), self._w.view(np.float64)
        self._delta, self._l1, self._guess, self._bottom = np.empty((4, n))
        self._mask, self._ok = np.empty((2, n), dtype=bool)
        self._keys = _stream_keys(self.seed, self.streams, tmp=self._tmp)
        self.level = 0
        # the exact start: gamma_0 = 0, and beta_0 = 1 (Gauss) or 0 (Lebesgue)
        self._b0 = _start_beta(start)
        # float beta and gamma, each within relative 2^-50 of the exact state
        self._beta = np.full(n, float(self._b0))
        self._gamma = np.zeros(n)
        # digit rows of the last _HIST_WINDOW levels, oldest first
        self.hist = deque(maxlen=_HIST_WINDOW)
        self.fallbacks = 0
        self._mp = None  # the exact fallback's mpmath context, made on first use

    def step(self) -> np.ndarray:
        """Sample the next digit of every stream, as a new read-only row that
        the history keeps."""
        row = np.empty(len(self.streams), dtype=np.int64)
        self._step_into(row)
        return row

    def _step_into(self, row: np.ndarray) -> None:
        """Write the next digit of every stream into the int64 array row (a
        column of the caller's result, or a new row), then make row read-only
        and keep it in the history."""
        v = _uniforms(self.level, self._keys, self._w, self._tmp, self._v)
        if self.level:
            b, g = self._beta, self._gamma
            delta = np.subtract(b, g, out=self._delta)
            # the flat mask, None when no stream is flat; once the band is
            # made, its buffer takes the band's second test
            flat = None if delta.all() else np.equal(delta, 0.0, out=self._mask)
            # L(1) = log1p(delta/(1 + g)), 0 where flat; the band and the
            # guess overwrite the flat streams
            l1 = np.add(1.0, g, out=self._l1)
            np.divide(delta, l1, out=l1)
            np.log1p(l1, out=l1)
        else:
            # the exact start (beta_0, 0) as scalars: L(1) = ln 2 at the Gauss
            # start, and at the Lebesgue one every stream is flat
            g, delta = np.float64(0.0), np.float64(self._b0)
            flat = None if self._b0 else True
            l1 = np.log1p(delta / (1.0 + g))
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
        row[:] = d  # whole floats below 2^51, cast exactly
        if not ok.all():
            for j in np.flatnonzero(np.logical_not(ok, out=ok)):
                # the float digit rounds as a cast of the int64 one would
                row[j] = d[j] = self._fallback(int(j))
        self._advance(d)
        row.flags.writeable = False
        self.hist.append(row)
        self.level += 1

    def _fallback(self, j: int) -> int:
        self.fallbacks += 1
        if self._mp is None:
            self._mp = _new_context()
        return _exact_digit(self.seed, self.streams[j], self.level,
                            self._history(j), mp=self._mp, b0=self._b0)

    def _history(self, j: int) -> list:
        """Stream j's last min(level, _HIST_WINDOW) digits, most recent first."""
        return [int(row[j]) for row in reversed(self.hist)]

    def _advance(self, digits: np.ndarray) -> None:
        """beta, gamma <- 1/(d + beta), 1/(d + gamma) in place, from the
        level's digits as floats, each within relative 2^-50 of the exact
        state (see the module docstring)."""
        for z in (self._beta, self._gamma):
            z += digits
            np.divide(1.0, z, out=z)


# Most streams per engine, a measured choice and the memory bound of one
# engine: 74 bytes per stream (nine 8-byte arrays of scratch, state and keys,
# and two masks), 4.8 MB at this size.  On 1e5 x 4 digits (2-vCPU AMD EPYC,
# one BLAS thread, medians of 30 calls, 6 rounds), blocks of at most 32768,
# 65536 and 131072 streams took 3.13-3.34, 3.06-3.19 and 3.06-3.25 ms on one
# worker, and 2.04-3.54, 1.75-2.57 and 1.72-2.42 ms on two, where 65536 and
# 131072 make the same two blocks of 50000; blocks of 8192 still lose on two
# workers (4.27-4.41 against 3.84-3.89 ms on one), as the workers hand the
# interpreter lock back and forth around each numpy call of a level.
_BLOCK = 65_536
# Fewest streams per worker thread, half the measured crossover: a call runs
# on two workers from 2 _MIN_BLOCK streams, where the second starts to win.
# One against two workers (patched _threads.cpus, 2-vCPU AMD EPYC, one BLAS
# thread, medians of alternated calls, 4-6 rounds): at depth 4 two took
# 1.00-1.07 of one's time at 14 336 streams and 0.93-0.98 at 16 384, at
# depth 32 1.05-1.09 and 0.96, and at depth 256 crossed near 12 000 (0.85-0.87
# at 16 384), so 16 384 is past the crossover at every depth measured.  While
# the other CPU is busy with other work, two lose by 40-80% at any count.  It
# stays at most 50 000, so 1e5 streams run two blocks of 50 000 on two CPUs.
_MIN_BLOCK = 8_192
# most digits per call, the result's 8 bytes each; the history of
# sample_digit_matrix's engines holds views of the result's columns, not copies
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


def _start_beta(start) -> int:
    """The exact start's beta_0: 1 for "gauss", 0 for "lebesgue", and a
    DomainError for any other start."""
    if not (isinstance(start, str) and start in ("gauss", "lebesgue")):
        raise DomainError(f"start must be 'gauss' or 'lebesgue', got {start!r}")
    return int(start == "gauss")


def _check_shape(seed, n_streams, depth, stream_offset) -> tuple[int, int, int]:
    """The argument rules that both samplers share; returns the seed,
    n_streams and stream_offset as ints."""
    seed = _require_int("seed", seed, 0, _M64)  # the hash reads 64 bits of it
    n, offset = _stream_range(n_streams, stream_offset)
    depth = _require_int("depth", depth, 0)
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

    Row j is stream stream_offset + j.  The rows are cut by
    _threads.spans(n_streams, _MIN_BLOCK, _BLOCK) into equal contiguous
    blocks of at most _BLOCK streams, each sampled by its own BulkDigitStream
    as one task on the shared pool of one thread per CPU, which writes each
    level's digits straight into its rows of the result.  A digit the
    float bounds cannot settle goes to _exact_digit, which works in its block
    engine's own mpmath context.  Each uniform is keyed by (seed, stream,
    level, round) and no state is shared between streams, so the digits are
    the same for any split and any number of threads."""
    seed, n_streams, stream_offset = _check_shape(seed, n_streams, depth, stream_offset)
    _start_beta(start)  # once, before any block, at depth 0 too
    out = np.empty((n_streams, depth), dtype=np.int64)
    if not depth:  # no digits: no block to build
        return out
    bounds = spans(n_streams, _MIN_BLOCK, _BLOCK)

    def run(lo: int, hi: int) -> None:
        eng = BulkDigitStream(seed, hi - lo, stream_offset + lo, start)
        for k in range(depth):
            eng._step_into(out[lo:hi, k])

    thread_map(run, bounds, bounds[1:])
    return out


def sample_iid_gauss_kuzmin(seed: int, n_streams: int, depth: int,
                            stream_offset: int = 0) -> np.ndarray:
    """i.i.d. digits with the Gauss-Kuzmin marginal (speed-over-exactness
    mode; the digit process loses its cross-position dependence)."""
    seed, n_streams, stream_offset = _check_shape(seed, n_streams, depth, stream_offset)
    w, tmp = np.empty((2, n_streams), dtype=U64)
    keys = _stream_keys(seed, range(stream_offset, stream_offset + n_streams), _DOM_IID, tmp)
    out = np.empty((n_streams, depth), dtype=np.int64)
    for k in range(depth):
        mid = _uniforms(k, keys, w, tmp, tmp.view(np.float64))
        mid += TWO_NEG53 * 0.5  # the middle w of V's 2^-53 interval
        # the Gauss start's inverse CDF, x = 1/(2^w - 1), in the free words:
        # 2^w - 1 lies in (0, 1] (w rounds to 1 at the top), so every digit
        # floor(x) is an int64 in [1, 2^55)
        x = _inverse_cdf(mid, 1.0, 0.0, LOG2, None, out=w.view(np.float64))
        out[:, k] = np.floor(x, out=x)  # whole floats, cast as astype does
    return out

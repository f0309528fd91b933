"""Threshold functions, monotone envelopes, the series criterion, and the
growth exponents that drive the dimension dispatcher.

A ThresholdFn holds psi in one of three normal forms, which the
constructors build:

- exp_poly_log (B, alpha, c): psi(n) = B^n n^alpha (ln n)^c.  poly_log is
  (1, alpha, c), geometric is (B, 0, 0), and scaled_geometric multiplies its
  delta into B.  The monotone hint, the analytic series verdict and the
  growth exponents are read off (B, alpha, c) alone.
- double_exp (c, b, delta): psi(n) = delta^n c^(b^n), evaluated in log space
  so that it never materializes.
- table (delta,) with values: psi(n) = delta^n values[n-1], defined up to
  n = len(values).

_ln_psi computes ln psi(n) for an int64 array n with one numpy formula per
form; log_value(n) and the envelope, the series sums, the dyadic blocks and
the growth exponents all read it.  Every minimising index reported is the
first one, so a tie goes to the smallest n.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .cfcore import DomainError, _is_real, _require_int

INF = math.inf


@dataclass(frozen=True)
class ThresholdFn:
    """A positive function psi on {1, 2, ...} in one of three normal forms.

    kind "exp_poly_log" has params (B, alpha, c): psi(n) = B^n n^alpha (ln n)^c,
    with ln n clamped at n = 1 to ln 2 so that psi stays positive.  kind
    "double_exp" has params (c, b, delta): psi(n) = delta^n c^(b^n).  kind
    "table" has params (delta,) and values: psi(n) = delta^n values[n-1].
    """

    kind: str
    params: tuple = ()
    values: Optional[tuple] = None

    # -- evaluation ---------------------------------------------------------

    def log_value(self, n: int) -> float:
        n = _require_int("n", n, 1, _N_MAX)
        if self.kind == "table" and n > len(self.values):
            raise DomainError(f"table defines psi only up to n={len(self.values)}")
        return float(_ln_psi(self, np.array([n], dtype=np.int64))[0])

    def value(self, n: int) -> float:
        try:
            return math.exp(self.log_value(n))
        except OverflowError:
            return INF

    @property
    def domain_limit(self) -> Optional[int]:
        return len(self.values) if self.kind == "table" else None

    # -- monotonicity hint --------------------------------------------------
    # ("nondecreasing", None) | ("eventually", N0) | ("limit", log of inf tail)
    # | ("unknown", None)

    @property
    def monotone_hint(self) -> tuple:
        if self.kind == "exp_poly_log":
            B, alpha, c = self.params
            if _collapses(B, alpha, c):
                return ("limit", -INF)
            if alpha >= 0 and c >= 0:
                return ("nondecreasing", None)
            if B > 1:
                # ln psi(n+1) - ln psi(n) >= ln B - (|alpha| + 1.5 |c|) / n
                n0 = math.ceil((abs(alpha) + 1.5 * abs(c) + 1) / math.log(B)) + 2
                return ("eventually", n0)
            # B = 1 and alpha > 0 > c: psi rises once ln n >= -c / alpha, and
            # past e^709 that n is not even a float
            t = -c / alpha
            if t >= 709:
                return ("unknown", None)
            return ("eventually", max(2, math.ceil(math.exp(t))))
        # delta^n with delta >= 1 keeps a rising psi rising: double_exp always
        # rises, a table where its values are sorted
        if self.params[-1] >= 1 and (self.kind == "double_exp"
                                     or np.all(self._array[:-1] <= self._array[1:])):
            return ("nondecreasing", None)
        return ("unknown", None)

    @functools.cached_property
    def _array(self) -> np.ndarray:
        """A table's values as a read-only float64 array, built once."""
        vals = np.array(self.values, dtype=np.float64)
        vals.flags.writeable = False
        return vals

    @functools.cached_property
    def _ln_array(self) -> np.ndarray:
        """ln of a table's values, built once (a table never changes), so
        that _ln_psi only gathers."""
        logs = np.log(self._array)
        logs.flags.writeable = False
        return logs

    def describe(self) -> str:
        """The normal form in parse_psi's grammar (a table as table[N])."""
        if self.kind == "exp_poly_log":
            B, alpha, c = self.params
            if alpha == 0 and c == 0:
                return f"geometric({B})"
            inner, delta = f"poly_log({alpha},{c})", B
        elif self.kind == "double_exp":
            inner, delta = f"double_exp({self.params[0]},{self.params[1]})", self.params[2]
        else:
            inner, delta = f"table[{len(self.values)}]", self.params[0]
        return inner if delta == 1 else f"scaled_geometric({delta},{inner})"


# the largest n that ln psi(n) takes, the int64 range of its index arrays
_N_MAX = 2**63 - 1


def _ln_psi(psi: ThresholdFn, n: np.ndarray) -> np.ndarray:
    """ln psi(n) for an int64 array n of indices in psi's domain, as float64.

    double_exp's b^n ln c is exp(n ln b + ln ln c), which is inf once it
    passes the float range.
    """
    if psi.kind == "exp_poly_log":
        B, alpha, c = psi.params
        return n * math.log(B) + (alpha * np.log(n) + c * np.log(np.log(np.maximum(n, 2))))
    if psi.kind == "double_exp":
        c, b, delta = psi.params
        with np.errstate(over="ignore"):
            return n * math.log(delta) + np.exp(n * math.log(b) + math.log(math.log(c)))
    (delta,) = psi.params
    logs = psi._ln_array[n - 1]
    return logs if delta == 1 else n * math.log(delta) + logs


def _require_psi(psi) -> None:
    if not isinstance(psi, ThresholdFn):
        raise DomainError(f"psi must be a ThresholdFn, got {psi!r}")


def _param(family: str, name: str, value: float, lo: float = -INF) -> float:
    """value as a float, or a DomainError naming it unless it is a real number
    (a bool is not) with lo < value < inf."""
    if not _is_real(value):
        raise DomainError(f"{family} needs a real number {name}; got {name} = {value!r}")
    value = float(value)
    if not lo < value < INF:  # nan fails too
        raise DomainError(f"{family} needs {lo:g} < {name} < inf; got {name} = {value!r}")
    return value


def poly_log(alpha: float, c: float) -> ThresholdFn:
    """psi(n) = n^alpha (log n)^c, the polynomial/logarithmic family."""
    params = (1.0, _param("poly_log", "alpha", alpha), _param("poly_log", "c", c))
    return ThresholdFn("exp_poly_log", params)


def geometric(B: float) -> ThresholdFn:
    """psi(n) = B^n."""
    return ThresholdFn("exp_poly_log", (_param("geometric", "B", B, 0.0), 0.0, 0.0))


def scaled_geometric(delta: float, inner: ThresholdFn) -> ThresholdFn:
    """psi(n) = delta^n * inner(n), with delta folded into inner's B or delta."""
    delta = _param("scaled_geometric", "delta", delta, 0.0)
    _require_psi(inner)
    if inner.kind == "exp_poly_log":
        B, alpha, c = inner.params
        # the normal form folds delta into B, so the product must be a base too
        B = _param("scaled_geometric", "delta * B", delta * B, 0.0)
        return ThresholdFn(inner.kind, (B, alpha, c))
    *head, scale = inner.params
    scale = _param("scaled_geometric", "delta", delta * scale, 0.0)
    return ThresholdFn(inner.kind, (*head, scale), inner.values)


def double_exp(c: float, b: float) -> ThresholdFn:
    """psi(n) = c^(b^n); needs c > 1 and b > 1."""
    params = (_param("double_exp", "c", c, 1.0), _param("double_exp", "b", b, 1.0), 1.0)
    return ThresholdFn("double_exp", params)


def table(values: Sequence[float]) -> ThresholdFn:
    # a str or bytes is a sequence too, of characters or of small ints
    if isinstance(values, (str, bytes, bytearray)):
        raise DomainError(f"table values must be a sequence of numbers, got {values!r}")
    vals = tuple(values)
    if not vals:
        raise DomainError("table must be nonempty")
    # 0 < v < inf is False for nan, so nan is caught with the rest; a bool
    # is not a real number here
    bad = next((i for i, v in enumerate(vals) if not (_is_real(v) and 0 < v < INF)), None)
    if bad is not None:
        raise DomainError(
            f"psi must be positive and finite real numbers; values[{bad}] = {vals[bad]!r}"
        )
    return ThresholdFn("table", (1.0,), tuple(map(float, vals)))


_PSI_RE = re.compile(r"^\s*([a-z_]+)\s*\((.*)\)\s*$")


def parse_psi(spec: str) -> ThresholdFn:
    """Parse the CLI grammar: poly_log(a,c), geometric(B), double_exp(c,b),
    scaled_geometric(d, <inner>), table:FILE.  An argument or a table line
    that is not a number is a DomainError."""
    spec = spec.strip()

    def number(text: str) -> float:
        try:
            return float(text)
        except ValueError:
            raise DomainError(
                f"cannot parse psi spec {spec!r}: {text.strip()!r} is not a number"
            ) from None

    if spec.startswith("table:"):
        path = spec[len("table:"):]
        with open(path) as fh:
            vals = [number(line) for line in fh if line.strip()]
        return table(vals)
    m = _PSI_RE.match(spec)
    if not m:
        raise DomainError(f"cannot parse psi spec {spec!r}")
    name, args = m.group(1), m.group(2)
    if name == "scaled_geometric":
        head, _, rest = args.partition(",")
        return scaled_geometric(number(head), parse_psi(rest))
    make, arity = {"poly_log": (poly_log, 2), "geometric": (geometric, 1),
                   "double_exp": (double_exp, 2)}.get(name, (None, None))
    parts = [p for p in args.split(",") if p.strip()]
    if len(parts) != arity:
        raise DomainError(f"cannot parse psi spec {spec!r}")
    return make(*map(number, parts))


def _collapses(B: float, alpha: float, c: float) -> bool:
    """Whether B^n n^alpha (ln n)^c tends to 0, so that its envelope is 0."""
    return B < 1 or (B == 1 and (alpha < 0 or (alpha == 0 and c < 0)))


# ---------------------------------------------------------------------------
# monotone envelope
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnvelopeTable:
    """ln of the nondecreasing minorant psi~(n) = min_{m >= n} psi(m) over 1..N."""

    log_values: tuple
    exact: bool
    note: str = ""

    def __len__(self):
        return len(self.log_values)


def _log_psi(psi: ThresholdFn, n_max: int) -> np.ndarray:
    """ln psi(1..n_max) as a float64 array."""
    return _ln_psi(psi, np.arange(1, n_max + 1, dtype=np.int64))


def _suffix_min(logs: np.ndarray) -> np.ndarray:
    return np.minimum.accumulate(logs[::-1])[::-1]


# most values of psi the envelope reads to reach a turning point (32 MB)
_TURN_SCAN_CAP = 1 << 22


def _envelope_logs(psi: ThresholdFn, horizon: int) -> tuple[np.ndarray, bool, str]:
    """The envelope as (ln psi~(1..horizon) array, exact, note): the suffix
    minimum of ln psi(1..n) cut to the horizon, with n past psi's turning
    point n0 if it has one; an upper bound when psi's monotonicity is unknown."""
    horizon = _require_int("horizon", horizon, 1)
    if psi.domain_limit is not None and horizon > psi.domain_limit:
        raise DomainError(
            f"horizon {horizon} exceeds table domain {psi.domain_limit}"
        )
    n, exact, note = horizon, True, ""
    # a table's whole domain needs no hint: its suffix minimum is psi~ exactly
    if horizon != psi.domain_limit:
        hint, aux = psi.monotone_hint
        if hint == "limit":
            return np.full(horizon, aux), True, "psi decreases; envelope is its tail infimum"
        if hint == "eventually":
            if aux > max(horizon, _TURN_SCAN_CAP):
                raise DomainError(f"psi turns upward only at n0 = {aux}, past the cap of "
                                  f"{_TURN_SCAN_CAP} values on the envelope's scan")
            n = max(horizon, aux)
        elif hint == "unknown":
            exact, note = False, "envelope is upper bound only (unknown monotonicity)"
    return _suffix_min(_log_psi(psi, n))[:horizon], exact, note


def envelope(psi: ThresholdFn, horizon: int) -> EnvelopeTable:
    _require_psi(psi)
    logs, exact, note = _envelope_logs(psi, horizon)
    return EnvelopeTable(tuple(logs.tolist()), exact, note)


# ---------------------------------------------------------------------------
# series criterion:  sum n^{r-1} psi~(n)^{-r}
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeriesVerdict:
    verdict: str  # convergent | divergent | undetermined
    method: str  # analytic | numeric
    partial_sums: tuple = ()
    horizon: int = 0

    def __bool__(self):
        raise TypeError("compare SeriesVerdict.verdict explicitly")


def _log_terms(r: int, log_psi: np.ndarray) -> np.ndarray:
    """ln of the terms n^{r-1} psi(n)^{-r} for n = 1..N given ln psi(1..N).

    r ln psi(n) past the float range is inf, so its term is 0, the limit.
    """
    with np.errstate(over="ignore"):
        return (r - 1) * np.log(np.arange(1, len(log_psi) + 1)) - r * log_psi


def _partial_sums(r: int, log_psi: np.ndarray) -> tuple[np.ndarray, tuple]:
    """The log terms of ln psi(1..N) and the partial sums (n, sum) at
    n = 8, 32, 128, ... and N."""
    n_max = len(log_psi)
    terms = _log_terms(r, log_psi)
    # a term whose log reaches 700 counts as inf (nan too, as it fails the test)
    totals = np.cumsum(np.exp(np.where(terms < 700, terms, INF)))
    marks = []
    mark = 8
    while mark < n_max:
        marks.append(mark)
        mark *= 4
    marks.append(n_max)
    return terms, tuple((n, float(totals[n - 1])) for n in marks)


def series_classify(r: int, psi: ThresholdFn, horizon: int = 4096) -> SeriesVerdict:
    """Convergence of sum n^{r-1} psi~(n)^{-r}.

    exp_poly_log and double_exp are decided by the integral test; tables by
    the slope of the log terms over the last half.  A table's partial_sums
    add the terms of psi~; on the analytic path they add n^{r-1} psi(n)^{-r}
    for psi itself up to n = 512, which the verdict does not read (for
    2^n n^-3 at r = 2 the sum to n = 8 is 333.32, and 386.90 over psi~).
    The horizon is checked on every path, though only a table reads it.
    """
    r = _require_int("r", r, 1)
    _require_psi(psi)
    horizon = _require_int("horizon", horizon, 1)
    if psi.kind != "table":
        verdict = "convergent"  # double_exp
        if psi.kind == "exp_poly_log":
            B, alpha, c = psi.params
            converges = B > 1 or alpha > 1 or (alpha == 1 and c > 1.0 / r)
            if not converges or _collapses(B, alpha, c):
                verdict = "divergent"
        _, sums = _partial_sums(r, _log_psi(psi, 512))
        return SeriesVerdict(verdict, "analytic", sums, 512)
    logs, _, _ = _envelope_logs(psi, min(horizon, psi.domain_limit))
    n_max = len(logs)
    terms, sums = _partial_sums(r, logs)
    verdict = "undetermined"
    if n_max >= 64:
        # slope of log-term against log n over the last half
        lo = n_max // 2
        xs = np.log(np.arange(lo, n_max + 1))
        ys = terms[lo - 1:]
        xs = xs - xs.mean()
        slope = xs @ (ys - ys.mean()) / (xs @ xs)
        if slope < -1.2:
            verdict = "convergent"
        elif slope > -0.9:
            verdict = "divergent"
    return SeriesVerdict(verdict, "numeric", sums, n_max)


# ---------------------------------------------------------------------------
# dyadic block sandwich
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DyadicReport:
    rows: tuple  # (j, log_block_sum, log_mid, slack_lower, slack_upper)
    worst_upper: float
    bound: float  # 2^{2r}
    lower_ok: bool
    upper_ok: bool


def dyadic_equivalence_check(r: int, psi: ThresholdFn, J: int) -> DyadicReport:
    """Check the two-sided dyadic block sandwich

        S_j <= (2^{j+1} / psi~(2^j))^r <= 2^{2r} S_{j-1},

    with S_j the block sum of n^{r-1} psi~(n)^{-r} over [2^j, 2^{j+1}) and
    psi~ the monotone envelope, on which the sandwich holds.  Requires an
    envelope that is exact and not 0, and 1 <= J <= 21: the check reads
    2^{J+1} - 1 values of psi~, at most as many as the envelope's scan cap.
    """
    r = _require_int("r", r, 1)
    J = _require_int("J", J, 1, 21)
    _require_psi(psi)
    hint, _ = psi.monotone_hint
    if hint == "limit":
        raise DomainError("dyadic check requires a nondecreasing psi")
    if psi.domain_limit is not None and 2 ** (J + 1) - 1 > psi.domain_limit:
        raise DomainError("table too short for requested J")

    logs, exact, _ = _envelope_logs(psi, 2 ** (J + 1) - 1)
    if not exact:
        raise DomainError("dyadic check requires an exact envelope; "
                          "psi's monotonicity is unknown")
    # S_j sums the terms at indices 2^j - 1 .. 2^{j+1} - 2
    blocks = np.logaddexp.reduceat(_log_terms(r, logs), 2 ** np.arange(J + 1) - 1)
    rows = []
    worst = 0.0
    lower_ok = upper_ok = True
    for j in range(1, J + 1):
        prev, cur = float(blocks[j - 1]), float(blocks[j])
        log_mid = r * ((j + 1) * math.log(2.0) - float(logs[2**j - 1]))
        slack_lower = log_mid - cur          # >= 0 required
        slack_upper = log_mid - prev         # <= ln(2^{2r}) required
        lower_ok &= slack_lower >= -1e-9
        upper_ok &= slack_upper <= 2 * r * math.log(2.0) + 1e-9
        worst = max(worst, math.exp(min(slack_upper, 700.0)))
        rows.append((j, cur, log_mid, slack_lower, slack_upper))
    return DyadicReport(tuple(rows), worst, 4.0**r, lower_ok, upper_ok)


# ---------------------------------------------------------------------------
# growth exponents  log B, log b
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GrowthExponents:
    log_B: float  # liminf ln(psi~(n)) / n
    log_b: float  # liminf ln(ln(psi~(n))) / n
    exact: bool
    flags: tuple = ()
    argmin_B: Optional[int] = None
    argmin_b: Optional[int] = None


def growth_exponents(psi: ThresholdFn, horizon: int = 4096) -> GrowthExponents:
    """Exact exponents for the closed forms, finite-horizon liminf estimate
    for tables (reported with the minimizing index, no extrapolation).

    exp_poly_log B^n n^alpha (ln n)^c gives (ln B, 0) for B > 1 and
    (-inf, -inf) once its envelope collapses to 0, else B = 1 and (0, 0);
    double_exp gives (inf, ln b).  A table's estimate, on delta^n values[n-1]
    itself, is read off its envelope as one float64 array: log_B is the minimum of ln psi~(n) / n and log_b that of
    ln ln psi~(n) / n over the n where ln psi~(n) > 0 (the others are
    skipped and flagged).  A tie goes to the first minimising index.  The
    horizon is checked on every path, and must be at least 10.
    """
    _require_psi(psi)
    horizon = _require_int("horizon", horizon, 10)
    if psi.kind == "exp_poly_log":
        if _collapses(*psi.params):
            return GrowthExponents(-INF, -INF, True, ("envelope collapses to 0",))
        return GrowthExponents(math.log(psi.params[0]), 0.0, True)
    if psi.kind == "double_exp":
        return GrowthExponents(INF, math.log(psi.params[1]), True)
    # tables: numeric liminf over the horizon
    logs, exact, note = _envelope_logs(psi, min(horizon, psi.domain_limit))
    flags = [] if exact else [note]
    n = np.arange(1, len(logs) + 1)
    q = logs / n
    i = int(np.argmin(q))  # the first minimum
    best_B, arg_B = float(q[i]), i + 1
    pos = np.flatnonzero(logs > 0)
    if pos.size < len(logs):
        flags.append("log log undefined at some points; skipped")
    if pos.size:
        q2 = np.log(logs[pos]) / n[pos]
        i = int(np.argmin(q2))
        best_b, arg_b = float(q2[i]), int(pos[i]) + 1
    else:
        best_b, arg_b = -INF, None
    return GrowthExponents(best_B, best_b, False, tuple(flags), arg_B, arg_b)

"""Threshold functions, monotone envelopes, the series criterion, and the
growth exponents that drive the dimension dispatcher.

Built-in families are evaluated in log space so that doubly exponential
thresholds never materialize; tables carry explicit values.  poly_log,
geometric and a scaled_geometric of either share one normal form,
psi(n) = B^n n^alpha (ln n)^c with the scale multiplied into B: the monotone
hint, the analytic series verdict and the growth exponents are read off
(B, alpha, c) alone.  double_exp, scaled or not, has one rule of its own.

The envelope, the series sums, the dyadic blocks and the growth exponents
work on ln psi(1..N) as one float64 array: np.log of a table's array (built
once per table), plus n ln delta for a scaled table, which so takes the table
branch on delta^n psi(n) itself; the closed forms fill it from log_value(n).
Every minimising index reported is the first one, so a tie goes to the
smallest n.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .cfcore import DomainError

INF = math.inf


@dataclass(frozen=True)
class ThresholdFn:
    """A positive function psi on {1, 2, ...} with monotonicity metadata.

    kind is one of poly_log / geometric / scaled_geometric / double_exp /
    table.  For closed-form kinds all evaluation happens through
    log_value(n) = ln psi(n).
    """

    kind: str
    params: tuple = ()
    values: Optional[tuple] = None
    inner: Optional["ThresholdFn"] = None

    # -- evaluation ---------------------------------------------------------

    def log_value(self, n: int) -> float:
        if n < 1:
            raise DomainError("psi is defined on n >= 1")
        if self.kind == "poly_log":
            alpha, c = self.params
            # log n clamped at n=1 so psi stays positive
            return alpha * math.log(n) + c * math.log(math.log(max(n, 2)))
        if self.kind == "geometric":
            (B,) = self.params
            return n * math.log(B)
        if self.kind == "scaled_geometric":
            (delta,) = self.params
            return n * math.log(delta) + self.inner.log_value(n)
        if self.kind == "double_exp":
            c, b = self.params
            # ln psi = b^n ln c, computed as exp(n ln b + ln ln c)
            try:
                return math.exp(n * math.log(b) + math.log(math.log(c)))
            except OverflowError:
                return INF
        if self.kind == "table":
            if n > len(self.values):
                raise DomainError(f"table defines psi only up to n={len(self.values)}")
            return math.log(self.values[n - 1])
        raise DomainError(f"unknown kind {self.kind!r}")

    def value(self, n: int) -> float:
        lv = self.log_value(n)
        if lv == INF:
            return INF
        try:
            return math.exp(lv)
        except OverflowError:
            return INF

    @property
    def domain_limit(self) -> Optional[int]:
        if self.kind == "scaled_geometric":
            return self.inner.domain_limit
        return len(self.values) if self.kind == "table" else None

    # -- monotonicity hint --------------------------------------------------
    # ("nondecreasing", None) | ("eventually", N0) | ("limit", log of inf tail)
    # | ("unknown", None)

    @property
    def monotone_hint(self) -> tuple:
        form = _exp_poly_log(self)
        if form is not None:
            B, alpha, c = form
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
        if self.kind == "double_exp":
            return ("nondecreasing", None)
        if self.kind == "scaled_geometric":
            if self.params[0] >= 1 and self.inner.monotone_hint[0] == "nondecreasing":
                return ("nondecreasing", None)
            return ("unknown", None)
        if self.kind == "table":
            vals = self._array
            if np.all(vals[:-1] <= vals[1:]):
                return ("nondecreasing", None)
            return ("unknown", None)
        return ("unknown", None)

    @functools.cached_property
    def _array(self) -> np.ndarray:
        """A table's values as a read-only float64 array, built once."""
        vals = np.array(self.values, dtype=np.float64)
        vals.flags.writeable = False
        return vals

    def describe(self) -> str:
        if self.kind == "poly_log":
            return f"poly_log({self.params[0]},{self.params[1]})"
        if self.kind == "geometric":
            return f"geometric({self.params[0]})"
        if self.kind == "double_exp":
            return f"double_exp({self.params[0]},{self.params[1]})"
        if self.kind == "scaled_geometric":
            return f"scaled_geometric({self.params[0]},{self.inner.describe()})"
        return f"table[{len(self.values)}]"


def _param(family: str, name: str, value: float, lo: float = -INF) -> float:
    """value as a float, or a DomainError naming it unless lo < value < inf."""
    value = float(value)
    if not lo < value < INF:  # nan fails too
        raise DomainError(f"{family} needs {lo:g} < {name} < inf; got {name} = {value!r}")
    return value


def poly_log(alpha: float, c: float) -> ThresholdFn:
    """psi(n) = n^alpha (log n)^c, the polynomial/logarithmic family."""
    params = (_param("poly_log", "alpha", alpha), _param("poly_log", "c", c))
    return ThresholdFn("poly_log", params)


def geometric(B: float) -> ThresholdFn:
    """psi(n) = B^n."""
    return ThresholdFn("geometric", (_param("geometric", "B", B, 0.0),))


def scaled_geometric(delta: float, inner: ThresholdFn) -> ThresholdFn:
    """psi(n) = delta^n * inner(n)."""
    delta = _param("scaled_geometric", "delta", delta, 0.0)
    if inner.kind == "scaled_geometric":
        return scaled_geometric(delta * inner.params[0], inner.inner)
    if inner.kind == "geometric":
        # the normal form folds delta into B, so the product must be a base too
        _param("scaled_geometric", "delta * B", delta * inner.params[0], 0.0)
    return ThresholdFn("scaled_geometric", (delta,), inner=inner)


def double_exp(c: float, b: float) -> ThresholdFn:
    """psi(n) = c^(b^n); needs c > 1 and b > 1."""
    params = (_param("double_exp", "c", c, 1.0), _param("double_exp", "b", b, 1.0))
    return ThresholdFn("double_exp", params)


def table(values: Sequence[float]) -> ThresholdFn:
    vals = tuple(float(v) for v in values)
    if not vals:
        raise DomainError("table must be nonempty")
    # 0 < v < inf is False for nan, so nan is caught with the rest
    bad = next((i for i, v in enumerate(vals) if not 0 < v < INF), None)
    if bad is not None:
        raise DomainError(
            f"psi must be positive and finite; values[{bad}] = {vals[bad]!r}"
        )
    return ThresholdFn("table", values=vals)


_PSI_RE = re.compile(r"^\s*([a-z_]+)\s*\((.*)\)\s*$")


def parse_psi(spec: str) -> ThresholdFn:
    """Parse the CLI grammar: poly_log(a,c), geometric(B), double_exp(c,b),
    scaled_geometric(d, <inner>), table:FILE."""
    spec = spec.strip()
    if spec.startswith("table:"):
        path = spec[len("table:"):]
        with open(path) as fh:
            vals = [float(line) for line in fh if line.strip()]
        return table(vals)
    m = _PSI_RE.match(spec)
    if not m:
        raise DomainError(f"cannot parse psi spec {spec!r}")
    name, args = m.group(1), m.group(2)
    if name == "scaled_geometric":
        head, _, rest = args.partition(",")
        return scaled_geometric(float(head), parse_psi(rest))
    parts = [p.strip() for p in args.split(",") if p.strip()]
    if name == "poly_log" and len(parts) == 2:
        return poly_log(float(parts[0]), float(parts[1]))
    if name == "geometric" and len(parts) == 1:
        return geometric(float(parts[0]))
    if name == "double_exp" and len(parts) == 2:
        return double_exp(float(parts[0]), float(parts[1]))
    raise DomainError(f"cannot parse psi spec {spec!r}")


# ---------------------------------------------------------------------------
# the normal form psi(n) = B^n n^alpha (ln n)^c
# ---------------------------------------------------------------------------


def _exp_poly_log(psi: ThresholdFn) -> Optional[tuple]:
    """(B, alpha, c) of a poly_log, a geometric or a scaled one of them;
    None for any other psi.  The scale delta is multiplied into B."""
    delta = 1.0
    if psi.kind == "scaled_geometric":
        delta, psi = psi.params[0], psi.inner
    if psi.kind == "poly_log":
        return (delta, *psi.params)
    if psi.kind == "geometric":
        return (delta * psi.params[0], 0.0, 0.0)
    return None


def _double_exp_b(psi: ThresholdFn) -> Optional[float]:
    """b of a double_exp c^(b^n), scaled or not (delta^n leaves b alone)."""
    core = psi.inner or psi
    return core.params[1] if core.kind == "double_exp" else None


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
    """ln psi(1..n_max) as a float64 array.

    A table is one np.log over its first n_max values and a scaled table adds
    n ln delta to its inner array; the closed forms are filled from
    psi.log_value(n), so they keep its values bit for bit.
    """
    if psi.kind == "table":
        return np.log(psi._array[:n_max])
    if psi.kind == "scaled_geometric":
        (delta,) = psi.params
        return np.arange(1, n_max + 1) * math.log(delta) + _log_psi(psi.inner, n_max)
    return np.fromiter(
        (psi.log_value(n) for n in range(1, n_max + 1)), np.float64, n_max
    )


def _suffix_min(logs: np.ndarray) -> np.ndarray:
    return np.minimum.accumulate(logs[::-1])[::-1]


# most values of psi the envelope reads to reach a turning point (32 MB)
_TURN_SCAN_CAP = 1 << 22


def _envelope_logs(psi: ThresholdFn, horizon: int) -> tuple[np.ndarray, bool, str]:
    """The envelope as (ln psi~(1..horizon) array, exact, note)."""
    if horizon < 1:
        raise DomainError("horizon must be >= 1")
    if psi.domain_limit is not None and horizon > psi.domain_limit:
        raise DomainError(
            f"horizon {horizon} exceeds table domain {psi.domain_limit}"
        )
    if horizon == psi.domain_limit:
        # the table is the whole domain, so its suffix minimum is psi~ exactly
        return _suffix_min(_log_psi(psi, horizon)), True, ""
    hint, aux = psi.monotone_hint
    if hint == "limit":
        return np.full(horizon, aux), True, "psi decreases; envelope is its tail infimum"
    if hint == "eventually":
        if aux > max(horizon, _TURN_SCAN_CAP):
            raise DomainError(f"psi turns upward only at n0 = {aux}, past the cap of "
                              f"{_TURN_SCAN_CAP} values on the envelope's scan")
        # beyond aux psi is nondecreasing, so every suffix min is attained by aux
        return _suffix_min(_log_psi(psi, max(horizon, aux)))[:horizon], True, ""
    logs = _log_psi(psi, horizon)
    if hint == "nondecreasing":
        return logs, True, ""
    # unknown: suffix minimum over the horizon only, an upper bound for psi~
    return _suffix_min(logs), False, "envelope is upper bound only (unknown monotonicity)"


def envelope(psi: ThresholdFn, horizon: int) -> EnvelopeTable:
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
    """ln of the terms n^{r-1} psi(n)^{-r} for n = 1..N given ln psi(1..N)."""
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

    The normal form and double_exp are decided by the integral test; tables,
    scaled or not, by the slope of the log terms over the last half.
    """
    if r < 1:
        raise DomainError("r must be >= 1")
    form = _exp_poly_log(psi)
    if form is not None or _double_exp_b(psi) is not None:
        if form is None:
            verdict = "convergent"  # double_exp, scaled or not
        else:
            B, alpha, c = form
            converges = B > 1 or alpha > 1 or (alpha == 1 and c > 1.0 / r)
            verdict = "convergent" if converges and not _collapses(*form) else "divergent"
        _, sums = _partial_sums(r, _log_psi(psi, 512))
        return SeriesVerdict(verdict, "analytic", sums, 512)
    logs, _, _ = _envelope_logs(psi, min(horizon, psi.domain_limit or horizon))
    n_max = len(logs)
    terms, sums = _partial_sums(r, logs)
    verdict = "undetermined"
    if n_max >= 64:
        # slope of log-term against log n over the last half
        lo = n_max // 2
        xs = np.log(np.arange(lo, n_max + 1))
        ys = terms[lo - 1:]
        xs = xs - xs.mean()
        denom = xs @ xs
        if denom > 0:
            slope = xs @ (ys - ys.mean()) / denom
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

        S_j <= (2^{j+1} / psi(2^j))^r <= 2^{2r} S_{j-1},

    with S_j the block sum of n^{r-1} psi(n)^{-r} over [2^j, 2^{j+1}).
    Requires a nondecreasing psi.
    """
    hint, _ = psi.monotone_hint
    if hint == "limit":
        raise DomainError("dyadic check requires a nondecreasing psi")
    if psi.domain_limit is not None and 2 ** (J + 1) - 1 > psi.domain_limit:
        raise DomainError("table too short for requested J")

    logs = _log_psi(psi, 2 ** (J + 1) - 1)
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

    The normal form B^n n^alpha (ln n)^c gives (ln B, 0) for B > 1 and
    (-inf, -inf) once its envelope collapses to 0, else B = 1 and (0, 0);
    double_exp, scaled or not, gives (inf, ln b).  A table's estimate, or a
    scaled table's on delta^n psi(n) itself, is read off its envelope as one
    float64 array: log_B is the minimum of ln psi~(n) / n and log_b that of
    ln ln psi~(n) / n over the n where ln psi~(n) > 0 (the others are
    skipped and flagged).  A tie goes to the first minimising index.
    """
    form = _exp_poly_log(psi)
    if form is not None:
        if _collapses(*form):
            return GrowthExponents(-INF, -INF, True, ("envelope collapses to 0",))
        return GrowthExponents(math.log(form[0]), 0.0, True)
    b = _double_exp_b(psi)
    if b is not None:
        return GrowthExponents(INF, math.log(b), True)
    # tables: numeric liminf over the horizon
    if horizon < 10:
        raise DomainError("horizon must be >= 10")
    logs, exact, note = _envelope_logs(psi, min(horizon, psi.domain_limit or horizon))
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

"""Transfer-operator numerics for the Gauss map.

The weighted operator (L_s f)(x) = sum_a (a+x)^{-2s} f(1/(a+x)) is
discretized by barycentric interpolation on a Chebyshev-Lobatto grid in
[0, 1]; its iterates at 0 are exactly the cylinder sums sum q_n^{-2s}.  The
pressure P(s) is the log of the leading eigenvalue, and the dimension number
for r large digits against a geometric threshold B^n is the root of

    P(s) = (s + (2s-1)(r-1)) ln B.

The collocation matrix is M = sum_a (a+x_i)^{-2s} C_a over the digits
a = 1..cap, where the interpolation rows C_a of the points 1/(a+x_i) do not
depend on s.  One kernel builds the matrices for a vector of s values, one
collocation row at a time: it forms the reciprocals 1/(u - x_j) of a block of
digits once and contracts them with the weights of every s in one matrix
product.  The rows are independent: _threads.spans cuts them into one
contiguous span per thread, and each span reuses one set of block buffers
for all its rows.  The second row thread pays only where BLAS runs one
thread: the default PressureCurve(32, 2048) build took 0.031 s on two row
workers against 0.042-0.044 s on one with one OpenBLAS thread, but
0.037-0.040 s against 0.035 s with OpenBLAS's default of one thread per CPU,
whose threads already keep both CPUs busy in each matrix product (medians of
16 alternated builds, 2-vCPU Intel Xeon, _threads.cpus patched for one
worker).  The cached P(s) curve gets all its nodes from one pass,
and the single-s callers use the same kernel with one s.  L_s is fixed by s,
the grid size and the cap alone, and _operator_matrix, the one operator
cache, keeps a read-only M per (s, grid, cap) for those callers.

Every application of L_s goes through one enclosure step, _step.  For any f
between flo and fhi it writes f = mid +- rad in midpoint-radius form, so the
digits 1..cap give M @ mid +- |M| @ rad; the digits beyond the cap add the
monotone integral bounds int_{A}^inf and int_{A+1}^inf applied to the inf
and sup of f near 0.  _tail builds the parts that do not depend on f once
per run.  transfer_apply, the eigen bracket and the cylinder sums all use
_step, so every estimate carries a bracket.  P(s) comes from one dense
eigensolve of a whole stack of s values: the curve solves its 33 nodes as one
stack, and pressure_eigen a stack of one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from ._threads import spans, thread_map
from .cfcore import DomainError, _is_real, _require_int, _require_real
from .thresholds import ThresholdFn, growth_exponents

# The eigenfunction of L_s is analytic on Re x > -1, so its Chebyshev
# interpolant on [0, 1] converges like (3 + 2 sqrt 2)^{-n} (Trefethen,
# Approximation Theory and Approximation Practice, ch. 8): at 32 nodes the
# digit tail, not the grid, limits every answer.  Measured against grid 128
# at cap 2048 (2 cores, one BLAS thread): the P(s) curves agree to 1.8e-15
# at the 33 nodes and 2.7e-15 on 2001 points of [S_FLOOR, S_CEIL], where
# the narrowest eigen bracket is 6.4e-7 wide and solve_dimension's floor is
# 5e-6; solve_dimension gave equal values on 3000 random queries; and at cap
# 10000 |P(1)| is 3.6e-13 at both grids.  Grid 32 costs 1/16 of grid 128's
# matrix work.
DEFAULT_GRID = 32
DEFAULT_CAP = 10_000
CURVE_CAP = 2048
CURVE_NODES = 33
S_FLOOR = 0.5 + 2.5e-4
S_CEIL = 1.02
LN4 = math.log(4.0)


def chebyshev_lobatto(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Ascending Chebyshev-Lobatto nodes on [0,1] and barycentric weights."""
    k = np.arange(n)
    x = 0.5 * (1.0 - np.cos(np.pi * k / (n - 1)))
    w = np.ones(n)
    w[0] = w[-1] = 0.5
    w *= (-1.0) ** k
    return x, w


def _bary_rows(u: np.ndarray, nodes: np.ndarray, bw: np.ndarray) -> np.ndarray:
    """Interpolation rows: C @ f gives the interpolant of f at points u."""
    d = u[..., None] - nodes
    exact = d == 0.0
    hit = exact.any(axis=-1)
    # d becomes the rows in place: bw/d, then normalised along the last axis
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(bw, d, out=d)
        d /= d.sum(axis=-1, keepdims=True)
    d[hit] = exact[hit]
    return d


def _floats(name: str, a) -> np.ndarray:
    """a as a new float array, or a DomainError that names a's first entry
    that is not a real number (a bool or a string, which numpy would
    convert)."""
    if not (isinstance(a, np.ndarray) and a.dtype.kind in "iuf"):
        for x in np.asarray(a, dtype=object).flat:
            _require_real(f"every entry of {name}", x)
    return np.array(a, dtype=float)


@dataclass(frozen=True, eq=False)
class OperatorGrid:
    """A function on the Chebyshev-Lobatto nodes of len(values), the only grid
    transfer_apply takes, with an enclosure lower <= values <= upper and the
    digit cap of its L_s.  lower and upper default to the values array itself,
    a point function, for which _step skips |M| @ 0.  The grid is frozen and
    holds read-only copies of its arrays, so it stays as its checks left it."""

    values: np.ndarray
    digit_cap: int = DEFAULT_CAP
    lower: Optional[np.ndarray] = None
    upper: Optional[np.ndarray] = None

    def __post_init__(self):
        values = _floats("values", self.values)
        shape = values.shape
        if len(shape) != 1 or shape[0] < 2:
            raise DomainError(f"values must be at least 2 numbers on one axis; got shape {shape}")
        object.__setattr__(self, "digit_cap", _require_int("digit_cap", self.digit_cap, 1))
        lower, upper = (values if a is None else _floats(name, a)
                        for name, a in (("lower", self.lower), ("upper", self.upper)))
        for name, a in (("values", values), ("lower", lower), ("upper", upper)):
            if a.shape != shape or not np.all(np.isfinite(a)):
                raise DomainError(f"{name} must be {shape[0]} finite numbers, one per node; "
                                  f"got shape {a.shape}")
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        if np.any(lower > values):
            raise DomainError("lower must be <= values at every node")
        if np.any(values > upper):
            raise DomainError("upper must be >= values at every node")

    @property
    def nodes(self) -> np.ndarray:
        return chebyshev_lobatto(self.values.size)[0]

    @classmethod
    def ones(cls, grid_size: int = DEFAULT_GRID, cap: int = DEFAULT_CAP) -> "OperatorGrid":
        _check_operator(grid_size, cap)
        return cls(np.ones(grid_size), cap)


# digits per block of a row's reciprocals: at grid 32 a (grid, 2048) block
# of float64 is 512 KB, which each worker thread allocates once
_DIGIT_BLOCK = 2048


def _operator_matrices(
    s_values, grid_size: int, cap: int
) -> tuple[np.ndarray, np.ndarray]:
    """The nodes, and the collocation matrices M[k] of L_s over the digits
    1..cap for every s in s_values.

    M[k][i, j] = sum_a (a + x_i)^{-2 s_k} C[i, a, j], where C[i, a] is the
    interpolation row of the point u_a = 1/(a + x_i): C[i, a, j] =
    bw_j K[j, a] / S_a with K[j, a] = 1/(u_a - x_j) and S_a = sum_j bw_j
    K[j, a].  The rows do not depend on s, so row i of every M[k] is
    bw * (K @ W), W[a, k] = (a + x_i)^{-2 s_k} / S_a: one GEMM per block of
    at most _DIGIT_BLOCK digits.  A point on node j has the unit row e_j;
    its column of K becomes e_j, which makes S_a = bw_j.  Each span of rows
    from _threads.spans is one call on the shared pool; it allocates its K, W
    and accumulator once and writes only its own rows' entries, so the
    matrices are the same for any number of threads.
    """
    s = np.asarray(s_values, dtype=float).reshape(-1)
    nodes, bw = chebyshev_lobatto(grid_size)
    mats = np.empty((s.size, grid_size, grid_size))
    expo = -2.0 * s
    block = min(cap, _DIGIT_BLOCK)
    offsets = np.arange(1, block + 1, dtype=float)

    def rows(lo: int, hi: int) -> None:
        base, u, S = np.empty(block), np.empty(block), np.empty(block)
        K_buf = np.empty(grid_size * block)
        W_buf = np.empty((block, s.size))
        prod = np.empty((grid_size, s.size))
        acc = np.empty((grid_size, s.size))
        for i in range(lo, hi):
            acc.fill(0.0)
            for a0 in range(0, cap, block):
                n = min(block, cap - a0)
                # a short last block takes the front of each buffer, so K
                # stays C-contiguous, as a freshly allocated block would be
                b, v, sa, W = base[:n], u[:n], S[:n], W_buf[:n]
                K = K_buf[: grid_size * n].reshape(grid_size, n)
                # the digits a0+1..a0+n, exact in float, then a + x_i
                np.add(offsets[:n], a0, out=b)
                b += nodes[i]
                np.divide(1.0, b, out=v)
                # (j, a) layout: the broadcast runs along contiguous digits
                np.subtract(v, nodes[:, None], out=K)
                # errstate is per thread, so it is set here, in the worker
                with np.errstate(divide="ignore"):
                    np.divide(1.0, K, out=K)
                # u <= 1 = nodes[-1], so every index is a node
                j = np.searchsorted(nodes, v)
                hit = np.flatnonzero(nodes[j] == v)
                if hit.size:
                    K[:, hit] = 0.0
                    K[j[hit], hit] = 1.0
                np.power(b[:, None], expo, out=W)
                np.matmul(bw, K, out=sa)
                W /= sa[:, None]
                np.matmul(K, W, out=prod)
                acc += prod
            np.multiply(bw[:, None], acc, out=prod)
            mats[:, i, :] = prod.T

    b = spans(grid_size)
    thread_map(rows, b, b[1:])
    return nodes, mats


@functools.lru_cache(maxsize=64)
def _operator_matrix(s: float, grid_size: int, cap: int) -> np.ndarray:
    _, mats = _operator_matrices([s], grid_size, cap)
    mats.flags.writeable = False
    return mats[0]


def _tail(s, grid_size, cap) -> tuple:
    """The parts of the tail enclosure that do not depend on f, for one s or
    a (k,) stack of s: the interpolation rows of seven points spread over
    [0, 1/(cap+1)], and at every node the integral bounds int_{cap+1}^inf and
    int_{cap}^inf of (a+x)^{-2s} da, shaped (g,) or (k, g)."""
    nodes, bw = chebyshev_lobatto(grid_size)
    rows = _bary_rows(np.linspace(0.0, 1.0 / (cap + 1), 7), nodes, bw)
    s = np.asarray(s, dtype=float)[..., None]
    expo = 1.0 - 2.0 * s
    denom = 2.0 * s - 1.0
    integral_lo = (cap + 1.0 + nodes) ** expo / denom
    integral_hi = (cap + nodes) ** expo / denom
    return rows, integral_lo, integral_hi


def _apply(M, f):
    """M @ f for one (g, g) matrix and a (g,) vector, or for each pair of a
    (k, g, g) stack and a (k, g) stack: one matrix-vector product per f."""
    return (M @ f[..., None])[..., 0]


def _tail_bounds(flo, fhi, tail):
    """Enclosure of sum_{a>cap} (a+x)^{-2s} f(1/(a+x)) at every node, for
    flo and fhi each a (g,) vector or a (k, g) stack.

    f is pinned between its min/max over [0, 1/(cap+1)] (sampled through the
    interpolant) and the digit sum between the integral bounds.
    """
    rows, integral_lo, integral_hi = tail
    lo_vals = _apply(rows, flo)
    hi_vals = lo_vals if fhi is flo else _apply(rows, fhi)
    fmin = np.maximum(lo_vals.min(axis=-1, keepdims=True), 0.0)
    fmax = np.maximum(hi_vals.max(axis=-1, keepdims=True), 0.0)
    return fmin * integral_lo, fmax * integral_hi


def _step(M, flo, fhi, tail):
    """Enclosure (lo, hi) of L_s f at the nodes for every f with flo <= f <= fhi.

    M is one (g, g) collocation matrix with (g,) vectors, or a (k, g, g)
    stack with (k, g) stacks; tail comes from _tail, or is None for the
    digits 1..cap alone.  Midpoint-radius form: M @ mid +- |M| @ rad.  When
    flo == fhi the radius is exactly 0, so a point iterate is not widened by
    rounding; when flo is fhi the product |M| @ 0 is skipped.
    """
    core = _apply(M, 0.5 * (flo + fhi))
    spread = 0.0 if flo is fhi else _apply(np.abs(M), 0.5 * (fhi - flo))
    tlo, thi = (0.0, 0.0) if tail is None else _tail_bounds(flo, fhi, tail)
    return core - spread + tlo, core + spread + thi


@dataclass(frozen=True)
class PressureEstimate:
    """A pressure value in natural-log units and the bracket (lo, hi) around
    it that states its error; a caller that wants a flag compares
    bracket[1] - bracket[0] with its own tolerance.  pressure_eigen's bracket
    encloses the collocation operator's leading eigenvalue with its digit
    tail enclosed, not P(s): the grid's error is outside it, so at grid 2,
    cap 10 it reads (0.0503, 0.0707) at s = 1, against P(1) = 0.
    pressure_cylinder's encloses (1/n) ln of the depth-n cylinder sum, its
    lower end lowered by (ln 4^s)/n."""

    s: float
    value: float
    bracket: tuple
    params: dict
    ratio_refined: Optional[float] = None

    def __post_init__(self):
        lo, hi = self.bracket
        if not lo <= self.value <= hi:
            raise RuntimeError("pressure bracket does not contain its value")


def _check_operator(grid_size, cap, s=None) -> None:
    """The argument rules of every L_s built here: a collocation grid of at
    least two nodes, at least one digit before the tail and, if given, a
    finite s > 1/2, below which the digit sum of L_s diverges."""
    if s is not None:
        _require_real("s", s)
        if not math.isfinite(s):
            raise DomainError(f"s must be finite, got {s!r}")
        if s <= 0.5:
            raise DomainError(f"s must be > 1/2, got {s!r}")
    _require_int("grid_size", grid_size, 2)
    _require_int("cap", cap, 1)


def transfer_apply(grid: OperatorGrid, s: float) -> OperatorGrid:
    """One application of L_s with the digit tail enclosed."""
    _check_operator(grid.values.size, grid.digit_cap, s)
    M = _operator_matrix(float(s), grid.values.size, grid.digit_cap)
    lo, hi = _step(M, grid.lower, grid.upper, _tail(s, grid.values.size, grid.digit_cap))
    return OperatorGrid(0.5 * (lo + hi), grid.digit_cap, lo, hi)


def pressure_eigen(
    s: float,
    grid_size: int = DEFAULT_GRID,
    cap: int = DEFAULT_CAP,
) -> PressureEstimate:
    """P(s) as the log leading eigenvalue of the collocation operator, from
    one dense eigensolve, with a nodewise Collatz-Wielandt bracket on that
    eigenvalue (see PressureEstimate).  The domain runs from s > 1/2 to the
    first s where no eigenvector of the operator is positive at every node,
    which raises a DomainError: s = 41.05 at grid 32 and 38.8 at grid 64 (cap
    10 000, s scanned in steps of 0.05; a few larger s answer).  The bracket
    widens long before: at grid 32 it is 2e-13 wide at s = 10, 4e-8 at s = 20
    and 1e-2 at s = 30.  Its lower end is -inf at 33.85, 34.55, 34.65 and most
    s from 34.75, but finite at 33.9-34.5, 34.6, 34.7, 35.4-35.45, 35.75 and
    37.3 (at grid 64 first -inf at 33.3): a bracket (-inf, hi] is returned,
    as it still states the error, and refusing it would not leave one
    interval of s."""
    _check_operator(grid_size, cap, s)
    M = _operator_matrix(float(s), grid_size, cap)
    return _eigensolve([s], M[None], cap)[0]


def _eigensolve(s_values, mats: np.ndarray, cap: int) -> list:
    """pressure_eigen for every s in s_values, with mats the (k, g, g) stack
    of the collocation matrices of L_s, one per s, in one batched solve.

    The model operator is A = M + diag(c) R: c is the midpoint of _tail's two
    integral bounds, and R holds the interpolation rows of the points
    u_i = (2s-1)/(2s)/(cap + 1/2 + x_i), the tail's weighted mean of
    1/(a + x_i), so the model's tail is exact for any f linear near 0.  The
    value is the log of A's real eigenvalue of largest real part whose
    eigenvector phi is positive at every node.  Every f > 0 brackets the
    leading eigenvalue of the collocation operator with its tail enclosed
    between the min and max over the nodes of (L f)/f: the bracket is the
    narrower of phi's and, where it is positive, its image's, the midpoint
    of L phi.  It says nothing of the grid's own error.
    """
    s = np.asarray(s_values, dtype=float).reshape(-1)
    grid_size = mats.shape[-1]
    nodes, bw = chebyshev_lobatto(grid_size)
    tail = _tail(s, grid_size, cap)
    u = ((2.0 * s - 1.0) / (2.0 * s))[:, None] / (cap + 0.5 + nodes)
    A = mats + (0.5 * (tail[1] + tail[2]))[..., None] * _bary_rows(u, nodes, bw)
    w, V = np.linalg.eig(A)
    # a real eigenvalue has a real eigenvector, positive up to its sign
    ok = (w.imag == 0.0) & ((V.real > 0.0).all(axis=-2) | (V.real < 0.0).all(axis=-2))
    if not ok.any(axis=-1).all():
        k = int(np.flatnonzero(~ok.any(axis=-1))[0])
        raise DomainError(f"no eigenvector of the collocation matrix is positive at every node "
                          f"(s={s[k]}, grid {grid_size}): the grid cannot resolve P(s) here")
    best = np.where(ok, w.real, -np.inf).argmax(axis=-1)
    value = np.log(np.take_along_axis(w.real, best[:, None], axis=-1)[:, 0])
    phi = np.abs(np.take_along_axis(V.real, best[:, None, None], axis=-1)[..., 0])
    image = 0.5 * sum(_step(mats, phi, phi, tail))
    f = np.stack([phi, np.where((image > 0.0).all(axis=-1, keepdims=True), image, phi)])
    lo, hi = _step(mats, f, f, tail)
    with np.errstate(divide="ignore"):  # a lower end at or below 0 reads -inf
        r_lo = np.log(np.maximum((lo / f).min(axis=-1).max(axis=0), 0.0))
    r_hi = np.log((hi / f).max(axis=-1).min(axis=0))
    # where the bracket is a few ulps wide (s = 3 at grid 32), rounding can
    # leave ln(lambda) an ulp outside it
    value = np.clip(value, r_lo, r_hi)
    return [PressureEstimate(float(s[k]), float(value[k]), (float(r_lo[k]), float(r_hi[k])),
                             {"grid": grid_size, "cap": cap, "iterations": 1})
            for k in range(s.size)]


def pressure_cylinder(
    s: float,
    depth: int,
    cap: int = DEFAULT_CAP,
    grid_size: int = DEFAULT_GRID,
) -> PressureEstimate:
    """(1/n) ln of the depth-n cylinder sum, via n-fold operator application
    evaluated at 0, with the quasi-multiplicativity correction (ln 4^s)/n.

    ratio_refined carries ln(S_n/S_{n-1}), which kills the Theta(1/n) bias of
    the raw value and is what cross-validation against the eigenvalue uses.
    A DomainError names the depth at which the enclosure's lower end at 0
    reaches 0: from there the sums have no lower bound (at the default grid
    and cap, depth 45 at s = 1 and 88 at s = 0.6).
    """
    _check_operator(grid_size, cap, s)
    _require_int("depth", depth, 1)
    M = _operator_matrix(float(s), grid_size, cap)
    tail = _tail(s, grid_size, cap)
    flo = np.ones(grid_size)
    fhi = np.ones(grid_size)
    log_scale = 0.0
    mid = None  # the midpoint of ln S_n's bracket; prev is ln S_{n-1}'s
    for n in range(1, depth + 1):
        flo, fhi = _step(M, flo, fhi, tail)
        if not flo[0] > 0.0:
            raise DomainError(f"the cylinder sum's lower bound reached 0 at depth {n} "
                              f"(s={s}, grid {grid_size}, cap {cap}); lower the depth "
                              "or raise the cap")
        ls_lo, ls_hi = log_scale + math.log(flo[0]), log_scale + math.log(fhi[0])
        prev, mid = mid, 0.5 * (ls_lo + ls_hi)
        scale = float(np.max(fhi))
        flo /= scale
        fhi /= scale
        log_scale += math.log(scale)
    bracket = ((ls_lo - s * LN4) / depth, ls_hi / depth)
    return PressureEstimate(
        s, mid / depth, bracket, {"depth": depth, "cap": cap, "grid": grid_size},
        ratio_refined=None if prev is None else mid - prev,
    )


# ---------------------------------------------------------------------------
# cached pressure curve P(s) and the dimension solvers
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PressureCurve:
    """P(s) tabulated at Chebyshev nodes in tau = ln(s - 1/2), where the
    blow-up at s = 1/2 flattens out; evaluated by barycentric interpolation.
    The domain is [S_FLOOR, S_CEIL] with CURVE_NODES nodes.  default_curve
    shares one curve with every caller, so a built curve is frozen and its
    arrays tau, s_nodes, bw and values are read-only."""

    grid_size: int = DEFAULT_GRID
    cap: int = CURVE_CAP
    s_floor, s_ceil = S_FLOOR, S_CEIL

    def __post_init__(self):
        _check_operator(self.grid_size, self.cap)
        t_lo, t_hi = math.log(S_FLOOR - 0.5), math.log(S_CEIL - 0.5)
        x, bw = chebyshev_lobatto(CURVE_NODES)
        tau = t_lo + x * (t_hi - t_lo)
        s_nodes = 0.5 + np.exp(tau)
        _, mats = _operator_matrices(s_nodes, self.grid_size, self.cap)
        values = np.array([e.value for e in _eigensolve(s_nodes, mats, self.cap)])
        arrays = dict(tau=tau, s_nodes=s_nodes, bw=bw, values=values)
        for name, a in arrays.items():
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    def eval(self, s: float) -> float:
        if type(s) is not float:  # one type test on the solvers' float queries
            _require_real("s", s)
        if not self.s_floor <= s <= self.s_ceil:
            raise DomainError(
                f"s={s} outside cached curve domain [{self.s_floor}, {self.s_ceil}]"
            )
        t = math.log(s - 0.5)
        d = t - self.tau
        hit = np.nonzero(d == 0.0)[0]
        if hit.size:
            return float(self.values[hit[0]])
        r = self.bw / d
        return float(r @ self.values / r.sum())


def default_curve(grid_size: int = DEFAULT_GRID, cap: int = CURVE_CAP) -> PressureCurve:
    # positional call, so default_curve() and default_curve(32, 2048) share one entry
    return _cached_curve(grid_size, cap)


_cached_curve = functools.lru_cache(maxsize=None)(PressureCurve)


def _root(g, s_floor: float, tol: float) -> tuple[float, tuple]:
    """Root of a decreasing g on [s_floor, 1] by bisection, to within tol.

    g is read at 1, then at s_floor, then at the midpoints: a root at or above
    1 (B too close to 1) or at or below s_floor is refused.  Returns the root
    and the trace of (midpoint, g(midpoint)) pairs."""
    lo, hi = s_floor, 1.0
    if g(hi) >= 0.0:
        raise DomainError("B is too close to 1 for the cached curve accuracy")
    if g(lo) <= 0.0:
        raise DomainError(
            f"root sits below the cached curve domain, whose floor is s = {s_floor}"
        )
    trace = []
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        trace.append((mid, gm))
        if gm > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), tuple(trace)


@dataclass(frozen=True)
class DimensionResult:
    regime: str  # "B=1" | "finite-B" | "B=inf"
    value: float
    inputs: dict
    trace: tuple = ()
    flags: tuple = ()


def _check_tol(tol: float) -> None:
    """A DomainError unless tol is a real number (a bool is not) in [5e-6, inf),
    the cached curve's accuracy."""
    if not (_is_real(tol) and 5e-6 <= tol < math.inf):  # nan fails too
        raise DomainError(
            f"tol must be in [5e-6, inf), the cached curve's accuracy; got {tol!r}"
        )


def solve_dimension(
    r: int,
    B: float,
    tol: float = 1e-4,
    curve: Optional[PressureCurve] = None,
) -> DimensionResult:
    """Root of g(s) = P(s) - (s + (2s-1)(r-1)) ln B by bisection.

    g is strictly decreasing on (1/2, 1]: P decreases while the linear term
    increases, so the root is unique.
    """
    r = _require_int("r", r, 1)
    if not (_is_real(B) and 1.0 < B < math.inf):
        raise DomainError("solve_dimension needs 1 < B < inf")
    _check_tol(tol)
    curve = curve or default_curve()
    ln_b = math.log(B)

    def g(s):
        return curve.eval(s) - (s + (2.0 * s - 1.0) * (r - 1)) * ln_b

    value, trace = _root(g, curve.s_floor, tol)
    return DimensionResult("finite-B", value, {"r": r, "B": B, "tol": tol}, trace)


def hussain_shulga_exponent(
    r: int,
    B: float,
    tol: float = 1e-4,
    curve: Optional[PressureCurve] = None,
) -> DimensionResult:
    """min_i d_i for the window construction with every base equal to B.

    d_i is the root of P(s) - s ln(beta_i) + (1-s) ln(beta_{i-1}) with
    beta_i = B^{i+1}.  That is P(s) - (s + (2s-1) i) ln B, so d_i is
    solve_dimension with r = i + 1, and the minimum sits at i = r-1.
    """
    r = _require_int("r", r, 1)
    roots = [solve_dimension(i + 1, B, tol, curve).value for i in range(r)]
    best = min(range(r), key=lambda i: roots[i])
    return DimensionResult(
        "finite-B",
        roots[best],
        {"r": r, "B": B, "tol": tol, "per_offset": tuple(roots), "argmin": best},
    )


def dimension_dispatch(
    r: int,
    psi: ThresholdFn,
    tol: float = 1e-4,
    curve: Optional[PressureCurve] = None,
) -> DimensionResult:
    """Three-regime dimension of the r-large-digits set for threshold psi.

    B = 1 gives dimension 1; finite B solves the pressure equation; B = inf
    gives 1/(1+b), which is 0 at b = inf by the same formula (exp(inf) = inf).
    Growth exponents at or below 0 (bounded or decaying psi) fall into the
    full-dimension regime.  tol is checked in every regime, by
    solve_dimension's rule.
    """
    r = _require_int("r", r, 1)
    _check_tol(tol)
    g = growth_exponents(psi)
    flags = g.flags
    if not g.exact:
        flags = flags + ("exponents are finite-horizon estimates",)
    if g.log_B == math.inf:
        b = math.exp(g.log_b)
        return DimensionResult("B=inf", 1.0 / (1.0 + b), {"r": r, "b": b}, flags=flags)
    if g.log_B <= 0.0:
        return DimensionResult("B=1", 1.0, {"r": r, "log_B": g.log_B}, flags=flags)
    res = solve_dimension(r, math.exp(g.log_B), tol, curve)
    return replace(res, flags=flags)

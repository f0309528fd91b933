"""The workloads of the cfmetric benchmark.

Every workload calls the package only through public functions and
attributes of ``cfcore``, ``thresholds``, ``pressure`` and ``sampler``.  Each
one provides

* ``setup(tr)``        - everything a user pays before the first answer;
* ``make_inputs()``    - the seeded inputs (not timed);
* ``measure(budget)``  - the untraced measured phase, returning an Outcome;
* ``check()``          - the correctness gates, returning the names that failed;
* ``figures()``        - workload-specific numbers printed with the result;
* ``trace(tr, seconds)`` - the traced run: an untraced pass over the first
  half of the time, the same operations again with spans, then per-layer
  probes.  It drives the layers itself in the order the top-level call would
  and checks that the answers match the untraced pass.
"""

from __future__ import annotations

import hashlib
import math
import random
import statistics
from dataclasses import dataclass, field

import numpy as np

from cfmetric import cfcore, pressure, sampler, thresholds
from cfmetric.cfcore import DomainError
from tracing import NO_TRACE, clock

LEVY = math.pi**2 / (12.0 * math.log(2.0))   # lim ln q_n / n, Gauss-almost surely
DP1 = -math.pi**2 / (6.0 * math.log(2.0))    # P'(1), minus the Gauss map's entropy
H = 1e-4                                     # step of the central difference at s = 1

# (grid, cap) of the pressure engine in smoke mode: seconds become tens of
# milliseconds while |P(1)| ~ 8e-9 and |dP(1) - P'(1)| ~ 3e-7 stay inside the
# 1e-6 gates (the cap, not the grid, sets the derivative error)
SMOKE_GRID_CAP = (32, 2048)


@dataclass
class Outcome:
    """What a measured phase did.

    ops holds one (seconds, work) record per attempted op: how long its timed
    call took and the units of work it answered (queries, points, digits; 0
    if refused).
    """

    ops: list = field(default_factory=list)
    refused: int = 0   # DomainError on an input outside the documented domain
    failed: int = 0    # an op that refused an input it should have answered
    wall_s: float = 0.0  # wall time of the measured loop, breaks left out

    @property
    def attempted(self) -> int:
        return len(self.ops)


class Budget:
    """The measured time of a run, split into equal parts with one break
    between consecutive parts.

    A break runs one of the given calls (dim_sweep's fresh set-ups take
    seconds each), so the parts sample the host over a longer stretch than
    the measured time; time spent in breaks is not measured.
    """

    def __init__(self, seconds: float, breaks=()):
        self.breaks = list(breaks)
        self.part = seconds / (len(self.breaks) + 1)
        self.break_s = 0.0
        self.deadline = clock() + self.part

    def done(self, now: float) -> bool:
        """Whether the time is up at `now`, taking a pending break first."""
        if now < self.deadline:
            return False
        if not self.breaks:
            return True
        self.breaks.pop(0)()
        self.break_s += clock() - now
        self.deadline = clock() + self.part
        return False


def _overhead(plain_s: float, traced_s: float) -> dict:
    return {
        "trace.overhead_s": traced_s - plain_s,
        "trace.overhead_frac": (traced_s - plain_s) / plain_s,
    }


def _loguniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


class Workload:
    name = ""
    op_desc = ""
    work_desc = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)
        self.failures: set[str] = set()

    def setup(self, tr=NO_TRACE) -> None:
        """Import is the whole set-up unless a workload says otherwise."""

    def make_inputs(self) -> None:
        """Workloads whose inputs are stream indices of the seed need none."""


# ---------------------------------------------------------------------------
# dim_sweep: cold curve build, then a warm mix of dimension queries
# ---------------------------------------------------------------------------


class DimSweep(Workload):
    name = "dim_sweep"
    op_desc = "one warm dimension_dispatch(r, psi) query"
    work_desc = "answered queries"
    # queries per block of 100.  Tables are 5% of the queries but, at ~3 ms
    # against ~0.1 ms for a closed form, they set the latency tail.
    # beyond_floor queries (r = 1, B in [1e8, 1e12]) are genuine Wang-Wu-limit
    # inputs whose root lies below the cached curve's s floor: today they are
    # refused with a DomainError and count against answered_frac.
    MIX = (
        ("geometric", 80),
        ("poly_log", 5),
        ("double_exp", 4),
        ("scaled_geometric", 4),
        ("table", 5),
        ("beyond_floor", 2),
    )
    TABLE_LEN = 4096
    TABLE_POOL = 8
    TOL = 1e-4  # the solvers' default tolerance, also the slack of monotonicity
    CYLINDER_DEPTH = 8

    def __init__(self, seed: int, smoke: bool):
        super().__init__(seed)
        self.grid, self.cap = (
            SMOKE_GRID_CAP if smoke else (pressure.DEFAULT_GRID, pressure.CURVE_CAP)
        )
        self.anchor_grid_cap = (
            SMOKE_GRID_CAP if smoke else (pressure.DEFAULT_GRID, pressure.DEFAULT_CAP)
        )
        self.n_blocks = 3 if smoke else 50
        self.first: list = []  # outcome of the first pass over the query list
        self.bisect_steps: list = []

    def setup(self, tr=NO_TRACE) -> None:
        with tr.span("pressure.default_curve"):
            self.curve = pressure.default_curve(self.grid, self.cap)

    def make_inputs(self) -> None:
        rng = self.rng
        self.tables = []
        for _ in range(self.TABLE_POOL):
            ln_b = math.log(rng.uniform(1.02, 1.15))
            vals = [math.exp(n * ln_b + math.log(n)) for n in range(1, self.TABLE_LEN + 1)]
            self.tables.append(thresholds.table(vals))
        self.ops = []
        for _ in range(self.n_blocks):
            block = [self._draw(kind) for kind, count in self.MIX for _ in range(count)]
            rng.shuffle(block)
            self.ops.extend(block)

    def _draw(self, kind: str) -> tuple:
        """(kind, r, psi, x) with x the B, b or delta the gates need."""
        rng = self.rng
        r = rng.randint(1, 4)
        if kind == "geometric":
            B = _loguniform(rng, 1.05, 1e6)
            return kind, r, thresholds.geometric(B), B
        if kind == "beyond_floor":
            B = _loguniform(rng, 1e8, 1e12)
            return kind, 1, thresholds.geometric(B), B
        if kind == "poly_log":
            return kind, r, thresholds.poly_log(rng.uniform(0.5, 4.0), rng.uniform(-1.0, 2.0)), None
        if kind == "double_exp":
            b = rng.uniform(1.5, 4.0)
            return kind, r, thresholds.double_exp(rng.uniform(1.5, 10.0), b), b
        if kind == "scaled_geometric":
            delta = _loguniform(rng, 1.05, 100.0)
            inner = thresholds.poly_log(rng.uniform(0.0, 3.0), rng.uniform(0.0, 2.0))
            return kind, r, thresholds.scaled_geometric(delta, inner), delta
        return kind, r, rng.choice(self.tables), None

    def measure(self, budget: Budget) -> Outcome:
        out = Outcome()
        ops, n, curve = self.ops, len(self.ops), self.curve
        dispatch = pressure.dimension_dispatch
        first = self.first = []
        refused_at = []
        start = clock()
        i = 0
        while True:
            _, r, psi, _ = ops[i % n]
            t0 = clock()
            try:
                result = dispatch(r, psi, curve=curve).value
            except DomainError as exc:
                result = str(exc)
            t1 = clock()
            refused = isinstance(result, str)
            out.ops.append((t1 - t0, 0 if refused else 1))
            if refused:
                refused_at.append(i % n)
            if i < n:
                first.append(result)
            elif result != first[i % n]:
                self.failures.add("repeat_gives_same_answer")
            i += 1
            if budget.done(t1):
                break
        out.wall_s = clock() - start - budget.break_s
        expected = {j: self._refusal_expected(j, first[j]) for j in set(refused_at)}
        out.refused = sum(expected[j] for j in refused_at)
        out.failed = len(refused_at) - out.refused
        if out.failed:
            self.failures.add("refusals_only_below_curve_floor")
        return out

    def _refusal_expected(self, j: int, message: str) -> bool:
        """A refusal is the documented one when the root of the pressure
        equation lies below the curve's s floor."""
        _, r, psi, _ = self.ops[j]
        g = thresholds.growth_exponents(psi)
        if "curve domain" not in message or not 0.0 < g.log_B < math.inf:
            return False
        s = self.curve.s_floor
        return self.curve.eval(s) - (s + (2.0 * s - 1.0) * (r - 1)) * g.log_B <= 0.0

    def check(self) -> list[str]:
        fails = set(self.failures)
        curve = self.curve

        def direct(r, B):
            return pressure.solve_dimension(r, B, curve=curve).value

        by_r: dict[int, list] = {r: [] for r in range(1, 5)}
        table_answers: dict = {}
        for (kind, r, psi, x), got in zip(self.ops, self.first):
            if isinstance(got, str):
                continue  # judged in measure()
            if kind in ("geometric", "beyond_floor", "scaled_geometric"):
                want = direct(r, x)
                if abs(got - want) > 1e-12:
                    fails.add("dispatch_equals_direct_solve")
                if kind == "scaled_geometric":
                    continue
                hs = pressure.hussain_shulga_exponent(r, x, curve=curve).value
                if abs(hs - want) > 2e-4:
                    fails.add("solve_dimension_agrees_with_hussain_shulga")
                if r == 1 and not self._brackets_wang_wu_root(got, math.log(x)):
                    fails.add("r1_wang_wu_form")
                by_r[r].append((x, got))
            elif kind == "double_exp":
                if abs(got - 1.0 / (1.0 + x)) > 1e-12:
                    fails.add("double_exp_gives_1_over_1_plus_b")
            elif kind == "poly_log":
                if got != 1.0:
                    fails.add("poly_log_gives_1")
            else:
                key = (id(psi), r)
                if key not in table_answers:
                    g = thresholds.growth_exponents(psi)
                    table_answers[key] = direct(r, math.exp(g.log_B))
                if abs(got - table_answers[key]) > 1e-12:
                    fails.add("table_equals_direct_solve")
        # bisection returns a point within TOL of the root, so monotonicity
        # holds up to TOL
        for pairs in by_r.values():
            vals = [v for _, v in sorted(pairs)]
            if any(b > a + self.TOL for a, b in zip(vals, vals[1:])):
                fails.add("monotone_in_B")
        for x, _ in by_r[1][:50]:
            vals = [direct(r, x) for r in range(1, 5)]
            if any(b > a + self.TOL for a, b in zip(vals, vals[1:])):
                fails.add("monotone_in_r")
        if abs(curve.eval(1.0)) > 1e-6:
            fails.add("curve_p1_anchor")
        return sorted(fails)

    def _brackets_wang_wu_root(self, d: float, ln_b: float) -> bool:
        """d lies within TOL of the root of P(s) = s ln B (the r = 1 form).

        The residual P(d) - d ln B itself is no test: near s = 1/2 the slope
        of P is steep, so a point within TOL of the root can leave a large one.
        """
        curve = self.curve
        lo, hi = max(d - self.TOL, curve.s_floor), min(d + self.TOL, curve.s_ceil)
        return curve.eval(lo) - lo * ln_b >= 0.0 >= curve.eval(hi) - hi * ln_b

    def figures(self) -> dict:
        return {
            "curve_p1_abs_err": abs(self.curve.eval(1.0)),
            "distinct_queries": len(self.ops),
        }

    def _traced_query(self, tr, kind: str, r: int, psi) -> object:
        with tr.op("bench.query"):
            span = "table" if kind == "table" else "closed"
            with tr.span("thresholds.growth_exponents." + span):
                g = thresholds.growth_exponents(psi)
            # the regime choice dimension_dispatch makes from the exponents
            if g.log_B == math.inf:
                return 0.0 if g.log_b == math.inf else 1.0 / (1.0 + math.exp(g.log_b))
            if g.log_B <= 0.0:
                return 1.0
            try:
                with tr.span("pressure.solve_dimension"):
                    res = pressure.solve_dimension(r, math.exp(g.log_B), curve=self.curve)
            except DomainError as exc:
                return str(exc)
            self.bisect_steps.append(len(res.trace))
            return res.value

    def trace(self, tr, seconds: float) -> tuple[Outcome, dict]:
        out = self.measure(Budget(seconds / 2))
        n, curve, rng = len(self.ops), self.curve, self.rng
        start = clock()
        for j in range(out.attempted):
            kind, r, psi, _ = self.ops[j % n]
            if self._traced_query(tr, kind, r, psi) != self.first[j % n]:
                self.failures.add("traced_equals_untraced")
        metrics = _overhead(out.wall_s, clock() - start)

        for _, r, _, B in [op for op in self.ops if op[0] == "geometric"][:200]:
            with tr.span("pressure.hussain_shulga_exponent"):
                pressure.hussain_shulga_exponent(r, B, curve=curve)
        for s in [rng.uniform(curve.s_floor, curve.s_ceil) for _ in range(2000)]:
            with tr.span("pressure.curve_eval"):
                curve.eval(s)
        for psi in self.tables:
            with tr.span("thresholds.envelope"):
                thresholds.envelope(psi, psi.domain_limit)
            with tr.span("thresholds.series_classify"):
                thresholds.series_classify(2, psi)
        # cold operator builds at the curve's (grid, cap), off the curve nodes
        iterations = []
        for s in [rng.uniform(0.55, 1.0) for _ in range(3)]:
            with tr.span("pressure.pressure_eigen.cold"):
                est = pressure.pressure_eigen(s, self.grid, self.cap)
            with tr.span("pressure.pressure_eigen.warm"):
                pressure.pressure_eigen(s, self.grid, self.cap)
            iterations.append(est.params["iterations"])
        # every node is warm now, so this is the assembly alone
        with tr.span("pressure.PressureCurve"):
            pressure.PressureCurve(self.grid, self.cap)
        metrics.update(_eigen_metrics(tr, iterations))
        metrics.update(self._anchors(tr))
        metrics.update({
            "pressure.curve_assemble_ms": tr.median("pressure.PressureCurve", 1e3),
            "pressure.curve_eval_us": tr.median("pressure.curve_eval", 1e6),
            "pressure.solve_us": tr.median("pressure.solve_dimension", 1e6),
            "pressure.solve_bisect_steps": statistics.median(self.bisect_steps or [0]),
            "pressure.hs_us": tr.median("pressure.hussain_shulga_exponent", 1e6),
            "pressure.curve_p1_abs_err": abs(curve.eval(1.0)),
            "thresholds.growth_closed_us": tr.median("thresholds.growth_exponents.closed", 1e6),
            "thresholds.growth_table_ms": tr.median("thresholds.growth_exponents.table", 1e3),
            "thresholds.series_table_ms": tr.median("thresholds.series_classify", 1e3),
            "thresholds.envelope_ms": tr.median("thresholds.envelope", 1e3),
        })
        return out, metrics


    def _anchors(self, tr) -> dict:
        """P(1) = 0 and P'(1) = -pi^2/(6 ln 2) from cold pressure_eigen calls
        at the library's default grid and cap, each followed by a warm
        repeat, transfer_apply and pressure_cylinder."""
        grid, cap = self.anchor_grid_cap
        p = {}
        for s in (1.0 - H, 1.0, 1.0 + H):
            with tr.span("pressure.pressure_eigen.anchor_cold"):
                est = pressure.pressure_eigen(s, grid, cap)
            with tr.span("pressure.pressure_eigen.anchor_warm"):
                warm = pressure.pressure_eigen(s, grid, cap)
            with tr.span("pressure.transfer_apply"):
                applied = pressure.transfer_apply(pressure.OperatorGrid.ones(grid, cap), s)
            with tr.span("pressure.pressure_cylinder"):
                cyl = pressure.pressure_cylinder(s, self.CYLINDER_DEPTH, cap, grid)
            if warm.value != est.value:
                self.failures.add("warm_repeat_gives_same_value")
            if abs(est.value - cyl.ratio_refined) > 2e-3:
                self.failures.add("eigen_agrees_with_cylinder")
            if not np.all((applied.lower <= applied.values) & (applied.values <= applied.upper)):
                self.failures.add("transfer_apply_inside_bracket")
            p[s] = est.value
        p1_err = abs(p[1.0])
        dp1_err = abs((p[1.0 + H] - p[1.0 - H]) / (2.0 * H) - DP1)
        if p1_err > 1e-6:
            self.failures.add("p1_anchor")
        if dp1_err > 1e-6:
            self.failures.add("dp1_anchor")
        return {
            "pressure.cylinder_ms": tr.median("pressure.pressure_cylinder", 1e3),
            "pressure.transfer_apply_ms": tr.median("pressure.transfer_apply", 1e3),
            "pressure.p1_abs_err": p1_err,
            "pressure.dp1_abs_err": dp1_err,
        }


def _eigen_metrics(tr, iterations: list) -> dict:
    cold = tr.durations("pressure.pressure_eigen.cold")
    warm = tr.durations("pressure.pressure_eigen.warm")
    return {
        "pressure.eigen_cold_s": statistics.median(cold),
        "pressure.eigen_warm_ms": statistics.median(warm) * 1e3,
        "pressure.matrix_build_s": statistics.median(c - w for c, w in zip(cold, warm)),
        "pressure.eigen_iterations": statistics.median(iterations),
    }


# ---------------------------------------------------------------------------
# sample_bulk: vectorised throughput of the exact sampler
# ---------------------------------------------------------------------------


class SampleBulk(Workload):
    name = "sample_bulk"
    work_desc = "digits"
    GK_DIGITS = (1, 2, 3)

    def __init__(self, seed: int, smoke: bool):
        super().__init__(seed)
        self.n_streams, self.depth = (2_000, 4) if smoke else (100_000, 4)
        self.op_desc = f"one sample_digit_matrix(seed, {self.n_streams}, {self.depth}) call"

    def _call(self, k: int) -> np.ndarray:
        """Call k samples streams [k n, (k+1) n) of the run's seed."""
        n = self.n_streams
        return sampler.sample_digit_matrix(self.seed, n, self.depth, stream_offset=k * n)

    def measure(self, budget: Budget) -> Outcome:
        out = Outcome()
        self.digests = []
        # counts of digits 1..3 at the first and the last position
        self.counts = np.zeros((2, len(self.GK_DIGITS)), dtype=np.int64)
        start = clock()
        while True:
            t0 = clock()
            m = self._call(len(self.digests))
            t1 = clock()
            out.ops.append((t1 - t0, m.size))
            self.digests.append(hashlib.sha256(m.tobytes()).hexdigest())
            for row, col in enumerate((0, self.depth - 1)):
                for i, k in enumerate(self.GK_DIGITS):
                    self.counts[row, i] += int(np.count_nonzero(m[:, col] == k))
            if budget.done(t1):
                break
        out.wall_s = clock() - start - budget.break_s
        return out

    def check(self) -> list[str]:
        fails = set(self.failures)
        if hashlib.sha256(self._call(0).tobytes()).hexdigest() != self.digests[0]:
            fails.add("same_seed_same_digits")
        # the 4-sigma band of tests/test_sampler.py::test_marginals, on the
        # digits of every call pooled
        rows = len(self.digests) * self.n_streams
        for i, k in enumerate(self.GK_DIGITS):
            want = cfcore.gauss_digit_law(k)
            se = math.sqrt(want * (1.0 - want) / rows)
            for row in range(2):
                if abs(self.counts[row, i] / rows - want) > 4.0 * se:
                    fails.add("gauss_kuzmin_marginals")
        return sorted(fails)

    def figures(self) -> dict:
        # call 0 (streams 0..n-1) runs whatever the time budget, so its digest
        # can be compared between runs with one seed
        return {"digest": self.digests[0][:16], "calls": len(self.digests)}

    def trace(self, tr, seconds: float) -> tuple[Outcome, dict]:
        out = self.measure(Budget(seconds / 2))
        n, depth = self.n_streams, self.depth
        fallbacks = 0
        start = clock()
        for k, digest in enumerate(self.digests):
            with tr.op("bench.sample"):
                with tr.span("sampler.BulkDigitStream"):
                    eng = sampler.BulkDigitStream(self.seed, n, stream_offset=k * n)
                m = np.empty((n, depth), dtype=np.int64)
                for level in range(depth):
                    with tr.span("sampler.bulk_step"):
                        m[:, level] = eng.step()
                fallbacks += eng.fallbacks
                if hashlib.sha256(m.tobytes()).hexdigest() != digest:
                    self.failures.add("traced_equals_untraced")
        metrics = _overhead(out.wall_s, clock() - start)
        for k in range(3):
            with tr.span("sampler.sample_iid_gauss_kuzmin"):
                sampler.sample_iid_gauss_kuzmin(self.seed, n, depth, stream_offset=k * n)
        digits = len(self.digests) * n * depth
        metrics.update({
            "sampler.bulk_ns_per_digit": sum(tr.durations("sampler.bulk_step")) / digits * 1e9,
            "sampler.bulk_step_ms": tr.median("sampler.bulk_step", 1e3),
            "sampler.fallbacks": fallbacks,
            "sampler.fallback_rate": fallbacks / digits,
            "sampler.iid_ns_per_digit": tr.median("sampler.sample_iid_gauss_kuzmin", 1e9 / (n * depth)),
        })
        return out, metrics


# ---------------------------------------------------------------------------
# sample_deep: one stream stepped a digit at a time, certified by cfcore
# ---------------------------------------------------------------------------


def _canonical(digits: tuple) -> tuple:
    """The word expand_rational returns for the value of `digits`: a final
    digit 1 merges into the one before it."""
    if len(digits) > 1 and digits[-1] == 1:
        return digits[:-2] + (digits[-2] + 1,)
    return digits


class SampleDeep(Workload):
    name = "sample_deep"
    op_desc = "one BulkDigitStream(seed, 1).step() call"
    work_desc = "digits"
    HISTORY_WINDOW = 160  # digits the sampler keeps for its exact fallback

    def __init__(self, seed: int, smoke: bool):
        super().__init__(seed)
        self.word_len = 300 if smoke else 2500
        self.words: list = []
        self.fallbacks = 0

    def measure(self, budget: Budget) -> Outcome:
        """Word k is stream k of the run's seed, stepped until time is up."""
        out = Outcome()
        start = clock()
        done = False
        while not done:
            eng = sampler.BulkDigitStream(self.seed, 1, stream_offset=len(self.words))
            digits = []
            for _ in range(self.word_len):
                t0 = clock()
                d = eng.step()
                t1 = clock()
                digits.append(int(d[0]))
                out.ops.append((t1 - t0, 1))
                if budget.done(t1):
                    done = True
                    break
            self.words.append(tuple(digits))
            self.fallbacks += eng.fallbacks
        out.wall_s = clock() - start - budget.break_s
        return out

    def _certify(self, digits: tuple, fails: set) -> None:
        n = len(digits)
        w = cfcore.DigitWord(digits)
        conv = cfcore.convergents(w)
        x = cfcore.evaluate(w)
        if x < 1 and cfcore.expand_rational(x.numerator, x.denominator).digits != _canonical(digits):
            fails.add("evaluate_expand_rational_roundtrip")
        # gauss_measure underflows to 0.0 past ~300 digits, so the cylinder is
        # certified through the log of its exact length:
        # |I(a_1..a_L)| = 1/(q_L (q_L + q_{L-1})) lies in [1/(2 q_L^2), 1/q_L^2].
        # L = n - 1 is left out: when a_n = 1, x is the open end of that cylinder.
        for length in sorted({*range(self.HISTORY_WINDOW, n - 1, 2 * self.HISTORY_WINDOW), n}):
            cyl = cfcore.cylinder(cfcore.DigitWord(digits[:length]))
            if not cyl.contains(x):
                fails.add("prefix_cylinder_contains_point")
            slack = -cfcore.ln_fraction(cyl.length) - 2.0 * conv[length - 1].log_q
            if not -1e-9 <= slack <= math.log(2.0) + 1e-9:
                fails.add("cylinder_length_law")
        # ln q_n / n has standard deviation below 1/sqrt(n), so 6/sqrt(n)
        # keeps false alarms negligible
        if n == self.word_len and abs(conv[-1].log_q / n - LEVY) > 6.0 / math.sqrt(n):
            fails.add("levy_constant")

    def check(self) -> list[str]:
        fails = set(self.failures)
        for digits in self.words:
            self._certify(digits, fails)
        replay = sampler.BulkDigitStream(self.seed, 1)
        prefix = self._prefix()
        if tuple(int(replay.step()[0]) for _ in prefix) != prefix:
            fails.add("same_seed_same_digits")
        return sorted(fails)

    def _prefix(self) -> tuple:
        """The first digits of stream 0, past the history window."""
        return self.words[0][: 2 * self.HISTORY_WINDOW]

    def figures(self) -> dict:
        digest = hashlib.sha256(repr(self._prefix()).encode()).hexdigest()[:16]
        return {"digest": digest, "words": len(self.words), "fallbacks": self.fallbacks}

    def trace(self, tr, seconds: float) -> tuple[Outcome, dict]:
        out = self.measure(Budget(seconds / 2))
        fallbacks = 0
        start = clock()
        for k, word in enumerate(self.words):
            with tr.op("bench.word"):
                with tr.span("sampler.BulkDigitStream"):
                    eng = sampler.BulkDigitStream(self.seed, 1, stream_offset=k)
                digits = []
                for _ in word:
                    with tr.span("sampler.single_step"):
                        d = eng.step()
                    digits.append(int(d[0]))
                fallbacks += eng.fallbacks
            if tuple(digits) != word:
                self.failures.add("traced_equals_untraced")
        metrics = _overhead(out.wall_s, clock() - start)

        full = [w for w in self.words if len(w) == self.word_len] or self.words
        for word in full:
            with tr.op("bench.certify"):
                w = cfcore.DigitWord(word)
                with tr.span("cfcore.cylinder"):
                    cfcore.cylinder(w)
                with tr.span("cfcore.convergents"):
                    cfcore.convergents(w)
                with tr.span("cfcore.evaluate"):
                    x = cfcore.evaluate(w)
                with tr.span("cfcore.expand_rational"):
                    cfcore.expand_rational(x.numerator, x.denominator)
        roundtrip = [a + b for a, b in zip(tr.durations("cfcore.evaluate"),
                                           tr.durations("cfcore.expand_rational"))]
        digits = out.attempted
        metrics.update({
            "sampler.single_step_us": tr.median("sampler.single_step", 1e6),
            "sampler.fallbacks": fallbacks,
            "sampler.fallback_rate": fallbacks / digits,
            "cfcore.cylinder_ms": tr.median("cfcore.cylinder", 1e3),
            "cfcore.convergents_ms": tr.median("cfcore.convergents", 1e3),
            "cfcore.roundtrip_ms": statistics.median(roundtrip) * 1e3,
        })
        return out, metrics


WORKLOADS = {w.name: w for w in (DimSweep, SampleBulk, SampleDeep)}

import hashlib
import math
import re
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import FrozenInstanceError
from fractions import Fraction

import numpy as np
import pytest

from cfmetric import pressure
from cfmetric.cfcore import DomainError, _require_int
from cfmetric.pressure import (
    CURVE_CAP,
    DEFAULT_CAP,
    DEFAULT_GRID,
    S_FLOOR,
    DimensionResult,
    OperatorGrid,
    PressureCurve,
    PressureEstimate,
    chebyshev_lobatto,
    default_curve,
    dimension_dispatch,
    hussain_shulga_exponent,
    pressure_cylinder,
    pressure_eigen,
    solve_dimension,
    transfer_apply,
)
from cfmetric.pressure import (
    _eigensolve, _operator_matrices, _operator_matrix, _root, _step, _tail,
)
from cfmetric.thresholds import (
    double_exp, geometric, poly_log, scaled_geometric, series_classify, table,
)

PI2_6 = math.pi**2 / 6.0


def width(est: PressureEstimate) -> float:
    """The bracket's width, the one error statement of an estimate."""
    return est.bracket[1] - est.bracket[0]


def estimates_digest(estimates) -> str:
    """SHA-256 over float.hex of each estimate's value and bracket ends."""
    text = " ".join(float.hex(x) for e in estimates for x in (e.value, *e.bracket))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def curve():
    return default_curve()


def capped_cylinder_sum(s: float, depth: int, cap: int) -> float:
    """Exact enumeration of sum over words in {1..cap}^depth of q_n^{-2s}.

    Independent oracle for the operator route; cost cap^depth, guarded.
    """
    if not math.isfinite(s):
        raise DomainError(f"s must be finite, got {s!r}")
    _require_int("depth", depth, 0)
    _require_int("cap", cap, 1)
    if cap**depth > 2_000_000:
        raise DomainError("enumeration budget exceeded; lower cap or depth")
    total = 0.0
    stack = [(0, 1, 0)]  # (q_prev, q, level)
    while stack:
        q_prev, q, level = stack.pop()
        if level == depth:
            total += float(q) ** (-2.0 * s)
            continue
        for a in range(1, cap + 1):
            stack.append((q, a * q + q_prev, level + 1))
    return total


def tail_free_sum(s, depth, cap, grid_size=DEFAULT_GRID):
    """(L_s^depth 1)(0) over the digits 1..cap only: the operator's value of
    the capped cylinder sum, by the enclosure step without its tail."""
    M = _operator_matrix(float(s), grid_size, cap)
    f = np.ones(grid_size)
    for _ in range(depth):
        f, _ = _step(M, f, f, None)
    return float(f[0])


class TestTransferApply:
    """transfer_apply's own contract: one tailed _step of the cached operator,
    whose midpoint is the new grid's values."""

    @pytest.mark.parametrize("grid_size, cap, s, radius", [
        (DEFAULT_GRID, DEFAULT_CAP, 1.0, 0.0),  # a point function
        (8, 16, 0.7, 0.25),                     # a bracket
        (2, 1, 1.0, 0.0),                       # the smallest operator allowed
    ])
    def test_equals_one_tailed_step(self, grid_size, cap, s, radius):
        x, _ = chebyshev_lobatto(grid_size)
        f = 1.0 / (1.0 + x)
        g = OperatorGrid(f, cap) if radius == 0.0 else OperatorGrid(f, cap, f - radius, f + radius)
        out = transfer_apply(g, s)
        lo, hi = _step(_operator_matrix(s, grid_size, cap), g.lower, g.upper, _tail(s, grid_size, cap))
        assert np.array_equal(out.lower, lo) and np.array_equal(out.upper, hi)
        assert np.array_equal(out.values, 0.5 * (lo + hi)) and out.digit_cap == cap
        assert np.all(out.lower <= out.upper)

    def test_divergence_guard(self):
        with pytest.raises(DomainError):
            transfer_apply(OperatorGrid.ones(), 0.5)


def naive_operator_matrix(s, grid_size, cap):
    """Per-s double loop of the barycentric formula: M[i, j] =
    sum_a (a + x_i)^{-2s} l_j(1/(a + x_i))."""
    x, w = chebyshev_lobatto(grid_size)
    M = np.zeros((grid_size, grid_size))
    for i in range(grid_size):
        for a in range(1, cap + 1):
            u = 1.0 / (a + x[i])
            weight = (a + x[i]) ** (-2.0 * s)
            if np.any(u == x):
                M[i] += weight * (u == x)
            else:
                r = w / (u - x)
                M[i] += weight * r / r.sum()
    return M


class TestOperatorKernel:
    # a = 1, x = 0 puts u = 1 exactly on the last node; the s values span
    # the curve domain, S_FLOOR to S_CEIL
    S_VALUES = [S_FLOOR, 0.55, 0.8, 1.0, 1.02]

    @pytest.mark.parametrize("cap", [256, 300])
    def test_stacked_build_matches_naive_loop(self, cap):
        _, mats = _operator_matrices(self.S_VALUES, 12, cap)
        assert mats.shape == (len(self.S_VALUES), 12, 12)
        for s, M in zip(self.S_VALUES, mats):
            want = naive_operator_matrix(s, 12, cap)
            assert float(np.abs(M - want).max()) <= 1e-13

    def test_blocked_rows_with_exact_hits_match_naive_loop(self, monkeypatch):
        # The nodes meet a point u = 1/(a + x) only at u = 1 (x=0, a=1).
        # Grid 13's middle node is 0.49999999999999994; snapped to 1/2 it adds
        # the hits (x=1, a=1) and (x=0, a=2).  Blocks of 7 digits cut 1..40
        # into five and a partial one.
        cheb = chebyshev_lobatto

        def snapped(n):
            x, w = cheb(n)
            x[n // 2] = 0.5
            return x, w

        nodes, _ = snapped(13)
        assert nodes[0] == 0.0 and nodes[-1] == 1.0
        monkeypatch.setattr(pressure, "chebyshev_lobatto", snapped)
        monkeypatch.setitem(globals(), "chebyshev_lobatto", snapped)
        monkeypatch.setattr(pressure, "_DIGIT_BLOCK", 7)
        _, mats = _operator_matrices(self.S_VALUES, 13, 40)
        for s, M in zip(self.S_VALUES, mats):
            want = naive_operator_matrix(s, 13, 40)
            assert float(np.abs(M - want).max()) <= 1e-13

    def test_matrices_equal_for_any_worker_count(self, monkeypatch, cpus):
        monkeypatch.setattr(pressure, "_DIGIT_BLOCK", 64)
        got = []
        for workers in (1, 2, 3):
            cpus(workers)
            got.append(_operator_matrices(self.S_VALUES, 13, 300)[1])
        assert np.array_equal(got[0], got[1]) and np.array_equal(got[0], got[2])

    def test_exact_hits_raise_no_warning_in_worker_threads(self, cpus):
        # numpy's error state is per thread, so a pool thread starts from the
        # default, which warns on 1/0; every warning is made an error here
        cpus(2)
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            _, mats = _operator_matrices([0.7], 13, 5)
        assert np.all(np.isfinite(mats))

    def test_curve_matches_single_s_eigen(self):
        curve = PressureCurve(32, 2048)
        for k, s in enumerate(curve.s_nodes):
            assert abs(curve.values[k] - pressure_eigen(s, 32, 2048).value) <= 1e-13


class TestStepAndCaches:
    def test_step_matches_clipped_form_and_encloses(self):
        s, cap = 0.7, 64
        _, M = _operator_matrices([s], 12, cap)
        M = M[0]
        rng = np.random.default_rng(20261018)
        mid = 1.0 + rng.random(12)
        rad = 0.1 * rng.random(12)
        flo, fhi = mid - rad, mid + rad
        lo, hi = _step(M, flo, fhi, None)
        mp, mm = np.clip(M, 0.0, None), np.clip(M, None, 0.0)
        assert float(np.abs(lo - (mp @ flo + mm @ fhi)).max()) <= 1e-13
        assert float(np.abs(hi - (mp @ fhi + mm @ flo)).max()) <= 1e-13
        for _ in range(50):
            f = flo + rng.random(12) * (fhi - flo)
            g = M @ f
            assert np.all(lo <= g) and np.all(g <= hi)
        # the tail only widens the enclosure
        tlo, thi = _step(M, flo, fhi, _tail(s, 12, cap))
        assert np.all(tlo >= lo) and np.all(thi > hi)

    def test_telescoping_eigenfunction(self):
        # sum_a 1/((a + x)(a + 1 + x)) telescopes: L_1 maps 1/(1 + x) to itself
        x, _ = chebyshev_lobatto(DEFAULT_GRID)
        f = 1.0 / (1.0 + x)
        lo, hi = _step(_operator_matrix(1.0, DEFAULT_GRID, DEFAULT_CAP), f, f,
                       _tail(1.0, DEFAULT_GRID, DEFAULT_CAP))
        # f lies inside the bracket at every node
        dist = np.maximum(lo - f, f - hi)
        assert float(dist.max()) <= 1e-10
        assert float(np.abs(0.5 * (lo + hi) - f).max()) <= 1e-8

    def test_basel_value_at_zero(self):
        one = np.ones(DEFAULT_GRID)
        lo, hi = _step(_operator_matrix(1.0, DEFAULT_GRID, DEFAULT_CAP), one, one,
                       _tail(1.0, DEFAULT_GRID, DEFAULT_CAP))
        assert lo[0] <= PI2_6 <= hi[0]
        assert 0.5 * (lo[0] + hi[0]) == pytest.approx(PI2_6, abs=1e-8)

    def test_triple_apply_matches_enumeration(self):
        # L^3 1 (0) with digits capped at 20 equals the explicit word sum
        s = 0.8
        expected = capped_cylinder_sum(s, 3, 20)
        got = tail_free_sum(s, 3, 20)
        assert got == pytest.approx(expected, rel=1e-11)

    def test_matrix_cache_is_bounded_and_counts(self):
        for k in range(70):
            _operator_matrix(0.6 + 0.005 * k, 8, 16)
        info = _operator_matrix.cache_info()
        assert info.maxsize == info.currsize == 64
        _operator_matrix(0.6 + 0.005 * 69, 8, 16)
        assert _operator_matrix.cache_info().hits == info.hits + 1

    def test_cached_operator_is_read_only(self):
        # every caller shares the cached arrays; M *= 2 once moved
        # pressure_eigen(0.7, 8, 16).value from 0.988 to 1.496
        before = pressure_eigen(0.7, 8, 16)
        M = _operator_matrix(0.7, 8, 16)
        with pytest.raises(ValueError, match="read-only"):
            M *= 2.0
        assert pressure_eigen(0.7, 8, 16) == before

    def test_default_curve_shared_across_call_forms(self, curve):
        assert default_curve(DEFAULT_GRID, CURVE_CAP) is curve

    def test_shared_curve_is_read_only(self, curve):
        # every caller shares the cached curve; values *= 2 once moved
        # solve_dimension(2, 2.0) from 0.73354 to 0.81912
        before = solve_dimension(2, 2.0)
        with pytest.raises(ValueError, match="read-only"):
            default_curve().values *= 2
        for name in ("tau", "s_nodes", "bw", "values"):
            assert not getattr(curve, name).flags.writeable, name
        assert solve_dimension(2, 2.0) == before
        assert before.value == pytest.approx(0.73354, abs=1e-4)

    def test_built_curve_refuses_rebinding(self):
        # on the shared curve, values = values * 2 once moved solve_dimension(2, 2.0)
        # from 0.73354 to 0.81912, and s_floor = 0.9 made solve_dimension(1, 1e6)
        # refuse; a private curve keeps the shared one out of it
        c = PressureCurve(8, 64)
        before = [solve_dimension(2, 2.0, curve=c), solve_dimension(1, 1e6, curve=c)]
        for name, value in (("values", c.values * 2), ("s_floor", 0.9), ("grid_size", 16)):
            with pytest.raises(FrozenInstanceError):
                setattr(c, name, value)
            with pytest.raises(FrozenInstanceError):
                delattr(c, name)
        assert [solve_dimension(2, 2.0, curve=c), solve_dimension(1, 1e6, curve=c)] == before

    def test_threads_match_serial(self):
        s_values = [0.6, 0.9] * 2
        _operator_matrix.cache_clear()
        with ThreadPoolExecutor(4) as pool:
            threaded = list(pool.map(lambda s: pressure_eigen(s, 16, 64), s_values))
        _operator_matrix.cache_clear()
        for s, got in zip(s_values, threaded):
            want = pressure_eigen(s, 16, 64)
            assert (got.value, got.bracket, got.params) == (want.value, want.bracket, want.params)


class TestPressureEigen:
    def test_curve_nodes_match_single_s_runs(self):
        # The curve solves all 33 nodes as one stack; each node gets the
        # estimate of a stack of one.  pressure_eigen builds its matrix alone,
        # and a GEMM over one s column rounds differently from one over 33, so
        # its values and brackets match to 1e-13, and its bracket width
        # falls on the same side of 1e-10 (at every node, above it).
        curve = default_curve(32, 2048)
        _, mats = _operator_matrices(curve.s_nodes, 32, 2048)
        batched = _eigensolve(curve.s_nodes, mats, 2048)
        for k, s in enumerate(curve.s_nodes):
            assert batched[k] == _eigensolve([s], mats[k:k + 1], 2048)[0]
            alone = pressure_eigen(s, 32, 2048)
            assert batched[k].params["iterations"] == alone.params["iterations"] == 1
            assert width(batched[k]) >= 1e-10 and width(alone) >= 1e-10
            assert abs(curve.values[k] - alone.value) <= 1e-13
            assert max(abs(a - b) for a, b in zip(batched[k].bracket, alone.bracket)) <= 1e-13

    def test_golden_values_and_brackets(self):
        # every value and bracket end, bit for bit, as the eigensolve first
        # gave them (OpenBLAS 0.3.31, x86-64; equal on one BLAS thread and on
        # one CPU): the curve's 33 nodes, and pressure_eigen at the defaults
        curve = PressureCurve(32, 2048)
        _, mats = _operator_matrices(curve.s_nodes, 32, 2048)
        nodes = _eigensolve(curve.s_nodes, mats, 2048)
        assert np.array_equal(curve.values, [e.value for e in nodes])
        assert estimates_digest(nodes) == (
            "2233657d917d9c760326c89dc84b6aa45497998cbfc650603821cca6e939407c")
        single = [pressure_eigen(s) for s in (0.52, 0.6, 1.0, 4.0, 10.0)]
        assert estimates_digest(single) == (
            "b1fbdff8b19bc1e1cbb12da766220feca7f733b682e62fa669836673cc5603c0")
        # the bracket is the one error statement: no flag or spread beside it
        for est in nodes + single:
            assert est.params == {"grid": 32, "cap": est.params["cap"], "iterations": 1}
            assert not hasattr(est, "converged")
        assert not hasattr(curve, "converged")

    def test_default_grid_matches_grid_128(self, curve):
        # grid 32 against 128 at the curve's cap: 4.96e-10 apart when measured
        fine = PressureCurve(128, CURVE_CAP)
        assert curve.grid_size == 32
        assert float(np.abs(curve.values - fine.values).max()) <= 1e-9

    def test_curve_between_nodes_matches_eigen(self, curve):
        # interpolation error where it peaks, halfway between tau nodes:
        # at most 9.37e-9 from pressure_eigen at the curve's grid and cap
        # when measured, and inside its bracket
        for t in 0.5 * (curve.tau[1:] + curve.tau[:-1]):
            s = 0.5 + math.exp(t)
            est = pressure_eigen(s, curve.grid_size, curve.cap)
            got = curve.eval(s)
            assert abs(got - est.value) <= 2e-8, s
            assert est.bracket[0] <= got <= est.bracket[1], s

    def test_conformality_anchor(self):
        est = pressure_eigen(1.0)
        assert abs(est.value) <= 1e-6
        assert est.bracket[0] <= 0.0 <= est.bracket[1]

    def test_derivative_anchor(self):
        # P'(1) = -pi^2/(6 ln 2), minus the Gauss map's entropy; the central
        # difference at the default (32, 10000) is 2.0e-8 off when measured
        h = 1e-4
        dp1 = (pressure_eigen(1.0 + h).value - pressure_eigen(1.0 - h).value) / (2.0 * h)
        assert abs(dp1 + PI2_6 / math.log(2.0)) <= 1e-7

    @pytest.mark.parametrize("s, value", [
        (5.0, -4.7858615005), (6.0, -5.7622921505), (8.0, -7.6966563976), (10.0, -9.6236182586),
    ])
    def test_large_s_answers_past_the_negative_eigenvalue(self, s, value):
        # at grid 32 the collocation matrix has a negative eigenvalue whose
        # modulus exceeds e^P(s) from s = 4.4-4.5 (18x at s = 8), where power
        # iteration lost the leading eigenvalue; the dense solve picks it by its
        # positive eigenvector
        ev = np.linalg.eigvals(_operator_matrix(s, 32, 10_000)).real
        assert -ev.min() > ev.max()
        est = pressure_eigen(s)
        assert width(est) < 1e-10
        assert est.value == pytest.approx(value, abs=1e-9)

    @pytest.mark.parametrize("s", [3.0, 3.5])
    def test_value_kept_inside_a_bracket_a_few_ulps_wide(self, s):
        # there rounding put ln(lambda) an ulp outside the bracket, which the
        # estimate refuses with a RuntimeError
        est = pressure_eigen(s)
        assert width(est) < 1e-14
        assert est.bracket[0] <= est.value <= est.bracket[1]

    @pytest.mark.parametrize("s, grid", [(41.05, 32), (50.0, 32), (38.8, 64)])
    def test_no_positive_eigenvector_raises(self, s, grid):
        # the first refusals measured on a scan in steps of 0.05, and s = 50
        with pytest.raises(DomainError, match=rf"no eigenvector .* positive at every node "
                                              rf"\(s={s}, grid {grid}\)"):
            pressure_eigen(s, grid)

    def test_estimate_refuses_a_bracket_that_misses_its_value(self):
        with pytest.raises(RuntimeError, match="bracket does not contain its value"):
            PressureEstimate(1.0, 2.0, (0.0, 1.0), {})

    def test_converges_below_the_limit(self):
        # s = 4: the negative eigenvalue is 0.71 of e^P(s)
        assert width(pressure_eigen(4.0)) < 1e-10

    def test_strictly_decreasing(self):
        assert pressure_eigen(0.6, cap=2048).value > pressure_eigen(0.9, cap=2048).value

    def test_monotone_and_convex_on_grid(self, curve):
        ss = np.linspace(0.55, 1.0, 10)
        vals = [curve.eval(s) for s in ss]
        diffs = np.diff(vals)
        assert np.all(diffs < 0)
        assert np.all(np.diff(diffs) > 0)  # convex


class TestPressureCylinder:
    def test_single_level_sum(self):
        # first cylinder sum: ln sum a^{-2} = ln(pi^2/6)
        est = pressure_cylinder(1.0, 1)
        assert est.value == pytest.approx(math.log(PI2_6), abs=1e-7)

    def test_exact_small_enumeration(self):
        s2 = capped_cylinder_sum(1.0, 2, 10)
        explicit = sum((a * b + 1) ** -2.0 for a in range(1, 11) for b in range(1, 11))
        assert abs(s2 - explicit) <= 1e-12

    def test_grid_matches_enumeration(self):
        got = tail_free_sum(1.0, 2, 10)
        explicit = sum((a * b + 1) ** -2.0 for a in range(1, 11) for b in range(1, 11))
        assert abs(got - explicit) <= 1e-12

    def test_value_increases_with_cap(self):
        vals = [tail_free_sum(0.9, 2, c) for c in (5, 10, 50, 200)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("s", [0.6, 0.75, 0.9, 1.0])
    def test_cross_validation(self, s):
        eig = pressure_eigen(s, cap=2048)
        cyl = pressure_cylinder(s, 12, cap=2048)
        assert abs(eig.value - cyl.ratio_refined) <= 2e-3
        # the Fekete bracket of the raw value must cover the eigen value
        assert cyl.bracket[0] - 1e-9 <= eig.value <= cyl.bracket[1] + 1e-9

    def test_lost_lower_bound_names_its_depth(self):
        # at the default grid and cap the lower end at 0 first reaches 0 at
        # depth 45 for s = 1, where math.log would fail
        pressure_cylinder(1.0, 44)
        with pytest.raises(DomainError, match="lower bound reached 0 at depth 45"):
            pressure_cylinder(1.0, 45)

    def test_budget_guard(self):
        with pytest.raises(DomainError):
            capped_cylinder_sum(1.0, 12, 100)

    @pytest.mark.parametrize("s, depth, cap, message", [
        (1.0, -1, 2, "depth must be an integer >= 0, got -1"),
        (1.0, 2.5, 2, "depth must be an integer >= 0, got 2.5"),
        (1.0, True, 2, "depth must be an integer >= 0, got True"),
        (1.0, 2, 0, "cap must be an integer >= 1, got 0"),
        (1.0, 2, 2.0, "cap must be an integer >= 1, got 2.0"),
        (math.nan, 2, 2, "s must be finite, got nan"),
        (math.inf, 2, 2, "s must be finite, got inf"),
    ])
    def test_enumeration_arguments_refused(self, s, depth, cap, message):
        with pytest.raises(DomainError, match=message):
            capped_cylinder_sum(s, depth, cap)

    def test_empty_word_sum(self):
        assert capped_cylinder_sum(0.8, 0, 5) == 1.0


class TestSolveDimension:
    def test_limits(self, curve):
        for r in (1, 2, 3):
            assert solve_dimension(r, 1.001, curve=curve).value > 0.95
            assert solve_dimension(r, 1e6, curve=curve).value < 0.55

    def test_decreasing_in_B(self, curve):
        vals = [solve_dimension(1, B, curve=curve).value for B in (1.5, 2, 4, 16, 256)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_continuity_along_fine_grid(self, curve):
        bs = np.exp(np.linspace(math.log(1.1), math.log(64.0), 40))
        vals = [solve_dimension(1, float(B), curve=curve).value for B in bs]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert max(a - b for a, b in zip(vals, vals[1:])) <= 0.05

    def test_decreasing_in_r(self, curve):
        v1 = solve_dimension(1, 2.0, curve=curve).value
        v2 = solve_dimension(2, 2.0, curve=curve).value
        v3 = solve_dimension(3, 2.0, curve=curve).value
        assert v1 > v2 > v3

    def test_range_contract(self, curve):
        for B in (1.2, 3.0, 50.0, 1e4):
            for r in (1, 2):
                v = solve_dimension(r, B, curve=curve).value
                assert 0.5 < v < 1.0

    def test_r1_wang_wu_form(self, curve):
        # at the root, P(s) = s ln B
        for B in (2.0, 10.0):
            res = solve_dimension(1, B, curve=curve)
            assert curve.eval(res.value) == pytest.approx(
                res.value * math.log(B), abs=5e-4
            )

    def test_trace_recorded(self, curve):
        res = solve_dimension(2, 2.0, curve=curve)
        assert len(res.trace) >= 10
        assert res.inputs["r"] == 2

    def test_tol_guard(self, curve):
        for tol in (1e-9, 4.9e-6, 0.0, -1.0, math.nan, math.inf, True):
            with pytest.raises(DomainError, match=r"tol must be in \[5e-6, inf\)"):
                solve_dimension(2, 2.0, tol=tol, curve=curve)

    def test_tol_at_its_floor_answers(self, curve):
        fine = solve_dimension(2, 2.0, tol=5e-6, curve=curve)
        assert len(fine.trace) > len(solve_dimension(2, 2.0, curve=curve).trace)
        assert fine.value == pytest.approx(0.73354, abs=1e-4)

    def test_B_too_close_to_1_refused(self, curve):
        # the curve's P(1) is about +4.2e-11, above ln(1 + 1e-12), so g(1) > 0
        assert 0.0 < curve.eval(1.0) - math.log(1.0 + 1e-12)
        with pytest.raises(DomainError, match="B is too close to 1"):
            solve_dimension(1, 1.0 + 1e-12, curve=curve)

    @pytest.mark.parametrize("B", [1e8, 1e12])
    def test_root_below_the_curve_floor_refused(self, curve, B):
        # dim_sweep's beyond_floor queries: r = 1 and B in [1e8, 1e12]; no
        # call takes another floor, so the refusal names S_FLOOR's value
        with pytest.raises(DomainError, match=r"root sits below the cached curve domain, "
                                              rf"whose floor is s = {re.escape(str(S_FLOOR))}$"):
            solve_dimension(1, B, curve=curve)

    @pytest.mark.parametrize("root, calls", [
        (0.7, [1.0, S_FLOOR]),     # a root far above the floor
        (0.5005, [1.0, S_FLOOR]),  # a root just above it
    ])
    def test_root_reads_its_two_lower_ends_before_bisecting(self, root, calls):
        seen = []

        def g(s):
            seen.append(s)
            return root - s

        value, trace = _root(g, S_FLOOR, 1e-4)
        assert seen[:len(calls)] == calls
        assert seen[len(calls):] == [mid for mid, _ in trace]
        assert trace[0][0] == 0.5 * (calls[-1] + 1.0)
        assert abs(value - root) <= 1e-4

    @pytest.mark.parametrize("root, calls, message", [
        (1.0, [1.0], "B is too close to 1"),
        (S_FLOOR, [1.0, S_FLOOR], "root sits below the cached curve domain"),
        (0.5001, [1.0, S_FLOOR], "root sits below the cached curve domain"),
    ])
    def test_root_refusals_read_no_further(self, root, calls, message):
        seen = []

        def g(s):
            seen.append(s)
            return root - s

        with pytest.raises(DomainError, match=message):
            _root(g, S_FLOOR, 1e-4)
        assert seen == calls


class TestHussainShulga:
    def test_r1_identity(self, curve):
        a = hussain_shulga_exponent(1, 2.0, curve=curve).value
        b = solve_dimension(1, 2.0, curve=curve).value
        assert abs(a - b) <= 2e-4

    @pytest.mark.parametrize("r", [1, 2, 3])
    @pytest.mark.parametrize("B", [1.5, 2.0, 10.0])
    def test_independent_path_equality(self, r, B, curve):
        a = hussain_shulga_exponent(r, B, curve=curve).value
        b = solve_dimension(r, B, curve=curve).value
        assert abs(a - b) <= 2e-4

    def test_min_at_last_offset(self, curve):
        res = hussain_shulga_exponent(3, 2.0, curve=curve)
        per = res.inputs["per_offset"]
        assert res.inputs["argmin"] == 2
        assert per[0] > per[1] > per[2]

    def test_tol_guard(self, curve):
        with pytest.raises(DomainError):
            hussain_shulga_exponent(1, 2.0, tol=1e-9, curve=curve)


class TestDimensionDispatch:
    def test_poly_gives_full_dimension(self, curve):
        res = dimension_dispatch(2, poly_log(3, 0), curve=curve)
        assert res.regime == "B=1" and res.value == 1.0

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_double_exp_quarter(self, curve, r):
        # the B = inf regime answers 1/(1 + b) for every r
        res = dimension_dispatch(r, double_exp(math.e, 3), curve=curve)
        assert res.regime == "B=inf"
        assert res.value == pytest.approx(0.25, abs=1e-12)

    def test_geometric_routes_to_solver(self, curve):
        res = dimension_dispatch(2, geometric(2.0), curve=curve)
        direct = solve_dimension(2, 2.0, curve=curve)
        assert res.value == pytest.approx(direct.value, abs=1e-12)
        assert res.regime == "finite-B"

    def test_r1_matches_specialization(self, curve):
        for B in (1.5, 4.0, 32.0):
            res = dimension_dispatch(1, geometric(B), curve=curve)
            assert res.value == pytest.approx(
                solve_dimension(1, B, curve=curve).value, abs=1e-12
            )

    def test_numeric_table_flagged(self, curve):
        psi = table([2.0**n for n in range(1, 400)])
        res = dimension_dispatch(1, psi, curve=curve)
        assert any("estimate" in f for f in res.flags)
        assert res.value == pytest.approx(
            solve_dimension(1, 2.0, curve=curve).value, abs=5e-3
        )

    def test_scaled_geometric_of_poly(self, curve):
        res = dimension_dispatch(1, scaled_geometric(2.0, poly_log(1, 0)), curve=curve)
        assert res.regime == "finite-B"


class TestGridBasics:
    def test_lobatto_endpoints(self):
        x, w = chebyshev_lobatto(64)
        assert x[0] == 0.0 and x[-1] == 1.0
        assert np.all(np.diff(x) > 0)

    @pytest.mark.parametrize("values, bounds, message", [
        ([1.0], {}, r"values must be at least 2 numbers on one axis; got shape \(1,\)"),
        ([[1.0, 1.0]], {}, r"values must be at least 2 .* got shape \(1, 2\)"),
        ([1.0, math.inf], {}, "values must be 2 finite numbers, one per node; got shape"),
        ([1.0, 1.0], {"lower": [1.0, 1.0, 1.0]}, r"lower must be 2 finite .* got shape \(3,\)"),
        ([1.0, 1.0], {"upper": [[2.0], [2.0]]}, r"upper must be 2 finite .* got shape \(2, 1\)"),
        ([1.0, 1.0], {"upper": [2.0, math.nan]}, "upper must be 2 finite numbers"),
        # an inverted bracket: lower = 2 > upper = 1
        ([1.5, 1.5], {"lower": [2.0, 2.0], "upper": [1.0, 1.0]}, "lower must be <= values"),
        ([1.0, 1.0], {"lower": [0.0, 1.5]}, "lower must be <= values"),
        ([1.0, 1.0], {"upper": [2.0, 0.5]}, "upper must be >= values"),
    ])
    def test_operator_grid_validation(self, values, bounds, message):
        with pytest.raises(DomainError, match=message):
            OperatorGrid(np.array(values), 10, **bounds)

    @pytest.mark.parametrize("values, bounds, bad", [
        # numpy converts bools and numeric strings to floats: both built grids
        (["1", "2"], {}, ("values", "'1'")),
        ([True, True], {}, ("values", "True")),
        (np.array([True, False]), {}, ("values", "True")),
        ([1.0, True], {}, ("values", "True")),
        ([1.0, 1.0], {"lower": [0.5, False]}, ("lower", "False")),
        ([1.0, 1.0], {"upper": np.array(["2", "2"])}, ("upper", "'2'")),
    ])
    def test_operator_grid_refuses_bools_and_strings(self, values, bounds, bad):
        with pytest.raises(DomainError, match=rf"every entry of {bad[0]} must be a real "
                                              rf"number, got {bad[1]}$"):
            OperatorGrid(values, 10, **bounds)

    @pytest.mark.parametrize("values", [
        [1, 2], (1.0, 2.0), [Fraction(1), Fraction(2)], [np.int64(1), np.float32(2.0)],
        np.array([1, 2], dtype=np.int32), np.array([1.0, 2.0], dtype=np.float32),
    ])
    def test_operator_grid_takes_every_real_type(self, values):
        g = OperatorGrid(values, 10)
        assert g.values.dtype == float and g.values.tolist() == [1.0, 2.0]

    def test_operator_grid_keeps_a_valid_bracket(self):
        g = OperatorGrid(np.ones(8), 10, np.zeros(8), [2.0] * 8)
        assert g.upper.dtype == float and np.all(g.lower <= g.values)

    def test_operator_grid_is_frozen_and_read_only(self):
        # a field set after the checks once skipped them: lower = None gave a
        # bare TypeError at the grid's first use
        g = OperatorGrid.ones(8, 16)
        with pytest.raises(FrozenInstanceError):
            g.lower = None
        with pytest.raises(FrozenInstanceError):
            g.upper = g.values - 1
        for a in (g.values, g.lower, g.upper):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 2.0
        assert np.all(g.values == 1.0)

    def test_operator_grid_copies_the_callers_arrays(self):
        values, lower, upper = np.ones(8), np.zeros(8), np.full(8, 2.0)
        g = OperatorGrid(values, 10, lower, upper)
        for a in (values, lower, upper):
            assert a.flags.writeable
            a += 5.0
        assert np.all(g.lower == 0.0) and np.all(g.values == 1.0) and np.all(g.upper == 2.0)

    def test_operator_grid_nodes_come_from_its_values(self):
        # the grid takes no nodes: they are the Chebyshev-Lobatto nodes of
        # len(values), and a point function is its own bracket, the same array
        g = OperatorGrid.ones(8, 16)
        assert np.array_equal(g.nodes, chebyshev_lobatto(8)[0])
        assert g.lower is g.values and g.upper is g.values
        # the nodes are made on each read, so writing to them changes no grid
        want = g.nodes.copy()
        g.nodes[:] = 0.0
        assert np.array_equal(g.nodes, want)
        with pytest.raises(TypeError):
            OperatorGrid(values=np.ones(8), nodes=chebyshev_lobatto(8)[0])


class TestArgumentRules:
    """Bad arguments raise a DomainError that names the limit, before any work."""

    @pytest.mark.parametrize("r", [0, -1, 1.5, 2.0, True, np.float64(2.0)])
    @pytest.mark.parametrize("call", [
        lambda r: dimension_dispatch(r, poly_log(1, 0)),     # would be B = 1
        lambda r: dimension_dispatch(r, double_exp(2, 2)),   # would be B = inf
        lambda r: dimension_dispatch(r, geometric(2.0)),
        lambda r: solve_dimension(r, 2.0),
        lambda r: hussain_shulga_exponent(r, 2.0),
        lambda r: series_classify(r, poly_log(1, 0)),
    ])
    def test_r_is_an_integer_at_least_one(self, call, r):
        with pytest.raises(DomainError, match="r must be an integer >= 1, got "):
            call(r)

    @pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0, 1e-6, math.inf, True])
    @pytest.mark.parametrize("psi", [poly_log(1, 0), double_exp(2, 3), geometric(2.0)],
                             ids=["B=1", "B=inf", "finite-B"])
    def test_tol_checked_in_every_regime(self, psi, tol):
        # B = 1 and B = inf answer without the pressure equation, yet a bad tol
        # is refused there too, by solve_dimension's rule
        with pytest.raises(DomainError, match=r"tol must be in \[5e-6, inf\), the cached "
                                              r"curve's accuracy; got "):
            dimension_dispatch(2, psi, tol)

    def test_curve_reads_every_real_s(self, curve):
        # a float skips the type check; every other real number passes it
        # and reads the same value
        want = curve.eval(1.0)
        for s in (1, np.int64(1), np.float64(1.0), np.float32(1.0), Fraction(1)):
            assert curve.eval(s) == want, s

    @pytest.mark.parametrize("call", [
        lambda r, curve: dimension_dispatch(r, poly_log(1, 0)),
        lambda r, curve: dimension_dispatch(r, double_exp(2, 2)),
        lambda r, curve: dimension_dispatch(r, geometric(2.0), curve=curve),
        lambda r, curve: solve_dimension(r, 2.0, curve=curve),
        lambda r, curve: hussain_shulga_exponent(r, 2.0, curve=curve),
    ], ids=["dispatch-B=1", "dispatch-B=inf", "dispatch-finite-B", "solve", "hussain-shulga"])
    def test_numpy_integer_r(self, curve, call):
        # the result keeps the int that the check returns, not the numpy integer
        for r in (np.int64(2), np.uint8(2)):
            got, want = call(r, curve), call(2, curve)
            assert type(got.inputs["r"]) is int and got == want

    def test_numpy_integer_r_classifies_the_series(self):
        for psi in (poly_log(1, 0), table(np.arange(1.0, 129.0) ** 2)):
            got, want = series_classify(np.int64(2), psi), series_classify(2, psi)
            assert (got.verdict, got.partial_sums) == (want.verdict, want.partial_sums)

    @pytest.mark.parametrize("call, message", [
        (lambda: pressure_eigen(math.nan, 8, 10), "s must be finite, got nan"),
        (lambda: pressure_eigen(math.inf, 8, 10), "s must be finite, got inf"),
        (lambda: pressure_eigen(0.8, 1, 10), "grid_size must be an integer >= 2, got 1"),
        (lambda: pressure_eigen(0.8, 8.0, 10), "grid_size must be an integer >= 2, got 8.0"),
        (lambda: pressure_eigen(0.8, 128, 0), "cap must be an integer >= 1, got 0"),
        (lambda: pressure_eigen(True, 8, 10), "s must be a real number, got True"),
        (lambda: solve_dimension(2, 2.0, tol=True), r"tol must be in \[5e-6, inf\), .* got True"),
        # psi of the wrong type raised a bare AttributeError
        (lambda: dimension_dispatch(2, 2.0), "psi must be a ThresholdFn, got 2.0"),
        (lambda: series_classify(2, "geometric(2)"), "psi must be a ThresholdFn, got 'geometric"),
        (lambda: pressure_cylinder(0.8, 2, 0, 8), "cap must be an integer >= 1, got 0"),
        (lambda: pressure_cylinder(math.inf, 2, 10, 8), "s must be finite, got inf"),
        (lambda: pressure_cylinder(0.8, 2, 10, 1), "grid_size must be an integer >= 2"),
        (lambda: pressure_cylinder(0.8, 1.5, 10, 8), "depth must be an integer >= 1, got 1.5"),
        (lambda: pressure_eigen(0.5, 8, 10), "s must be > 1/2, got 0.5"),
        (lambda: pressure_cylinder(0.5, 2, 10, 8), "s must be > 1/2, got 0.5"),
        (lambda: transfer_apply(OperatorGrid.ones(8, 10), 0.5), "s must be > 1/2, got 0.5"),
        (lambda: transfer_apply(OperatorGrid.ones(8, 0), 0.8), "cap must be an integer >= 1"),
        (lambda: OperatorGrid.ones(8, 0), "cap must be an integer >= 1, got 0"),
        (lambda: OperatorGrid.ones(8, 2.5), "cap must be an integer >= 1, got 2.5"),
        (lambda: OperatorGrid.ones(0), "grid_size must be an integer >= 2, got 0"),
        (lambda: OperatorGrid.ones(1), "grid_size must be an integer >= 2, got 1"),
        (lambda: OperatorGrid([1.0, 1.0], 0), "digit_cap must be an integer >= 1, got 0"),
        (lambda: OperatorGrid([1.0, 1.0], 2.5), "digit_cap must be an integer >= 1, got 2.5"),
        (lambda: transfer_apply(OperatorGrid.ones(8, 10), math.nan), "s must be finite"),
        (lambda: PressureCurve(1, 8), "grid_size must be an integer >= 2, got 1"),
        (lambda: PressureCurve(8, True), "cap must be an integer >= 1, got True"),
        (lambda: solve_dimension(2, 1.0), r"solve_dimension needs 1 < B < inf"),
        (lambda: solve_dimension(2, math.inf), r"solve_dimension needs 1 < B < inf"),
        (lambda: solve_dimension(2, math.nan), r"solve_dimension needs 1 < B < inf"),
        (lambda: solve_dimension(2, "2.0"), r"solve_dimension needs 1 < B < inf"),  # a TypeError
        (lambda: default_curve().eval(S_FLOOR - 1e-9), "outside cached curve domain"),
        (lambda: default_curve().eval(0.5), "outside cached curve domain"),
        (lambda: default_curve().eval(pressure.S_CEIL + 1e-9), "outside cached curve domain"),
        # True read as s = 1 (P = 4.2e-11), and a string raised a bare TypeError
        (lambda: default_curve().eval(True), "s must be a real number, got True"),
        (lambda: default_curve().eval("0.7"), "s must be a real number, got '0.7'"),
        (lambda: default_curve().eval(None), "s must be a real number, got None"),
    ])
    def test_operator_arguments_refused_at_once(self, call, message):
        with pytest.raises(DomainError, match=message):
            call()

    def test_smallest_operator_still_brackets(self):
        # grid 2 and one digit are allowed: the bracket is wide, but it holds
        # P(1) = 0
        est = pressure_eigen(1.0, 2, 1)
        assert est.bracket[0] <= 0.0 <= est.bracket[1]
        assert width(est) >= 1e-10  # 0.52 wide when measured
        assert PressureCurve(2, 1).values.shape == (33,)

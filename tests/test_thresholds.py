import math
import re
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from cfmetric.cfcore import DomainError
from cfmetric.pressure import default_curve, dimension_dispatch
from cfmetric.thresholds import (
    DyadicReport,
    double_exp,
    dyadic_equivalence_check,
    envelope,
    geometric,
    growth_exponents,
    parse_psi,
    poly_log,
    scaled_geometric,
    series_classify,
    table,
)

INF = math.inf


# -- reference: the per-n loops the array path replaced -----------------------


def _ref_hint(psi):
    """monotone_hint with a table's check as a scan over its tuple."""
    if psi.kind == "table":
        vals = psi.values
        (delta,) = psi.params
        if delta >= 1 and all(a <= b for a, b in zip(vals, vals[1:])):
            return ("nondecreasing", None)
        return ("unknown", None)
    return psi.monotone_hint


def _ref_envelope(psi, horizon):
    """(log_values, exact, note) by one log_value call and one min per n."""
    hint, aux = _ref_hint(psi)
    logs = [psi.log_value(n) for n in range(1, horizon + 1)]
    if hint == "nondecreasing":
        return tuple(logs), True, ""
    if hint == "limit":
        return (aux,) * horizon, True, "psi decreases; envelope is its tail infimum"
    if hint == "eventually":
        n0 = aux
        ext = [psi.log_value(n) for n in range(horizon + 1, n0 + 1)]
        suffix = INF
        out = [0.0] * horizon
        for n in range(max(horizon, n0), 0, -1):
            v = logs[n - 1] if n <= horizon else ext[n - horizon - 1]
            suffix = min(suffix, v)
            if n <= horizon:
                out[n - 1] = suffix
        return tuple(out), True, ""
    if psi.domain_limit == horizon:
        exact, note = True, ""
    else:
        exact, note = False, "envelope is upper bound only (unknown monotonicity)"
    out = []
    suffix = INF
    for v in reversed(logs):
        suffix = min(suffix, v)
        out.append(suffix)
    out.reverse()
    return tuple(out), exact, note


def _ref_table_growth(psi, horizon):
    """(log_B, log_b, flags, argmin_B, argmin_b) of a table by a strict-< scan."""
    logs, exact, note = _ref_envelope(psi, min(horizon, psi.domain_limit))
    flags = [] if exact else [note]
    best_B, arg_B = INF, None
    best_b, arg_b = INF, None
    skipped = False
    for n in range(1, len(logs) + 1):
        lv = logs[n - 1]
        q = lv / n
        if q < best_B:
            best_B, arg_B = q, n
        if lv <= 0:
            skipped = True
            continue
        q2 = math.log(lv) / n
        if q2 < best_b:
            best_b, arg_b = q2, n
    if skipped:
        flags.append("log log undefined at some points; skipped")
    if arg_b is None:
        best_b = -INF
    return best_B, best_b, tuple(flags), arg_B, arg_b


def _ref_numeric_series(r, psi, horizon):
    """(verdict, partial_sums, horizon) of the numeric series path."""
    logs, _, _ = _ref_envelope(psi, min(horizon, psi.domain_limit))
    n_max = len(logs)
    terms, samples = [], []
    total = 0.0
    mark = 8
    for n, lv in enumerate(logs, 1):
        lt = (r - 1) * math.log(n) - r * lv
        terms.append(lt)
        total += math.exp(lt) if lt < 700 else INF
        if n == mark or n == n_max:
            samples.append((n, total))
            mark *= 4
    verdict = "undetermined"
    if n_max >= 64:
        xs = [math.log(n) for n in range(n_max // 2, n_max + 1)]
        ys = [terms[n - 1] for n in range(n_max // 2, n_max + 1)]
        xbar = sum(xs) / len(xs)
        ybar = sum(ys) / len(ys)
        denom = sum((x - xbar) ** 2 for x in xs)
        if denom > 0:
            slope = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / denom
            if slope < -1.2:
                verdict = "convergent"
            elif slope > -0.9:
                verdict = "divergent"
    return verdict, tuple(samples), n_max


def _close(a, b, rel, scale=0.0):
    """a == b to rel, relative to max(|b|, scale)."""
    return a == b or abs(a - b) <= rel * max(abs(b), scale)


@st.composite
def _tables(draw):
    """A table psi(n) = exp(walk) whose log steps include exact ties (0),
    dips (< 0) and rises, starting low enough that some values lie in (0, 1];
    optionally scaled by delta^n with delta on either side of 1."""
    start = draw(st.floats(-4.0, 4.0))
    steps = draw(st.lists(
        st.one_of(st.just(0.0), st.floats(-3.0, 3.0)), min_size=0, max_size=299,
    ))
    logs = [start]
    for step in steps:
        logs.append(logs[-1] + step)
    psi = table([math.exp(v) for v in logs])
    if draw(st.booleans()):
        psi = scaled_geometric(draw(st.sampled_from([0.3, 0.9, 1.0, 1.1, 2.5])), psi)
    return psi


class TestEnvelope:
    def test_nondecreasing_identity(self):
        psi = poly_log(1, 0)
        env = envelope(psi, 50)
        assert env.exact
        assert env.log_values == tuple(psi.log_value(n) for n in range(1, 51))

    def test_length_is_the_horizon(self):
        assert len(envelope(poly_log(1, 0), 7)) == 7

    def test_table_suffix_min(self):
        env = envelope(table([5, 3, 4, 4]), 4)
        assert [round(math.exp(v), 9) for v in env.log_values] == [3, 3, 4, 4]
        assert env.exact  # the table is the whole domain

    def test_n_log_n_monotone(self):
        # n log n increases for n >= 2 (and the clamped n=1 value is below)
        psi = poly_log(1, 1)
        env = envelope(psi, 64)
        for n in range(2, 64):
            assert env.log_values[n - 1] == pytest.approx(
                math.log(n) + math.log(math.log(n)), abs=1e-12
            )

    def test_eventually_nondecreasing(self):
        # n^2 / log n dips around e^(1/2); envelope resolves it exactly
        psi = poly_log(2, -1)
        env = envelope(psi, 30)
        assert env.exact
        vals = [math.exp(v) for v in env.log_values]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
        assert all(
            vals[n - 1] <= psi.value(n) + 1e-12 for n in range(1, 31)
        )

    def test_idempotent(self):
        psi = table([9, 2, 7, 3, 8, 8])
        env1 = envelope(psi, 6)
        env2 = envelope(table([math.exp(v) for v in env1.log_values]), 6)
        assert all(
            a == pytest.approx(b, rel=1e-12)
            for a, b in zip(env1.log_values, env2.log_values)
        )

    def test_far_turning_point_is_unknown(self):
        # n^0.001 / ln n falls until ln n = 1000, a point no float reaches
        psi = poly_log(1e-3, -1)
        assert psi.monotone_hint == ("unknown", None)
        assert not envelope(psi, 50).exact

    def test_turning_point_scan_is_capped(self):
        # B = 1 + 1e-9 with a falling 1/n turns upward near n0 = 2e9, about
        # 16 GB of values, so the envelope refuses before it allocates any
        psi = scaled_geometric(1 + 1e-9, poly_log(-1, 0))
        assert psi.monotone_hint == ("eventually", 1999999838)
        with pytest.raises(DomainError, match=r"n0 = 1999999838.*4194304"):
            envelope(psi, 10)
        # a turning point below the cap is scanned to, as the per-n reference does
        psi = scaled_geometric(1 + 1e-4, poly_log(-1, 0))
        assert psi.monotone_hint == ("eventually", 20003)
        env = envelope(psi, 10)
        assert (env.log_values, env.exact, env.note) == _ref_envelope(psi, 10)

    def test_unknown_monotonicity_flag(self):
        psi = scaled_geometric(0.5, table([1, 2, 3, 4, 5, 6, 7, 8]))
        env = envelope(psi, 4)
        assert not env.exact
        assert "upper bound" in env.note

    @pytest.mark.parametrize("psi", [
        poly_log(1, 0), poly_log(2, -1), poly_log(0.5, -2), poly_log(-1, 0),
        geometric(0.5), geometric(1.3), double_exp(2.0, 1.5),
        scaled_geometric(1.5, poly_log(1, -1)), scaled_geometric(0.7, poly_log(2, 1)),
        scaled_geometric(1.2, double_exp(3.0, 1.1)),
    ], ids=lambda psi: psi.describe())
    def test_closed_forms_equal_reference(self, psi):
        # closed forms are filled from log_value, so nothing may move
        env = envelope(psi, 200)
        assert (env.log_values, env.exact, env.note) == _ref_envelope(psi, 200)

    @settings(max_examples=150, deadline=None)
    @given(psi=_tables(), data=st.data())
    def test_array_path_matches_reference(self, psi, data):
        n_tab = psi.domain_limit
        # log_value(n) and the array path run the same formula
        horizon = data.draw(st.integers(1, n_tab), label="horizon")
        env = envelope(psi, horizon)
        assert (env.log_values, env.exact, env.note) == _ref_envelope(psi, horizon)

        # the table branch, on delta^n psi(n) itself for a scaled table
        horizon = data.draw(st.integers(10, n_tab + 10), label="growth horizon")
        g = growth_exponents(psi, horizon)
        log_B, log_b, flags, arg_B, arg_b = _ref_table_growth(psi, horizon)
        assert (g.flags, g.argmin_B, g.argmin_b) == (flags, arg_B, arg_b)
        assert _close(g.log_B, log_B, 1e-15)
        # ln ln psi~ has an absolute error of an ulp of 1 where ln psi~ is near 1
        assert _close(g.log_b, log_b, 1e-15, 1.0 / (arg_b or 1))

        r = data.draw(st.integers(1, 4), label="r")
        horizon = data.draw(st.integers(1, n_tab + 10), label="series horizon")
        v = series_classify(r, psi, horizon)
        verdict, sums, n_max = _ref_numeric_series(r, psi, horizon)
        assert (v.verdict, v.method, v.horizon) == (verdict, "numeric", n_max)
        assert [n for n, _ in v.partial_sums] == [n for n, _ in sums]
        for (_, a), (_, b) in zip(v.partial_sums, sums):
            assert _close(a, b, 1e-12)


class TestSeriesClassify:
    def test_r1_square(self):
        v = series_classify(1, poly_log(2, 0))
        assert v.verdict == "convergent" and v.method == "analytic"

    @pytest.mark.parametrize(
        "r,c,expected",
        [
            (2, 0.6, "convergent"),
            (2, 0.4, "divergent"),
            (2, 0.5, "divergent"),  # boundary c = 1/r diverges
            (3, 0.4, "convergent"),
            (3, 0.3, "divergent"),
        ],
    )
    def test_diamond_vaaler_thresholds(self, r, c, expected):
        assert series_classify(r, poly_log(1, c)).verdict == expected

    def test_r1_harmonic(self):
        assert series_classify(1, poly_log(1, 0)).verdict == "divergent"

    @pytest.mark.parametrize("r", [1, 2, 3, 5])
    def test_geometric_always_convergent(self, r):
        assert series_classify(r, geometric(1.5)).verdict == "convergent"

    def test_geometric_base_one_divergent(self):
        assert series_classify(2, geometric(1.0)).verdict == "divergent"

    def test_double_exp(self):
        assert series_classify(4, double_exp(math.e, 2)).verdict == "convergent"

    def test_scaled_geometric_folding(self):
        psi = scaled_geometric(2.0, poly_log(1, 0))
        assert series_classify(1, psi).verdict == "convergent"
        psi2 = scaled_geometric(0.5, geometric(2.0))  # collapses to constant 1
        assert series_classify(1, psi2).verdict == "divergent"

    def test_envelope_invariance(self):
        # classification only sees the envelope (built-in kinds)
        for r in (1, 2, 3):
            a = series_classify(r, poly_log(2, -1)).verdict
            b = series_classify(r, poly_log(2, 0)).verdict
            assert a == b == "convergent"

    def test_numeric_table(self):
        v = series_classify(1, table([math.sqrt(n) for n in range(1, 2049)]))
        assert v.method == "numeric"
        assert v.verdict == "divergent"
        v2 = series_classify(1, table([n**2.5 for n in range(1, 2049)]))
        assert v2.verdict == "convergent"
        # boundary slope -1 is surfaced as undetermined, not guessed
        v3 = series_classify(1, table([float(n) for n in range(1, 2049)]))
        assert v3.verdict == "undetermined"

    def test_scaled_table_keeps_domain_limit(self):
        psi = scaled_geometric(2.0, table([float(n) for n in range(1, 101)]))
        assert psi.domain_limit == 100
        v = series_classify(2, psi)
        assert (v.verdict, v.method, v.horizon) == ("convergent", "numeric", 100)
        with pytest.raises(DomainError, match="horizon 200 exceeds table domain 100"):
            envelope(psi, 200)

    def test_double_exp_term_past_float_range(self):
        # ln psi(512) = 4^512 ln 2 is finite, but 2 ln psi(512) is not: its
        # term is 0, the limit, with no overflow warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = series_classify(2, double_exp(2.0, 4.0))
        assert v.verdict == "convergent"
        assert v.partial_sums[-1] == (512, v.partial_sums[0][1])

    def test_verdict_has_no_truth_value(self):
        with pytest.raises(TypeError, match="compare SeriesVerdict.verdict explicitly"):
            bool(series_classify(1, geometric(2.0)))

    def test_analytic_partial_sums_add_the_envelope(self):
        # 2^n n^-3 falls to n = 4 and rises after: over psi itself the sum to
        # n = 8 read 333.32, over psi~ it is 386.90
        psi = scaled_geometric(2.0, poly_log(-3, 0))
        v = series_classify(2, psi)
        envelope_8 = [min(2.0**k / k**3 for k in range(n, 40)) for n in range(1, 9)]
        want = sum(n / p**2 for n, p in enumerate(envelope_8, 1))
        assert v.partial_sums[0][0] == 8
        assert v.partial_sums[0][1] == pytest.approx(want, rel=1e-12)
        assert v.partial_sums[0][1] == pytest.approx(386.90, abs=5e-3)
        assert (v.verdict, v.method, v.horizon) == ("convergent", "analytic", 512)

    def test_analytic_verdict_stands_where_the_envelope_refuses(self):
        # 1.0000001^n n^-3 turns upward only at n0 = 40 000 004, past the
        # envelope's scan cap: the verdict comes with no partial sums
        psi = scaled_geometric(1.0000001, poly_log(-3, 0))
        with pytest.raises(DomainError, match="turns upward only at n0 = 40000004"):
            envelope(psi, 512)
        v = series_classify(2, psi)
        assert (v.verdict, v.method, v.partial_sums, v.horizon) == (
            "convergent", "analytic", (), 0)

    def test_partial_sums_recorded(self):
        v = series_classify(2, poly_log(1, 0.6))
        assert v.partial_sums
        ns, sums = zip(*v.partial_sums)
        assert all(a <= b for a, b in zip(sums, sums[1:]))


class TestDyadic:
    def test_linear_psi(self):
        rep = dyadic_equivalence_check(1, poly_log(1, 0), 10)
        assert rep.lower_ok and rep.upper_ok
        assert rep.worst_upper <= rep.bound == 4.0
        # for psi(n)=n both slacks sit near 2/ln 2
        for j, _, _, s_lo, s_hi in rep.rows:
            assert 0 <= s_lo <= math.log(4)
            assert s_hi <= math.log(4)

    def test_geometric(self):
        rep = dyadic_equivalence_check(2, geometric(2.0), 8)
        assert rep.lower_ok and rep.upper_ok
        assert rep.worst_upper <= rep.bound == 16.0

    def test_constant_psi(self):
        rep = dyadic_equivalence_check(1, geometric(1.0), 8)
        assert rep.lower_ok and rep.upper_ok
        assert rep.worst_upper <= 4.0 + 1e-9

    def test_decreasing_rejected(self):
        with pytest.raises(DomainError):
            dyadic_equivalence_check(1, geometric(0.5), 5)

    @pytest.mark.parametrize("psi", [
        poly_log(1, -3), poly_log(2, -5), scaled_geometric(1.01, poly_log(-2, 0)),
    ], ids=lambda psi: psi.describe())
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_eventually_nondecreasing_checked_on_envelope(self, psi, r):
        # psi dips before it rises (n0 = 21, 13 and 304); the sandwich holds
        # on the envelope psi~, where psi itself fails it
        assert psi.monotone_hint[0] == "eventually"
        rep = dyadic_equivalence_check(r, psi, 10)
        assert rep.lower_ok and rep.upper_ok

    def test_unknown_envelope_rejected(self):
        # 1, 100, 1, 100, ...: the envelope over 127 of its 128 values is
        # only an upper bound, so the sandwich has nothing to hold on
        with pytest.raises(DomainError, match="requires an exact envelope"):
            dyadic_equivalence_check(1, table([1.0, 100.0] * 64), 6)

    @pytest.mark.parametrize("r, J, message", [
        (1.5, 5, "r must be an integer >= 1, got 1.5"),
        (0, 5, "r must be an integer >= 1, got 0"),
        (True, 5, "r must be an integer >= 1, got True"),
        (1, 0, r"J must be an integer in \[1, 21\], got 0"),
        (1, -1, r"J must be an integer in \[1, 21\], got -1"),
        (1, 2.5, r"J must be an integer in \[1, 21\], got 2.5"),
        (1, 22, r"J must be an integer in \[1, 21\], got 22"),
    ])
    def test_integer_arguments(self, r, J, message):
        with pytest.raises(DomainError, match=message):
            dyadic_equivalence_check(r, poly_log(1, 0), J)

    def test_largest_J_passes_the_bound(self):
        # J = 21 is allowed, so a short table fails on its length instead
        with pytest.raises(DomainError, match="table too short"):
            dyadic_equivalence_check(1, table([float(n) for n in range(1, 101)]), 21)


class TestGrowthExponents:
    def test_geometric(self):
        g = growth_exponents(geometric(2.0))
        assert g.exact
        assert g.log_B == pytest.approx(math.log(2))
        assert g.log_b == 0.0

    def test_poly(self):
        g = growth_exponents(poly_log(2, 0))
        assert g.exact and g.log_B == 0.0 and g.log_b == 0.0

    def test_double_exp(self):
        g = growth_exponents(double_exp(math.e, 3))
        assert g.exact
        assert g.log_B == math.inf
        assert g.log_b == pytest.approx(math.log(3))

    def test_scaled(self):
        g = growth_exponents(scaled_geometric(3.0, poly_log(1, 0)))
        assert g.exact and g.log_B == pytest.approx(math.log(3))

    def test_table_estimate(self):
        vals = [2.0**n for n in range(1, 200)]
        g = growth_exponents(table(vals), horizon=199)
        assert not g.exact
        assert g.log_B == pytest.approx(math.log(2), rel=1e-6)
        assert g.argmin_B is not None

    def test_table_tie_goes_to_first_index(self):
        # ln 4 / 2 == ln 2 / 1 exactly
        g = growth_exponents(table([2.0, 4.0] + [1e300] * 8), horizon=10)
        assert (g.log_B, g.argmin_B) == (math.log(2.0), 1)
        # ln 1 / n == 0 at every n
        g = growth_exponents(table([1.0] * 10), horizon=10)
        assert (g.log_B, g.argmin_B, g.argmin_b) == (0.0, 1, None)
        # ln ln e / n == 0 at every n, while ln e / n falls to its last n
        g = growth_exponents(table([math.e] * 10), horizon=10)
        assert (g.log_b, g.argmin_b, g.argmin_B) == (0.0, 1, 10)

    def test_table_skips_low_values(self):
        g = growth_exponents(table([0.5, 0.9, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0]), horizon=11)
        assert any("skipped" in f for f in g.flags)


def _dispatch(r, psi):
    """(value, regime, flags) of dimension_dispatch, or the refusal's text."""
    try:
        res = dimension_dispatch(r, psi, curve=default_curve())
    except DomainError as exc:
        return str(exc)
    return res.value, res.regime, res.flags


@st.composite
def _normal_forms(draw):
    """(B, alpha, c) of B^n n^alpha (ln n)^c with B exactly 1, within 1e-6 of
    it or in [0.5, 2], and alpha, c in [-3, 3] with 0 drawn often."""
    B = draw(st.one_of(
        st.just(1.0),
        st.floats(-1e-6, 1e-6).map(lambda e: 1.0 + e),
        st.floats(0.5, 2.0),
    ))
    coef = st.one_of(st.just(0.0), st.floats(-3.0, 3.0))
    return B, draw(coef), draw(coef)


class TestNormalForm:
    @pytest.mark.parametrize("psi", [
        scaled_geometric(2, poly_log(-1, 0)),
        scaled_geometric(2, poly_log(0, -1)),
        scaled_geometric(4, geometric(0.5)),
    ], ids=lambda psi: psi.describe())
    def test_scaled_collapsing_inner_is_geometric(self, psi):
        # 2^n / n, 2^n / ln n and 4^n / 2^n all have B = 2
        assert _dispatch(1, psi)[:2] == _dispatch(1, geometric(2.0))[:2]

    def test_scale_folds_to_base_one(self):
        # 0.1 * 10.0 == 1.0, so this is the constant 1 and not a B close to 1
        psi = scaled_geometric(0.1, geometric(10.0))
        assert _dispatch(2, psi)[1] == _dispatch(2, geometric(1.0))[1] == "B=1"

    def test_scaled_table_takes_table_branch(self):
        # 2^n / n as a scaled table: a finite-B estimate, not the inner's own
        psi = scaled_geometric(2.0, table([1.0 / n for n in range(1, 4097)]))
        g = growth_exponents(psi)
        assert not g.exact and 0.0 < g.log_B <= math.log(2.0)
        assert _dispatch(1, psi)[1] == "finite-B"

    @settings(max_examples=150, deadline=None)
    @given(form=_normal_forms(), delta=st.floats(0.25, 4.0), r=st.integers(1, 4))
    def test_one_normal_form(self, form, delta, r):
        B, alpha, c = form
        a, b = scaled_geometric(delta, geometric(B)), geometric(delta * B)
        assert a == b
        assert growth_exponents(a) == growth_exponents(b)
        assert a.monotone_hint == b.monotone_hint
        assert series_classify(r, a).verdict == series_classify(r, b).verdict
        assert _dispatch(r, a) == _dispatch(r, b)

        psi = scaled_geometric(B, poly_log(alpha, c))
        g = growth_exponents(psi)
        verdict = series_classify(r, psi).verdict
        if g.log_B > 0:
            assert verdict == "convergent"
        if "envelope collapses to 0" in g.flags:
            assert verdict == "divergent"
            assert psi.monotone_hint == ("limit", -INF)


class TestTableValues:
    @pytest.mark.parametrize("values,bad", [
        ([math.nan] * 20, 0),
        ([1.0, 2.0, math.inf, 3.0], 2),
        ([1.0, 2.0, 3.0, -math.inf, math.nan], 3),
        ([1.0, 0.0], 1),
        ([5.0, 6.0, -1.0], 2),
        ([True, 2.0], 0),  # read as 1.0
        ([1.0, "2"], 1),
    ])
    def test_non_finite_or_non_positive_rejected(self, values, bad):
        with pytest.raises(DomainError, match=rf"values\[{bad}\]"):
            table(values)

    def test_nan_table_never_reaches_dispatch(self):
        # nan used to pass (nan <= 0 is False) and dispatch answered 1.0
        with pytest.raises(DomainError, match="positive and finite"):
            dimension_dispatch(2, table([math.nan] * 20))

    def test_table_file_with_nan_rejected(self, tmp_path):
        f = tmp_path / "psi.txt"
        f.write_text("1.0\n2.0\nnan\n")
        with pytest.raises(DomainError, match=r"values\[2\]"):
            parse_psi(f"table:{f}")

    @pytest.mark.parametrize("values", ["12", b"\x02\x03", bytearray(b"\x02")])
    def test_text_is_not_a_table(self, values):
        # each was read as its characters or bytes: "12" as [1, 2]
        with pytest.raises(DomainError, match="table values must be a sequence of numbers, got"):
            table(values)

    def test_empty_table_rejected(self):
        with pytest.raises(DomainError, match="table must be nonempty"):
            table([])

    @pytest.mark.parametrize("psi", [table([1.0, 2.0, 3.0]),
                                     scaled_geometric(2.0, table([1.0, 2.0, 3.0]))])
    def test_value_past_the_table_end_refused(self, psi):
        assert psi.value(3) == pytest.approx(3.0 * psi.params[0] ** 3)
        for read in (psi.log_value, psi.value):
            with pytest.raises(DomainError, match=r"table defines psi only up to n=3"):
                read(4)


class TestValue:
    @pytest.mark.parametrize("psi, n, log_value", [
        (geometric(1e300), 3, 3 * math.log(1e300)),  # exp overflows
        (poly_log(200.0, 0.0), 10**6, 200 * math.log(10**6)),
        (double_exp(10.0, 10.0), 400, INF),  # ln psi itself is inf
    ])
    def test_past_the_float_range_is_inf(self, psi, n, log_value):
        assert psi.log_value(n) == pytest.approx(log_value)
        assert psi.value(n) == INF

    def test_below_the_float_range_is_zero(self):
        assert geometric(1e-300).value(3) == 0.0


class TestClosedFormParams:
    @pytest.mark.parametrize("spec,name", [
        ("poly_log(nan, 0)", "alpha"),
        ("poly_log(1, -inf)", "c"),
        ("geometric(inf)", "B"),
        ("geometric(0)", "B"),
        ("double_exp(nan, nan)", "c"),
        ("double_exp(2, inf)", "b"),
        ("scaled_geometric(nan, poly_log(1, 0))", "delta"),
        ("scaled_geometric(1e300, geometric(1e300))", r"delta \* B"),
        ("scaled_geometric(1e-300, geometric(1e-300))", r"delta \* B"),
    ])
    def test_non_finite_or_out_of_range_rejected(self, spec, name):
        with pytest.raises(DomainError, match=rf"; got {name} = "):
            parse_psi(spec)

    @pytest.mark.parametrize("call, message", [
        (lambda: geometric(True), "geometric needs a real number B; got B = True"),
        (lambda: poly_log(True, 0), "poly_log needs a real number alpha; got alpha = True"),
        (lambda: poly_log(1, False), "poly_log needs a real number c; got c = False"),
        (lambda: double_exp(2, "3"), "double_exp needs a real number b; got b = '3'"),
        (lambda: scaled_geometric(True, geometric(2)), "needs a real number delta; got delta = True"),
        (lambda: scaled_geometric(2, "geometric(2)"), "psi must be a ThresholdFn, got 'geometric"),
    ])
    def test_wrong_type_rejected(self, call, message):
        # a bool was read as 1 or 0, and "3" as 3.0
        with pytest.raises(DomainError, match=re.escape(message)):
            call()


@st.composite
def _closed_forms(draw):
    """A poly_log, geometric or double_exp, scaled by up to three deltas."""
    coef = st.one_of(st.just(0.0), st.floats(-3.0, 3.0))
    psi = draw(st.one_of(
        st.builds(poly_log, coef, coef),
        st.builds(geometric, st.floats(0.25, 4.0)),
        st.builds(double_exp, st.floats(1.01, 10.0), st.floats(1.01, 3.0)),
    ))
    for delta in draw(st.lists(st.sampled_from([0.5, 1.0, 2.0]) | st.floats(0.25, 4.0),
                               max_size=3)):
        psi = scaled_geometric(delta, psi)
    return psi


class TestParse:
    @settings(max_examples=200, deadline=None)
    @given(psi=_closed_forms())
    def test_describe_round_trips(self, psi):
        assert parse_psi(psi.describe()) == psi

    def test_scale_folds_into_the_base(self):
        assert scaled_geometric(2, geometric(3)) == geometric(6.0)
        assert scaled_geometric(0.5, scaled_geometric(2, double_exp(3, 2))) == double_exp(3, 2)

    def test_round_trip(self):
        for s in ["poly_log(1,0.4)", "geometric(2.0)", "double_exp(2.718,3)"]:
            psi = parse_psi(s)
            assert psi.describe().startswith(s.split("(")[0])

    def test_nested(self):
        psi = parse_psi("scaled_geometric(1.5, poly_log(1,0))")
        assert (psi.kind, psi.params, psi.values) == ("exp_poly_log", (1.5, 1.0, 0.0), None)
        psi = parse_psi("scaled_geometric(0.5, scaled_geometric(3, double_exp(2, 1.5)))")
        assert (psi.kind, psi.params) == ("double_exp", (2.0, 1.5, 1.5))

    def test_table_file(self, tmp_path):
        f = tmp_path / "psi.txt"
        f.write_text("1.0\n2.0\n4.0\n")
        psi = parse_psi(f"table:{f}")
        assert psi.values == (1.0, 2.0, 4.0)

    def test_bad_spec(self):
        with pytest.raises(DomainError):
            parse_psi("powerlaw(2)")
        with pytest.raises(DomainError, match=r"cannot parse psi spec 'geometric 2'$"):
            parse_psi("geometric 2")

    def test_describe_table(self):
        assert table([1, 2]).describe() == "table[2]"
        assert scaled_geometric(2.0, table([1, 2])).describe() == "scaled_geometric(2.0,table[2])"

    @pytest.mark.parametrize("spec, arg", [
        ("geometric(x)", "x"), ("poly_log(1, y)", "y"), ("double_exp(2, 1.5e)", "1.5e"),
        ("scaled_geometric(d, geometric(2))", "d"), ("scaled_geometric(2, geometric(x))", "x"),
    ])
    def test_argument_not_a_number(self, spec, arg):
        with pytest.raises(DomainError, match=rf"cannot parse psi spec .*'{arg}' is not a number"):
            parse_psi(spec)

    def test_table_line_not_a_number(self, tmp_path):
        f = tmp_path / "psi.txt"
        f.write_text("1.0\ntwo\n")
        with pytest.raises(DomainError, match="'two' is not a number"):
            parse_psi(f"table:{f}")


class TestHorizonArguments:
    """A horizon is an integer (a bool is not), refused with a DomainError
    that names its limit."""

    TBL = table([float(n) for n in range(1, 201)])

    @pytest.mark.parametrize("horizon", [3.5, True, 0, -2])
    def test_envelope(self, horizon):
        with pytest.raises(DomainError, match=rf"horizon must be an integer >= 1, got {horizon!r}"):
            envelope(poly_log(1, 0), horizon)

    @pytest.mark.parametrize("horizon", [100.5, 500.5, True, 0])
    def test_series_classify_table(self, horizon):
        with pytest.raises(DomainError, match=rf"horizon must be an integer >= 1, got {horizon!r}"):
            series_classify(1, self.TBL, horizon)

    @pytest.mark.parametrize("horizon", [20.5, 9, True, 10.0])
    def test_growth_exponents_table(self, horizon):
        with pytest.raises(DomainError, match=rf"horizon must be an integer >= 10, got {horizon!r}"):
            growth_exponents(self.TBL, horizon)

    @pytest.mark.parametrize("psi", [geometric(2.0), poly_log(1, 0), double_exp(2, 2)])
    def test_closed_forms_check_the_horizon(self, psi):
        # the closed forms read no horizon, yet a bad one is refused there too,
        # with each function's own minimum; each answered before
        for horizon in (0, 9, 20.5, True):
            with pytest.raises(DomainError, match=rf"horizon must be an integer >= 10, "
                                                  rf"got {horizon!r}"):
                growth_exponents(psi, horizon)
        for horizon in (0, 2.5, True):
            with pytest.raises(DomainError, match=rf"horizon must be an integer >= 1, "
                                                  rf"got {horizon!r}"):
                series_classify(2, psi, horizon)
        assert growth_exponents(psi, 10).exact and series_classify(2, psi, 1).method == "analytic"

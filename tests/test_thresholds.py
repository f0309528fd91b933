import math

import pytest

from cfmetric.cfcore import DomainError
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


class TestEnvelope:
    def test_nondecreasing_identity(self):
        psi = poly_log(1, 0)
        env = envelope(psi, 50)
        assert env.exact
        assert env.log_values == tuple(psi.log_value(n) for n in range(1, 51))

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

    def test_unknown_monotonicity_flag(self):
        psi = scaled_geometric(0.5, table([1, 2, 3, 4, 5, 6, 7, 8]))
        env = envelope(psi, 4)
        assert not env.exact
        assert "upper bound" in env.note


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

    def test_table_skips_low_values(self):
        g = growth_exponents(table([0.5, 0.9, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0]), horizon=11)
        assert any("skipped" in f for f in g.flags)


class TestParse:
    def test_round_trip(self):
        for s in ["poly_log(1,0.4)", "geometric(2.0)", "double_exp(2.718,3)"]:
            psi = parse_psi(s)
            assert psi.describe().startswith(s.split("(")[0])

    def test_nested(self):
        psi = parse_psi("scaled_geometric(1.5, poly_log(1,0))")
        assert psi.kind == "scaled_geometric"
        assert psi.inner.kind == "poly_log"

    def test_table_file(self, tmp_path):
        f = tmp_path / "psi.txt"
        f.write_text("1.0\n2.0\n4.0\n")
        psi = parse_psi(f"table:{f}")
        assert psi.values == (1.0, 2.0, 4.0)

    def test_bad_spec(self):
        with pytest.raises(DomainError):
            parse_psi("powerlaw(2)")

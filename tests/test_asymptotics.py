import math

import pytest

import spantree.asymptotics as asymptotics
from spantree import (
    Estimate,
    PartClass,
    check_lhospital,
    count_partitions_up_to,
    cumulative_lower_bound,
    hardy_ramanujan,
    integral_target,
    prime_main_term,
    scaled_central_derivative,
)
from spantree.asymptotics import N_MAX

from oracles import P_100, cumulative_linear, f_linear, hr_linear, target_linear


class TestEstimates:
    def test_log_value_is_the_whole_record(self):
        assert Estimate(2.5) == Estimate(log_value=2.5)
        with pytest.raises(TypeError):
            Estimate(2.5, formula="hardy-ramanujan")
        with pytest.raises(TypeError):
            Estimate(2.5, n=10)

    @pytest.mark.parametrize("n", [2, 3, 7, 50, 100, 399])
    def test_log_space_matches_direct_evaluation(self, n):
        checks = [
            (hardy_ramanujan(n), asymptotics._log_hr, hr_linear(n)),
            (prime_main_term(n), asymptotics._log_f, f_linear(n)),
            (cumulative_lower_bound(n), asymptotics._log_cumulative, cumulative_linear(n)),
            (integral_target(n), asymptotics._log_target, target_linear(n)),
        ]
        for estimate, log_fn, direct in checks:
            assert estimate.log_value == log_fn(n)
            assert estimate.value == pytest.approx(direct, rel=1e-12)

    def test_overflow_marker(self):
        est = hardy_ramanujan(10**6)
        assert math.isfinite(est.log_value)
        assert est.value is None

    def test_hundred_term_magnitudes(self):
        assert hardy_ramanujan(100).value == pytest.approx(1.9928e8, rel=1e-3)
        assert prime_main_term(100).log_value == pytest.approx(16.904, abs=0.01)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            hardy_ramanujan(0)
        for fn in (prime_main_term, cumulative_lower_bound, integral_target):
            with pytest.raises(ValueError):
                fn(1)

    @pytest.mark.parametrize(
        "fn", [hardy_ramanujan, prime_main_term, cumulative_lower_bound, integral_target]
    )
    def test_range_ends_at_n_max(self, fn):
        # past 10^300, n ln n nears the double range: nan, inf, then OverflowError
        assert N_MAX == 10**300
        assert math.isfinite(fn(N_MAX).log_value)
        for n in (N_MAX + 1, 10**400):
            with pytest.raises(ValueError, match=r"n must be >= \d and <= 10\^300"):
                fn(n)

    def test_algebraic_offsets_from_main_term(self):
        # both composite formulas differ from f only by the same
        # half-log factor and their own constant
        for n in (5, 40, 300, 12345):
            f_log = prime_main_term(n).log_value
            half = 0.5 * math.log(n * math.log(n))
            assert cumulative_lower_bound(n).log_value == pytest.approx(
                math.log(0.25) + half + f_log, abs=1e-12
            )
            assert integral_target(n).log_value == pytest.approx(
                math.log(math.sqrt(3.0) / math.pi) + half + f_log, abs=1e-12
            )


class TestHardyRamanujanConvergence:
    def test_ratio_band(self):
        table = count_partitions_up_to(500, PartClass.ALL)
        ratios = {n: table[n] / hardy_ramanujan(n).value for n in (50, 100, 200, 500)}
        assert all(0.90 <= r <= 1.00 for r in ratios.values())
        assert ratios[500] > ratios[50]

    def test_published_p100(self):
        table = count_partitions_up_to(100, PartClass.ALL)
        assert table[100] == P_100
        assert table[100] / hardy_ramanujan(100).value == pytest.approx(0.956, abs=0.002)


class TestDerivativeCheck:
    def test_calibration_on_identity(self):
        # same differencer, known derivative: d/dx x = 1
        for x, h in ((50.0, 1.0), (1000.0, 1.0), (10**6, 1000.0)):
            assert abs(scaled_central_derivative(math.log, x, h) - 1.0) <= 1e-6

    def test_ratio_enters_band(self):
        report = check_lhospital([10**3, 10**6])
        r_small = report.rows[0][1]
        r_large = report.rows[1][1]
        assert 0.88 <= r_large <= 1.05
        assert abs(r_large - 1.0) < abs(r_small - 1.0)

    def test_deviation_monotone_on_decade_grid(self):
        report = check_lhospital([10**3, 10**4, 10**5, 10**6])
        assert report.tending_to_one
        devs = report.deviations
        assert all(b <= a for a, b in zip(devs, devs[1:]))

    def test_far_past_overflow(self):
        # the target itself overflows doubles near 4.6e5; the ratio must
        # still come out finite and in band past that point
        (n, r), = check_lhospital([2 * 10**6]).rows
        assert integral_target(n).value is None
        assert math.isfinite(r)
        assert 0.9 <= r <= 1.05

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            check_lhospital([])
        with pytest.raises(ValueError):
            check_lhospital([5, 100])
        with pytest.raises(ValueError):
            check_lhospital([100, 50])

    def test_range_ends_at_n_max(self):
        # at 10^300 the central difference itself overflows, which is its own error
        with pytest.raises(ValueError, match=f"n={N_MAX}: "):
            check_lhospital([N_MAX])
        for n in (N_MAX + 1, 10**400):
            with pytest.raises(ValueError, match=r"grid values must be <= 10\^300"):
                check_lhospital([10**3, n])

    def test_overflow_names_n(self):
        # the step n/1000 is too coarse here: exp of the difference overflows
        for n in (10**14, 10**16):
            with pytest.raises(ValueError, match=f"n={n}: "):
                check_lhospital([10**3, n])

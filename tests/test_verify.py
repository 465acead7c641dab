"""Identity-check suite, commutator smoothing, and the gain experiment."""

import json
import math

import pytest

from fracpde import NotElliptic, UnknownCheckId, gaussian, step
from fracpde import verify
from fracpde.sobolev import band_floor, estimate_regularity
from fracpde.spectral import sample_separable, solve_elliptic
from fracpde.symbols import FracSymbol, SymbolTerm
from fracpde.verify import (
    CANONICAL_CHECK_IDS,
    VerifyConfig,
    run_commutator_check,
    run_identity_suite,
    run_regularity_experiment,
    write_experiment_csv,
    write_identity_report,
)

# D^{1/2}(x+1) at x=1 is 2/sqrt(pi) + 1/sqrt(pi), by the power rule on
# each monomial.
THREE_OVER_ROOT_PI = 1.6925687506432707
# D^{1/2}(x^2) at x=1 is Gamma(3)/Gamma(5/2) = 8/(3 sqrt(pi)).
EIGHT_OVER_THREE_ROOT_PI = 1.5045055561469061

# The default gain matrix as written when each fit windowed and transformed
# its own field (five shell spectra per forcing).
FROZEN_GAIN_ROWS = [
    "D^0.4,0.4,0.437943582097,0.83683288224,0.398889300142,0.4,true",
    "D^0.4,0.4,inf,inf,nan,0.4,true",
    "D^0.7,0.7,0.437943582097,1.13584370688,0.697900124783,0.7,true",
    "D^0.7,0.7,inf,inf,nan,0.7,true",
    "D^1.3,1.3,0.437943582097,1.73346356065,1.29551997855,1.3,true",
    "D^1.3,1.3,inf,inf,nan,1.3,true",
    "D^2,2,0.437943582097,2.43001399228,1.99207041018,2,true",
    "D^2,2,inf,inf,nan,2,true",
    "D1^0.5+D2^0.5,0.5,0.2550476401,0.676941163675,0.421893523575,0.5,true",
    "D1^0.5+D2^0.5,0.5,inf,inf,nan,0.5,true",
]


@pytest.fixture(scope="module")
def suite():
    return run_identity_suite()


@pytest.fixture(scope="module")
def rows():
    return run_regularity_experiment()


class TestIdentitySuite:
    def test_every_check_green(self, suite):
        failed = [r.check_id for r in suite if not r.passed]
        assert failed == []

    def test_covers_canonical_ids_in_order(self, suite):
        assert tuple(r.check_id for r in suite) == CANONICAL_CHECK_IDS

    def test_pass_flag_matches_error(self, suite):
        for r in suite:
            assert r.passed == (r.max_error <= r.tolerance)

    def test_engines_differ_per_check(self, suite):
        for r in suite:
            a, b = r.details["engines"]
            assert a != b

    def test_at_least_three_orders_per_check(self, suite):
        for r in suite:
            assert len(r.details["orders"]) >= 3

    def test_composition_of_half_integrals_is_running_integral(self, suite):
        by_id = {r.check_id: r for r in suite}
        sample = by_id["compose_integrals"].details["sample_at_1"]
        assert sample == pytest.approx(1.0, abs=1e-6)

    def test_half_derivative_of_affine_frozen_value(self, suite):
        by_id = {r.check_id: r for r in suite}
        sample = by_id["compose_derivatives"].details["sample_at_1"]
        assert sample == pytest.approx(THREE_OVER_ROOT_PI, abs=1e-6)

    def test_product_series_frozen_value(self, suite):
        by_id = {r.check_id: r for r in suite}
        sample = by_id["osler_product"].details["sample_at_1"]
        assert sample == pytest.approx(EIGHT_OVER_THREE_ROOT_PI, abs=1e-10)

    def test_selector_subset(self):
        results = run_identity_suite({"power_rule", "osler_product"})
        assert [r.check_id for r in results] == ["osler_product", "power_rule"]

    def test_unknown_id_rejected(self):
        with pytest.raises(UnknownCheckId, match="no_such_check"):
            run_identity_suite({"no_such_check"})

    def test_empty_selector_rejected(self):
        with pytest.raises(ValueError):
            run_identity_suite(set())

    def test_deterministic_reruns(self):
        picks = {"compose_integrals", "caputo_rl_equiv", "osler_product", "power_rule"}
        first = run_identity_suite(picks)
        second = run_identity_suite(picks)
        for a, b in zip(first, second):
            assert a.max_error == b.max_error

    def test_config_reaches_the_quadrature(self, suite):
        coarse = run_identity_suite({"power_rule"}, VerifyConfig(subintervals=256))[0]
        default = next(r for r in suite if r.check_id == "power_rule")
        assert coarse.max_error != default.max_error

    def test_report_file(self, suite, tmp_path):
        out = tmp_path / "report.json"
        write_identity_report(suite, out)
        loaded = json.loads(out.read_text())
        assert [d["check_id"] for d in loaded] == list(CANONICAL_CHECK_IDS)
        for d in loaded:
            assert set(d) == {"check_id", "max_error", "tolerance", "pass"}
            assert d["pass"] is True


class TestCommutator:
    def test_alpha_zero_commutes_exactly(self):
        r = run_commutator_check(0.0)
        assert r.passed and r.max_error <= 1e-12

    def test_alpha_one_is_product_rule(self):
        # [Op(lambda), phi]u = i phi' u under the upper-branch convention.
        r = run_commutator_check(1.0)
        assert r.passed
        assert r.max_error <= 1e-8

    def test_fractional_order_gains_one_order(self):
        r = run_commutator_check(0.6, t=0.5)
        assert r.passed
        assert r.details["commutator_s_star"] >= 0.7
        assert r.details["rough_s_star"] <= 0.1

    def test_above_one_still_gains(self):
        r = run_commutator_check(1.3, t=0.5)
        assert r.passed

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            run_commutator_check(1.6)
        with pytest.raises(ValueError):
            run_commutator_check(-0.2)


class TestExperiment:
    def test_matrix_size_and_pass_rate(self, rows):
        assert len(rows) >= 6
        reliable = [r for r in rows if r.reliable]
        rate = sum(r.within_tolerance for r in reliable) / len(reliable)
        assert rate >= 0.9

    def test_gain_matches_order(self, rows):
        for r in rows:
            if not r.capped and r.reliable:
                assert abs(r.gain - r.expected_gain) <= r.tolerance

    def test_hypoelliptic_rows_cap_both_sides(self, rows):
        capped = [r for r in rows if math.isinf(r.s_f)]
        assert len(capped) == 5
        for r in capped:
            assert math.isinf(r.s_u)
            assert r.within_tolerance

    def test_residual_confined_every_row(self, rows):
        assert all(r.residual_ok for r in rows)

    def test_covers_both_dimensions(self, rows):
        assert any("D1^" in r.operator_id for r in rows)
        assert any(r.operator_id.startswith("D^") for r in rows)

    def test_rejects_nonelliptic_operator(self):
        saddle = FracSymbol(2, (SymbolTerm(1.0, (0.5, 0.0)), SymbolTerm(-1.0, (0.0, 0.5))))
        with pytest.raises(NotElliptic):
            run_regularity_experiment(operators=[saddle])

    def test_rows_match_frozen_values(self, rows):
        assert [r.csv_row() for r in rows] == FROZEN_GAIN_ROWS

    def test_one_shell_spectrum_per_field(self, monkeypatch):
        real, calls = verify.windowed_shells, []

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(verify, "windowed_shells", counting)
        cfg = VerifyConfig(grid_m=2048)
        op = FracSymbol(1, (SymbolTerm(1.0, (0.7,)),))
        forcings = (step(-1.0, 1.0), gaussian(0.0, 1.0))
        got = run_regularity_experiment([op], forcings, cfg)
        assert len(calls) == 2 * len(forcings)

        # Each row against the fits run on the fields themselves.
        min_radius = 2.0 * (cfg.cutoff_radius + 1.0)
        bpo = cfg.bands_per_octave
        for row, f_spec in zip(got, forcings):
            f = sample_separable(cfg.box(1), f_spec.value)
            u = solve_elliptic(op, f, cfg.cutoff_radius).u
            est_f = estimate_regularity(f, bpo, min_radius=min_radius)
            est_u = estimate_regularity(u, bpo, min_radius=min_radius, floor=band_floor(f, bpo))
            assert (row.s_f, row.s_u) == (est_f.s_star, est_u.s_star)
            assert row.capped == (est_f.capped or est_u.capped)
            assert row.reliable == (est_f.reliable and est_u.reliable)

    def test_csv_table(self, rows, tmp_path):
        out = tmp_path / "gains.csv"
        write_experiment_csv(rows, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "operator_id,nu,s_f,s_u,gain,expected_gain,pass"
        assert len(lines) == len(rows) + 1
        cells = lines[1].split(",")
        assert cells[0] == rows[0].operator_id
        assert float(cells[1]) == rows[0].nu
        assert cells[6] in ("true", "false")

"""Claim-verification registry: statuses, determinism, report schema."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hhcurves.biharmonic
import hhcurves.connection
from hhcurves import (
    EXPECTED_STATUS,
    InvalidInputError,
    STATUS_CONFIRMED,
    STATUS_CONFIRMED_WITH_ERRATUM,
    STATUS_ERROR,
    STATUS_REFUTED_AS_PRINTED,
    VerificationReport,
    VerifyConfig,
    registry_ids,
    run_all,
    verify_claim,
)
from hhcurves.verify import _Stream

from cross_properties_loop import check_cross_properties
from evaluation_routes import per_point_route

# the bounds of every uniform draw the checks take
UNIFORM_BOUNDS = ((0.0, 1.0), (-1.0, 1.0), (-2.0, 2.0), (-3.0, 3.0),
                  (0.3, 1.0), (0.3, 0.9), (0.5, 1.4), (-0.6, 0.6), (0.5, 2.5))


@pytest.fixture(scope="module")
def report():
    return run_all()


class TestRegistry:
    def test_thirteen_claims(self):
        ids = registry_ids()
        assert len(ids) == 13
        assert len(set(ids)) == 13
        assert set(ids) == set(EXPECTED_STATUS)

    def test_all_statuses_match_the_manifest(self, report):
        for check in report.checks:
            assert check.status == EXPECTED_STATUS[check.claim_id], (
                check.claim_id,
                check.details,
            )
        assert report.passed()

    def test_status_vocabulary(self, report):
        allowed = {
            STATUS_CONFIRMED,
            STATUS_CONFIRMED_WITH_ERRATUM,
            STATUS_REFUTED_AS_PRINTED,
        }
        assert {c.status for c in report.checks} == allowed

    def test_refutation_row_has_large_residual(self, report):
        by_id = {c.claim_id: c for c in report.checks}
        refuted = by_id["horizontal-slope-printed"]
        assert refuted.status == STATUS_REFUTED_AS_PRINTED
        assert refuted.max_residual == pytest.approx(3.0, abs=1e-9)

    def test_confirmed_rows_have_tiny_residuals(self, report):
        for check in report.checks:
            if check.status != STATUS_REFUTED_AS_PRINTED:
                assert check.max_residual <= 1e-8, (
                    check.claim_id,
                    check.max_residual,
                )

    def test_anchors_name_sections(self, report):
        for check in report.checks:
            assert check.anchor.startswith("sec "), check.claim_id
            assert ":" in check.anchor


class TestDeterminism:
    def test_reports_are_byte_identical(self, report):
        again = run_all()
        assert again.to_json() == report.to_json()

    def test_single_claim_equals_report_row(self, report):
        by_id = {c.claim_id: c for c in report.checks}
        for claim_id in ("cross-properties", "spacelike-family", "b3zero-k2"):
            assert verify_claim(claim_id) == by_id[claim_id]

    def test_different_seed_still_passes(self):
        assert run_all(VerifyConfig(seed=123)).passed()

    @pytest.mark.parametrize("seed", [7, 123])
    def test_grid_pass_gives_the_per_point_report(self, seed):
        # the checks evaluate their helix points in one pass; evaluated one
        # by one, every number and so every byte must be the same
        batched = run_all(VerifyConfig(seed=seed)).to_json()
        with per_point_route():
            assert run_all(VerifyConfig(seed=seed)).to_json() == batched

    @pytest.mark.parametrize("seed, residual", [
        (7, 3.3306690738754696e-16),
        (123, 4.440892098500626e-16),
        (12345, 4.440892098500626e-16),
    ])
    def test_cross_properties_pass_gives_the_loop_result(self, seed, residual):
        # the check takes its 1000 triples in one array pass; one triple at
        # a time, with the same draws, every number must be the same
        cfg = VerifyConfig(seed=seed)
        rng = np.random.default_rng(
            [seed, registry_ids().index("cross-properties")])
        status, worst, details = check_cross_properties(rng)
        check = verify_claim("cross-properties", cfg)
        assert (check.status, check.max_residual, check.details) == (
            status, worst, details)
        assert worst == residual


def _assert_same_draws(entropy):
    """Scalar and sized uniform draws at every bound the checks use, then
    uniform(-3, 4, n), whose floors are cross-properties' integers, for odd
    and even n between scalar draws."""
    ours, numpy_rng = _Stream(entropy), np.random.default_rng(entropy)
    for low, high in UNIFORM_BOUNDS:
        assert ours.uniform(low, high) == numpy_rng.uniform(low, high)
        assert ours.uniform(low, high, 3) == (
            numpy_rng.uniform(low, high, 3).tolist())
    assert ours.uniform() == numpy_rng.uniform()
    for n in (1, 4, 7, 50, 451):
        assert ours.uniform(-3.0, 4.0, n) == (
            numpy_rng.uniform(-3.0, 4.0, n).tolist())
        assert ours.uniform(-1.0, 1.0) == numpy_rng.uniform(-1.0, 1.0)
    assert ours.uniform(-1.0, 1.0, 11) == (
        numpy_rng.uniform(-1.0, 1.0, 11).tolist())


class TestStream:
    """The checks' seeded draws equal numpy.random.default_rng's, bit for
    bit; NumPy serves here only as the reference."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 2**32 - 1, 2**32, 2**64 + 5,
                                      2**70])
    def test_registry_seeds_match_default_rng(self, seed):
        for index in range(13):
            _assert_same_draws([seed, index])

    @settings(derandomize=True, deadline=None, database=None,
              max_examples=100)
    @given(seed=st.integers(min_value=0, max_value=2**100),
           index=st.integers(min_value=0, max_value=12))
    def test_swept_seeds_match_default_rng(self, seed, index):
        _assert_same_draws([seed, index])

    def test_cross_properties_draws_match_default_rng(self):
        # the one large draw: 1000 rows of 11, then 50 rows of 9 whose
        # floors are the integer triples
        ours = _Stream([7, 3])
        numpy_rng = np.random.default_rng([7, 3])
        assert ours.uniform(-1.0, 1.0, 11000) == (
            numpy_rng.uniform(-1.0, 1.0, (1000, 11)).ravel().tolist())
        assert ours.uniform(-3.0, 4.0, 450) == (
            numpy_rng.uniform(-3.0, 4.0, (50, 9)).ravel().tolist())


class TestReportSchema:
    def test_json_round_trip(self, report):
        payload = json.loads(report.to_json())
        assert payload["schema_version"] == 1
        assert payload["seed"] == 7
        assert len(payload["checks"]) == 13
        for row in payload["checks"]:
            assert set(row) == {
                "claim_id",
                "anchor",
                "status",
                "max_residual",
                "details",
            }

    def test_report_is_a_plain_dataclass(self, report):
        clone = VerificationReport(
            schema_version=report.schema_version,
            seed=report.seed,
            checks=report.checks,
        )
        assert clone == report


class TestConfig:
    def test_bad_seed_rejected(self):
        with pytest.raises(InvalidInputError):
            VerifyConfig(seed="seven")

    @pytest.mark.parametrize("seed", [True, False])
    def test_bool_seed_rejected(self, seed):
        # a bool is an int, but its report would read "seed": true
        with pytest.raises(InvalidInputError):
            VerifyConfig(seed=seed)

    def test_negative_seed_rejected(self):
        # numpy's generators take only non-negative seeds
        with pytest.raises(InvalidInputError):
            VerifyConfig(seed=-1)

    def test_bad_tol_rejected(self):
        # there is no tolerance to set: each check keeps its own
        for tol in (0.0, -1e-3, float("nan"), 1e-3):
            with pytest.raises(TypeError):
                VerifyConfig(tol=tol)

    def test_unknown_claim_rejected(self):
        with pytest.raises(InvalidInputError) as err:
            verify_claim("left-invariant-metric")
        # the error enumerates the valid ids
        assert "metric-signature" in str(err.value)


class TestNegativeControls:
    def test_tampered_connection_table_is_detected(self, monkeypatch):
        # The checks must read the live table, not a frozen copy.
        table = hhcurves.connection.CONNECTION
        rows = [list(map(list, plane)) for plane in table.coeffs]
        rows[0][1][2] = 99  # corrupt one coefficient
        bad = hhcurves.connection.ConnectionTable(
            tuple(tuple(tuple(r) for r in plane) for plane in rows)
        )
        monkeypatch.setattr(hhcurves.connection, "CONNECTION", bad)
        result = verify_claim("connection-table")
        assert result.status == STATUS_REFUTED_AS_PRINTED

    def test_a_nan_lane_fails_cross_properties(self, monkeypatch):
        # cross-properties takes the max of its residuals over 1000 lanes:
        # a NaN in one lane of the inner products must not hide behind the
        # finite residuals of the cross products
        from hhcurves import _kernels as pure

        fsum = pure._fsum_array

        def nan_in_lane_0(addends):
            total = fsum(addends)
            if len(addends) == 6:  # inner, not cross
                total[0] = float("nan")
            return total

        monkeypatch.setattr(pure, "_fsum_array", nan_in_lane_0)
        result = verify_claim("cross-properties")
        assert result.status == STATUS_REFUTED_AS_PRINTED
        assert "max_residual=nan" in result.details


class TestFailClosed:
    def test_no_claim_expects_an_error(self):
        assert STATUS_ERROR not in EXPECTED_STATUS.values()

    def test_crash_in_a_refutation_row_is_not_a_pass(self, monkeypatch, capsys):
        # Refuted-as-printed is this row's expected status, so a crash
        # reported under that status would pass.
        def crash(*args, **kwargs):
            raise RuntimeError("injected failure")

        monkeypatch.setattr(hhcurves.biharmonic, "route_norms", crash)
        check = verify_claim("horizontal-slope-printed")
        assert check.status == STATUS_ERROR
        assert "RuntimeError: injected failure" in check.details
        report = VerificationReport(schema_version=1, seed=7, checks=(check,))
        assert not report.passed()

        from hhcurves import cli

        assert cli.main(["verify", "--claim", "horizontal-slope-printed"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["checks"][0]["status"] == STATUS_ERROR

    def test_a_nan_bitension_is_an_error_row(self, monkeypatch):
        # the route gap takes a running max, which a NaN would not raise:
        # the Frenet routes must refuse the point before it gets there
        from hhcurves import _kernels

        point_eval = _kernels.point_eval

        def nan_tau(jets, geo_tol):
            fr, _, tau_frenet = point_eval(jets, geo_tol)
            return fr, (float("nan"), 0.0, 0.0), tau_frenet

        monkeypatch.setattr(_kernels, "point_eval", nan_tau)
        check = verify_claim("bitension-conditions")
        assert check.status == STATUS_ERROR
        assert "NumericOverflowError" in check.details

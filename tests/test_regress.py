"""OLS on sweep scores: exact recovery, t-tail oracle, Monte Carlo."""

import numpy as np
import pytest

from evsnn.regress import (
    RankDeficientError,
    eda_design,
    eda_regression,
    format_text,
    ols,
    student_t_sf2,
)

EDAS = ("crop", "hflip", "noise", "polflip", "reverse")


def sweep_design(k=10):
    """All 32 masks x k folds, the shape the real sweep produces."""
    masks = np.repeat(np.arange(32), k)
    return masks, eda_design(masks, EDAS)


class TestStudentT:
    def test_sweep_scale_value(self):
        # two-sided p for t=2, df=314 (the 320-cell sweep's df)
        p = float(student_t_sf2(np.array(2.0), 314))
        assert 0.046 <= p <= 0.047

    def test_frozen_oracle(self):
        # mpmath regularized incomplete beta at 50 digits
        cases = [(2.0, 314, 0.04636127827558724),
                 (1.0, 5, 0.3632174676491226),
                 (2.5, 30, 0.018115649068066694),
                 (0.5, 314, 0.6174252878770806)]
        for t, df, want in cases:
            np.testing.assert_allclose(float(student_t_sf2(np.array(t), df)),
                                       want, rtol=1e-12)

    def test_symmetric_edges(self):
        assert float(student_t_sf2(np.array(0.0), 10)) == 1.0
        assert float(student_t_sf2(np.array(np.inf), 10)) == 0.0

    def test_monotone_in_t(self):
        t = np.linspace(0, 10, 50)
        p = student_t_sf2(t, 12)
        assert np.all(np.diff(p) < 0)

    def test_bad_df(self):
        with pytest.raises(ValueError, match="df"):
            student_t_sf2(np.array(1.0), 0)


class TestExactRecovery:
    def test_crop_effect_noiseless(self):
        masks, x = sweep_design()
        y = 0.5 + 0.1 * x[:, 1]  # crop dummy
        report = eda_regression(masks, y, EDAS)
        np.testing.assert_allclose(report.coef[0], 0.5, atol=1e-12)
        np.testing.assert_allclose(report.coef[1], 0.1, atol=1e-12)
        np.testing.assert_allclose(report.coef[2:], 0.0, atol=1e-12)
        # QR leaves ~1e-16 residual, so t is astronomically large rather than
        # inf; the tail probability still underflows to an exact 0.0
        assert report.t_stat[1] > 1e9
        assert report.p_value[1] == 0.0
        assert report.significant[1]
        assert report.r2 > 1 - 1e-12

    def test_all_equal_scores(self):
        masks, _ = sweep_design()
        report = eda_regression(masks, np.full(320, 0.75), EDAS)
        np.testing.assert_allclose(report.coef[0], 0.75, atol=1e-12)
        np.testing.assert_allclose(report.coef[1:], 0.0, atol=1e-12)
        assert report.r2 == 1.0

    def test_multi_effect_noiseless(self):
        masks, x = sweep_design(k=2)
        beta = np.array([0.6, 0.05, -0.03, 0.0, 0.0, 0.02])
        report = eda_regression(masks, x @ beta, EDAS)
        np.testing.assert_allclose(report.coef, beta, atol=1e-12)

    def test_exact_fit_nonzero_coef(self):
        # intercept-only with constant y keeps the Householder arithmetic on
        # halves, so the residual is exactly zero and se = 0: the nonzero
        # coefficient maps to t = inf, p = 0
        report = ols(np.ones((4, 1)), np.full(4, 0.75), ["intercept"])
        assert report.coef[0] == 0.75
        assert report.se[0] == 0.0
        assert report.t_stat[0] == np.inf
        assert report.p_value[0] == 0.0

    def test_exact_fit_zero_coefs(self):
        # y = 0 solves exactly through QR; zero coefficients with se = 0 take
        # the t = 0, p = 1 convention, and tss = 0 pins r2 at 1
        masks, _ = sweep_design()
        report = eda_regression(masks, np.zeros(320), EDAS)
        np.testing.assert_array_equal(report.coef, 0.0)
        np.testing.assert_array_equal(report.se, 0.0)
        np.testing.assert_array_equal(report.t_stat, 0.0)
        np.testing.assert_array_equal(report.p_value, 1.0)
        assert report.r2 == 1.0


class TestOlsNumerics:
    def test_residual_orthogonality(self, rng):
        masks, x = sweep_design()
        y = 0.5 + 0.05 * x[:, 1] + rng.normal(0, 0.02, len(masks))
        report = eda_regression(masks, y, EDAS)
        resid = y - x @ report.coef
        np.testing.assert_allclose(x.T @ resid, 0.0, atol=1e-10)

    def test_matches_lstsq(self, rng):
        x = np.column_stack([np.ones(50), rng.normal(size=(50, 3))])
        y = rng.normal(size=50)
        report = ols(x, y, ["intercept", "a", "b", "c"])
        want, *_ = np.linalg.lstsq(x, y, rcond=None)
        np.testing.assert_allclose(report.coef, want, rtol=1e-10)

    def test_se_matches_textbook_formula(self, rng):
        # direct (X'X)^-1 computation as an independent route
        x = np.column_stack([np.ones(40), rng.normal(size=(40, 2))])
        y = x @ np.array([1.0, 0.5, -0.2]) + rng.normal(0, 0.1, 40)
        report = ols(x, y, ["intercept", "a", "b"])
        resid = y - x @ report.coef
        sigma2 = (resid @ resid) / (40 - 3)
        cov = sigma2 * np.linalg.inv(x.T @ x)
        np.testing.assert_allclose(report.se, np.sqrt(np.diag(cov)), rtol=1e-8)

    def test_rank_deficiency_names_column(self):
        x = np.column_stack([np.ones(20), np.arange(20.0), np.arange(20.0)])
        with pytest.raises(RankDeficientError, match="dup"):
            ols(x, np.ones(20), ["intercept", "base", "dup"])

    def test_too_few_rows(self):
        with pytest.raises(ValueError, match="observations"):
            ols(np.ones((3, 3)), np.ones(3), ["a", "b", "c"])

    def test_name_count_checked(self):
        with pytest.raises(ValueError, match="name"):
            ols(np.ones((5, 2)), np.ones(5), ["only_one"])


class TestDesign:
    def test_dummies_follow_mask_bits(self):
        x = eda_design(np.array([0b00000, 0b00001, 0b10110, 0b11111]), EDAS)
        np.testing.assert_array_equal(x[:, 0], 1.0)
        np.testing.assert_array_equal(x[1, 1:], [1, 0, 0, 0, 0])
        np.testing.assert_array_equal(x[2, 1:], [0, 1, 1, 0, 1])
        np.testing.assert_array_equal(x[3, 1:], [1, 1, 1, 1, 1])

    def test_balanced(self):
        _, x = sweep_design()
        # each EDA active in exactly half the cells
        np.testing.assert_array_equal(x[:, 1:].sum(axis=0), 160)


class TestMonteCarlo:
    def test_coefficients_within_three_se(self):
        # 500 sweeps with known effects and sigma=0.02 noise: each estimate
        # should sit within 3 SE of its target ~99.7% of the time, so the
        # pooled per-coefficient hit rate must clear 99%
        beta = np.array([0.5, 0.05, -0.03, 0.0, 0.0, 0.02])
        masks, x = sweep_design()
        rng = np.random.default_rng(20240817)
        hits = np.zeros(5, dtype=int)
        trials = 500
        for _ in range(trials):
            y = x @ beta + rng.normal(0.0, 0.02, len(masks))
            report = eda_regression(masks, y, EDAS)
            hits += (np.abs(report.coef[1:] - beta[1:]) <= 3 * report.se[1:])
        rate = hits.sum() / (5 * trials)
        assert rate >= 0.99
        assert (hits >= int(0.98 * trials)).all()

    def test_null_effects_rarely_significant(self):
        # coefficients that are truly zero cross p<0.05 about 5% of the time
        beta = np.array([0.5, 0.0, 0.0, 0.0, 0.0, 0.0])
        masks, x = sweep_design()
        rng = np.random.default_rng(7)
        false_pos = 0
        trials = 400
        for _ in range(trials):
            y = x @ beta + rng.normal(0.0, 0.02, len(masks))
            report = eda_regression(masks, y, EDAS)
            false_pos += int(report.significant[1:].sum())
        rate = false_pos / (5 * trials)
        assert 0.02 <= rate <= 0.09


class TestReportSurface:
    def test_json_fields(self, rng):
        masks, x = sweep_design(k=2)
        y = 0.5 + rng.normal(0, 0.01, len(masks))
        doc = eda_regression(masks, y, EDAS).to_json_dict()
        assert doc["n"] == 64
        assert doc["df"] == 58
        assert [t["name"] for t in doc["terms"]] == ["intercept", *EDAS]
        for term in doc["terms"]:
            assert 0.0 <= term["p"] <= 1.0

    def test_infinite_t_serializes_as_null(self):
        report = ols(np.ones((4, 1)), np.full(4, 0.75), ["intercept"])
        doc = report.to_json_dict()
        assert doc["terms"][0]["t"] is None
        assert doc["terms"][0]["p"] == 0.0

    def test_text_table(self, rng):
        masks, _ = sweep_design()
        y = 0.5 + rng.normal(0, 0.01, 320)
        text = format_text(eda_regression(masks, y, EDAS))
        assert "n=320, df=314" in text
        for name in ("intercept",) + EDAS:
            assert name in text

    def test_json_and_text_mark_the_significant_terms(self, rng):
        masks, x = sweep_design(k=2)
        y = 0.5 + 0.05 * x[:, 1] + rng.normal(0, 0.01, len(masks))
        report = eda_regression(masks, y, EDAS)
        flags = [term["significant"] for term in report.to_json_dict()["terms"]]
        assert flags == report.significant.tolist() and True in flags and False in flags
        stars = [line.endswith("*") for line in format_text(report).splitlines()[2:]]
        assert stars == flags

"""Score equations, solver, tie handling and the two variance estimators."""

from __future__ import annotations

import numpy as np
import pytest

from margfit import (
    ConfigError,
    Constant,
    DataError,
    ExternalCurve,
    FitError,
    KaplanMeier,
    Parametric,
    StepSurvival,
    SurvivalDataset,
    event_weights,
    fit_exponential,
    iterative_marginal_fit,
    kaplan_meier,
    log_partial_likelihood,
    score_jacobian,
    solve_score,
    variance_andersen_gill,
    variance_sandwich,
    weighted_score,
)

SCHEMES = [Constant(), KaplanMeier()]


def make(time, status, z):
    z = np.asarray(z, dtype=float)
    return SurvivalDataset(time=np.asarray(time, dtype=float), status=np.asarray(status), covariates=z)


def random_data(seed, n=120, d=2, censor=0.4):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, d))
    t = rng.exponential(size=n) * np.exp(-0.3 * z[:, 0])
    status = (rng.random(n) > censor).astype(int)
    status[:2] = 1  # keep at least two events
    return SurvivalDataset(time=t, status=status, covariates=z)


def all_schemes(data):
    return [Constant(), KaplanMeier(), Parametric(fit_exponential(data))]


class TestScore:
    def test_hand_value_two_subjects(self):
        # events at t=1 (z=0) and t=2 (z=1): U(0) = (0 - 1/2) + (1 - 1) = -1/2
        d = make([1.0, 2.0], [1, 1], [[0.0], [1.0]])
        u = weighted_score(d, Constant(), np.zeros(1))
        assert u[0] == pytest.approx(-0.5)

    def test_censored_subjects_contribute_no_term(self):
        d1 = make([1.0, 2.0, 3.0], [1, 0, 1], [[0.0], [1.0], [1.0]])
        # the censored subject enters risk sets but adds no score term
        u = weighted_score(d1, Constant(), np.zeros(1))
        assert u[0] == pytest.approx((0 - 2 / 3) + (1 - 1))

    def test_score_vanishes_at_solution(self, leukemia):
        for scheme in all_schemes(leukemia):
            res = solve_score(leukemia, scheme)
            u = weighted_score(leukemia, scheme, res.beta)
            assert np.abs(u).max() < 1e-9

    @pytest.mark.parametrize("ties", ["breslow", "efron"])
    def test_loglik_gradient_matches_score(self, leukemia, ties):
        beta = np.array([0.7])
        eps = 1e-6
        up = log_partial_likelihood(leukemia, beta + eps, ties=ties)
        dn = log_partial_likelihood(leukemia, beta - eps, ties=ties)
        u = weighted_score(leukemia, Constant(), beta, ties=ties)
        assert (up - dn) / (2 * eps) == pytest.approx(u[0], rel=1e-5)

    def test_jacobian_matches_finite_differences(self):
        data = random_data(17)
        beta = np.array([0.25, -0.4])
        for scheme in all_schemes(data):
            jac = score_jacobian(data, scheme, beta)
            eps = 1e-6
            fd = np.empty((2, 2))
            for j in range(2):
                e = np.zeros(2)
                e[j] = eps
                fd[:, j] = (
                    weighted_score(data, scheme, beta + e)
                    - weighted_score(data, scheme, beta - e)
                ) / (2 * eps)
            assert np.allclose(jac, fd, rtol=1e-5, atol=1e-8)

    def test_efron_equals_breslow_without_ties(self):
        data = random_data(23)  # continuous times: no ties
        beta = np.array([0.3, 0.1])
        ub = weighted_score(data, Constant(), beta, ties="breslow")
        ue = weighted_score(data, Constant(), beta, ties="efron")
        assert np.allclose(ub, ue, atol=1e-14)

    def test_efron_differs_with_ties(self, leukemia):
        beta = np.array([0.5])
        ub = weighted_score(leukemia, Constant(), beta, ties="breslow")
        ue = weighted_score(leukemia, Constant(), beta, ties="efron")
        assert abs(ub[0] - ue[0]) > 1e-3

    def test_efron_needs_constant_scheme(self, leukemia):
        with pytest.raises(ConfigError, match="constant"):
            weighted_score(leukemia, KaplanMeier(), np.zeros(1), ties="efron")


class TestEventWeights:
    def test_km_weights_are_one_over_n_without_censoring(self, uncensored_sample):
        w = event_weights(uncensored_sample, KaplanMeier())
        assert np.allclose(w, 1.0 / uncensored_sample.n, atol=1e-12)

    def test_constant_weights_are_one(self, leukemia):
        assert np.array_equal(event_weights(leukemia, Constant()), np.ones(42))

    def test_parametric_weights_use_left_limits(self):
        d = make([1.0, 2.0], [1, 1], [[0.0], [1.0]])
        km = kaplan_meier(d)
        w = event_weights(d, Parametric(ExternalCurve(km)))
        # at t=1: S(1-) = 1, 2 at risk; at t=2: S(2-) = 1/2, 1 at risk
        assert np.allclose(w, [1 / 2, 1 / 2])


class TestSolver:
    # Pinned point estimates for the bundled trial. The unit-weight values
    # match published analyses of these data (1.509 Breslow, 1.572 Efron);
    # the weighted ones are frozen from an independent prototype.
    CASES = [
        ("breslow", Constant(), 1.5091914, 0.4095644),
        ("efron", Constant(), 1.5721251, 0.4123967),
        ("breslow", KaplanMeier(), 1.5202837, 0.4168764),
    ]

    @pytest.mark.parametrize("ties,scheme,beta,se", CASES)
    def test_leukemia_point_estimates(self, leukemia, ties, scheme, beta, se):
        res = solve_score(leukemia, scheme, ties=ties)
        assert res.converged and res.final_score_norm < 1e-9
        assert res.beta[0] == pytest.approx(beta, abs=2e-6)
        assert res.std_errors[0] == pytest.approx(se, abs=2e-6)

    def test_leukemia_parametric_fit(self, leukemia):
        res = iterative_marginal_fit(leukemia, "exponential")
        assert res.beta[0] == pytest.approx(1.5245968, abs=2e-6)
        assert res.std_errors[0] == pytest.approx(0.4191970, abs=2e-6)
        assert res.theta["rate"] == pytest.approx(30 / 541)

    def test_newton_is_fast(self, leukemia):
        assert solve_score(leukemia, Constant()).iterations <= 8

    def test_warm_start(self, leukemia):
        ref = solve_score(leukemia, Constant())
        res = solve_score(leukemia, Constant(), init=ref.beta)
        assert res.iterations == 0
        assert np.array_equal(res.beta, ref.beta)

    def test_no_censoring_collapse(self, uncensored_sample):
        pl = solve_score(uncensored_sample, Constant())
        km = solve_score(uncensored_sample, KaplanMeier())
        assert abs(pl.beta[0] - km.beta[0]) < 1e-9

    def test_multidimensional(self):
        data = random_data(31, n=300, d=3)
        res = solve_score(data, Constant())
        assert res.converged and res.beta.shape == (3,)
        assert np.abs(weighted_score(data, Constant(), res.beta)).max() < 1e-9

    def test_collinear_covariates_raise(self):
        rng = np.random.default_rng(2)
        z1 = rng.normal(size=50)
        z = np.column_stack([z1, 2.0 * z1])
        d = SurvivalDataset(
            time=rng.exponential(size=50), status=np.ones(50, dtype=int), covariates=z
        )
        with pytest.raises(FitError, match="singular"):
            solve_score(d, Constant())

    def test_constant_covariate_converges_at_zero(self):
        # U is identically zero, so beta stays at the origin
        d = make([1, 2, 3], [1, 1, 1], [[1.0], [1.0], [1.0]])
        res = solve_score(d, Constant(), variance="none")
        assert res.iterations == 0 and res.beta[0] == 0.0

    def test_no_events_rejected(self):
        d = make([1, 2], [0, 0], [[0.0], [1.0]])
        with pytest.raises(DataError, match="no events"):
            solve_score(d, Constant())

    def test_bad_options(self, leukemia):
        with pytest.raises(ConfigError):
            solve_score(leukemia, Constant(), variance="bogus")
        with pytest.raises(ConfigError):
            solve_score(leukemia, KaplanMeier(), ties="efron")
        with pytest.raises(DataError):
            solve_score(leukemia, Constant(), init=np.zeros(3))

    def test_variance_none_gives_nan(self, leukemia):
        res = solve_score(leukemia, Constant(), variance="none")
        assert np.isnan(res.variance).all() and np.isnan(res.std_errors).all()

    def test_event_multipliers_shift_solution(self, leukemia):
        rng = np.random.default_rng(4)
        e = rng.exponential(size=leukemia.n_events)
        mult = np.ones(leukemia.n)
        mult[leukemia.status == 1] = e / e.sum()
        res = solve_score(
            leukemia, Constant(), variance="none", event_multipliers=mult
        )
        ref = solve_score(leukemia, Constant(), variance="none")
        assert res.converged and abs(res.beta[0] - ref.beta[0]) > 1e-4

    def test_efron_multipliers_must_be_shared_within_tie_group(self, leukemia):
        mult = np.ones(leukemia.n)
        mult[0] = 2.0  # breaks the shared value at the first tied event time
        with pytest.raises(ConfigError, match="shared within tied"):
            solve_score(
                leukemia, Constant(), ties="efron", event_multipliers=mult
            )

    def test_result_serialization(self, leukemia):
        res = iterative_marginal_fit(leukemia, "exponential")
        d = res.to_dict()
        assert d["scheme"] == "parametric:exponential"
        assert d["theta_hat"]["family"] == "exponential"
        assert d["n"] == 42 and d["n_events"] == 30
        plain = solve_score(leukemia, Constant()).to_dict()
        assert "theta_hat" not in plain
        assert isinstance(res.to_json(), str)


class TestIterativeMarginalFit:
    def test_weibull_and_pwexp_families(self, leukemia):
        wei = iterative_marginal_fit(leukemia, "weibull")
        assert wei.theta["family"] == "weibull"
        assert wei.beta[0] == pytest.approx(1.5193283, abs=1e-5)
        pwe = iterative_marginal_fit(leukemia, "pwexp", cuts=(10.0,))
        assert pwe.theta["cuts"] == [10.0]
        assert len(pwe.theta["rates"]) == 2

    def test_pwexp_without_cuts_is_exponential(self, leukemia):
        res = iterative_marginal_fit(leukemia, "pwexp")
        assert res.theta["family"] == "exponential"

    def test_unknown_family(self, leukemia):
        with pytest.raises(ConfigError):
            iterative_marginal_fit(leukemia, "gamma")


class TestVariances:
    def test_constant_sandwich_equals_andersen_gill(self, leukemia):
        res = solve_score(leukemia, Constant())
        ag = variance_andersen_gill(leukemia, res.beta)
        sw = variance_sandwich(leukemia, Constant(), res.beta)
        assert np.allclose(ag, sw, rtol=1e-12)

    def test_auto_dispatch(self, leukemia):
        res_c = solve_score(leukemia, Constant())
        assert np.allclose(res_c.variance, variance_andersen_gill(leukemia, res_c.beta))
        res_k = solve_score(leukemia, KaplanMeier())
        assert np.allclose(
            res_k.variance, variance_sandwich(leukemia, KaplanMeier(), res_k.beta)
        )

    def test_sandwich_invariant_under_weight_scaling(self, censored_sample):
        km = kaplan_meier(censored_sample)
        # a curve equal to km/2 everywhere: add a jump to 1/2 before any data
        half = StepSurvival(
            np.concatenate([[km.jump_times[0] / 2], km.jump_times]),
            np.concatenate([[0.5], 0.5 * km.values]),
        )
        a = Parametric(ExternalCurve(km))
        b = Parametric(ExternalCurve(half))
        beta = np.array([0.4])
        assert np.allclose(
            variance_sandwich(censored_sample, a, beta),
            variance_sandwich(censored_sample, b, beta),
            rtol=1e-12,
        )
        # the scaled scheme also solves to the same point
        ra, rb = solve_score(censored_sample, a), solve_score(censored_sample, b)
        assert ra.beta[0] == pytest.approx(rb.beta[0], abs=1e-10)

    def test_doubling_the_data_halves_both_variances(self, censored_sample):
        d1 = censored_sample
        d2 = SurvivalDataset(
            time=np.concatenate([d1.time, d1.time]),
            status=np.concatenate([d1.status, d1.status]),
            covariates=np.vstack([d1.covariates, d1.covariates]),
        )
        beta = np.array([0.3])
        assert np.allclose(
            variance_andersen_gill(d2, beta),
            variance_andersen_gill(d1, beta) / 2.0,
            rtol=1e-10,
        )
        assert np.allclose(
            variance_sandwich(d2, KaplanMeier(), beta),
            variance_sandwich(d1, KaplanMeier(), beta) / 2.0,
            rtol=1e-10,
        )

    def test_variances_are_symmetric_psd(self):
        data = random_data(41, n=200, d=3)
        res = solve_score(data, KaplanMeier())
        for v in (res.variance, variance_andersen_gill(data, res.beta)):
            assert np.allclose(v, v.T)
            assert np.linalg.eigvalsh(v).min() > 0

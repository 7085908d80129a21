"""Score equations, solver, tie handling and the sandwich variance."""

from __future__ import annotations

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import margfit.estimate as estimate_module
import margfit.resample as resample_module
from margfit import (
    BetaFunction,
    ConfigError,
    Constant,
    ConvergenceError,
    DataError,
    Exponential,
    FitError,
    GeneratorSpec,
    KaplanMeier,
    Parametric,
    StepSurvival,
    SurvivalDataset,
    UniformCensoring,
    event_weights,
    fit_exponential,
    kaplan_meier,
    log_partial_likelihood,
    random_weight_fit,
    resample_distribution,
    score_jacobian,
    solve_score,
    variance_sandwich,
    weighted_score,
)
from margfit.simulate import _reps

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


class FixedDraws:
    """Stand-in for a Generator whose exponential draws are ``draws(size)``."""

    def __init__(self, draws):
        self.draws = draws

    def exponential(self, size):
        return self.draws(size)


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

    @pytest.mark.parametrize("spec", ["pl", "km", "par:exponential", "par:weibull"])
    def test_efron_equals_breslow_without_ties(self, spec):
        # continuous times: each failure's l/d_k is 0, so Efron is Breslow
        data = random_data(23)
        scheme = estimate_module._parse_scheme(spec)
        breslow = solve_score(data, scheme, ties="breslow")
        efron = solve_score(data, scheme, ties="efron")
        assert {**breslow.to_dict(), "ties": "efron"} == efron.to_dict()
        for a, b in zip((breslow.beta, breslow.variance), (efron.beta, efron.variance)):
            assert a.tobytes() == b.tobytes()

    def test_efron_differs_with_ties(self, leukemia):
        beta = np.array([0.5])
        ub = weighted_score(leukemia, Constant(), beta, ties="breslow")
        ue = weighted_score(leukemia, Constant(), beta, ties="efron")
        assert abs(ub[0] - ue[0]) > 1e-3


class TestEventWeights:
    def test_km_weights_are_one_over_n_without_censoring(self, uncensored_sample):
        w = event_weights(uncensored_sample, KaplanMeier())
        assert np.allclose(w, 1.0 / uncensored_sample.n, atol=1e-12)

    def test_constant_weights_are_one(self, leukemia):
        assert np.array_equal(event_weights(leukemia, Constant()), np.ones(42))

    def test_unknown_scheme_is_refused(self, leukemia):
        with pytest.raises(ConfigError, match="unknown weight scheme"):
            event_weights(leukemia, object())

    def test_parametric_weights_use_left_limits(self):
        d = make([1.0, 2.0], [1, 1], [[0.0], [1.0]])
        km = kaplan_meier(d)
        w = event_weights(d, Parametric(km))
        # at t=1: S(1-) = 1, 2 at risk; at t=2: S(2-) = 1/2, 1 at risk
        assert np.allclose(w, [1 / 2, 1 / 2])

    def test_describe_names_the_family_or_the_model(self, leukemia):
        for name, family in [
            ("exponential", "exponential"),
            ("weibull", "weibull"),
            ("pwexp", "pwexp"),
            ("pwexp:5,15", "pwexp"),
        ]:
            assert Parametric(name).describe() == f"parametric:{family}"
        supplied = Parametric(fit_exponential(leukemia))
        assert supplied.describe() == "parametric:exponential"
        assert Parametric(kaplan_meier(leukemia)).describe() == (
            "parametric:stepsurvival"
        )
        # a fit reports the model it fitted
        fit = solve_score(leukemia, Parametric("pwexp:10"))
        assert fit.scheme == "parametric:piecewiseexponential"


class TestSolver:
    # Pinned point estimates for the bundled trial. The unit-weight values
    # match published analyses of these data (1.509 Breslow, 1.572 Efron);
    # the weighted ones are frozen from an independent prototype, and the
    # acceptance gate's package-free Efron score reproduces the Efron ones.
    CASES = [
        ("breslow", Constant(), 1.5091914, 0.4095644),
        ("efron", Constant(), 1.5721251, 0.4123967),
        ("breslow", KaplanMeier(), 1.5202837, 0.4168764),
        ("efron", KaplanMeier(), 1.5936412, 0.4205209),
        ("efron", Parametric("exponential"), 1.5996339, 0.4229019),
    ]

    @pytest.mark.parametrize("ties,scheme,beta,se", CASES)
    def test_leukemia_point_estimates(self, leukemia, ties, scheme, beta, se):
        res = solve_score(leukemia, scheme, ties=ties)
        assert res.converged and res.final_score_norm < 1e-9
        assert res.beta[0] == pytest.approx(beta, abs=2e-6)
        assert res.std_errors[0] == pytest.approx(se, abs=2e-6)

    def test_leukemia_parametric_fit(self, leukemia):
        res = solve_score(leukemia, Parametric("exponential"))
        assert res.beta[0] == pytest.approx(1.5245968, abs=2e-6)
        assert res.std_errors[0] == pytest.approx(0.4191970, abs=2e-6)
        assert res.theta["rate"] == pytest.approx(30 / 541)

    def test_newton_is_fast(self, leukemia):
        assert solve_score(leukemia, Constant()).iterations <= 8

    def test_no_censoring_collapse(self, uncensored_sample):
        pl = solve_score(uncensored_sample, Constant())
        km = solve_score(uncensored_sample, KaplanMeier())
        assert abs(pl.beta[0] - km.beta[0]) < 1e-9
        # on a 0.1 grid nearly every failure is tied; W keeps each tie group's
        # full at-risk count under Efron, so KM is still PL
        tied = SurvivalDataset(
            time=np.ceil(10 * uncensored_sample.time) / 10,
            status=uncensored_sample.status,
            covariates=uncensored_sample.covariates,
        )
        pl = solve_score(tied, Constant(), ties="efron")
        km = solve_score(tied, KaplanMeier(), ties="efron")
        assert abs(pl.beta[0] - km.beta[0]) < 1e-12

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
        # V = 0, so no scheme's variance exists: each says so alike
        for scheme in SCHEMES:
            with pytest.raises(FitError, match="^singular information matrix$"):
                solve_score(d, scheme)

    def test_no_events_rejected(self):
        d = make([1, 2], [0, 0], [[0.0], [1.0]])
        with pytest.raises(DataError, match="no events"):
            solve_score(d, Constant())
        # checked before the marginal fit, which would fail first otherwise
        with pytest.raises(DataError, match="no events"):
            solve_score(d, Parametric("weibull"))
        with pytest.raises(DataError, match="no events"):
            log_partial_likelihood(d, np.zeros(1))

    def test_bad_options(self, leukemia):
        for rule in ("bogus", "andersen-gill", "sandwich"):
            with pytest.raises(ConfigError, match="variance"):
                solve_score(leukemia, Constant(), variance=rule)
        with pytest.raises(DataError, match="length 1"):
            log_partial_likelihood(leukemia, np.zeros(3))
        with pytest.raises(ConfigError, match="unknown weight scheme"):
            solve_score(leukemia, object())
        # every check runs before a marginal fit that would fail (zero exposure)
        unfittable = Parametric("pwexp:1000")
        with pytest.raises(ConfigError, match="ties"):
            solve_score(leukemia, unfittable, ties="bogus")
        with pytest.raises(ConfigError, match="variance"):
            solve_score(leukemia, unfittable, variance="bogus")

    def test_variance_none_gives_nan(self, leukemia):
        res = solve_score(leukemia, Constant(), variance="none")
        assert np.isnan(res.variance).all() and np.isnan(res.std_errors).all()

    def test_event_multipliers_shift_solution(self, leukemia):
        rng = np.random.default_rng(4)
        e = rng.exponential(size=leukemia.n_events)
        mult = e / e.sum()
        kernel = estimate_module._Kernel(leukemia, "breslow")
        beta, _, _, _, errors = estimate_module._newton(kernel, mult[None])
        ref = solve_score(leukemia, Constant(), variance="none")
        assert errors == [None] and abs(beta[0, 0] - ref.beta[0]) > 1e-4

    def test_efron_random_weights_refuse_tied_failures(self, leukemia):
        # even draws shared within every tie group are refused: tied
        # failures draw independent multipliers, which Efron cannot take
        for draws in (np.ones, lambda size: shared_multipliers(leukemia)):
            with pytest.raises(ConfigError, match="no failure times are tied"):
                random_weight_fit(leukemia, Constant(), FixedDraws(draws), ties="efron")

    def test_efron_refusal_comes_before_any_draw(self, leukemia, monkeypatch):
        def no_draw(size):
            raise AssertionError("drew before refusing tied failures")

        def no_fit(kernel):
            raise AssertionError("fitted before refusing tied failures")

        with pytest.raises(ConfigError, match="no failure times are tied"):
            random_weight_fit(leukemia, Constant(), FixedDraws(no_draw), ties="efron")
        monkeypatch.setattr(resample_module, "_solved", no_fit)
        with pytest.raises(ConfigError, match="no failure times are tied"):
            resample_distribution(leukemia, Constant(), n_draws=8, ties="efron")

    def test_unfittable_marginal_raises_before_any_draw(self, leukemia, monkeypatch):
        # pwexp:1's first interval, [0, 1), has exposure but no failures
        unfittable = Parametric("pwexp:1")

        def no_draw(*args, **kwargs):
            raise AssertionError("drew before the marginal fit failed")

        monkeypatch.setattr(resample_module, "_run_draws", no_draw)
        for call in (
            lambda: weighted_score(leukemia, unfittable, 0.0),
            lambda: variance_sandwich(leukemia, unfittable, 0.0),
            lambda: resample_distribution(leukemia, unfittable, n_draws=8),
        ):
            with pytest.raises(FitError, match="interval 0 has exposure but no failures"):
                call()

    def test_result_serialization(self, leukemia):
        res = solve_score(leukemia, Parametric("exponential"))
        d = res.to_dict()
        assert d["scheme"] == "parametric:exponential"
        assert d["theta_hat"]["family"] == "exponential"
        assert d["n"] == 42 and d["n_events"] == 30
        plain = solve_score(leukemia, Constant()).to_dict()
        assert "theta_hat" not in plain
        assert json.loads(json.dumps(d)) == d


def _shifted(data, shift):
    return SurvivalDataset(
        time=data.time, status=data.status, covariates=data.covariates + shift
    )


class TestRoundingFloor:
    """Newton's second stop: a row no halving improves has converged when
    its Jacobian is finite and its step is at the rounding floor."""

    def test_partial_likelihood_at_large_n(self):
        # at W = 1 the score's rounding noise at the root grows with n, here
        # past the 1e-9 stop; PL is equivariant under z -> 1 - z
        rng = np.random.default_rng(0)
        n = 200_000
        z = rng.binomial(1, 0.5, n).astype(float)
        t, c = rng.exponential(np.exp(-z)), rng.exponential(1.0, n)
        time, status = np.minimum(t, c), (t <= c).astype(int)
        data, reflected = (
            SurvivalDataset(time=time, status=status, covariates=x[:, None])
            for x in (z, 1.0 - z)
        )
        fit = solve_score(data, Constant())
        assert abs(fit.beta[0] + solve_score(reflected, Constant()).beta[0]) < 1e-11
        assert abs(fit.beta[0] - 1.0) < 0.02
        # the variance comes from the V kept where the row stopped
        public = variance_sandwich(data, Constant(), fit.beta)
        assert fit.variance.tobytes() == public.tobytes()

    def test_an_overflowed_jacobian_still_fails(self, leukemia):
        # shifted by 800, exp(beta z) overflows: J = -inf gives a zero step
        # far from the root (beta = 1.509), which is no convergence
        halving = "^step halving failed to reduce the score$"
        with pytest.raises(ConvergenceError, match=halving):
            solve_score(_shifted(leukemia, 800.0), Constant())

    def test_shifted_draws_fail_or_equal_the_unshifted(self, leukemia):
        # PL is invariant to a covariate shift; shifted by 400 some draws
        # overflow, and fail as they do without the floor rule
        shifted, failed = _shifted(leukemia, 400.0), 0
        for b in range(40):
            want = random_weight_fit(leukemia, Constant(), np.random.default_rng([5, b]))
            try:
                got = random_weight_fit(shifted, Constant(), np.random.default_rng([5, b]))
            except FitError as exc:
                assert str(exc) == "step halving failed to reduce the score"
                failed += 1
            else:
                assert np.abs(got - want).max() < 1e-11
        assert 0 < failed < 40


# one-covariate J, U, W and V: magnitudes from 1e-300 to 1e300 of either sign,
# and the values LAPACK has to treat apart
_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, np.inf, -np.inf, np.nan]
_SCALARS = st.one_of(
    st.builds(
        lambda mantissa, exponent, sign: sign * mantissa * 10.0**exponent,
        st.floats(1.0, 10.0, exclude_max=True),
        st.integers(-300, 299),
        st.sampled_from([1.0, -1.0]),
    ),
    st.sampled_from(_SPECIAL),
)
_DIVISIONS = settings(max_examples=300, derandomize=True, deadline=None)


def _outcome(call):
    """``call()``'s value, or its exception as (type, message), and the
    (category, message) of every warning it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            got = call()
        except Exception as exc:
            got = (type(exc), str(exc))
    return got, [(w.category, str(w.message)) for w in caught]


def _lapack_sandwich(v, w):
    """The sandwich as LAPACK gives it at any d: inv(A) @ B @ inv(A)."""
    a = (w[:, None, None] * v).sum(axis=0)
    b = ((w**2)[:, None, None] * v).sum(axis=0)
    try:
        a_inv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        raise FitError("singular information matrix") from None
    return a_inv @ b @ a_inv


class TestOneCovariateDivision:
    """With one covariate the Newton step and the sandwich's inverse are
    divisions. They give the bytes, unsolved rows, errors and warnings of
    the installed LAPACK's 1x1 solve and inverse, and d > 1 still solves
    through LAPACK."""

    # one subject, one event: its kernel's sandwich takes any (V, W) stack
    KERNEL = estimate_module._Kernel(make([1.0], [1], [[0.0]]))

    @_DIVISIONS
    @given(rows=st.lists(st.tuples(_SCALARS, _SCALARS), min_size=1, max_size=6))
    def test_steps_are_lapack_solves(self, rows):
        J = np.array([j for j, _ in rows]).reshape(-1, 1, 1)
        U = np.array([u for _, u in rows]).reshape(-1, 1)
        (step, solved), caught = _outcome(lambda: estimate_module._solve_rows(J, U))
        assert caught == []
        for r in range(len(rows)):
            want, caught = _outcome(lambda: np.linalg.solve(J[r], -U[r]))
            assert caught == []
            if isinstance(want, tuple):
                assert want[0] is np.linalg.LinAlgError and not solved[r]
                assert np.isnan(step[r]).all()
            else:
                assert solved[r] and step[r].tobytes() == want.tobytes()

    @_DIVISIONS
    @given(pairs=st.lists(st.tuples(_SCALARS, _SCALARS), min_size=1, max_size=3))
    def test_sandwich_inverse_is_lapack_inverse(self, pairs):
        # A = sum W V and B = sum W^2 V over the drawn (W, V) of m failures
        w = np.array([x for x, _ in pairs])
        v = np.array([y for _, y in pairs]).reshape(-1, 1, 1)
        got, got_warnings = _outcome(lambda: self.KERNEL.sandwich(v, w))
        want, want_warnings = _outcome(lambda: _lapack_sandwich(v, w))
        assert got_warnings == want_warnings
        if isinstance(want, tuple):
            assert got == want
        else:
            assert got.tobytes() == want.tobytes()

    def test_two_covariates_go_through_lapack(self, monkeypatch):
        calls = []
        for name in ("solve", "inv"):
            real = getattr(np.linalg, name)

            def counted(*args, real=real, name=name):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(np.linalg, name, counted)
        estimate_module._solve_rows(np.full((3, 1, 1), 2.0), np.ones((3, 1)))
        self.KERNEL.sandwich(np.full((4, 1, 1), 0.5), np.ones(4))
        assert calls == []
        J, U = np.tile([[2.0, 0.5], [0.5, 1.0]], (3, 1, 1)), np.ones((3, 2))
        _, solved = estimate_module._solve_rows(J, U)
        assert solved.all() and calls == ["solve"]
        var = self.KERNEL.sandwich(np.tile(J[0], (4, 1, 1)), np.ones(4))
        assert calls == ["solve", "inv"]
        assert var.tobytes() == _lapack_sandwich(np.tile(J[0], (4, 1, 1)), np.ones(4)).tobytes()


class TestSchemeRows:
    """One kernel holds several schemes, fitted as rows of one batched Newton;
    each row ends as its scheme does when solved alone, bit for bit."""

    # pwexp:1000 cannot be fitted to either dataset (zero exposure)
    ROWS = [
        Constant(),
        KaplanMeier(),
        Parametric("exponential"),
        Parametric("weibull"),
        Parametric("pwexp:1000"),
        Parametric("pwexp:10"),
    ]

    def assert_rows_alone(self, data, schemes, ties="breslow", variance="auto"):
        # a rule solve_score does not take is checked on the roots of 'none'
        rule = variance if variance in ("auto", "none") else "none"
        kernel = estimate_module._Kernel(data, ties)
        rows = estimate_module._scheme_rows(kernel, schemes)
        fits = estimate_module._fit(kernel, rows, rule)
        assert len(fits) == len(schemes)
        if rule != variance:
            self.assert_variances_alone(kernel, rows, fits, variance)
        for scheme, fit in zip(schemes, fits):
            try:
                alone = solve_score(data, scheme, ties=ties, variance=rule)
            except (DataError, FitError) as exc:
                assert (type(fit), str(fit)) == (type(exc), str(exc))
                continue
            assert json.dumps(fit.to_dict(), sort_keys=True) == json.dumps(
                alone.to_dict(), sort_keys=True
            )
            for a, b in zip((fit.beta, fit.variance), (alone.beta, alone.variance)):
                assert a.tobytes() == b.tobytes()
        return fits

    @staticmethod
    def assert_variances_alone(kernel, rows, fits, variance):
        """Each row's ``variance`` from the shared kernel at its root is the
        standalone function's for its scheme alone, bit for bit."""
        for s, row in enumerate(rows):
            if isinstance(fits[s], Exception):
                continue
            beta = fits[s].beta
            v = kernel.moments(beta[None])[2][0]
            if variance == "andersen-gill":
                shared = kernel.sandwich(v, np.ones(len(v)))
                alone = variance_sandwich(kernel.data, Constant(), beta, ties=kernel.ties)
            else:
                scheme, _, w = row
                shared = kernel.sandwich(v, w)
                alone = variance_sandwich(kernel.data, scheme, beta, ties=kernel.ties)
            assert shared.tobytes() == alone.tobytes()

    @pytest.mark.parametrize("variance", ["auto", "andersen-gill", "sandwich", "none"])
    def test_each_row_is_its_scheme_alone(self, leukemia, variance):
        fits = self.assert_rows_alone(leukemia, self.ROWS, variance=variance)
        assert isinstance(fits[4], FitError) and "zero exposure" in str(fits[4])
        self.assert_rows_alone(random_data(8, d=2), self.ROWS, variance=variance)

    @pytest.mark.parametrize("variance", ["auto", "andersen-gill", "sandwich", "none"])
    def test_efron_rows_are_their_schemes_alone(self, leukemia, variance):
        self.assert_rows_alone(leukemia, self.ROWS, ties="efron", variance=variance)

    def test_no_events_fail_every_row(self):
        d = make([1, 2], [0, 0], [[0.0], [1.0]])
        with pytest.raises(DataError, match="no events") as refused:
            estimate_module._Kernel(d)
        # a study replication censored far below every survival time has no
        # events: each of its estimators fails with the kernel's message
        spec = GeneratorSpec(
            baseline=Exponential(rate=1.0),
            beta=BetaFunction.constant(0.5),
            censoring=UniformCensoring(upper=1e-9),
        )
        estimators = {f"row{i}": scheme for i, scheme in enumerate(self.ROWS)}
        [(values, censored, fails)] = _reps(
            spec, estimators, 30, [np.random.default_rng(1)]
        )
        assert values == {} and censored == 1.0
        assert fails == [(name, str(refused.value)) for name in estimators]


class TestIterativeMarginalFit:
    """The plug-in fit: a family-named marginal, fitted once, fixes the weights."""

    def test_weibull_and_pwexp_families(self, leukemia):
        wei = solve_score(leukemia, Parametric("weibull"))
        assert wei.theta["family"] == "weibull"
        assert wei.beta[0] == pytest.approx(1.5193283, abs=1e-5)
        pwe = solve_score(leukemia, Parametric("pwexp:10"))
        assert pwe.theta["cuts"] == [10.0]
        assert len(pwe.theta["rates"]) == 2

    def test_pwexp_without_cuts_is_exponential(self, leukemia):
        res = solve_score(leukemia, Parametric("pwexp"))
        assert res.theta["family"] == "exponential"

    # neither a family name nor a model with survival(t)
    @pytest.mark.parametrize("model", ["gamma", None, 123])
    def test_unknown_family(self, leukemia, model):
        with pytest.raises(ConfigError):
            solve_score(leukemia, Parametric(model))


# few, fixed examples: each runs whole fits
_INVARIANCE = settings(max_examples=8, derandomize=True, deadline=None)


def _fit_bytes(fit):
    return fit.beta.tobytes(), fit.variance.tobytes()


class TestInvariances:
    """Invariances that the fit holds exactly, or to rounding."""

    @_INVARIANCE
    @given(draw=st.data())
    @pytest.mark.parametrize("sample", ["leukemia", "censored_sample"])
    def test_increasing_time_map_keeps_pl_and_km_fits(self, request, sample, draw):
        # PL and KM see the times only through their order and ties
        data = request.getfixturevalue(sample)
        distinct, index = np.unique(data.time, return_inverse=True)
        steps = draw.draw(
            st.lists(
                st.floats(1e-3, 1e3), min_size=distinct.size, max_size=distinct.size
            )
        )
        mapped = SurvivalDataset(
            time=np.cumsum(steps)[index], status=data.status, covariates=data.covariates
        )
        for scheme in (Constant(), KaplanMeier()):
            got = solve_score(mapped, scheme)
            assert _fit_bytes(got) == _fit_bytes(solve_score(data, scheme))

    @_INVARIANCE
    @given(order=st.permutations(range(400)))
    def test_row_order_keeps_every_fit(self, censored_sample, order):
        data = censored_sample
        assert np.unique(data.time).size == data.n  # untied: one sorted order
        rows = np.array(order)
        permuted = SurvivalDataset(
            time=data.time[rows], status=data.status[rows], covariates=data.covariates[rows]
        )
        for scheme in (
            Constant(),
            KaplanMeier(),
            Parametric("exponential"),
            Parametric("weibull"),
            Parametric("pwexp:0.3"),
            Parametric(fit_exponential(data)),
        ):
            got = solve_score(permuted, scheme)
            assert _fit_bytes(got) == _fit_bytes(solve_score(data, scheme))

    @_INVARIANCE
    @given(shift=st.floats(-50.0, 50.0))
    @pytest.mark.parametrize("sample", ["leukemia", "censored_sample"])
    def test_covariate_shift_keeps_beta(self, request, sample, shift):
        data = request.getfixturevalue(sample)
        for scheme in (Constant(), KaplanMeier(), Parametric("exponential")):
            got = solve_score(_shifted(data, shift), scheme).beta
            assert np.max(np.abs(got - solve_score(data, scheme).beta)) <= 1e-10


def _public_variances(data):
    res = solve_score(data, Constant())
    return res.variance, variance_sandwich(data, Constant(), res.beta)


def _solve_score_efron_variances(data):
    # the fit's variance and the kernel's sandwich follow the Efron tie rule
    ag = solve_score(data, Constant(), ties="efron")
    public = variance_sandwich(data, Constant(), ag.beta, ties="efron")
    assert np.allclose(ag.variance, public)
    kernel = estimate_module._Kernel(data, "efron")
    v = kernel.moments(ag.beta[None])[2][0]
    return ag.variance, kernel.sandwich(v, np.ones(data.n_events))


class TestVariances:
    @pytest.mark.parametrize(
        "variances",
        [_public_variances, _solve_score_efron_variances],
        ids=["public-breslow", "solve_score-efron"],
    )
    def test_constant_sandwich_equals_andersen_gill(self, leukemia, variances):
        ag, sw = variances(leukemia)
        assert np.allclose(ag, sw, rtol=1e-12)

    def test_auto_dispatch(self, leukemia):
        res_c = solve_score(leukemia, Constant())
        assert np.allclose(
            res_c.variance, variance_sandwich(leukemia, Constant(), res_c.beta)
        )
        res_k = solve_score(leukemia, KaplanMeier())
        assert np.allclose(
            res_k.variance, variance_sandwich(leukemia, KaplanMeier(), res_k.beta)
        )

    @pytest.mark.parametrize(
        "scheme, ties",
        [(Constant(), "breslow"), (Constant(), "efron"), (KaplanMeier(), "breslow")],
    )
    def test_variance_costs_no_risk_set_pass(self, leukemia, monkeypatch, scheme, ties):
        # the variance reads the moments of Newton's last evaluation
        risk_set_sums = estimate_module._risk_set_sums
        calls = []

        def counted(*args):
            calls.append(args)
            return risk_set_sums(*args)

        monkeypatch.setattr(estimate_module, "_risk_set_sums", counted)
        passes = {}
        for variance in ("none", "auto"):
            calls.clear()
            fit = solve_score(leukemia, scheme, ties=ties, variance=variance)
            passes[variance] = len(calls)
        assert passes["auto"] == passes["none"]
        public = variance_sandwich(leukemia, scheme, fit.beta, ties=ties)
        assert np.array_equal(fit.variance, public)

    def test_sandwich_invariant_under_weight_scaling(self, censored_sample):
        km = kaplan_meier(censored_sample)
        # a curve equal to km/2 everywhere: add a jump to 1/2 before any data
        half = StepSurvival(
            np.concatenate([[km.jump_times[0] / 2], km.jump_times]),
            np.concatenate([[0.5], 0.5 * km.values]),
        )
        a = Parametric(km)
        b = Parametric(half)
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
            variance_sandwich(d2, Constant(), beta),
            variance_sandwich(d1, Constant(), beta) / 2.0,
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
        for v in (res.variance, variance_sandwich(data, Constant(), res.beta)):
            assert np.allclose(v, v.T)
            assert np.linalg.eigvalsh(v).min() > 0


# -- reference implementation: suffix sums and per-tie-group Efron loops ------


def _ref_suffix_sums(data, beta):
    z = data.covariates
    w = np.exp(z @ beta)
    first = np.searchsorted(data.time, data.time, side="left")
    s0 = np.cumsum(w[::-1])[::-1][first]
    s1 = np.cumsum((w[:, None] * z)[::-1], axis=0)[::-1][first]
    zz = z[:, :, None] * z[:, None, :]
    s2 = np.cumsum((w[:, None, None] * zz)[::-1], axis=0)[::-1][first]
    return s0, s1, s2, w


def _ref_tie_groups(data):
    ev = np.flatnonzero(data.status == 1)
    cut = np.flatnonzero(np.diff(data.time[ev]) != 0) + 1
    return [g for g in np.split(ev, cut) if g.size >= 2]


def _ref_score(data, wt, beta, ties):
    """(U, J) with per-subject weights ``wt``, Efron by a loop over tie groups."""
    s0, s1, s2, w = _ref_suffix_sums(data, beta)
    z = data.covariates
    ev = data.status == 1
    e = s1 / s0[:, None]
    v = s2 / s0[:, None, None] - e[:, :, None] * e[:, None, :]
    U = (wt[ev][:, None] * (z[ev] - e[ev])).sum(axis=0)
    J = -(wt[ev][:, None, None] * v[ev]).sum(axis=0)
    if ties == "efron":
        for g in _ref_tie_groups(data):
            i0, dk, wg = g[0], g.size, wt[g[0]]
            U -= wg * (z[g].sum(axis=0) - dk * e[i0])
            J += wg * dk * v[i0]
            d0 = w[g].sum()
            d1 = w[g] @ z[g]
            d2 = np.einsum("j,jk,jl->kl", w[g], z[g], z[g])
            U += wg * z[g].sum(axis=0)
            for ell in range(dk):
                f = ell / dk
                s0l = s0[i0] - f * d0
                e_l = (s1[i0] - f * d1) / s0l
                v_l = (s2[i0] - f * d2) / s0l - np.outer(e_l, e_l)
                U -= wg * e_l
                J -= wg * v_l
    return U, J


def _ref_log_likelihood(data, beta, ties):
    s0, _, _, w = _ref_suffix_sums(data, beta)
    ev = data.status == 1
    n = data.n
    ll = float((data.covariates[ev] @ beta).sum() - np.log(s0[ev] / n).sum())
    if ties == "efron":
        for g in _ref_tie_groups(data):
            i0, dk = g[0], g.size
            d0 = w[g].sum()
            ll += np.log(s0[i0] / n) * dk
            for ell in range(dk):
                ll -= np.log((s0[i0] - (ell / dk) * d0) / n)
    return ll


def heavy_tie_data(seed=5, n=2000):
    """Two covariates; times on a 0.1 grid, so nearly every failure is tied."""
    rng = np.random.default_rng(seed)
    z = np.column_stack([rng.random(n) < 0.5, rng.standard_normal(n)]).astype(float)
    t = rng.exponential(size=n) / (0.5 * np.exp(z @ np.array([0.7, -0.5])))
    c = rng.uniform(0.0, 6.0, size=n)
    time = np.ceil(np.minimum(t, c) * 10.0) / 10.0
    return SurvivalDataset(time=time, status=(t <= c).astype(int), covariates=z)


def shared_multipliers(data, seed=9):
    """One exponential draw per distinct failure time, shared by its ties;
    the multipliers at the failures."""
    _, which = np.unique(data.time[data.status == 1], return_inverse=True)
    e = np.random.default_rng(seed).exponential(size=which.max() + 1)[which]
    return e / e.sum()


def rel_err(a, b):
    return float(np.linalg.norm(np.ravel(a - b)) / np.linalg.norm(np.ravel(b)))


class TestKernelMatchesReference:
    @pytest.fixture(scope="class")
    def ties_data(self):
        data = heavy_tie_data()
        assert data.n_events > 1000
        assert np.unique(data.time[data.status == 1]).size < 100
        return data

    @pytest.mark.parametrize(
        "scheme,ties,shared",
        [
            (Constant(), "breslow", False),
            (Constant(), "efron", False),
            (Constant(), "breslow", True),
            (Constant(), "efron", True),
            (KaplanMeier(), "breslow", False),
        ],
        ids=["pl-breslow", "pl-efron", "pl-breslow-mult", "pl-efron-mult", "km-breslow"],
    )
    def test_score_and_jacobian(self, ties_data, scheme, ties, shared):
        data = ties_data
        mult = shared_multipliers(data) if shared else None
        wt = event_weights(data, scheme)
        if mult is not None:
            wt[data.status == 1] *= mult
        for beta in (np.zeros(2), np.array([0.6, -0.4])):
            U_ref, J_ref = _ref_score(data, wt, beta, ties)
            if mult is None:
                U = weighted_score(data, scheme, beta, ties=ties)
                J = score_jacobian(data, scheme, beta, ties=ties)
            else:
                kernel = estimate_module._Kernel(data, ties)
                [(_, _, w)] = estimate_module._scheme_rows(kernel, [scheme])
                U, J, _ = kernel.score(beta[None], (w * mult)[None])
                U, J = U[0], J[0]
            assert rel_err(U, U_ref) <= 1e-12
            assert rel_err(J, J_ref) <= 1e-12

    @pytest.mark.parametrize("ties", ["breslow", "efron"])
    def test_log_partial_likelihood(self, ties_data, ties):
        for beta in (np.zeros(2), np.array([0.6, -0.4])):
            ll = log_partial_likelihood(ties_data, beta, ties=ties)
            ref = _ref_log_likelihood(ties_data, beta, ties)
            assert abs(ll - ref) <= 1e-12 * abs(ref)


class TestPreparedState:
    """The beta-free state (here the KM curve) is built once per fit."""

    @pytest.fixture
    def km_calls(self, monkeypatch):
        calls = []

        def counting(data):
            calls.append(data)
            return kaplan_meier(data)

        monkeypatch.setattr(estimate_module, "kaplan_meier", counting)
        return calls

    def test_solve_score_fits_km_once(self, censored_sample, km_calls):
        res = solve_score(censored_sample, KaplanMeier())
        assert res.iterations >= 2
        assert len(km_calls) == 1

    def test_random_weight_fit_fits_km_once(self, censored_sample, km_calls):
        random_weight_fit(censored_sample, KaplanMeier(), np.random.default_rng(3))
        assert len(km_calls) == 1

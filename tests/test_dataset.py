"""Dataset construction, validation, risk-set moments and CSV round-trips."""

from __future__ import annotations

import numpy as np
import pytest

from margfit import (
    DataError,
    SurvivalDataset,
    load_csv,
    risk_set_stats,
    save_csv,
)


def make(time, status, z):
    return SurvivalDataset(
        time=np.asarray(time, dtype=float),
        status=np.asarray(status),
        covariates=np.asarray(z, dtype=float),
    )


class TestConstruction:
    def test_sorts_by_time_and_keeps_tie_order(self):
        d = make([3.0, 1.0, 2.0, 2.0], [1, 0, 1, 0], [[30.0], [10.0], [21.0], [22.0]])
        assert d.time.tolist() == [1.0, 2.0, 2.0, 3.0]
        assert d.status.tolist() == [0, 1, 0, 1]
        # stable sort: the tied rows keep their input order
        assert d.covariates[:, 0].tolist() == [10.0, 21.0, 22.0, 30.0]

    def test_shape_attributes(self):
        d = make([1, 2, 3], [1, 1, 0], [[1, 0], [0, 1], [1, 1]])
        assert (d.n, d.d, d.n_events) == (3, 2, 2)

    def test_one_dim_covariates_promoted(self):
        d = make([1, 2, 3], [1, 1, 1], [0.1, 0.2, 0.3])
        assert d.covariates.shape == (3, 1)

    def test_require_events(self):
        d = make([1, 2], [0, 0], [[0], [1]])
        with pytest.raises(DataError, match="no events"):
            d.require_events()

    @pytest.mark.parametrize(
        "time,status,z,msg",
        [
            ([], [], np.empty((0, 1)), "nonempty"),
            ([1, -2], [1, 1], [[0], [0]], "nonnegative"),
            ([1, np.inf], [1, 1], [[0], [0]], "finite"),
            ([1, 2], [1, 2], [[0], [0]], "status"),
            ([1, 2], [1], [[0], [0]], "same length"),
            ([1, 2], [1, 1], [[0]], "covariate rows"),
            ([1, 2], [1, 1], [[0], [np.nan]], "covariates must be finite"),
            ([0, 2], [1, 1], [[0], [0]], "zero-time events"),
        ],
    )
    def test_validation_errors(self, time, status, z, msg):
        with pytest.raises(DataError, match=msg):
            make(time, status, z)

    def test_zero_time_censored_allowed(self):
        d = make([0, 2], [0, 1], [[0], [1]])
        assert d.n == 2


class TestRiskSetStats:
    def test_hand_values_at_beta_zero(self):
        # at-risk {2, 3} at t = 1.5: plain averages of z over the risk set
        d = make([1, 2, 3], [1, 1, 1], [[1.0], [2.0], [4.0]])
        st = risk_set_stats(d, np.zeros(1), 1.5)
        assert st.n_at_risk == 2
        assert st.s0 == pytest.approx(2 / 3)
        assert st.s1[0] == pytest.approx(6 / 3)
        assert st.e[0] == pytest.approx(3.0)
        assert st.v[0, 0] == pytest.approx(np.var([2.0, 4.0]))

    def test_hand_values_at_nonzero_beta(self):
        d = make([1, 2], [1, 1], [[0.0], [1.0]])
        b = np.array([np.log(3.0)])
        st = risk_set_stats(d, b, 0.5)
        # weights 1 and 3: E = 3/4, V = 3/16
        assert st.e[0] == pytest.approx(0.75)
        assert st.v[0, 0] == pytest.approx(3 / 16)

    def test_v_is_psd_on_random_data(self):
        rng = np.random.default_rng(3)
        d = make(
            rng.exponential(size=60),
            rng.integers(0, 2, size=60),
            rng.normal(size=(60, 3)),
        )
        for t in np.quantile(d.time, [0.0, 0.3, 0.6, 0.9]):
            st = risk_set_stats(d, np.array([0.2, -0.4, 0.1]), float(t))
            assert np.linalg.eigvalsh(st.v).min() >= -1e-12
            assert np.allclose(st.v, st.v.T)

    def test_every_event_time_matches_a_direct_sum(self):
        rng = np.random.default_rng(8)
        n = 300
        d = make(
            np.ceil(rng.exponential(size=n) * 20.0) / 20.0,  # many ties
            rng.integers(0, 2, size=n),
            rng.normal(size=(n, 2)) + [0.0, 3.0],
        )
        beta = np.array([0.5, -0.8])
        for t in np.unique(d.time[d.status == 1]):
            z = d.covariates[d.time >= t]
            w = np.exp(z @ beta)
            s0 = w.sum() / n
            s1 = (w[:, None] * z).sum(axis=0) / n
            s2 = np.einsum("j,jk,jl->kl", w, z, z) / n
            st = risk_set_stats(d, beta, float(t))
            assert st.n_at_risk == z.shape[0]
            assert st.s0 == pytest.approx(s0, rel=1e-12)
            assert np.allclose(st.s1, s1, rtol=1e-12, atol=0)
            assert np.allclose(st.s2, s2, rtol=1e-12, atol=0)
            assert np.allclose(st.e, s1 / s0, rtol=1e-12, atol=0)

    def test_errors(self):
        d = make([1, 2], [1, 1], [[0], [1]])
        with pytest.raises(DataError, match="length 1"):
            risk_set_stats(d, np.zeros(2), 1.0)
        with pytest.raises(DataError, match="empty risk set"):
            risk_set_stats(d, np.zeros(1), 3.0)
        with pytest.raises(DataError, match="nonnegative"):
            risk_set_stats(d, np.zeros(1), -1.0)


class TestCsv:
    def test_round_trip(self, tmp_path, censored_sample):
        path = tmp_path / "sample.csv"
        save_csv(censored_sample, path)
        back = load_csv(path)
        assert np.array_equal(back.time, censored_sample.time)
        assert np.array_equal(back.status, censored_sample.status)
        assert np.array_equal(back.covariates, censored_sample.covariates)

    def test_missing_file_is_data_error(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_csv(tmp_path / "nope.csv")

    def test_bad_header(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("when,dead,z1\n1,1,0\n")
        with pytest.raises(DataError, match="header"):
            load_csv(p)

    def test_bad_row_reports_line_number(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("time,status,z1\n1,1,0\noops,1,0\n")
        with pytest.raises(DataError, match="line 3"):
            load_csv(p)

    def test_ragged_row(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("time,status,z1\n1,1\n")
        with pytest.raises(DataError, match="line 2"):
            load_csv(p)

    def test_empty_body(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("time,status,z1\n")
        with pytest.raises(DataError, match="no data"):
            load_csv(p)

    @pytest.mark.parametrize(
        "body,match",
        [
            ("1,1,0\n-2,0,1\n", "negative time at line 3"),
            # the blank line is skipped but still counted
            ("1,1,0\n\n3,2,1\n", r"status outside \{0,1\} at line 4"),
        ],
    )
    def test_bad_value_names_its_line(self, tmp_path, body, match):
        p = tmp_path / "v.csv"
        p.write_text("time,status,z1\n" + body)
        with pytest.raises(DataError, match="v.csv: " + match):
            load_csv(p)


class TestBundledData:
    def test_leukemia_checksums(self, leukemia):
        assert (leukemia.n, leukemia.d, leukemia.n_events) == (42, 1, 30)
        assert leukemia.time.sum() == pytest.approx(541.0)
        arm = leukemia.covariates[:, 0]
        assert set(np.unique(arm)) == {0.0, 1.0}
        # the z = 1 arm has all 21 events, the z = 0 arm has 9 of 21
        assert leukemia.status[arm == 1].sum() == 21
        assert leukemia.status[arm == 0].sum() == 9

import numpy as np
import pytest

from knotselect.basis import BasisFamily, BasisSpec
from knotselect.criterion import (
    LambdaPolicy,
    Penalty,
    cv_lambda,
    default_lambda,
    pss,
    rice_variance,
)
from knotselect.lsq import DataError
from knotselect.search import SearchConfig, select

TP = BasisFamily.TRUNCATED_POWER


class TestPss:
    def test_direct_formula(self):
        assert pss(10.0, 0, 2.0) == 12.0
        assert pss(0.0, 3, 1.0) == 4.0

    def test_monotone_in_lambda_and_k(self):
        assert pss(5.0, 2, 3.0) < pss(5.0, 2, 4.0)
        assert pss(5.0, 2, 3.0) < pss(5.0, 3, 3.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            pss(-1.0, 0, 1.0)
        with pytest.raises(ValueError):
            pss(1.0, -1, 1.0)
        with pytest.raises(ValueError):
            pss(1.0, 0, 0.0)

    def test_large_lambda_prefers_no_knots(self):
        rng = np.random.default_rng(0)
        xs = np.linspace(0, 10, 60)
        y = np.sin(xs) + rng.normal(0, 0.2, 60)
        lam = float(60 * np.var(y) + 1.0)
        cfg = SearchConfig(
            basis=BasisSpec(TP, 3),
            delta=1.0,
            penalty=Penalty(policy=LambdaPolicy.FIXED, lam=lam),
        )
        assert select(xs, y, cfg).k == 0


class TestDefaultLambda:
    def test_needs_three_points(self):
        with pytest.raises(DataError):
            default_lambda([1.0, 2.0], [0.0, 1.0])

    def test_floor_on_constant_data(self):
        y = np.full(20, 3.0)
        lam = default_lambda(y, np.arange(20.0))
        assert lam == pytest.approx(1e-12)  # var(y) = 0 so only the 1e-12 term

    def test_rice_estimator_consistent(self):
        rng = np.random.default_rng(1)
        n = 10000
        xs = np.linspace(0, 1, n)
        y = np.sin(2 * np.pi * xs) + rng.normal(0, 1.0, n)
        s2 = rice_variance(y, xs)
        assert s2 == pytest.approx(1.0, rel=0.10)

    def test_quadruples_when_sigma_doubles(self):
        rng = np.random.default_rng(2)
        n = 20000
        xs = np.linspace(0, 1, n)
        base = np.cos(xs)
        s2a = rice_variance(base + rng.normal(0, 0.5, n), xs)
        s2b = rice_variance(base + rng.normal(0, 1.0, n), xs)
        assert s2b / s2a == pytest.approx(4.0, rel=0.15)

    def test_sorts_by_x(self):
        rng = np.random.default_rng(3)
        xs = np.linspace(0, 1, 500)
        y = 10 * xs + rng.normal(0, 0.1, 500)
        perm = rng.permutation(500)
        assert default_lambda(y[perm], xs[perm]) == pytest.approx(
            default_lambda(y, xs)
        )


def _one_knot_linear_data(n=81, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    xs = np.linspace(0, 10, n)
    y = 1.0 + 0.5 * xs + np.where(xs >= 5.0, -2.0 * (xs - 5.0), 0.0)
    if noise:
        y = y + rng.normal(0, noise, n)
    return xs, y


class TestCvLambda:
    def test_single_grid_element(self):
        xs, y = _one_knot_linear_data()
        assert cv_lambda(xs, y, BasisSpec(TP, 1), [3.0], folds=5) == 3.0

    def test_noiseless_recovers_true_k(self):
        xs, y = _one_knot_linear_data()
        lam = cv_lambda(
            xs, y, BasisSpec(TP, 1), [1e-6, 1e-3, 1.0], folds=4, delta=1.0
        )
        cfg = SearchConfig(
            basis=BasisSpec(TP, 1),
            delta=1.0,
            penalty=Penalty(policy=LambdaPolicy.FIXED, lam=lam),
        )
        model = select(xs, y, cfg)
        assert model.k == 1

    def test_deterministic_given_seed(self):
        xs, y = _one_knot_linear_data(noise=0.3)
        args = (xs, y, BasisSpec(TP, 1), [0.1, 1.0, 10.0])
        a = cv_lambda(*args, folds=4, seed=11, delta=1.0)
        b = cv_lambda(*args, folds=4, seed=11, delta=1.0)
        assert a == b

    def test_validation(self):
        xs, y = _one_knot_linear_data()
        with pytest.raises(ValueError):
            cv_lambda(xs, y, BasisSpec(TP, 1), [], folds=4)
        with pytest.raises(ValueError):
            cv_lambda(xs, y, BasisSpec(TP, 1), [1.0, 2.0], folds=1)
        with pytest.raises(ValueError, match=r"\(9\).*\(8\)"):
            cv_lambda(xs[:8], y[:8], BasisSpec(TP, 1), [1.0, 2.0], folds=9)


    def test_natural_cubic_folds_need_more_than_four_training_rows(self):
        # 6 rows in 3 folds leave 4 training rows, as many as the cubic
        # truncated-power columns natural cubic fits k = 0 in
        xs, y = _one_knot_linear_data(n=6)
        with pytest.raises(DataError, match="fewer training points"):
            cv_lambda(xs, y, BasisSpec(BasisFamily.NATURAL_CUBIC), [1.0, 2.0], folds=3, delta=0.5)


class TestShiftInvariance:
    def test_selected_knots_unchanged_by_offset(self):
        xs, y = _one_knot_linear_data(noise=0.3, seed=4)
        cfg = SearchConfig(basis=BasisSpec(TP, 1), delta=1.0)
        m1 = select(xs, y, cfg)
        m2 = select(xs, y + 137.0, cfg)
        assert m1.k == m2.k
        assert m1.knots.knots == m2.knots.knots

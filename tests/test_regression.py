import dataclasses
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterreg import regression
from clusterreg.errors import RegressionError
from clusterreg.regression import (
    DesignMatrix,
    LinearModel,
    PenaltySpec,
    compute_mse,
    compute_r2,
    compute_sparsity,
    cross_validate,
    fit_ols,
    fit_penalized,
    fit_report,
    iterate_lambda,
    kkt_check,
    lasso_lambda_max,
    predict,
)

from oracles import _feature_sign_search as reference_search
from oracles import _kept_pattern_fits as reference_kept_pattern_fits
from oracles import (
    collinear_designs,
    collinear_grid,
    cv_table_loop,
    enumerated_minimum,
    kkt_loop,
    path_scores_loop,
    penalized_objective,
    random_instance,
    warm_descent,
)

# Mean-zero univariate fixtures, so the intercept fit is 0 and the closed
# forms of the no-intercept problem hold: x'x = x'y = 14 and x'x = x'y = 2.
UNI_X = DesignMatrix(np.array([[-3.0], [1.0], [2.0]]), np.array([-3.0, 1.0, 2.0]), ("x",))
UNI_PM = DesignMatrix(np.array([[1.0], [-1.0]]), np.array([1.0, -1.0]), ("x",))


def random_design(seed=0, n=8, p=3):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, p))
    y = x @ rng.normal(size=p) + rng.normal() + 0.2 * rng.normal(size=n)
    return DesignMatrix(x, y, tuple(f"c{j}" for j in range(p)))


class TestOls:
    def test_exact_linear_data(self):
        d = DesignMatrix([[1.0], [2.0], [3.0]], [2.0, 4.0, 6.0], ("x",))
        m = fit_ols(d)
        assert m.coefficients == pytest.approx([2.0], abs=1e-12)
        assert m.intercept == pytest.approx(0.0, abs=1e-12)
        assert fit_report(m, d).mse == pytest.approx(0.0, abs=1e-20)

    def test_symmetric_two_point(self):
        m = fit_ols(UNI_PM)
        assert m.coefficients == pytest.approx([1.0], abs=1e-12)
        assert m.intercept == pytest.approx(0.0, abs=1e-12)

    def test_matches_normal_equations_oracle(self):
        d = random_design(seed=42)
        m = fit_ols(d)
        xc = d.x - d.x.mean(axis=0)
        yc = d.y - d.y.mean()
        beta = np.linalg.solve(xc.T @ xc, xc.T @ yc)  # independent route
        assert m.coefficients == pytest.approx(beta, abs=1e-8)

    def test_singular_system_flagged_minimum_norm(self):
        x = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])  # rank 1
        d = DesignMatrix(x, np.array([1.0, 2.0, 3.0]), ("a", "b"))
        m = fit_ols(d)
        assert "singular_system" in m.flags
        # minimum-norm solution of the centered system
        assert np.linalg.norm(m.coefficients) <= 1.0


class TestRidge:
    def test_lambda_zero_equals_ols(self):
        d = random_design(seed=1)
        ols = fit_ols(d)
        ridge = fit_penalized(d, PenaltySpec.ridge(0.0))
        assert ridge.coefficients == pytest.approx(ols.coefficients, abs=1e-10)
        assert ridge.intercept == pytest.approx(ols.intercept, abs=1e-10)

    def test_univariate_closed_form(self):
        m = fit_penalized(UNI_X, PenaltySpec.ridge(1.0))
        assert m.coefficients[0] == pytest.approx(14.0 / 15.0, abs=1e-10)
        assert m.intercept == 0.0

    def test_matches_independent_solve(self):
        d = random_design(seed=7)
        lam = 0.37
        m = fit_penalized(d, PenaltySpec.ridge(lam))
        xc = d.x - d.x.mean(axis=0)
        yc = d.y - d.y.mean()
        beta = np.linalg.solve(xc.T @ xc + lam * np.eye(d.p), xc.T @ yc)
        assert m.coefficients == pytest.approx(beta, abs=1e-10)

    def test_shrinkage_monotone_in_lambda(self):
        d = random_design(seed=3)
        norms = [np.linalg.norm(fit_penalized(d, PenaltySpec.ridge(lam)).coefficients)
                 for lam in [0.0, 0.01, 0.1, 1.0, 10.0, 100.0]]
        assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))

    def test_negative_lambda_rejected(self):
        with pytest.raises(RegressionError):
            fit_penalized(UNI_X, PenaltySpec.ridge(-0.1))


class TestLasso:
    def test_lambda_zero_equals_ols(self):
        d = random_design(seed=5)
        ols = fit_ols(d)
        lasso = fit_penalized(d, PenaltySpec.lasso(0.0))
        assert lasso.converged
        assert lasso.coefficients == pytest.approx(ols.coefficients, abs=1e-8)

    def test_lambda_zero_on_a_rank_deficient_design_is_ols(self):
        # No L1 weight and no L2 weight: least squares, flagged like fit_ols
        # when the design has a duplicated column.
        d, _, _ = duplicated_column_case()
        ols = fit_ols(d)
        lasso = fit_penalized(d, PenaltySpec.lasso(0.0))
        assert np.array_equal(lasso.coefficients, ols.coefficients)
        assert lasso.intercept == ols.intercept
        assert "singular_system" in ols.flags and "singular_system" in lasso.flags

    def test_univariate_subgradient_value(self):
        m = fit_penalized(UNI_PM, PenaltySpec.lasso(1.0))
        assert m.coefficients[0] == pytest.approx(0.75, abs=1e-10)

    def test_dead_zone_beyond_lambda_max(self):
        d = random_design(seed=9)
        lam_max = lasso_lambda_max(d)
        m = fit_penalized(d, PenaltySpec.lasso(lam_max * 1.0001))
        assert np.all(m.coefficients == 0.0)
        assert m.intercept == pytest.approx(float(d.y.mean()), abs=1e-12)

    def test_non_convergence_flagged(self, monkeypatch):
        # Every pattern solve raises, so both searches give up: the exact
        # search from the start, then the least-squares search from the
        # same start. The fit is the start, flagged.
        d, lam, start = duplicated_column_case()
        monkeypatch.setattr(regression, "_solve_pattern", lambda *args: None)
        searches = _searches(monkeypatch)
        m = fit_penalized(d, PenaltySpec.lasso(lam), start=start)
        assert [(exact, begin.tolist(), beta) for exact, begin, beta in searches] == [
            (True, start.tolist(), None), (False, start.tolist(), None)]
        assert not m.converged and m.flags == ("non_converged",)
        assert np.array_equal(m.coefficients, start)


class TestElasticNet:
    def test_lambda1_zero_equals_ridge(self):
        d = random_design(seed=11)
        ridge = fit_penalized(d, PenaltySpec.ridge(0.8))
        enet = fit_penalized(d, PenaltySpec.elastic_net(0.0, 0.8))
        assert enet.coefficients == pytest.approx(ridge.coefficients, abs=1e-8)

    def test_no_l1_weight_is_the_ridge_fit_bit_for_bit(self):
        # On the duplicated column at lam2 = 1e-8 a sign-pattern search can
        # stop on one copy carrying the whole weight, within the kkt_check
        # bound but not the ridge solution, which splits it.
        dup, _, _ = duplicated_column_case()
        for d, lam2 in ((dup, 1e-8), (dup, 0.8), (random_design(seed=13, n=9, p=4), 0.8)):
            ridge = fit_penalized(d, PenaltySpec.ridge(lam2))
            for spec in (PenaltySpec.elastic_net(0.0, lam2),
                         PenaltySpec.of("elastic_net", lam2, 0.0)):
                enet = fit_penalized(d, spec)
                assert np.array_equal(enet.coefficients, ridge.coefficients)
                assert enet.intercept == ridge.intercept

    def test_lambda2_zero_equals_lasso(self):
        d = random_design(seed=12)
        lasso = fit_penalized(d, PenaltySpec.lasso(0.3))
        enet = fit_penalized(d, PenaltySpec.elastic_net(0.3, 0.0))
        assert enet.coefficients == pytest.approx(lasso.coefficients, abs=1e-8)

    def test_univariate_closed_form(self):
        m = fit_penalized(UNI_PM, PenaltySpec.elastic_net(1.0, 1.0))
        assert m.coefficients[0] == pytest.approx(0.5, abs=1e-10)

    def test_spec_construction(self):
        spec = PenaltySpec.of("elastic_net", 2.0, 0.5)
        assert spec.lam1 == spec.lam2 == 1.0
        assert spec.alpha == 0.5 and spec.lam == 2.0
        with pytest.raises(RegressionError, match="alpha"):
            PenaltySpec.of("elastic_net", 1.0, 1.5)

    def test_spec_holds_only_its_kinds_weights(self):
        with pytest.raises(RegressionError, match="ridge penalty has no L1"):
            PenaltySpec("ridge", lam1=0.1, lam2=1.0)
        with pytest.raises(RegressionError, match="lasso penalty has no L2"):
            PenaltySpec("lasso", lam1=1.0, lam2=0.1)
        assert PenaltySpec.of("lasso", 1e-8, 0.5).to_dict() == {
            "kind": "lasso", "lambda": 1e-8, "lambda1": 1e-8, "lambda2": 0.0, "alpha": None}
        assert PenaltySpec.of("ridge", 0.3, 0.5).to_dict() == {
            "kind": "ridge", "lambda": 0.3, "lambda1": 0.0, "lambda2": 0.3, "alpha": None}
        assert PenaltySpec.of("elastic_net", 1e-8, 0.5).to_dict()["lambda"] == 1e-8

    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.7])
    def test_elastic_net_weights_sum_back_to_the_grid_value(self, alpha):
        """lam1 + lam2 is the grid value bit for bit, for one spec and for a
        whole grid, so the model's lambda is a row of its path and of the CV
        table."""
        from clusterreg.pipeline import _DEFAULT_L1_GRID

        specs = [PenaltySpec.of("elastic_net", lam, alpha) for lam in _DEFAULT_L1_GRID]
        assert [spec.lam for spec in specs] == _DEFAULT_L1_GRID
        lam1s, lam2s = regression._grid_weights("elastic_net", _DEFAULT_L1_GRID, alpha)
        assert list(zip(lam1s.tolist(), lam2s.tolist())) == [
            (spec.lam1, spec.lam2) for spec in specs]

    @pytest.mark.parametrize("alpha", [0, 0.1, 0.3, 0.5, 0.7, 1])
    def test_elastic_net_records_the_alpha_it_was_given(self, alpha):
        """An elastic net split by PenaltySpec.of reports the alpha it was
        given, as a float, not lam1 / lam: at 0, 0.5 and 1 the two are
        equal (so those models' bytes hold), at 0.1 they differ on the
        default grid. A spec built from its weights reports lam1 / lam, and
        a spec of another kind or of zero weight reports None."""
        from clusterreg.pipeline import _DEFAULT_L1_GRID

        specs = [PenaltySpec.of("elastic_net", lam, alpha) for lam in _DEFAULT_L1_GRID]
        assert {(spec.alpha, type(spec.alpha)) for spec in specs} == {(alpha, float)}
        ratios = {spec.lam1 / spec.lam for spec in specs}
        assert (ratios == {alpha}) == (alpha in (0, 0.5, 1))
        assert all(spec.to_dict()["alpha"] == alpha for spec in specs)
        assert PenaltySpec.elastic_net(1.0, 3.0).alpha == 0.25
        assert PenaltySpec.of("elastic_net", 0.0, alpha).alpha is None
        assert PenaltySpec("ridge", lam2=1.0, alpha=0.3).alpha is None


class TestKkt:
    def test_exact_univariate_solution(self):
        m = fit_penalized(UNI_PM, PenaltySpec.lasso(1.0))
        assert kkt_check(m, UNI_PM) < 1e-8

    def test_all_zero_beyond_lambda_max_has_zero_violation(self):
        d = random_design(seed=15)
        lam = lasso_lambda_max(d) * 1.01
        m = fit_penalized(d, PenaltySpec.lasso(lam))
        assert np.all(m.coefficients == 0.0)
        assert kkt_check(m, d) == 0.0

    def test_perturbed_solution_violates(self):
        d = random_design(seed=16)
        m = fit_penalized(d, PenaltySpec.lasso(0.1))
        bad = type(m)(
            intercept=m.intercept,
            coefficients=m.coefficients + 0.1,
            penalty=m.penalty,
            column_names=m.column_names,
        )
        assert kkt_check(bad, d) > 1e-3

    def test_model_of_another_width_rejected(self):
        d = random_design(seed=16)
        m = fit_penalized(d, PenaltySpec.lasso(0.1))
        wider = DesignMatrix(np.column_stack([d.x, d.x[:, 0]]), d.y, (*d.column_names, "extra"))
        with pytest.raises(RegressionError, match="^model and design have different regressor"):
            kkt_check(m, wider)

    def test_converged_fits_pass_within_ten_tol(self):
        rng = np.random.default_rng(77)
        for _ in range(25):
            x, y = random_instance(rng)
            d = DesignMatrix(x, y, tuple(f"c{j}" for j in range(x.shape[1])))
            lam1 = float(rng.uniform(0.0, 2.0))
            lam2 = float(rng.uniform(0.0, 2.0))
            for m in (fit_penalized(d, PenaltySpec.lasso(lam1)),
                      fit_penalized(d, PenaltySpec.elastic_net(lam1, lam2))):
                assert m.converged
                assert kkt_check(m, d) < 10 * 1e-10 * max(
                    1.0, float(np.abs(2 * d.x.T @ d.y).max()))

    @given(data=st.data(), n=st.integers(1, 6), p=st.integers(1, 4),
           kind=st.sampled_from([None, "ridge", "lasso", "elastic_net"]))
    @settings(max_examples=200, deadline=None)
    def test_equals_the_coordinate_loop(self, data, n, p, kind):
        cells = st.integers(-6, 6).map(lambda v: v / 4)
        x = np.array(data.draw(st.lists(st.lists(cells, min_size=p, max_size=p),
                                        min_size=n, max_size=n)))
        y = np.array(data.draw(st.lists(cells, min_size=n, max_size=n)))
        d = DesignMatrix(x, y, tuple(f"c{j}" for j in range(p)))
        beta = data.draw(st.lists(st.sampled_from([0.0, -0.0, 0.3, -1.7, 2.5]) | cells,
                                  min_size=p, max_size=p))
        weights = st.sampled_from([0.0, 0.5, 3.0]) | st.floats(0.0, 10.0)
        penalty = {None: lambda: None,
                   "ridge": lambda: PenaltySpec.ridge(data.draw(weights)),
                   "lasso": lambda: PenaltySpec.lasso(data.draw(weights)),
                   "elastic_net": lambda: PenaltySpec.elastic_net(data.draw(weights),
                                                                  data.draw(weights))}[kind]()
        m = LinearModel(data.draw(cells), np.array(beta), penalty, d.column_names)
        assert kkt_check(m, d) == kkt_loop(m, d)


class TestGridOracle:
    def test_solvers_match_brute_force_minimizer(self):
        rng = np.random.default_rng(123)
        for _ in range(12):
            x, y = random_instance(rng)
            d = DesignMatrix(x, y, tuple(f"c{j}" for j in range(x.shape[1])))
            lam = float(rng.uniform(0.01, 2.0))
            cases = [
                (fit_penalized(d, PenaltySpec.ridge(lam)), 0.0, lam),
                (fit_penalized(d, PenaltySpec.lasso(lam)), lam, 0.0),
                (fit_penalized(d, PenaltySpec.elastic_net(lam, 0.5 * lam)), lam, 0.5 * lam),
            ]
            for model, lam1, lam2 in cases:
                a, beta, value = enumerated_minimum(x, y, lam1, lam2)
                solver_value = penalized_objective(
                    x, y, model.intercept, model.coefficients, lam1, lam2)
                assert solver_value == pytest.approx(value, rel=1e-12)
                assert model.coefficients == pytest.approx(beta, abs=1e-9)
                assert model.intercept == pytest.approx(a, abs=1e-9)


class TestEnumeratedMinimum:
    """The oracle that the search is checked against, checked against
    closed forms."""

    def test_needs_a_penalty(self):
        with pytest.raises(ValueError, match="lam1 > 0 or lam2 > 0"):
            enumerated_minimum(UNI_X.x, UNI_X.y, 0.0, 0.0)

    @pytest.mark.parametrize("lam1", [0.0, 4.0, 28.0, 40.0])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_univariate_soft_threshold(self, lam1, sign):
        """x'x = x'y = 14: beta = sign*max(14 - lam1/2, 0)/(14 + lam2), zero
        from lam1 = 2*14 on."""
        lam2 = 0.5
        a, beta, value = enumerated_minimum(UNI_X.x, sign * UNI_X.y, lam1, lam2)
        want = sign * max(14.0 - 0.5 * lam1, 0.0) / (14.0 + lam2)
        assert beta == pytest.approx([want], abs=1e-15)
        assert a == pytest.approx(0.0, abs=1e-15)
        assert value == pytest.approx(
            penalized_objective(UNI_X.x, sign * UNI_X.y, 0.0, [want], lam1, lam2), rel=1e-15)

    def test_ridge_is_the_linear_solve(self):
        d = random_design(seed=4, n=9, p=3)
        lam2 = 0.7
        _, beta, _ = enumerated_minimum(d.x, d.y, 0.0, lam2)
        m = d.moments
        assert beta == pytest.approx(np.linalg.solve(m.gram + lam2 * np.eye(3), m.corr),
                                     rel=1e-12)

    def test_copied_column_lasso_reaches_the_single_column_minimum(self):
        """At lam2 = 0 a copied column makes every pattern holding both
        copies singular; those are skipped, and the minimum is the one
        column's: 14*b^2 - 28*b + lam1*|b| at b = 1 - lam1/28."""
        lam1 = 7.0
        x = np.column_stack([UNI_X.x[:, 0], UNI_X.x[:, 0]])
        _, beta, value = enumerated_minimum(x, UNI_X.y, lam1, 0.0)
        b = 1.0 - lam1 / 28.0
        assert beta.sum() == pytest.approx(b, rel=1e-15)
        assert value == pytest.approx(
            penalized_objective(UNI_X.x, UNI_X.y, 0.0, [b], lam1, 0.0), rel=1e-15)


class TestCrossValidate:
    def test_single_lambda_grid(self):
        d = random_design(seed=19, n=10)
        spec, table = cross_validate(d, "lasso", [0.25], folds=2)
        assert spec.lam == 0.25
        assert len(table) == 1

    def test_exact_sparse_truth_prefers_small_lambda(self):
        rng = np.random.default_rng(20)
        x = rng.normal(size=(12, 3))
        y = 2.0 * x[:, 0] - 1.0 * x[:, 2] + 0.5  # exact, support {0, 2}
        d = DesignMatrix(x, y, ("a", "b", "c"))
        grid = [1e-8, 1e-4, 1e-2, 1.0, 10.0]
        spec, table = cross_validate(d, "lasso", grid, folds=3)
        assert spec.lam == 1e-8
        m = fit_penalized(d, PenaltySpec.lasso(spec.lam))
        support = {i for i, b in enumerate(m.coefficients) if abs(b) > 1e-10}
        assert support == {0, 2}
        mses = dict(table)
        assert mses[1e-8] == min(mses.values())

    def test_tie_breaks_toward_larger_lambda(self):
        d = random_design(seed=21, n=10)
        lam_max = lasso_lambda_max(d)
        # both grid points sit past the dead zone: identical all-zero models
        spec, table = cross_validate(d, "lasso", [lam_max * 2, lam_max * 3], folds=2)
        assert spec.lam == lam_max * 3
        assert table[0][1] == table[1][1]

    def test_elastic_net_grid_uses_alpha_split(self):
        d = random_design(seed=22, n=10)
        spec, _ = cross_validate(d, "elastic_net", [1.0], folds=2, alpha=0.25)
        assert spec.lam1 == pytest.approx(0.25)
        assert spec.lam2 == pytest.approx(0.75)

    def test_preconditions(self):
        d = random_design(seed=23, n=4)
        with pytest.raises(RegressionError, match="^lambda grid is empty$"):
            cross_validate(d, "lasso", [], folds=2)
        with pytest.raises(RegressionError, match="^folds must be >= 2$"):
            cross_validate(d, "lasso", [0.1], folds=1)
        with pytest.raises(RegressionError, match="^need at least 5 samples for 5 folds, got 4$"):
            cross_validate(d, "lasso", [0.1], folds=5)

    def test_contiguous_blocks_used(self):
        # fold boundaries follow sample order: a time-ordered step target is
        # predicted well only when blocks are contiguous
        x = np.arange(10.0).reshape(-1, 1)
        y = np.arange(10.0)
        d = DesignMatrix(x, y, ("t",))
        spec, table = cross_validate(d, "ridge", [0.0], folds=5)
        assert table[0][1] == pytest.approx(0.0, abs=1e-18)


    @pytest.mark.parametrize("kind", ["ridge", "lasso", "elastic_net"])
    def test_moments_computed_once_per_fold_design(self, kind, monkeypatch):
        """Every fit of a fold reuses its design's centered Gram: the moments
        are computed once per fold, not once per grid value."""
        calls = []
        compute = regression._compute_moments

        def counted(d, *args):
            calls.append(d)
            return compute(d, *args)

        monkeypatch.setattr(regression, "_compute_moments", counted)
        d = random_design(seed=24, n=15, p=4)
        grid = [float(v) for v in np.logspace(-4, 1, 28)]
        cross_validate(d, kind, grid, folds=5)
        assert len(calls) == 5 and len({id(fold) for fold in calls}) == 5

    def test_shared_moments_are_read_only(self):
        d = random_design(seed=25)
        m = d.moments
        assert d.moments is m
        for a in (m.x_mean, m.xc, m.yc, m.gram, m.corr):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0


class TestIterateLambda:
    def test_dead_zone_tail_is_zero(self):
        d = random_design(seed=25)
        lam_max = lasso_lambda_max(d)
        grid = [0.001, 0.1, lam_max * 1.5, lam_max * 2.0]
        path = iterate_lambda(d, "lasso", grid)
        assert np.all(path.coefficient_matrix[2:] == 0.0)

    def test_path_equals_pointwise_refits(self):
        d = random_design(seed=26)
        grid = [0.01, 0.1, 1.0]
        path = iterate_lambda(d, "lasso", grid)
        for i, lam in enumerate(grid):
            one_off = fit_penalized(d, PenaltySpec.lasso(lam))
            assert np.array_equal(path.coefficient_matrix[i], one_off.coefficients)

    def test_ridge_grid_metrics_recorded(self):
        d = random_design(seed=27)
        grid = [0.0, 0.25, 0.5]
        path = iterate_lambda(d, "ridge", grid)
        assert len(path.r2) == 3
        assert path.r2[0] == max(path.r2)  # training fit degrades with lambda

    def test_grid_must_ascend(self):
        d = random_design(seed=28)
        with pytest.raises(RegressionError, match="ascending"):
            iterate_lambda(d, "lasso", [0.1, 0.1])
        with pytest.raises(RegressionError, match="^lambda grid is empty$"):
            iterate_lambda(d, "lasso", [])

    def test_csv_rows_shape(self):
        d = random_design(seed=29)
        path = iterate_lambda(d, "lasso", [0.1, 0.2])
        assert path.header() == ["lambda", "c0", "c1", "c2", "r2", "mse"]
        assert len(path.rows()) == 2 and len(path.rows()[0]) == 6


def _kkt_bound(d: DesignMatrix) -> float:
    return 10 * 1e-10 * max(1.0, float(np.abs(2 * d.x.T @ d.y).max()))


class TestWarmStart:
    def test_warm_path_rows_pass_kkt_and_match_cold_fits(self):
        rng = np.random.default_rng(2010)
        for _ in range(100):
            x, y = random_instance(rng)
            d = DesignMatrix(x, y, tuple(f"c{j}" for j in range(x.shape[1])))
            bound = _kkt_bound(d)
            lam_max = lasso_lambda_max(d)
            grid = np.geomspace(1e-4 * lam_max, 1.5 * lam_max, 12).tolist()
            for kind in ("lasso", "elastic_net"):
                path = iterate_lambda(d, kind, grid)
                for i, lam in enumerate(grid):
                    spec = PenaltySpec.of(kind, lam, 0.5)
                    beta = path.coefficient_matrix[i]
                    warm = LinearModel(float(d.y.mean() - d.x.mean(axis=0) @ beta), beta,
                                       spec, d.column_names)
                    assert kkt_check(warm, d) <= bound, (kind, lam)
                    cold = fit_penalized(d, spec)
                    assert np.abs(beta - cold.coefficients).max() <= bound, (kind, lam)

    def test_start_is_in_reported_coordinates(self, monkeypatch):
        # Started at its own solution, the search must accept it on its
        # first pattern solve, on columns whose scales span two orders of
        # magnitude.
        base = random_design(seed=31)
        d = DesignMatrix(base.x * [1.0, 10.0, 0.1], base.y, base.column_names)
        cold = fit_penalized(d, PenaltySpec.lasso(0.05))
        solves = _solves(monkeypatch)
        warm = fit_penalized(d, PenaltySpec.lasso(0.05), start=cold.coefficients)
        assert len(solves) == 1 and warm.converged
        assert np.abs(warm.coefficients - cold.coefficients).max() <= _kkt_bound(d)

    def test_constant_column_stays_zero_from_any_start(self):
        base = random_design(seed=33)
        x = base.x.copy()
        x[:, 1] = 4.0  # centers to a zero-norm column
        d = DesignMatrix(x, base.y, base.column_names)
        m = fit_penalized(d, PenaltySpec.lasso(0.05), start=np.array([0.0, 7.0, 0.0]))
        assert m.coefficients[1] == 0.0

    def test_start_shape_checked(self):
        d = random_design(seed=32)
        with pytest.raises(RegressionError, match="start"):
            fit_penalized(d, PenaltySpec.lasso(0.1), start=np.zeros(d.p + 1))

    def test_cv_table_equals_cold_reference(self, synthetic_case):
        from clusterreg.pipeline import prepare_inputs

        _, _, _, config = synthetic_case
        d = prepare_inputs(config).train_design
        grids = {"ridge": config.ridge_lambdas, "lasso": config.lasso_lambdas,
                 "elastic_net": config.enet_lambdas}
        blocks = np.array_split(np.arange(d.n), config.cv_folds)
        for kind, grid in grids.items():
            reference = []
            for lam in grid:
                fold_mse = []
                for block in blocks:
                    train = np.setdiff1d(np.arange(d.n), block)
                    model = fit_penalized(d.subset(train), PenaltySpec.of(kind, lam, 0.5))
                    fold_mse.append(compute_mse(d.y[block], predict(model, d.x[block])))
                reference.append((lam, float(np.mean(fold_mse))))
            _, table = cross_validate(d, kind, grid, folds=config.cv_folds)
            assert table == reference, kind


class TestGridSolver:
    @given(data=st.data(), n=st.integers(2, 20), p=st.integers(1, 5),
           kind=st.sampled_from(regression.PENALTY_KINDS),
           alpha=st.sampled_from([0.5, 1.0, 0.1, 0.0]))
    @settings(max_examples=200, deadline=None)
    def test_grid_fits_and_scores_equal_per_point_fits(self, data, n, p, kind, alpha):
        """The grid solver's coefficients, intercepts and flags, and the CV
        table and path scores computed from them for the whole grid at once,
        equal the per-point dispatch (warm_descent) at every grid value
        warm-started down the grid and scored by predict, compute_mse and fit_report, bit for bit, on
        designs with copied and zero-norm columns, grids that hold 0.0 and
        repeated values, and log-spaced grids of up to 28 values across
        lasso_lambda_max, whose small-lambda ends keep one sign pattern and
        are fitted by stacked solves."""
        cells = st.integers(-4, 4).map(lambda v: v / 2)
        x = np.array(data.draw(st.lists(st.lists(cells, min_size=p, max_size=p),
                                        min_size=n, max_size=n)))
        y = np.array(data.draw(st.lists(cells, min_size=n, max_size=n)))
        if data.draw(st.booleans()):  # inexact cells, where no solve is exact
            rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
            x += 0.1 * rng.normal(size=x.shape)
            y += 0.1 * rng.normal(size=n)
        for j in range(p):
            shape = data.draw(st.sampled_from(["free", "constant", "copy"]))
            if shape == "constant":
                x[:, j] = 1.5
            elif shape == "copy" and j:
                x[:, j] = -2 * x[:, data.draw(st.integers(0, j - 1))]
        d = DesignMatrix(x, y, tuple(f"c{j}" for j in range(p)))
        if data.draw(st.booleans()):
            shares = data.draw(st.lists(st.sampled_from([0.0, 1e-3, 0.05, 0.3, 1.0, 2.0]),
                                        min_size=1, max_size=6))
        else:
            shares = np.logspace(data.draw(st.sampled_from([0.5, 1.0])),
                                 data.draw(st.sampled_from([-3.0, -6.0, -8.0])),
                                 data.draw(st.integers(2, 28))).tolist()
        grid = [share * max(lasso_lambda_max(d), 1.0) for share in shares]

        models = warm_descent(d, kind, grid, alpha)
        weights = regression._grid_weights(kind, grid, alpha)
        coefs, intercepts, flags = regression._fit_grid(d, *weights)
        assert np.array_equal(coefs, [m.coefficients for m in models])
        assert np.array_equal(intercepts, [m.intercept for m in models])
        assert flags == [m.flags for m in models]

        folds = data.draw(st.integers(2, min(n, 5)))
        _, table = cross_validate(d, kind, grid, folds=folds, alpha=alpha)
        assert table == cv_table_loop(d, kind, grid, folds, alpha)

        path_grid = sorted(set(grid))
        if np.ptp(y) == 0.0:
            for path_of in (iterate_lambda, path_scores_loop):
                with pytest.raises(RegressionError, match="zero variance"):
                    path_of(d, kind, path_grid, alpha)
            return
        path = iterate_lambda(d, kind, path_grid, alpha)
        r2, mse = path_scores_loop(d, kind, path_grid, alpha)
        assert np.array_equal(path.r2, r2) and np.array_equal(path.mse, mse)

    @given(data=st.data(), n=st.integers(2, 12), p=st.integers(1, 5),
           kind=st.sampled_from(["lasso", "elastic_net"]),
           alpha=st.sampled_from([0.1, 0.5, 1.0]))
    @settings(max_examples=200, deadline=None)
    def test_fits_at_or_above_lambda_max_are_zero_in_closed_form(self, data, n, p, kind,
                                                                   alpha):
        """The leading fits with lam1 >= lasso_lambda_max are zero with no
        search, and equal the searched per-point fits bit for bit, with
        their intercepts: on designs with a zero-norm column, targets of
        -0.0 (whose mean is -0.0), grids holding lambda_max itself,
        lambda_max / alpha and repeated values. A grid wholly at or above
        lambda_max runs no search. fit_penalized, a one-point grid, fits
        such a point as the same zero with no search from a nonzero start
        too, where the per-point dispatch searched from that start."""
        cells = st.integers(-4, 4).map(lambda v: v / 2)
        x = np.array(data.draw(st.lists(st.lists(cells, min_size=p, max_size=p),
                                        min_size=n, max_size=n)))
        y = np.array(data.draw(st.lists(cells, min_size=n, max_size=n)))
        if data.draw(st.booleans()):
            rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
            x += 0.1 * rng.normal(size=x.shape)
            y += 0.1 * rng.normal(size=n)
        x[:, data.draw(st.integers(0, p - 1))] = data.draw(st.sampled_from([0.0, -0.0, 1.5]))
        if data.draw(st.integers(0, 5)) == 0:
            y = np.full(n, -0.0)
        d = DesignMatrix(x, y, tuple(f"c{j}" for j in range(p)))
        lam_max = lasso_lambda_max(d)
        scale = 1.0 if kind == "lasso" else 1.0 / alpha
        top = [lam_max, lam_max * scale, max(lam_max, 1e-3) * scale * 1.5]
        grid = data.draw(st.lists(st.sampled_from(top), min_size=1, max_size=4))
        below = data.draw(st.lists(st.sampled_from([1 - 1e-12, 0.99, 0.5, 1e-3, 0.0]),
                                   max_size=4))
        grid = data.draw(st.permutations(grid + [share * lam_max for share in below]))
        lam1s = [PenaltySpec.of(kind, lam, alpha).lam1 for lam in grid]

        start = np.array(data.draw(st.lists(st.sampled_from([-1.0, 0.5, 2.0]),
                                            min_size=p, max_size=p)))

        calls = []  # whether each search is exact: a retry is not one
        search = regression._feature_sign_search

        def exact_recorded(hess, corr, lam1, beta, bound, exact=True):
            calls.append(exact)
            return search(hess, corr, lam1, beta, bound, exact)

        recorded = mock.patch.object(regression, "_feature_sign_search", exact_recorded)
        with recorded:
            coefs, intercepts, flags = regression._fit_grid(
                d, *regression._grid_weights(kind, grid, alpha))
        if all(lam1 >= lam_max and lam1 > 0 for lam1 in lam1s):
            assert calls == []
        assert sum(calls) <= sum(0 < lam1 < lam_max for lam1 in lam1s)  # fits searched
        models = warm_descent(d, kind, grid, alpha)
        assert coefs.tobytes() == np.array([m.coefficients for m in models]).tobytes()
        assert intercepts.tobytes() == np.array([m.intercept for m in models]).tobytes()
        assert flags == [m.flags for m in models]
        for lam, lam1, beta, model in zip(grid, lam1s, coefs, models):
            if lam1 >= lam_max and lam1 > 0:
                assert not beta.any()
                calls.clear()
                with recorded:
                    fit = fit_penalized(d, PenaltySpec.of(kind, lam, alpha), start=start)
                assert calls == []
                assert not fit.coefficients.any()
                assert fit.coefficients.tobytes() == model.coefficients.tobytes()
                assert repr(fit.intercept) == repr(model.intercept)
                assert fit.flags == model.flags

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("x,y,moment", [
        # X'X overflows while X'y stays finite, on every fold design too
        ([[1e160, 1.0], [-1e160, 2.0], [3e159, -1.0]], [1e-160, -2e-160, 0.5], "X'X"),
        # a constant column centers to zero, but |2X'y|_inf of the
        # uncentered design overflows
        ([[1e160, 1.0], [1e160, 2.0], [1e160, -1.0]], [1e160, 2e160, 3e160], "X'y"),
    ])
    def test_a_design_whose_moments_overflow_is_refused(self, x, y, moment):
        """No fit's optimality can be tested where X'X, X'y or |2X'y|_inf
        is not finite: every fit on such a finite design raises, naming
        the moment, where a search on it once gave up into 100,000 sweeps
        of descent on not-a-number arithmetic."""
        d = DesignMatrix(np.array(x), np.array(y), ("a", "b"))
        message = f"^{moment} of the (centered )?design is not finite$"
        for fit in (lambda: regression._fit_grid(d, [1.0], [0.0]),
                    lambda: fit_penalized(d, PenaltySpec.lasso(1.0)),
                    lambda: fit_ols(d),
                    lambda: cross_validate(d, "lasso", [1.0], folds=3)):
            with pytest.raises(RegressionError, match=message):
                fit()

    @pytest.mark.parametrize("kind,grid,alpha,message", [
        ("lasso", [1.0, float("nan")], 0.5, "penalty weights must be finite and >= 0"),
        ("ridge", [-1.0, 1.0], 0.5, "penalty weights must be finite and >= 0"),
        ("elastic_net", [1.0, float("inf")], 0.5, "penalty weights must be finite and >= 0"),
        ("elastic_net", [1.0, float("inf")], 0.0, "penalty weights must be finite and >= 0"),
        ("elastic_net", [-2.0, 1.0], 1.0, "penalty weights must be finite and >= 0"),
        ("elastic_net", [1.0], 1.5, "alpha must be in [0, 1]"),
        ("elastic_net", [float("nan")], float("nan"), "alpha must be in [0, 1]"),
        ("lars", [1.0], 0.5, "unknown penalty kind 'lars'"),
        ("lars", [float("nan")], 0.5, "unknown penalty kind 'lars'"),
        ("lars", [1.0], -0.5, "alpha must be in [0, 1]"),
    ])
    def test_grid_checks_raise_the_penalty_spec_errors_first(self, kind, grid, alpha, message):
        """A grid is checked once, as a whole, with the messages and in the
        order that PenaltySpec.of checks its values one by one."""
        with pytest.raises(RegressionError) as one_by_one:
            for lam in grid:
                PenaltySpec.of(kind, lam, alpha)
        assert str(one_by_one.value) == message
        d = random_design(seed=3, n=10)
        for fit_grid in (lambda: cross_validate(d, kind, grid, 2, alpha),
                         lambda: iterate_lambda(d, kind, grid, alpha)):
            with pytest.raises(RegressionError) as raised:
                fit_grid()
            assert str(raised.value) == message

    def test_singular_ridge_system_names_its_weight(self):
        """X'X + lam2*I of a copied column scaled by 1e10 is singular in
        floating point at a small lam2, and fine at a large one: the single
        and the stacked solve raise a RegressionError naming the singular
        weight, which the pipeline's stages report, not numpy's
        LinAlgError."""
        rng = np.random.default_rng(0)
        x = rng.normal(size=(8, 3)) * 1e10
        d = DesignMatrix(np.column_stack([x, x[:, 0]]), rng.normal(size=8), tuple("abcd"))
        message = r"X'X \+ lam2\*I is singular at lam2 = 0\.01$"
        with pytest.raises(RegressionError, match=message):
            fit_penalized(d, PenaltySpec.ridge(0.01))
        with pytest.raises(RegressionError, match=message):
            cross_validate(d, "ridge", [1e12, 0.01], folds=2)
        with pytest.raises(RegressionError, match=message):
            iterate_lambda(d, "ridge", [0.01, 1e12])
        assert iterate_lambda(d, "ridge", [1e12]).coefficient_matrix.shape == (1, 4)


def _searches(monkeypatch) -> list[tuple]:
    """Record (exact, start, result or None) of every feature-sign search
    from now on: the exact search of each searched fit, and each
    least-squares retry after it."""
    searches: list[tuple] = []
    search = regression._feature_sign_search

    def recorded(hess, corr, lam1, beta, bound, exact=True):
        result = search(hess, corr, lam1, beta, bound, exact)
        searches.append((exact, beta.copy(), result))
        return result

    monkeypatch.setattr(regression, "_feature_sign_search", recorded)
    return searches


def _solves(monkeypatch) -> list[tuple]:
    """Record (active, signs, exact, solution or None) of every sign-pattern
    solve."""
    solves: list[tuple] = []
    solve = regression._solve_pattern

    def recorded(hess, corr, lam1, active, signs, exact=True):
        b = solve(hess, corr, lam1, active, signs, exact)
        solves.append((active.tolist(), signs, exact, b))
        return b

    monkeypatch.setattr(regression, "_solve_pattern", recorded)
    return solves


# The exact solve on the sign pattern (+, -, -, +) gives column 2 a positive
# coefficient.
WRONG_SIGN_X = np.array([
    [2.8, 2.3, 2.0, -0.6], [0.6, 0.4, 0.4, -0.3], [-0.8, -2.0, -1.7, 1.4],
    [0.5, -3.2, -3.0, 3.3], [-1.8, -3.8, -3.4, 2.4], [-1.3, -2.8, -2.6, 1.9],
    [0.4, -1.0, -1.1, 1.2], [0.8, -2.5, -2.6, 2.7],
])
WRONG_SIGN_Y = np.array([1.2, 1.3, 0.7, 2.2, 0.6, 0.4, 0.5, 2.3])


def duplicated_column_case():
    """A duplicated integer column, a lasso weight and a start that splits
    the weight over both copies. The centered Gram is exact, so G_AA of the
    start's pattern has two equal rows and is exactly singular."""
    a = np.array([3.0, -1.0, 2.0, 0.0, -2.0, 1.0, 4.0, -3.0])
    b = np.array([1.0, 2.0, -1.0, 0.0, 3.0, -2.0, 1.0, 0.0])
    y = 0.7 * a - 0.4 * b + np.array([0.1, -0.2, 0.05, 0.3, -0.1, 0.0, 0.2, -0.15])
    d = DesignMatrix(np.column_stack([a, a, b]), y, ("a", "a2", "b"))
    lam = 0.1 * lasso_lambda_max(d)
    return d, lam, fit_penalized(d, PenaltySpec.lasso(lam)).coefficients[[0, 0, 2]] / 2


class TestActiveSetSearch:
    def test_hess_turns_a_negative_zero_positive_at_lam2_zero(self):
        m = random_design().moments
        m = m._replace(gram=np.array([[-0.0, -0.0], [2.0, -0.0]]))
        hess = regression._hess(m, 0.0)
        assert hess.tolist() == [[0.0, 0.0], [2.0, 0.0]]
        assert not np.signbit(hess).any()

    def test_hess_of_a_stack_is_each_weights_hess_bit_for_bit(self):
        m = random_design(seed=2, n=7, p=3).moments
        lam2 = np.array([0.0, 1e-3, 0.25, 3.0])
        stacked = regression._hess(m, lam2[:, None, None])
        assert stacked.shape == (4, 3, 3)
        for one, lam in zip(stacked, lam2):
            assert one.tobytes() == regression._hess(m, float(lam)).tobytes()

    def test_pattern_test_subtracts_the_slack_only_after_a_positive_excess(self):
        """H = 2I, c = (1, 0.5), pattern (+, 0): column 1's |g_1| = 1, so
        its excess |g_1| - lam1 is 0 at lam1 = 1 and returned as it is, and
        0.5 at lam1 = 0.5, less the slack 8*p*eps*(|c_1| + |H_1||x|)."""
        hess, corr = 2.0 * np.eye(2), np.array([1.0, 0.5])
        theta, active = np.array([1.0, 0.0]), np.array([0])
        for lam1, excess_1, passes in [(1.0, 0.0, True),
                                       (0.5, 0.5 - 8.0 * 2 * regression._EPS * 0.5, False)]:
            b = np.array([(1.0 - 0.5 * lam1) / 2.0])
            x, ok, g, excess = regression._pattern_test(hess, corr, lam1, theta, active, b, 1e-12)
            assert x.tolist() == [b[0], 0.0] and g[1] == -1.0
            assert excess[0] == -np.inf and excess[1] == excess_1
            assert bool(ok) is passes

    def test_wrong_sign_pattern_is_repaired_without_a_retry(self, monkeypatch):
        d = DesignMatrix(WRONG_SIGN_X, WRONG_SIGN_Y, ("a", "b", "c", "d"))
        lam = 0.1 * lasso_lambda_max(d)
        cold = fit_penalized(d, PenaltySpec.lasso(lam))
        solves = _solves(monkeypatch)
        searches = _searches(monkeypatch)
        m = fit_penalized(d, PenaltySpec.lasso(lam), start=np.array([0.43, -0.18, -0.01, 0.12]))
        _, signs, _, b = solves[0]
        assert np.all(signs == [1, -1, -1, 1]) and np.any(b * signs <= 0)  # breaks a sign
        assert m.converged and kkt_check(m, d) <= _kkt_bound(d)
        assert [exact for exact, _, _ in searches] == [True]  # the search repairs the pattern
        assert np.array_equal(m.coefficients, cold.coefficients)
        assert m.intercept == cold.intercept
        assert m.coefficients[2] == 0.0 and m.coefficients[3] == 0.0

    def test_collinear_design_solved_exactly(self, monkeypatch):
        # Columns c and d are -2 times column b, so every pattern holding b
        # and c has a singular G_AA. The search from zero takes in one
        # column at a time and reaches the enumerated minimum.
        x = np.array([[0.5, 1.5, -3.0, -3.0], [-2.0, -0.5, 1.0, 1.0],
                      [-2.0, -1.5, 3.0, 3.0], [1.0, 2.0, -4.0, -4.0]])
        d = DesignMatrix(x, np.array([0.0, -1.5, 1.5, 1.0]), ("a", "b", "c", "d"))
        lam = 0.01 * lasso_lambda_max(d)
        searches = _searches(monkeypatch)
        m = fit_penalized(d, PenaltySpec.lasso(lam))
        assert [exact for exact, _, _ in searches] == [True]
        assert m.converged and kkt_check(m, d) <= _kkt_bound(d)
        assert m.coefficients[1] == 0.0 and m.coefficients[3] == 0.0
        f = penalized_objective(d.x, d.y, m.intercept, m.coefficients, lam, 0.0)
        f_min = enumerated_minimum(d.x, d.y, lam, 0.0)[2]
        assert f <= f_min + 1e-12 * max(1.0, f_min)

    def test_singular_active_gram_is_finished_by_the_least_squares_retry(self, monkeypatch):
        """The exact search gives up on the split start, whose H_AA is
        singular. The retry from the same start solves that pattern by
        minimum-norm least squares, which splits the weight equally over the
        copies, and passes."""
        d, lam, start = duplicated_column_case()
        solves = _solves(monkeypatch)
        searches = _searches(monkeypatch)
        m = fit_penalized(d, PenaltySpec.lasso(lam), start=start)
        assert any(active == [0, 1, 2] and exact and b is None for active, _, exact, b in solves)
        assert [(exact, beta is None) for exact, _, beta in searches] == [(True, True),
                                                                          (False, False)]
        assert m.converged and kkt_check(m, d) <= _kkt_bound(d)
        assert m.coefficients == pytest.approx([0.3455, 0.3455, -0.2443], abs=1e-4)
        assert m.coefficients[0] == pytest.approx(m.coefficients[1], rel=1e-12)

    def test_collinear_corpus_fits_pass_the_kkt_bound(self, monkeypatch):
        """Two lasso grids of the seed-15 collinear corpus
        (oracles.collinear_designs), where coordinate descent, the fallback
        before the least-squares retry, left 5 fits 'non_converged' and
        outside the kkt_check bound (the worst at 69.9 times it): design 13
        at lam2 = 0 and design 35 at lam2 = 1e-6 max diag(X'X). The exact
        search gives up on 21 fits of design 13 and on one of design 35, and
        the retry from the start finishes each; on design 35 only because a
        tie in _line_search takes the step that zeroes a coefficient at no
        cost. Every fit is unflagged and within the bound."""
        designs = collinear_designs(15, 36)
        for index, grid in ((13, 0), (35, 1)):
            d = designs[index]
            lam1s, lam2s = collinear_grid(d)[grid]
            coefs, intercepts, flags = regression._fit_grid(d, lam1s, lam2s)
            assert flags == [()] * 28
            for lam1, lam2, beta, intercept in zip(lam1s, lam2s, coefs, intercepts):
                m = LinearModel(intercept, beta, PenaltySpec.elastic_net(lam1, lam2),
                                d.column_names)
                assert kkt_check(m, d) <= _kkt_bound(d), (index, lam1)
            searches = _searches(monkeypatch)
            regression._fit_grid(d, lam1s, lam2s)
            monkeypatch.undo()
            retries = [(beta.any(), result is None) for exact, beta, result in searches
                       if not exact]
            assert retries == [(True, False)] * (21 if index == 13 else 1)

    def test_scaled_collinear_fits_are_finished_by_the_least_squares_step(self):
        """Design 43 of the seed-19 collinear corpus, its columns scaled by
        10^U(-3, 3), on the lam2 = 0 grid. At grid points 23-27 the
        least-squares search solves a pattern whose result keeps its signs
        but fails only stationarity: no b solves H_AA b = rhs. It gave up
        there, and those fits came back flagged at up to 7,960 times the
        kkt_check bound. Stepping along r = rhs - H_AA b finishes each, and
        every fit is well within the bound."""
        d = collinear_designs(19, 44)[43]
        scales = 10 ** np.random.default_rng(1019).uniform(-3, 3, (44, 16))[43]
        d = DesignMatrix(d.x * scales, d.y, d.column_names)
        lam1s, lam2s = collinear_grid(d)[0]
        coefs, intercepts, flags = regression._fit_grid(d, lam1s, lam2s)
        assert flags == [()] * 28
        for lam1, beta, intercept in zip(lam1s, coefs, intercepts):
            m = LinearModel(intercept, beta, PenaltySpec.lasso(lam1), d.column_names)
            assert kkt_check(m, d) <= 1e-3 * _kkt_bound(d), lam1

    @pytest.mark.parametrize("x,y,lam,want,searches", [
        # The centered design has rank 2 and a zero first column. The exact
        # search gives up on a singular H_AA; the least-squares search meets
        # a solve that fails only stationarity and steps along its residual.
        ([[0, 0, 0.5, 0], [0, 1, 0, 0], [0, -1, -1, 1.5]], [0, 0, 0.5], 0.25,
         [0.0, 0.0, 0.0, 0.25], [(True, True), (False, False)]),
        # X'X has eigenvalues 0.149 and 5.02; the exact search needs 5
        # steps, one more than the 2p step cap the search once had.
        ([[-0.5, -1.5], [1, -1.5], [-2, -0.5]], [0, 1, 1.5], 0.4,
         [0.08888888888888889, 0.9], [(True, False)]),
    ], ids=["rank-2", "five-steps"])
    def test_tiny_lassos_are_finished(self, monkeypatch, x, y, lam, want, searches):
        """Two tiny lasso fits that the three searches with a 2p step cap
        each gave up on, returning zeros flagged 'non_converged' at
        kkt_check 0.75 and 1.1."""
        d = DesignMatrix(np.array(x, dtype=float), np.array(y, dtype=float),
                         tuple(f"c{j}" for j in range(len(x[0]))))
        recorded = _searches(monkeypatch)
        m = fit_penalized(d, PenaltySpec.lasso(lam))
        assert [(exact, beta is None) for exact, _, beta in recorded] == searches
        assert m.converged and kkt_check(m, d) <= _kkt_bound(d)
        assert m.coefficients == pytest.approx(want, abs=1e-12)

    def test_copies_share_the_weight_at_a_tiny_l2_weight(self):
        # The grouping effect (Zou & Hastie 2005, Theorem 1): at any lam2 > 0
        # a copied column gets its copy's weight. At lam2 = 1e-8 the inactive
        # copy's |g_j| - lam1 = 2*lam2*|beta| is far inside the kkt_check
        # bound, so only an inactive test at rounding level catches it.
        d, lam, _ = duplicated_column_case()
        lam2 = 1e-8
        m = fit_penalized(d, PenaltySpec.elastic_net(lam, lam2))
        assert np.all(m.coefficients != 0.0)
        xc = d.x - d.x.mean(axis=0)
        cond = np.linalg.cond(xc.T @ xc + lam2 * np.eye(d.p))
        split = abs(m.coefficients[0] - m.coefficients[1])
        assert split <= cond * np.finfo(float).eps * np.linalg.norm(m.coefficients)
        assert kkt_check(m, d) <= _kkt_bound(d)

    def test_search_gives_up_when_only_stationarity_fails(self, monkeypatch):
        # Every pattern solve is scaled off its stationary point: its signs
        # hold and no inactive coordinate violates, so no repair applies.
        d = DesignMatrix(WRONG_SIGN_X, WRONG_SIGN_Y, ("a", "b", "c", "d"))
        lam = 0.1 * lasso_lambda_max(d)
        beta = fit_penalized(d, PenaltySpec.lasso(lam)).coefficients
        solve = regression._solve_pattern
        monkeypatch.setattr(regression, "_solve_pattern", lambda *args: 1.001 * solve(*args))
        m = d.moments
        assert regression._feature_sign_search(regression._hess(m, 0.0), m.corr, lam, beta,
                                               _kkt_bound(d)) is None

    @given(data=st.data(), n=st.integers(3, 20), p=st.integers(1, 16))
    @settings(max_examples=300, deadline=None)
    def test_search_and_stacked_run_match_the_reference(self, data, n, p):
        """The search returns the reference search's None or coefficients,
        bit for bit, and the stacked run of kept patterns keeps the
        reference's rows, on designs with copied and near-constant columns
        of magnitudes from 1e-150 to 1e150, at lam2 = 0 and lam2 > 0, from
        starts of random sign patterns and from the search's own answer."""
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        x = rng.normal(size=(n, p))
        for j in range(p):
            shape = data.draw(st.sampled_from(["free", "copy", "near-constant"]))
            if shape == "copy" and j:
                x[:, j] = data.draw(st.sampled_from([1.0, -2.0])) * x[:, rng.integers(j)]
            elif shape == "near-constant":
                x[:, j] = 1.5 + 1e-9 * rng.normal(size=n)
        scales = 10.0 ** np.array(data.draw(st.lists(st.integers(-150, 150), min_size=p + 1,
                                                     max_size=p + 1)), dtype=float)
        x *= scales[:p]
        y = scales[p] * (x[:, :1] @ rng.normal(size=1) / scales[0] + rng.normal(size=n))
        d = DesignMatrix(x, y, tuple(f"c{j}" for j in range(p)))
        try:
            m = d.moments
        except RegressionError:  # X'X or X'y overflows: no fit is made
            return
        lam_max = lasso_lambda_max(d)
        lam1 = lam_max * data.draw(st.sampled_from([1e-6, 1e-3, 0.1, 0.5, 0.999, 1.0, 2.0]))
        if not lam1 > 0.0:
            return
        diag = float(m.gram.diagonal().max())
        lam2 = diag * data.draw(st.sampled_from([0.0, 0.0, 1e-12, 1e-6, 1e-2, 1.0]))
        theta = np.array(data.draw(st.lists(st.sampled_from([-1.0, 0.0, 1.0]), min_size=p,
                                            max_size=p)))
        start = theta * (scales[p] / scales[:p]) * 10.0 ** rng.uniform(-3, 1, size=p)
        hess = regression._hess(m, lam2)
        bound = regression._bound(m)
        with np.errstate(all="ignore"):
            got = regression._feature_sign_search(hess, m.corr, lam1, start, bound)
            want = reference_search(hess, m.corr, lam1, start, bound)
            assert (got is None) == (want is None)
            if got is not None:
                assert got.tobytes() == want.tobytes()
                start = got
            shares = np.array(data.draw(st.lists(st.sampled_from([1.0, 0.9, 0.5, 1e-3]),
                                                 min_size=1, max_size=5)))
            lam1s, lam2s = lam1 * np.cumprod(shares), lam2 * np.cumprod(shares)
            got = regression._kept_pattern_fits(m, lam1s, lam2s, start, bound)
            want = reference_kept_pattern_fits(m, lam1s, lam2s, start, bound)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_search_gives_up_on_a_repeated_pattern_and_the_retry_finishes_the_fit(
            self, monkeypatch):
        """A near-copied column (a 1e-9 perturbation) on a warm lasso path:
        the largest weight is lasso_lambda_max, whose fit is zero in closed
        form with no search; from the third weight down, each exact search
        cycles back to a sign pattern it has seen (a line trace shows that
        exit, and no other, for all 26), and the search with least-squares
        pattern solves from the same start finishes the fit. No exact
        pattern solve is singular, and every exact search ends within 2p
        steps."""
        rng = np.random.default_rng(1)
        n, p = rng.integers(6, 16), rng.integers(3, 9)
        x = rng.normal(size=(n, p))
        x[:, 1] = x[:, 0] + 1e-9 * rng.normal(size=n)
        y = x @ rng.normal(size=p) + 0.1 * rng.normal(size=n)
        d = DesignMatrix(x, y, tuple(f"c{j}" for j in range(p)))
        assert (n, p) == (10, 6)
        grid = sorted((lasso_lambda_max(d) * np.logspace(0, -6, 28)).tolist())
        solves = _solves(monkeypatch)
        searches: list[tuple[bool, bool, int]] = []
        search = regression._feature_sign_search

        def recorded(hess, corr, lam1, beta, bound, exact=True):
            before = len(solves)
            result = search(hess, corr, lam1, beta, bound, exact)
            searches.append((exact, result is None, len(solves) - before))
            return result

        monkeypatch.setattr(regression, "_feature_sign_search", recorded)
        coefs, intercepts, flags = regression._fit_grid(d, grid, np.zeros(len(grid)))
        assert [(exact, gave_up) for exact, gave_up, _ in searches] == (
            [(True, False)] + [(True, True), (False, False)] * 26)
        assert all(0 < count < 2 * p for exact, _, count in searches if exact)
        assert all(b is not None for _, _, exact, b in solves if exact)
        assert flags == [()] * len(grid)
        for lam, beta, intercept in zip(grid, coefs, intercepts):
            m = LinearModel(intercept, beta, PenaltySpec.lasso(lam), d.column_names)
            assert kkt_check(m, d) <= _kkt_bound(d)

    @given(data=st.data(), n=st.integers(3, 8), p=st.integers(1, 5),
           lam_share=st.floats(0.001, 1.2), alpha=st.sampled_from([1.0, 0.5, 0.1]))
    @settings(max_examples=150, deadline=None)
    def test_reaches_the_enumerated_minimum(self, data, n, p, lam_share, alpha):
        """On small designs with constant, copied and summed columns, the
        search's fit meets the kkt_check bound, and its objective f is the
        enumerated minimum f* (oracles.py) up to rounding: f* <= f, and,
        with eps the fit's KKT residual, convexity bounds f - f* by
        eps * |beta - beta*|_1."""
        cells = st.integers(-4, 4).map(lambda v: v / 2)
        x = np.array(data.draw(st.lists(st.lists(cells, min_size=p, max_size=p),
                                        min_size=n, max_size=n)))
        for j in range(p):
            shape = data.draw(st.sampled_from(["free", "constant", "copy", "sum"]))
            if shape == "constant":
                x[:, j] = 1.5
            elif shape == "copy" and j:
                x[:, j] = -2 * x[:, data.draw(st.integers(0, j - 1))]
            elif shape == "sum" and j > 1:
                x[:, j] = x[:, 0] + x[:, 1]
        y = np.array(data.draw(st.lists(cells, min_size=n, max_size=n)))
        d = DesignMatrix(x, y, tuple(f"c{j}" for j in range(p)))
        spec = PenaltySpec.of("elastic_net", lam_share * max(lasso_lambda_max(d), 1.0), alpha)
        m = fit_penalized(d, spec)
        eps = kkt_check(m, d)
        assert m.converged and eps <= _kkt_bound(d)
        lam1, lam2 = spec.lam1, spec.lam2
        f = penalized_objective(d.x, d.y, m.intercept, m.coefficients, lam1, lam2)
        _, beta, f_min = enumerated_minimum(d.x, d.y, lam1, lam2)
        assert f_min <= f + 1e-12 * max(1.0, f)
        gap = np.abs(m.coefficients - beta).sum()
        assert f - f_min <= eps * gap + 1e-12 * max(1.0, f_min)

    def test_pipeline_sweep_total_on_seed_2024(self, synthetic_case, monkeypatch):
        """A machine-independent guard on solver work: the exact search
        accepts every lasso and elastic-net fit it runs, so no least-squares
        retry runs. The fits at lam1 >= lasso_lambda_max are zero in closed
        form, and once two fits in a row keep their start's sign pattern,
        the grid solver fits the steady run that follows in one stacked
        solve, so 134 of the run's 338 lasso and elastic-net fits run a
        search."""
        from clusterreg.pipeline import run_pipeline

        _, _, _, config = synthetic_case
        searches = _searches(monkeypatch)
        run_pipeline(config)
        assert [(exact, beta is not None) for exact, _, beta in searches] == [(True, True)] * 134


class TestMetrics:
    def test_perfect_fit(self):
        y = np.array([1.0, 2.0, 3.0])
        assert compute_mse(y, y) == 0.0
        assert compute_r2(y, y) == 1.0

    def test_null_model_r2_zero(self):
        y = np.array([1.0, 2.0, 3.0])
        y_hat = np.full(3, y.mean())
        assert compute_r2(y, y_hat) == pytest.approx(0.0, abs=1e-15)

    def test_seven_of_sixteen_sparsity(self):
        beta = np.zeros(16)
        beta[[2, 8, 9, 10, 13, 14, 15]] = [0.28, 0.12, 0.17, 0.02, 0.09, 0.0005, 0.35]
        m = fit_ols(random_design(seed=30, n=20, p=16))
        m = type(m)(intercept=0.0, coefficients=beta, penalty=None,
                    column_names=m.column_names)
        assert compute_sparsity(m) == 0.4375

    def test_zero_variance_target_errors(self):
        with pytest.raises(RegressionError, match="zero variance"):
            compute_r2([2.0, 2.0], [1.0, 3.0])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(31)
        y = rng.normal(size=9)
        y_hat = rng.normal(size=9)
        perm = rng.permutation(9)
        assert compute_mse(y, y_hat) == pytest.approx(compute_mse(y[perm], y_hat[perm]))
        assert compute_r2(y, y_hat) == pytest.approx(compute_r2(y[perm], y_hat[perm]))

    def test_length_mismatch(self):
        with pytest.raises(RegressionError):
            compute_mse([1.0], [1.0, 2.0])

    def test_empty_mse_raises_before_numpy_warns(self):
        with pytest.raises(RegressionError, match="empty"):
            compute_mse([], [])

    def test_empty_r2_raises_before_numpy_warns(self):
        with pytest.raises(RegressionError, match="empty"):
            compute_r2([], [])

    @given(data=st.data(), n=st.integers(1, 300), scale=st.sampled_from([1e-150, 1.0, 1e150]))
    @settings(max_examples=300, deadline=None)
    def test_mse_is_np_mean_bit_for_bit(self, data, n, scale):
        """n from 1 to 300 crosses the 8-wide unrolled loop and the
        128-element blocks of numpy's pairwise summation."""
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        y = scale * rng.normal(size=n)
        y_hat = y + scale * rng.normal(size=n) * rng.choice([0.0, 1e-8, 1.0], size=n)
        expected = float(np.mean((y - y_hat) ** 2))
        assert compute_mse(y, y_hat).hex() == expected.hex()
        assert compute_mse(list(y), y_hat[:, None]).hex() == expected.hex()


class TestPredict:
    def test_zero_model(self):
        d = random_design(seed=33)
        m = fit_ols(d)
        zero = type(m)(intercept=0.0, coefficients=np.zeros(d.p), penalty=None,
                       column_names=m.column_names)
        assert np.all(predict(zero, d.x) == 0.0)

    def test_width_mismatch(self):
        d = random_design(seed=34)
        m = fit_ols(d)
        with pytest.raises(RegressionError, match="width"):
            predict(m, np.ones((2, d.p + 1)))

    def test_rows_are_read_as_before(self):
        """A 1-D row is one row, a list of lists is a matrix, and a wrong
        width names both widths: the output of the 2-D reference form."""
        d = random_design(seed=36, p=3)
        m = fit_ols(d)

        def reference(x_new):
            return m.intercept + np.atleast_2d(np.asarray(x_new, dtype=float)) @ m.coefficients

        for x_new in ([0.5, -1.0, 2.0], [[0.5, -1.0, 2.0], [1, 2, 3]], d.x, d.x[:1]):
            out, expected = predict(m, x_new), reference(x_new)
            assert out.shape == expected.shape and out.tobytes() == expected.tobytes()
        assert predict(m, [0.5, -1.0, 2.0]).shape == (1,)
        for x_new, width in (([1.0, 2.0], 2), (np.ones((2, 4)), 4), ([[1.0] * 5], 5)):
            with pytest.raises(RegressionError) as err:
                predict(m, x_new)
            assert str(err.value) == f"prediction rows have width {width}, model expects 3"

    def test_training_predictions_match_report(self):
        d = random_design(seed=35)
        m = fit_penalized(d, PenaltySpec.ridge(0.2))
        report = fit_report(m, d)
        again = predict(m, d.x)
        assert np.array_equal(report.y_hat, again)


class TestInvariants:
    def test_boundary_reductions_random_corpus(self):
        rng = np.random.default_rng(40)
        for _ in range(15):
            x, y = random_instance(rng)
            d = DesignMatrix(x, y, tuple(f"c{j}" for j in range(x.shape[1])))
            lam = float(rng.uniform(0.05, 1.5))
            ols = fit_ols(d)

            def beta(spec):
                return fit_penalized(d, spec).coefficients

            assert beta(PenaltySpec.lasso(0.0)) == pytest.approx(ols.coefficients, abs=1e-8)
            assert beta(PenaltySpec.ridge(0.0)) == pytest.approx(ols.coefficients, abs=1e-8)
            assert beta(PenaltySpec.elastic_net(0.0, lam)) == pytest.approx(
                beta(PenaltySpec.ridge(lam)), abs=1e-8)
            assert beta(PenaltySpec.elastic_net(lam, 0.0)) == pytest.approx(
                beta(PenaltySpec.lasso(lam)), abs=1e-8)

    def test_ols_r2_dominates_penalized(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            x, y = random_instance(rng)
            d = DesignMatrix(x, y, tuple(f"c{j}" for j in range(x.shape[1])))
            r2_ols = fit_report(fit_ols(d), d).r2
            for lam in (0.01, 0.5, 5.0):
                assert fit_report(fit_penalized(d, PenaltySpec.ridge(lam)), d).r2 <= r2_ols + 1e-10
                assert fit_report(fit_penalized(d, PenaltySpec.lasso(lam)), d).r2 <= r2_ols + 1e-10

    def test_converged_is_read_from_the_flags(self):
        m = fit_ols(random_design(seed=46))
        assert m.converged and m.to_dict()["converged"] is True
        stalled = dataclasses.replace(m, flags=("non_converged",))
        assert not stalled.converged and stalled.to_dict()["converged"] is False
        with pytest.raises(TypeError):
            LinearModel(0.0, [1.0], None, ("x",), converged=False)

    def test_fit_penalized_dispatch(self):
        d = random_design(seed=43)
        m = fit_penalized(d, PenaltySpec.ridge(0.3))
        assert m.penalty.kind == "ridge"
        m = fit_penalized(d, PenaltySpec.elastic_net(0.1, 0.2))
        assert m.penalty.kind == "elastic_net"

    def test_solver_settings_checked_for_every_kind(self):
        d = random_design(seed=45, n=10, p=3)
        for spec in (PenaltySpec.ridge(0.5), PenaltySpec.ridge(0.0), PenaltySpec.lasso(0.5),
                     PenaltySpec.elastic_net(0.0, 0.5)):
            with pytest.raises(RegressionError, match="start"):
                fit_penalized(d, spec, start=np.zeros(d.p + 1))

    @pytest.mark.parametrize("option", [{"max_iter": 100_000}, {"tol": 1e-10}],
                             ids=["max_iter", "tol"])
    @pytest.mark.parametrize("fit", [
        lambda d, option: fit_penalized(d, PenaltySpec.lasso(0.5), **option),
        lambda d, option: cross_validate(d, "lasso", [0.5], 2, **option),
        lambda d, option: iterate_lambda(d, "lasso", [0.5], **option),
    ], ids=["fit_penalized", "cross_validate", "iterate_lambda"])
    def test_the_sweep_cap_is_not_an_option(self, fit, option):
        """No fit takes a max_iter or a tol keyword: the search and its
        retry each end on a sign pattern seen before, if not sooner, so
        there is no step cap to set, and every fit is accepted within the
        bound of the fixed regression.TOL."""
        with pytest.raises(TypeError, match=next(iter(option))):
            fit(random_design(seed=45, n=10, p=3), option)

    def test_non_finite_solver_input_rejected(self):
        # A NaN weight once passed the sign check.
        for lam in (np.nan, np.inf, -np.inf, -1.0):
            with pytest.raises(RegressionError, match="penalty weights must be finite"):
                PenaltySpec.lasso(lam)
            with pytest.raises(RegressionError, match="penalty weights must be finite"):
                PenaltySpec.elastic_net(0.5, lam)


@pytest.mark.parametrize("build, message", [
    (lambda: DesignMatrix(np.zeros((1, 1, 1)), [0.0], ("a",)),
     "design matrix must be n x p with n,p >= 1, got (1, 1, 1)"),
    (lambda: DesignMatrix(np.zeros((2, 0)), [0.0, 0.0], ()),
     "design matrix must be n x p with n,p >= 1, got (2, 0)"),
    # a 1-d x is read as one row
    (lambda: DesignMatrix([1.0, 2.0], [1.0, 2.0], ("a", "b")), "target length 2 != sample count 1"),
    (lambda: DesignMatrix([[1.0]], [1.0], ("a", "b")),
     "column name count does not match regressor count"),
    (lambda: DesignMatrix([[1.0]], [math.nan], ("a",)), "design matrix entries must be finite"),
    (lambda: LinearModel(0.0, [1.0], None, ("a", "b")),
     "column name count does not match coefficient count"),
    (lambda: LinearModel(math.inf, [1.0], None, ("a",)), "model parameters must be finite"),
], ids=["design-3d", "design-no-column", "design-1d-row", "design-names", "design-non-finite",
        "model-names", "model-non-finite"])
def test_malformed_regression_inputs_raise(build, message):
    with pytest.raises(RegressionError, match=f"^{re.escape(message)}$"):
        build()

import tracemalloc

import numpy as np
import pytest

from visrec.errors import (
    AlignmentError,
    DimensionError,
    FormatError,
    ParameterError,
    SingularityError,
)
from visrec.fusion import fit_cca, fuse_matrix

from oracles import cca_correlations_oracle, cca_primal_oracle


def random_views(rng, n=40, d1=4, d2=3):
    X = rng.normal(size=(n, d1))
    Y = X @ rng.normal(size=(d1, d2)) + 0.5 * rng.normal(size=(n, d2))
    return X, Y


class TestFitCca:
    def test_identical_views_give_unit_correlations(self, rng):
        X = rng.normal(size=(30, 4))
        model = fit_cca(X, X.copy(), ridge=0.0)
        np.testing.assert_allclose(model.correlations, 1.0, atol=1e-8)

    def test_independent_views_give_low_correlation(self):
        rng = np.random.default_rng(42)
        X = rng.normal(size=(2000, 5))
        Y = rng.normal(size=(2000, 5))
        model = fit_cca(X, Y, ridge=0.0)
        assert model.correlations[0] < 0.3

    def test_hand_matrices_match_grid_oracle(self):
        X = np.array([[1.0, 0.5], [2.0, -0.25], [3.0, 1.5], [4.0, 0.0],
                      [5.0, -1.0], [6.0, 2.0]])
        Y = np.array([[0.9, 1.0], [2.2, 0.0], [2.8, 2.0], [4.1, -0.5],
                      [5.2, 0.5], [5.8, 1.5]])
        model = fit_cca(X, Y, ridge=0.0)
        expected = cca_correlations_oracle(X, Y, k=2)
        np.testing.assert_allclose(model.correlations, expected, atol=1e-3)

    def test_correlations_sorted_in_unit_interval(self, rng):
        X, Y = random_views(rng)
        model = fit_cca(X, Y, ridge=0.0)
        c = model.correlations
        assert (c[:-1] >= c[1:] - 1e-8).all()
        assert c[0] <= 1.0 + 1e-8 and c[-1] >= -1e-8

    def test_symmetric_in_views(self, rng):
        X, Y = random_views(rng)
        m1 = fit_cca(X, Y, ridge=0.0)
        m2 = fit_cca(Y, X, ridge=0.0)
        np.testing.assert_allclose(m1.correlations, m2.correlations, atol=1e-10)

    def test_affine_invariance_of_x(self, rng):
        X, Y = random_views(rng)
        m1 = fit_cca(X, Y, ridge=0.0)
        m2 = fit_cca(3.0 * X + 7.5, Y, ridge=0.0)
        np.testing.assert_allclose(m1.correlations, m2.correlations, atol=1e-8)

    def test_projected_pairs_have_stated_correlation(self, rng):
        X, Y = random_views(rng)
        model = fit_cca(X, Y, ridge=0.0)
        px = (X - model.mean_x) @ model.wx
        py = (Y - model.mean_y) @ model.wy
        for j in range(model.k):
            r = np.corrcoef(px[:, j], py[:, j])[0, 1]
            assert r == pytest.approx(model.correlations[j], abs=1e-8)

    def test_unit_variance_under_regularized_covariance(self, rng):
        X, Y = random_views(rng)
        model = fit_cca(X, Y)  # default scale-aware ridge
        n = X.shape[0]
        Xc = X - model.mean_x
        cxx = Xc.T @ Xc / (n - 1) + model.ridge_x * np.eye(X.shape[1])
        gram = model.wx.T @ cxx @ model.wx
        np.testing.assert_allclose(gram, np.eye(model.k), atol=1e-6)

    def test_rank_deficient_without_ridge_raises(self, rng):
        X = rng.normal(size=(20, 3))
        X = np.hstack([X, X[:, :1]])  # duplicated column
        Y = rng.normal(size=(20, 2))
        with pytest.raises(SingularityError):
            fit_cca(X, Y, ridge=0.0)
        fit_cca(X, Y, ridge=1e-3)  # regularized fit succeeds

    def test_row_mismatch(self, rng):
        with pytest.raises(AlignmentError):
            fit_cca(rng.normal(size=(10, 3)), rng.normal(size=(11, 3)))

    def test_k_out_of_range(self, rng):
        X, Y = random_views(rng)
        with pytest.raises(ParameterError):
            fit_cca(X, Y, k=10)

    @pytest.mark.parametrize("n, d_x, d_y", [(10, 30, 3), (10, 12, 3)],
                             ids=["svd-side", "eigh-side"])
    def test_rank_deficient_view_named_without_ridge(self, rng, n, d_x, d_y):
        # n <= d: the centred view has rank n - 1 < d, on either factorisation
        wide, narrow = rng.normal(size=(n, d_x)), rng.normal(size=(n, d_y))
        with pytest.raises(SingularityError, match="^X covariance is singular"):
            fit_cca(wide, narrow, ridge=0.0)
        with pytest.raises(SingularityError, match="^Y covariance is singular"):
            fit_cca(narrow, wide, ridge=0.0)

    @pytest.mark.parametrize("scale", [1e200, 1e308])
    def test_overflowing_covariance_raises(self, rng, scale):
        X, Y = random_views(rng)
        with pytest.raises(FormatError, match="Y covariance overflows"):
            fit_cca(X, Y / np.abs(Y).max() * scale)

    @pytest.mark.parametrize("scale", [1e200, 1e308])
    def test_overflowing_x_covariance_raises(self, rng, scale):
        X, Y = random_views(rng)
        with pytest.raises(FormatError, match="X covariance overflows"):
            fit_cca(X / np.abs(X).max() * scale, Y)

    def test_few_items_build_no_dimension_squared_matrix(self, rng):
        # paper widths, few items: a 774 x 1024 float64 matrix alone is 6.3 MB
        X, Y = random_views(rng, n=8, d1=774, d2=1024)
        tracemalloc.start()
        try:
            fit_cca(X, Y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestPrimalParity:
    """fit_cca against the covariance-space fit it replaced, on views whitened
    by the thin SVD (2n < d), by eigh, and one of each."""

    @pytest.mark.parametrize("ridge", [None, 1e-2], ids=["default-ridge", "ridge-1e-2"])
    @pytest.mark.parametrize("n, d1, d2", [(12, 60, 80), (40, 4, 3), (30, 40, 100)],
                             ids=["svd-svd", "eigh-eigh", "eigh-svd"])
    def test_matches_primal_oracle(self, rng, n, d1, d2, ridge):
        X, Y = random_views(rng, n=n, d1=d1, d2=d2)
        model = fit_cca(X, Y, ridge=ridge)
        oracle = cca_primal_oracle(X, Y, ridge=ridge)
        np.testing.assert_allclose(model.correlations, oracle.correlations, atol=1e-10)
        assert model.ridge_x == pytest.approx(oracle.ridge_x, rel=1e-12)
        assert model.ridge_y == pytest.approx(oracle.ridge_y, rel=1e-12)
        # near-equal correlations leave their canonical directions free to
        # rotate within the pair, so weights are compared only where they are
        # well separated
        if np.diff(oracle.correlations).max(initial=-np.inf) <= -1e-5:
            np.testing.assert_allclose(model.wx, oracle.wx, rtol=1e-6)
            np.testing.assert_allclose(model.wy, oracle.wy, rtol=1e-6)
            np.testing.assert_allclose(fuse_matrix(model, X, Y),
                                       fuse_matrix(oracle, X, Y), rtol=1e-6)


class TestFuse:
    def test_means_map_to_zero(self, rng):
        X, Y = random_views(rng)
        model = fit_cca(X, Y)
        out = fuse_matrix(model, model.mean_x[None], model.mean_y[None])
        assert out.shape == (1, 2 * model.k)
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_output_length_2k(self, rng):
        X, Y = random_views(rng)
        model = fit_cca(X, Y, k=2)
        assert fuse_matrix(model, X[:1], Y[:1]).shape == (1, 4)

    def test_training_row_consistent_with_fit(self, rng):
        X, Y = random_views(rng)
        model = fit_cca(X, Y)
        i = 7
        out = fuse_matrix(model, X[i : i + 1], Y[i : i + 1])[0]
        px = (X[i] - model.mean_x) @ model.wx  # recomputed projection
        np.testing.assert_array_equal(out[: model.k], px)

    def test_fuse_matrix_matches_rowwise(self, rng):
        X, Y = random_views(rng)
        model = fit_cca(X, Y)
        full = fuse_matrix(model, X, Y)
        for i in (0, 3, 11):
            row = fuse_matrix(model, X[i : i + 1], Y[i : i + 1])[0]
            np.testing.assert_allclose(full[i], row, atol=1e-12)

    def test_overflowing_projection_raises(self, rng):
        X, Y = random_views(rng)
        model = fit_cca(X, Y * 1e-5)  # canonical weights near 1e5
        huge = np.sign(model.wy[:, 0]) * 1e308
        with pytest.raises(FormatError, match="projected row overflows"):
            fuse_matrix(model, X[:2], np.vstack([Y[0] * 1e-5, huge]))

    def test_dimension_mismatch(self, rng):
        X, Y = random_views(rng)
        model = fit_cca(X, Y)
        with pytest.raises(DimensionError):
            fuse_matrix(model, np.zeros((1, 9)), Y[:1])
        with pytest.raises(DimensionError):
            fuse_matrix(model, X[:1], np.zeros((1, 9)))


import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.special  # noqa: F401  (imported by training; kept out of its memory peak)

from visrec.errors import (
    AlignmentError,
    DivergenceError,
    DuplicateKeyError,
    FormatError,
    MissingUserError,
    ParameterError,
    ToolkitError,
)
from visrec.featureio import FeatureRecord, FeatureVector, read_feature_file, write_feature_bin
from visrec.recsys import (
    FeatureMatrix,
    FeatureSpectrum,
    InteractionMatrix,
    SimilarityModel,
    TrainConfig,
    load_model,
    recommend,
    sample_negative,
    save_model,
    feature_spectrum,
    score,
    standardize_columns,
    train_collective_slim,
    _draw_epoch,
    _LazyRows,
    _levels,
)

from datasets import two_block_dataset
from oracles import collective_slim_oracle


def tiny_R():
    entries = [
        (1, 10, 4.0, 100), (1, 20, 5.0, 101),
        (2, 20, 3.0, 102), (2, 30, 4.5, 103),
        (3, 10, 2.0, 104), (3, 40, 4.0, 105),
    ]
    return InteractionMatrix(entries, item_ids=[10, 20, 30, 40])


def csr(R):
    """The CSR arrays of ``R`` as a scipy matrix."""
    return sp.csr_matrix((R.data, R.indices, R.indptr), shape=(R.n_users, R.n_items))


def flat_features(R, d=3, seed=0):
    rng = np.random.default_rng(seed)
    return FeatureMatrix(family="FUSED", item_ids=R.item_ids,
                         values=rng.normal(size=(R.n_items, d)))


class TestInteractionMatrix:
    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateKeyError):
            InteractionMatrix([(1, 10, 4.0, 0), (1, 10, 3.0, 1)])

    def test_rating_bounds(self):
        with pytest.raises(ParameterError):
            InteractionMatrix([(1, 10, 5.5, 0)])

    def test_explicit_item_universe_allows_cold_columns(self):
        R = InteractionMatrix([(1, 10, 4.0, 0)], item_ids=[10, 20, 30])
        assert R.n_items == 3
        assert csr(R).shape == (1, 3)

    def test_restrict_keeps_universe(self):
        R = tiny_R()
        sub = R.restrict([0, 3])
        assert sub.item_ids == R.item_ids and sub.user_ids == R.user_ids
        assert sub.n_entries == 2

    @pytest.mark.parametrize("positions", [[0, 0], [5, -1]])
    def test_restrict_rejects_repeated_position(self, positions):
        with pytest.raises(DuplicateKeyError):
            tiny_R().restrict(positions)

    def test_user_ratings_match_rows_and_are_copies(self):
        R, _, _ = two_block_dataset(seed=3)
        before = csr(R).copy()
        for u in range(R.n_users):
            row = csr(R).getrow(u)
            idx, val = R.user_ratings(u)
            np.testing.assert_array_equal(idx, row.indices)
            np.testing.assert_array_equal(val, row.data)
            assert idx.dtype == np.int64
            idx[:] = 0
            val[:] = 0.0
        assert (csr(R) != before).nnz == 0

    def test_with_items_widens_universe(self):
        R = tiny_R()
        wide = R.with_items([5, 10, 20, 30, 40, 50])
        assert wide.user_ids == R.user_ids and wide.n_entries == R.n_entries
        assert wide.item_ids == (5, 10, 20, 30, 40, 50)
        np.testing.assert_array_equal(csr(wide).toarray()[:, 1:5], csr(R).toarray())
        np.testing.assert_array_equal(wide.entry_timestamps, R.entry_timestamps)

    def test_with_items_names_first_missing_item(self):
        # entries in order: items 10, 20, 20, 30, 10, 40; 30 and 40 are dropped
        with pytest.raises(AlignmentError, match=r"^item 30 outside"):
            tiny_R().with_items([10, 20])


def random_interactions(seed: int) -> InteractionMatrix:
    """Entries in shuffled order over universes wider than the entries."""
    rng = np.random.default_rng(seed)
    users = rng.choice(1000, size=12, replace=False).tolist()
    items = rng.choice(1000, size=15, replace=False).tolist()
    # users 10, 11 and items 12-14 get no ratings
    cells = rng.choice(10 * 12, size=int(rng.integers(1, 60)), replace=False)
    entries = [(users[c // 12], items[c % 12], float(rng.integers(1, 11)) / 2, int(c))
               for c in cells]
    return InteractionMatrix(entries, item_ids=items, user_ids=users)


def assert_csr_matches_scipy(R: InteractionMatrix) -> None:
    ref = sp.coo_matrix((R.entry_ratings, (R.entry_users, R.entry_items)),
                        shape=(R.n_users, R.n_items)).tocsr()
    np.testing.assert_array_equal(R.indptr, ref.indptr)
    np.testing.assert_array_equal(R.indices, ref.indices)
    np.testing.assert_array_equal(R.data, ref.data)
    assert csr(R).shape == ref.shape and (csr(R) != ref).nnz == 0


class TestCsrArrays:
    @pytest.mark.parametrize("seed", range(6))
    def test_match_scipy_coo_to_csr(self, seed):
        R = random_interactions(seed)
        assert_csr_matches_scipy(R)
        assert (np.diff(R.indptr) == 0).any()  # users without ratings
        assert len(set(R.indices.tolist())) < R.n_items  # empty item columns

    @pytest.mark.parametrize("seed", range(6))
    def test_restrict_and_with_items_match_scipy(self, seed):
        R = random_interactions(seed)
        rng = np.random.default_rng(seed)
        keep = rng.choice(R.n_entries, size=R.n_entries // 2, replace=False)
        assert_csr_matches_scipy(R.restrict(keep))
        assert_csr_matches_scipy(R.restrict([]))
        wider = rng.permutation(list(R.item_ids) + [5000, 5001]).tolist()
        assert_csr_matches_scipy(R.with_items(wider))

    def test_no_entries(self):
        R = InteractionMatrix([], item_ids=[10, 20], user_ids=[1, 2, 3])
        assert_csr_matches_scipy(R)
        np.testing.assert_array_equal(R.indptr, [0, 0, 0, 0])
        assert R.user_ratings(2)[0].size == 0


class TestStandardizeColumns:
    def test_unit_variance_and_zero_mean(self, rng):
        G = standardize_columns(rng.normal(3.0, 2.0, size=(20, 4)))
        np.testing.assert_allclose(G.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(G.std(axis=0), 1.0, rtol=1e-12)

    def test_rounding_noise_columns_standardise_as_exact_zeros(self, rng):
        exact = rng.normal(size=(30, 6))
        exact[:, [1, 4]] = 0.0
        noisy = exact.copy()
        noisy[:, [1, 4]] = rng.choice([-1e-13, 1e-13], size=(30, 2))
        expected = standardize_columns(exact)
        assert (expected[:, [1, 4]] == 0.0).all()
        np.testing.assert_array_equal(standardize_columns(noisy), expected)

    def test_constant_column_becomes_zero(self):
        values = np.array([[0.1, 1.0], [0.1, 2.0], [0.1, 4.0]])
        assert (standardize_columns(values)[:, 0] == 0.0).all()

    @pytest.mark.parametrize("scale", [1e200, 1e308])
    def test_overflowing_std_raises(self, rng, scale):
        values = rng.normal(size=(8, 5))
        with pytest.raises(FormatError, match="standard deviation .* overflows float64"):
            standardize_columns(values / np.abs(values).max() * scale)


class TestTrainConfig:
    def test_negative_seed_rejected(self):
        with pytest.raises(ParameterError, match="seed must be nonnegative"):
            TrainConfig(seed=-1)


class TestTrainCollectiveSlim:
    def test_alpha_one_ignores_features(self):
        R, _, _ = two_block_dataset(seed=3)
        cfg = TrainConfig(alpha=1.0, epochs=3, seed=11)
        f1 = flat_features(R, seed=1)
        f2 = flat_features(R, seed=2)
        m1 = train_collective_slim(R, f1, cfg)
        m2 = train_collective_slim(R, f2, cfg)
        np.testing.assert_array_equal(m1.matrix, m2.matrix)

    def test_alpha_zero_matches_least_squares_oracle(self):
        # after column centering any item's features are an exact combination
        # of the others, so the unridged optimum is zero; check the trainer
        # reaches it, then check the ridged run against the closed-form
        # per-column ridge solve
        rng = np.random.default_rng(7)
        item_ids = [1, 2, 3, 4, 5]
        R = InteractionMatrix([(1, 1, 4.0, 0)], item_ids=item_ids)
        F = FeatureMatrix(family="FUSED", item_ids=tuple(item_ids),
                          values=rng.normal(size=(5, 8)))
        G = F.values - F.values.mean(axis=0)
        G = G / G.std(axis=0)

        def sse(S):
            return ((G.T - G.T @ S) ** 2).sum()

        plain = train_collective_slim(
            R, F, TrainConfig(alpha=0.0, gamma=0.0, learning_rate=0.3,
                              epochs=400, seed=0)
        )
        assert sse(plain.matrix) <= 1e-9

        gamma = 0.05
        model = train_collective_slim(
            R, F, TrainConfig(alpha=0.0, gamma=gamma, learning_rate=0.3,
                              epochs=600, seed=0)
        )
        # the trainer's feature step scales the gradient by the Gram spectral
        # norm, so its stationary point minimizes sse + (gamma*lam/2)*|S|^2
        lam = np.linalg.eigvalsh(G @ G.T).max()
        ridge = gamma * lam / 2.0

        def objective(S):
            return sse(S) + ridge * (S ** 2).sum()

        S_opt = np.zeros((5, 5))
        for t in range(5):
            others = [i for i in range(5) if i != t]
            A = G[others].T  # d x 4 design matrix per column
            coef = np.linalg.solve(A.T @ A + ridge * np.eye(4), A.T @ G[t])
            S_opt[others, t] = coef
        assert objective(S_opt) > 0.1  # ridge makes the optimum nonzero
        assert objective(model.matrix) <= 1.02 * objective(S_opt)

    def test_two_block_similarity_structure(self):
        R, F, _ = two_block_dataset(seed=5)
        cfg = TrainConfig(alpha=1.0, epochs=30, learning_rate=0.05, seed=4)
        model = train_collective_slim(R, F, cfg)
        S = model.matrix
        half = R.n_items // 2
        within = np.concatenate([S[:half, :half].ravel(), S[half:, half:].ravel()])
        cross = np.concatenate([S[:half, half:].ravel(), S[half:, :half].ravel()])
        assert within.mean() > cross.mean()

    def test_zero_diagonal_always(self):
        R, F, _ = two_block_dataset(seed=5)
        for alpha in (0.0, 0.5, 1.0):
            cfg = TrainConfig(alpha=alpha, epochs=5, seed=2)
            model = train_collective_slim(R, F, cfg)
            assert np.abs(np.diag(model.matrix)).max() == 0.0

    def test_bit_reproducible(self):
        R, F, _ = two_block_dataset(seed=5)
        cfg = TrainConfig(alpha=0.5, epochs=6, seed=123)
        m1 = train_collective_slim(R, F, cfg)
        m2 = train_collective_slim(R, F, cfg)
        np.testing.assert_array_equal(m1.matrix, m2.matrix)

    def test_loss_history_nonincreasing_within_tolerance(self):
        # non-increasing up to sampling noise: no epoch may climb by more
        # than 5% of the starting loss, and the run must end well below it
        R, F, _ = two_block_dataset(n_users=200, rated_per_user=8, seed=5)
        cfg = TrainConfig(alpha=0.5, epochs=20, learning_rate=0.01, seed=6)
        model = train_collective_slim(R, F, cfg)
        losses = np.array(model.loss_history)
        assert len(losses) == 20
        assert np.diff(losses).max() <= 0.05 * losses[0]
        assert losses[-1] <= 0.5 * losses[0]

    @pytest.mark.parametrize("lr_gamma", [5e-6, 0.5, 1.0, 0.0])
    @pytest.mark.parametrize("d", [4, 30])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_matches_dense_oracle(self, alpha, d, lr_gamma):
        # d = 30 > 12 items makes the thin factor narrower than G; lr * gamma = 0.5
        # folds the decay every 100 steps, lr * gamma = 1 zeroes it and
        # gamma = 0 leaves no decay at all
        R, _, _ = two_block_dataset(n_users=30, n_items=12, rated_per_user=3, seed=2)
        F = flat_features(R, d=d, seed=3)
        cfg = TrainConfig(alpha=alpha, gamma=lr_gamma / 0.05, learning_rate=0.05,
                          epochs=3, seed=4)
        model = train_collective_slim(R, F, cfg)
        ref = collective_slim_oracle(R, F, cfg)
        np.testing.assert_allclose(model.matrix, ref.matrix, rtol=0, atol=1e-9)
        np.testing.assert_allclose(model.loss_history, ref.loss_history, rtol=1e-9)
        assert np.abs(np.diag(model.matrix)).max() == 0.0

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    @pytest.mark.parametrize("case", ["few_items", "all_but_one"])
    def test_matches_dense_oracle_on_hard_schedules(self, case, alpha):
        # many users on six items put at most three triples in a level, so
        # levels run deep; a user who rated all but one item always draws
        # that item as the negative
        if case == "few_items":
            R, _, _ = two_block_dataset(n_users=60, n_items=6, rated_per_user=2, seed=3)
        else:
            rng = np.random.default_rng(8)
            entries = [(1, item, 4.5, 0) for item in range(1, 10)]
            entries += [(user, int(item), float(rng.choice([2.0, 4.0, 5.0])), 0)
                        for user in range(2, 12)
                        for item in rng.choice(np.arange(1, 11), size=3, replace=False)]
            R = InteractionMatrix(entries, item_ids=range(1, 11))
        F = flat_features(R, d=4, seed=3)
        cfg = TrainConfig(alpha=alpha, epochs=3, seed=4)
        model = train_collective_slim(R, F, cfg)
        ref = collective_slim_oracle(R, F, cfg)
        np.testing.assert_allclose(model.matrix, ref.matrix, rtol=0, atol=1e-9)
        np.testing.assert_allclose(model.loss_history, ref.loss_history, rtol=1e-9)

    @pytest.mark.parametrize("alpha, lr", [(0.5, 1e3), (1.0, 1e6)])
    def test_divergence_raises_divergence_error_without_warnings(self, alpha, lr):
        # the suite turns every warning into an error, so an overflow warning
        # on the way would fail this test before the DivergenceError
        R, F, _ = two_block_dataset(n_users=50, n_items=20, rated_per_user=9, seed=5)
        with pytest.raises(DivergenceError):
            train_collective_slim(R, F, TrainConfig(alpha=alpha, learning_rate=lr, epochs=5))

    def test_one_epoch_at_paper_width_stays_in_bounded_memory(self):
        # n = 400 items and d = 774 features: eigenvectors kept per row would
        # take n k^2 floats (about 500 MB); the lazy rows keep O(n k)
        R, _, _ = two_block_dataset(n_users=300, n_items=400, rated_per_user=8, seed=1)
        F = flat_features(R, d=774, seed=2)
        tracemalloc.start()
        try:
            train_collective_slim(R, F, TrainConfig(alpha=0.5, epochs=1, seed=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48e6

    def test_zero_feature_matrix_trains_without_features(self):
        # a zero-width matrix and all-constant columns both standardize to a
        # zero G, whose thin factor has no positive singular value
        R, _, _ = two_block_dataset(n_users=30, n_items=12, rated_per_user=3, seed=2)
        cfg = TrainConfig(alpha=0.5, epochs=3, seed=4)
        models = [
            train_collective_slim(R, FeatureMatrix(family="FUSED", item_ids=R.item_ids,
                                                   values=values), cfg)
            for values in (np.zeros((R.n_items, 0)), np.full((R.n_items, 5), 2.5))
        ]
        for model in models:
            assert np.isfinite(model.matrix).all()
            assert np.abs(np.diag(model.matrix)).max() == 0.0
        np.testing.assert_array_equal(models[0].matrix, models[1].matrix)
        assert models[0].loss_history == models[1].loss_history

    @pytest.mark.parametrize("d", [4, 30])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_prebuilt_spectrum_trains_the_same_model(self, alpha, d):
        # d = 30 > 12 items makes the thin factor narrower than the features;
        # two trainings on different entries share one spectrum, as folds do
        R, _, _ = two_block_dataset(n_users=30, n_items=12, rated_per_user=3, seed=2)
        F = flat_features(R, d=d, seed=3)
        cfg = TrainConfig(alpha=alpha, epochs=3, seed=4)
        spectrum = feature_spectrum(F)
        for R_train in (R.restrict(np.arange(0, R.n_entries, 2)), R):
            shared = train_collective_slim(R_train, F, cfg, spectrum)
            alone = train_collective_slim(R_train, F, cfg)
            np.testing.assert_array_equal(shared.matrix, alone.matrix)
            assert shared.loss_history == alone.loss_history
            assert (shared.config, shared.item_ids) == (alone.config, alone.item_ids)

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_spectrum_of_other_features_refused(self, alpha):
        R, _, _ = two_block_dataset(n_users=30, n_items=12, rated_per_user=3, seed=2)
        F = flat_features(R, d=4, seed=3)
        other_items = FeatureMatrix(family="FUSED", item_ids=tuple(range(12)), values=F.values)
        spectra = [
            feature_spectrum(other_items),
            feature_spectrum(flat_features(R, d=4, seed=5)),  # other values
            feature_spectrum(FeatureMatrix(family="FUSED", item_ids=R.item_ids,
                                           values=F.values[:, :3])),
            FeatureSpectrum(np.zeros((12, 0)), np.zeros(0)),  # from no features at all
        ]
        for spectrum in spectra:
            with pytest.raises(AlignmentError, match="spectrum was built from other features"):
                train_collective_slim(R, F, TrainConfig(alpha=alpha, epochs=1), spectrum)

    def test_misaligned_features_rejected(self):
        R = tiny_R()
        F = FeatureMatrix(family="FUSED", item_ids=(10, 20, 30, 99),
                          values=np.zeros((4, 2)))
        with pytest.raises(AlignmentError):
            train_collective_slim(R, F, TrainConfig(epochs=1))

    def test_negative_sampler_avoids_rated(self, rng):
        rated = {0, 2, 5, 7}
        draws = {sample_negative(rng, rated, 10) for _ in range(500)}
        assert draws.isdisjoint(rated)
        assert draws == {1, 3, 4, 6, 8, 9}


def thin_factor(n, sigma2, seed):
    """An n x k factor G whose Gram G^T G is diag(sigma2)."""
    U, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, len(sigma2))))
    return U * np.sqrt(sigma2)


# sigma^2 spectra, ascending: a square factor (every row's K has a zero
# eigenvalue), a zero singular value, and equal and nearly equal sigma^2
SPECTRA = {
    "square": (6, [0.5, 1.0, 2.0, 3.0, 5.0, 8.0]),
    "zero_sigma": (9, [0.0, 0.7, 1.5, 2.0, 4.0, 6.0]),
    "close_sigma": (9, [1.0, 1.0 + 1e-9, 2.0, 2.0, 3.0, 3.0 + 1e-13, 5.0]),
}


def step_rows(G, d, z, p, steps, decay, gain):
    """One feature step at a time, as the dense trainer takes it row by row:
    z -> decay z + gain (g - p - z K), p -> decay p, K = diag(d) - g^T g."""
    sse = 0.0
    for _ in range(steps):
        resid = G - p - z * d + np.einsum("ij,ij->i", z, G)[:, None] * G
        sse += float((resid ** 2).sum())
        z = decay * z + gain * resid
        p = decay * p
    return z, p, sse


class TestLazyFeatureSteps:
    @pytest.mark.parametrize("fast", [False, True], ids=["mu_positive", "mu_negative"])
    @pytest.mark.parametrize("decay", [0.0, 0.5, 1.0 - 5e-6, 1.0])
    @pytest.mark.parametrize("spectrum", sorted(SPECTRA))
    def test_closed_form_matches_step_by_step(self, spectrum, decay, fast):
        n, sigma2 = SPECTRA[spectrum]
        d = np.array(sigma2)
        G = thin_factor(n, d, seed=4)
        # a fast gain takes mu = decay - gain lam below zero on the top of
        # each row's spectrum, and keeps |mu| < 1
        gain = (0.95 * (1.0 + decay) if fast else 0.2) / d.max()
        rng = np.random.default_rng(5)
        z0, p0 = rng.standard_normal(G.shape), rng.standard_normal(G.shape)
        for steps in (0, 1, 2, 37, 5000):
            with np.errstate(all="ignore"):
                state = _LazyRows(FeatureSpectrum(G, d), decay, gain)
                state.Z[:], state.P[:] = z0, p0
                state.advance(np.arange(n), np.full(n, steps))
            z, p, sse = step_rows(G, d, z0, p0, steps, decay, gain)
            for got, want in ((state.Z, z), (state.P, p)):
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * abs(want).max())
            np.testing.assert_allclose(state.sse, sse, rtol=1e-12)

    @pytest.mark.parametrize("spectrum", sorted(SPECTRA))
    def test_eigenpairs_match_eigh(self, spectrum):
        n, sigma2 = SPECTRA[spectrum]
        d = np.array(sigma2)
        G = thin_factor(n, d, seed=4)
        with np.errstate(all="ignore"):
            spectrum = FeatureSpectrum(G, d)
            inv = spectrum.cauchy(np.arange(n))
        sizes = np.bincount(spectrum.cluster)
        for r in range(n):
            K = np.diag(d) - np.outer(G[r], G[r])
            roots = spectrum.inv_norm[r] > 0
            V = (spectrum.uh[r][:, None] * inv[r] * spectrum.inv_norm[r])[:, roots]
            lam = spectrum.lam[r, roots]
            # merged and deflated poles keep the rest of the spectrum
            rest = np.repeat(spectrum.poles, sizes - spectrum.active[r])
            np.testing.assert_allclose(np.sort(np.concatenate([lam, rest])),
                                       np.linalg.eigvalsh(K), rtol=0, atol=1e-12 * d.max())
            np.testing.assert_allclose(V.T @ V, np.eye(len(lam)), rtol=0, atol=1e-12)
            np.testing.assert_allclose(K @ V, V * lam, rtol=0, atol=1e-12 * d.max())

    def test_epoch_draws_follow_the_sequential_loop(self):
        # the permutation first, then one negative per triple in order, so the
        # generator ends an epoch where one-triple-at-a-time training leaves it
        R, _, _ = two_block_dataset(n_users=40, n_items=12, rated_per_user=5, seed=2)
        rated = [set(R.user_ratings(u)[0].tolist()) for u in range(R.n_users)]
        pair_user = np.repeat(np.arange(R.n_users), np.diff(R.indptr))
        rng, ref = np.random.default_rng(7), np.random.default_rng(7)
        order, negatives = _draw_epoch(rng, pair_user, rated, R.n_items)
        ref_order = ref.permutation(len(pair_user))
        ref_negatives = [sample_negative(ref, rated[u], R.n_items) for u in pair_user[ref_order]]
        np.testing.assert_array_equal(order, ref_order)
        assert negatives.tolist() == ref_negatives
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_levels_are_conflict_free_and_in_time_order(self):
        rng = np.random.default_rng(3)
        first = rng.integers(0, 15, size=300)
        second = (first + rng.integers(1, 15, size=300)) % 15
        level = _levels(np.stack([first, second], axis=1))
        last = {}
        for t, (a, b) in enumerate(zip(first.tolist(), second.tolist())):
            assert level[t] == 1 + max(last.get(a, 0), last.get(b, 0))
            last[a] = last[b] = level[t]
        for lv in np.unique(level):
            rows = np.concatenate([first[level == lv], second[level == lv]])
            assert len(np.unique(rows)) == len(rows)


class TestScoring:
    def make_hand_model(self):
        item_ids = (10, 20, 30, 40)
        S = np.array([
            [0.0, 0.5, 0.2, 0.0],
            [0.1, 0.0, 0.4, 0.3],
            [0.0, 0.2, 0.0, 0.6],
            [0.7, 0.0, 0.1, 0.0],
        ])
        return SimilarityModel(matrix=S, config=TrainConfig(), item_ids=item_ids)

    def test_zero_model_zero_scores(self):
        R = tiny_R()
        model = SimilarityModel(matrix=np.zeros((4, 4)), config=TrainConfig(),
                                item_ids=R.item_ids)
        assert np.all(score(model, R, 1) == 0.0)

    def test_single_rated_item_scales_row(self):
        R = InteractionMatrix([(9, 20, 4.0, 0)], item_ids=[10, 20, 30, 40])
        model = self.make_hand_model()
        np.testing.assert_allclose(score(model, R, 9), 4.0 * model.matrix[1])

    def test_hand_multiplication(self):
        # user 1 rated items 10 (4.0) and 20 (5.0):
        # scores = 4*row0 + 5*row1 = [0.5, 2.0, 2.8, 1.5]
        R = tiny_R()
        model = self.make_hand_model()
        np.testing.assert_allclose(score(model, R, 1), [0.5, 2.0, 2.8, 1.5])

    def test_unknown_user(self):
        with pytest.raises(MissingUserError):
            score(self.make_hand_model(), tiny_R(), 77)

    def test_positive_rescaling_preserves_ranking(self):
        # linear scoring is homogeneous in the rating vector
        R1 = InteractionMatrix([(1, 10, 1.0, 0), (1, 20, 2.0, 0)],
                               item_ids=[10, 20, 30, 40])
        R2 = InteractionMatrix([(1, 10, 2.0, 0), (1, 20, 4.0, 0)],
                               item_ids=[10, 20, 30, 40])
        model = self.make_hand_model()
        np.testing.assert_array_equal(np.argsort(score(model, R1, 1)),
                                      np.argsort(score(model, R2, 1)))

    def test_other_users_unaffected_by_rating_changes(self):
        model = self.make_hand_model()
        R1 = tiny_R()
        R2 = InteractionMatrix(
            [(1, 10, 1.0, 100), (1, 20, 1.5, 101),  # user 1 changed
             (2, 20, 3.0, 102), (2, 30, 4.5, 103),
             (3, 10, 2.0, 104), (3, 40, 4.0, 105)],
            item_ids=[10, 20, 30, 40],
        )
        np.testing.assert_array_equal(score(model, R1, 2), score(model, R2, 2))
        np.testing.assert_array_equal(score(model, R1, 3), score(model, R2, 3))


class TestRecommend:
    def test_all_tied_returns_smallest_ids(self):
        R = InteractionMatrix([(1, 30, 4.0, 0)], item_ids=[10, 20, 30, 40, 50])
        model = SimilarityModel(matrix=np.zeros((5, 5)), config=TrainConfig(),
                                item_ids=R.item_ids)
        assert recommend(model, R, 1, 2) == [10, 20]

    def test_ties_break_by_item_id_in_any_column_order(self):
        R = InteractionMatrix([(1, 30, 4.0, 0)], item_ids=[50, 40, 30, 20, 10])
        model = SimilarityModel(matrix=np.zeros((5, 5)), config=TrainConfig(),
                                item_ids=R.item_ids)
        items = recommend(model, R, 1, 3)
        assert items == [10, 20, 40] and all(type(m) is int for m in items)

    def test_pool_saturation(self):
        R = InteractionMatrix([(1, 30, 4.0, 0)], item_ids=[10, 20, 30])
        model = SimilarityModel(matrix=np.zeros((3, 3)), config=TrainConfig(),
                                item_ids=R.item_ids)
        assert recommend(model, R, 1, 10) == [10, 20]

    def test_hand_ranking(self):
        R = tiny_R()
        model = TestScoring().make_hand_model()
        # user 1 scores: [0.5, 2.0, 2.8, 1.5]; rated {10, 20}; candidates
        # 30 (2.8) and 40 (1.5) -> top-2 is [30, 40]
        assert recommend(model, R, 1, 2) == [30, 40]

    def test_rated_items_never_recommended(self):
        R, F, _ = two_block_dataset(seed=8)
        model = train_collective_slim(R, F, TrainConfig(alpha=1.0, epochs=10, seed=1))
        for user in (1, 25, 50):
            u = R.user_index(user)
            rated = {R.item_ids[i] for i in R.user_ratings(u)[0]}
            assert rated.isdisjoint(recommend(model, R, user, 10))


CONTAINER_KINDS = ["features", "checkpoint"]


def write_container_file(kind, path):
    """Write a small binary file of one kind; returns its loader, a function
    picking the main array out of what was written or loaded, and what was
    written."""
    rng = np.random.default_rng(11)
    if kind == "features":
        records = [
            FeatureRecord(movie_id, kf, FeatureVector("EHD", rng.random(80)))
            for movie_id, kf in [(1, 0), (2, None)]
        ]
        write_feature_bin(path, records)
        return read_feature_file, lambda back: np.vstack([r.vector.values for r in back]), records
    R = tiny_R()
    model = train_collective_slim(R, flat_features(R), TrainConfig(epochs=2))
    save_model(path, model)
    return load_model, lambda back: back.matrix, model


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        R, F, _ = two_block_dataset(seed=5)
        cfg = TrainConfig(alpha=0.7, gamma=2e-4, learning_rate=0.04, epochs=4, seed=9)
        model = train_collective_slim(R, F, cfg)
        path = tmp_path / "model.bin"
        save_model(path, model, feature_dim=F.d)
        back = load_model(path)
        np.testing.assert_array_equal(back.matrix, model.matrix)
        assert back.item_ids == model.item_ids
        assert back.config == cfg

    def test_roundtrip_keeps_the_loss_history(self, tmp_path):
        R, F, _ = two_block_dataset(seed=5)
        model = train_collective_slim(R, F, TrainConfig(epochs=4, seed=9))
        save_model(tmp_path / "model.bin", model, feature_dim=F.d)
        back = load_model(tmp_path / "model.bin")
        assert back.loss_history == model.loss_history
        assert len(back.loss_history) == 4 and np.isfinite(back.loss_history).all()

    def test_checkpoint_stores_dense_s(self, tmp_path):
        # the dense payload is 8 n^2 bytes and the item ids 8 n; the header
        # fits in 1 KiB. Sparse index arrays would double the size.
        n = 40
        matrix = np.random.default_rng(3).standard_normal((n, n))
        np.fill_diagonal(matrix, 0.0)
        model = SimilarityModel(matrix=matrix, config=TrainConfig(), item_ids=tuple(range(n)))
        save_model(tmp_path / "model.bin", model)
        assert (tmp_path / "model.bin").stat().st_size <= 8 * n * (n + 1) + 1024
        np.testing.assert_array_equal(load_model(tmp_path / "model.bin").matrix, matrix)

    @pytest.mark.parametrize("kind", CONTAINER_KINDS)
    def test_truncated_checkpoint_raises_format_error(self, tmp_path, kind):
        path = tmp_path / "file.bin"
        load, payload, written = write_container_file(kind, path)
        data = path.read_bytes()
        cut = tmp_path / "cut.bin"
        for size in range(len(data)):
            cut.write_bytes(data[:size])
            with pytest.raises(FormatError) as err:
                load(cut)
            if kind != "features":  # a cut feature file may read as CSV
                assert err.value.offset in (0, size)
        cut.write_bytes(data)
        np.testing.assert_array_equal(payload(load(cut)), payload(written))

    @pytest.mark.parametrize("kind", CONTAINER_KINDS)
    def test_corrupted_checkpoint_raises_toolkit_error(self, tmp_path, kind):
        # every byte flip must load or raise a ToolkitError, never crash
        # the process or escape as another exception
        path = tmp_path / "file.bin"
        load, payload, written = write_container_file(kind, path)
        shape = payload(written).shape
        data = path.read_bytes()
        for pos in range(len(data)):
            for byte in (0x01, 0x7F, 0xFF):
                path.write_bytes(data[:pos] + bytes([byte]) + data[pos + 1:])
                try:
                    back = load(path)
                except ToolkitError:
                    continue
                assert payload(back).shape == shape

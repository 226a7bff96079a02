import numpy as np
import pytest

from visrec.errors import EmptyInputError, ParameterError
from visrec.evaluation import (
    EvalReport,
    collect_observations,
    compute_metrics,
    make_splits,
)
from visrec.recsys import InteractionMatrix, SimilarityModel, TrainConfig

from oracles import make_splits_oracle, metrics_oracle, rank_unrated_oracle


def uniform_R(n_users=100, n_ratings=20, seed=1):
    rng = np.random.default_rng(seed)
    entries = []
    for u in range(1, n_users + 1):
        items = rng.permutation(200)[:n_ratings]
        for it in items:
            entries.append((u, int(it) + 1, float(rng.choice([3.0, 4.0, 5.0])), 0))
    return InteractionMatrix(entries, item_ids=list(range(1, 201)))


class TestMakeSplits:
    def test_ten_ratings_split_8_1_1(self):
        R = uniform_R(n_users=30, n_ratings=10)
        for split in make_splits(R, folds=5, seed=3):
            counts_train = np.bincount(R.entry_users[split.train_idx], minlength=30)
            counts_val = np.bincount(R.entry_users[split.val_idx], minlength=30)
            counts_test = np.bincount(R.entry_users[split.test_idx], minlength=30)
            assert (counts_train == 8).all()
            assert (counts_val == 1).all()
            assert (counts_test == 1).all()

    def test_deterministic_given_seed(self):
        R = uniform_R()
        a = make_splits(R, folds=3, seed=7)
        b = make_splits(R, folds=3, seed=7)
        for s1, s2 in zip(a, b):
            np.testing.assert_array_equal(s1.train_idx, s2.train_idx)
            np.testing.assert_array_equal(s1.test_idx, s2.test_idx)

    def test_folds_differ(self):
        R = uniform_R()
        a, b = make_splits(R, folds=2, seed=7)
        assert not np.array_equal(a.test_idx, b.test_idx)

    def test_global_proportions(self):
        R = uniform_R(n_users=100, n_ratings=20)
        split = make_splits(R, folds=1, seed=0)[0]
        total = R.n_entries
        assert abs(len(split.train_idx) / total - 0.8) < 0.005
        assert abs(len(split.val_idx) / total - 0.1) < 0.005
        assert abs(len(split.test_idx) / total - 0.1) < 0.005

    def test_partition_is_exact(self):
        R = uniform_R(n_users=40, n_ratings=13)
        for split in make_splits(R, folds=2, seed=2):
            combined = np.concatenate([split.train_idx, split.val_idx, split.test_idx])
            assert sorted(combined) == list(range(R.n_entries))

    def test_small_users_train_only(self):
        entries = [(1, 1, 4.0, 0), (1, 2, 4.0, 0),  # two ratings: train-only
                   (2, 1, 4.0, 0), (2, 2, 4.0, 0), (2, 3, 4.0, 0)]
        R = InteractionMatrix(entries)
        split = make_splits(R, folds=1, seed=0)[0]
        user1_entries = [i for i in range(R.n_entries) if R.entry_users[i] == 0]
        assert all(i in split.train_idx for i in user1_entries)

    @pytest.mark.parametrize("folds", [0, -2])
    def test_folds_below_one_rejected(self, folds):
        with pytest.raises(ParameterError, match="folds"):
            make_splits(uniform_R(n_users=5, n_ratings=10), folds=folds, seed=0)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            make_splits(InteractionMatrix([], item_ids=[1], user_ids=[1]), folds=1, seed=0)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_per_user_loop_oracle(self, seed):
        # users with 0, 1, 2 and 3+ ratings, entries in shuffled order
        rng = np.random.default_rng(seed)
        user_ids = rng.choice(1000, size=12, replace=False).tolist()
        counts = [0, 1, 2, 3] + rng.integers(0, 25, size=8).tolist()
        entries = [(user_ids[u], int(item), float(rng.integers(1, 11)) / 2, 0)
                   for u, count in enumerate(counts)
                   for item in rng.choice(40, size=count, replace=False)]
        entries = [entries[i] for i in rng.permutation(len(entries))]
        R = InteractionMatrix(entries, item_ids=range(40), user_ids=user_ids)
        splits = make_splits(R, folds=4, seed=seed)
        for split, (train, val, test) in zip(splits, make_splits_oracle(R, 4, seed)):
            np.testing.assert_array_equal(split.train_idx, train)
            np.testing.assert_array_equal(split.val_idx, val)
            np.testing.assert_array_equal(split.test_idx, test)
        assert len(splits) == 4


def model_with_scores(item_ids, rows, user_ids=(1,)):
    """Single-user rating of item row scaled so scores equal `rows`."""
    n = len(item_ids)
    S = np.zeros((n, n))
    S[0, 1:] = np.asarray(rows[1:]) / 4.0
    R = InteractionMatrix([(1, item_ids[0], 4.0, 0)], item_ids=item_ids, user_ids=user_ids)
    model = SimilarityModel(matrix=S, config=TrainConfig(), item_ids=tuple(item_ids))
    return model, R


def held_out(R, entries):
    """(user id, item id, rating) triples as index-space held-out entries."""
    users, items, ratings = zip(*entries) if entries else ((), (), ())
    return np.rec.fromarrays((np.array([R.user_index(u) for u in users], dtype=np.int64),
                              np.array([R.item_index(m) for m in items], dtype=np.int64),
                              np.array(ratings, dtype=np.float64)),
                             names="user,item,rating")


def rank_of(model, R, user_id, item_id):
    """The rank of one relevant held-out entry."""
    ranked, skipped = collect_observations(model, R, held_out(R, [(user_id, item_id, 5.0)]))
    assert skipped == 0 and len(ranked) == 1
    assert ranked["user"][0] == R.user_index(user_id)
    return ranked["rank"][0]


class TestRankOnePlusUnrated:
    def test_unique_maximum_is_rank_one(self):
        model, R = model_with_scores([1, 2, 3, 4, 5], [0, 9.0, 1.0, 2.0, 3.0])
        assert rank_of(model, R, 1, 2) == 1

    def test_all_tied_gives_candidate_count(self):
        model, R = model_with_scores([1, 2, 3, 4, 5], [0, 0, 0, 0, 0])
        # user rated item 1; candidates are the other 4 items, all tied
        assert rank_of(model, R, 1, 3) == 4

    def test_hand_sorted_five_candidates(self):
        model, R = model_with_scores([1, 2, 3, 4, 5, 6],
                                     [0, 3.0, 7.0, 5.0, 1.0, 6.0])
        # scores: item2=3, item3=7, item4=5, item5=1, item6=6
        assert rank_of(model, R, 1, 4) == 3  # below 7 and 6
        assert rank_of(model, R, 1, 3) == 1
        assert rank_of(model, R, 1, 5) == 5

    def test_rated_test_item_rejected(self):
        model, R = model_with_scores([1, 2, 3], [0, 1.0, 2.0])
        with pytest.raises(ParameterError, match="item 1 is already rated by user 1"):
            rank_of(model, R, 1, 1)


def random_metric_inputs(rng, n=50):
    return rng.integers(1, 20, n), rng.integers(1, 80, n)


class TestComputeMetrics:
    def test_perfect_ranker(self):
        m = compute_metrics(np.arange(10), np.ones(10, dtype=np.int64), cutoffs=(1, 10, 20))
        for n in (1, 10, 20):
            assert m[("protocol", "recall", n)] == 1.0
            assert m[("protocol", "map", n)] == 1.0
        assert m[("protocol", "precision", 10)] == pytest.approx(0.1)
        assert m[("standard", "map", 1)] == 1.0

    def test_total_miss(self):
        m = compute_metrics(np.arange(10), np.full(10, 50), cutoffs=(1, 10, 20))
        for family in ("protocol", "standard"):
            for metric in ("recall", "precision", "map"):
                for n in (1, 10, 20):
                    assert m[(family, metric, n)] == 0.0

    def test_three_user_toy_matches_oracle(self):
        raw = [(1, 2), (1, 7), (1, 30), (2, 1), (2, 11), (3, 4)]
        users, ranks = zip(*raw)
        for n in (1, 10, 20):
            m = compute_metrics(users, ranks, cutoffs=(n,))
            expected = metrics_oracle(raw, n)
            for (family, metric), value in expected.items():
                assert m[(family, metric, n)] == pytest.approx(value), (family, metric, n)

    def test_protocol_identity(self, rng):
        m = compute_metrics(*random_metric_inputs(rng))
        for n in (1, 10, 20):
            assert m[("protocol", "precision", n)] * n == pytest.approx(
                m[("protocol", "recall", n)]
            )

    def test_recall_monotone_in_cutoff(self, rng):
        m = compute_metrics(*random_metric_inputs(rng))
        for family in ("protocol", "standard"):
            assert (m[(family, "recall", 1)] <= m[(family, "recall", 10)]
                    <= m[(family, "recall", 20)])

    def test_user_means_add_users_in_first_observation_order(self):
        # interleaved users, some with many observations: the per-user values
        # are averaged in the order each user is first seen, as the oracle does
        rng = np.random.default_rng(5)
        users = rng.choice(rng.permutation(1000)[:60], size=600)
        ranks = rng.integers(1, 40, size=600)
        raw = list(zip(users.tolist(), ranks.tolist()))
        for n in (1, 10, 20):
            m = compute_metrics(users, ranks, cutoffs=(n,))
            expected = metrics_oracle(raw, n)
            for metric in ("precision", "recall"):
                assert m[("standard", metric, n)] == expected[("standard", metric)]
            assert m[("standard", "map", n)] == pytest.approx(expected[("standard", "map")])

    def test_random_scorer_recall_near_n_over_c(self):
        rng = np.random.default_rng(2024)
        c, n, trials = 100, 10, 1000
        m = compute_metrics(np.arange(trials), rng.integers(1, c + 1, trials), cutoffs=(n,))
        assert m[("protocol", "recall", n)] == pytest.approx(n / c, abs=0.03)

    def test_bad_cutoff(self):
        with pytest.raises(ParameterError):
            compute_metrics([1], [1], cutoffs=(0,))

    def test_empty_observations(self):
        with pytest.raises(EmptyInputError):
            compute_metrics([], [])


class TestCollectObservations:
    def test_skips_users_without_training_ratings(self):
        model, R = model_with_scores([1, 2, 3, 4], [0, 1.0, 2.0, 3.0], user_ids=(1, 42))
        test_entries = [(1, 3, 5.0), (42, 2, 5.0)]  # user 42 has no training ratings
        ranked, skipped = collect_observations(model, R, held_out(R, test_entries))
        assert len(ranked) == 1 and skipped == 1

    def test_irrelevant_entries_ignored(self):
        model, R = model_with_scores([1, 2, 3, 4], [0, 1.0, 2.0, 3.0])
        test_entries = [(1, 3, 2.0)]  # below relevance threshold
        ranked, skipped = collect_observations(model, R, held_out(R, test_entries))
        assert len(ranked) == 0 and skipped == 0

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_per_entry_rank_oracle(self, seed):
        # S of small integers and half-star ratings make scores exact and ties
        # common; the entries interleave the users, and one user of the
        # universe has no training ratings
        rng = np.random.default_rng(seed)
        items = rng.choice(100, size=15, replace=False).tolist()
        user_ids = rng.choice(100, size=6, replace=False).tolist()
        train, entries = [], []
        for u in user_ids[:-1]:
            rated = rng.choice(items, size=int(rng.integers(1, 8)), replace=False).tolist()
            train += [(u, m, float(rng.integers(1, 11)) / 2) for m in rated]
        for u in user_ids:
            unrated = [m for m in items if all(e[:2] != (u, m) for e in train)]
            picked = rng.choice(unrated, size=int(rng.integers(0, 5)), replace=False)
            entries += [(u, m, float(rng.integers(1, 11)) / 2) for m in picked.tolist()]
        entries = [entries[i] for i in rng.permutation(len(entries))]
        R = InteractionMatrix(train, item_ids=items, user_ids=user_ids)
        S = rng.integers(-2, 3, size=(15, 15)).astype(np.float64)
        np.fill_diagonal(S, 0.0)
        model = SimilarityModel(matrix=S, config=TrainConfig(), item_ids=tuple(items))
        want = [(R.user_index(u), rank_unrated_oracle(model, R, u, m))
                for u, m, rating in entries if rating >= 4.0]
        ranked, skipped = collect_observations(model, R, held_out(R, entries))
        assert list(zip(ranked["user"].tolist(), ranked["rank"].tolist())) == [
            (u, rank) for u, rank in want if rank is not None]
        assert skipped == sum(rank is None for _, rank in want)

    def test_interleaved_users_match_per_entry_ranks(self):
        rng = np.random.default_rng(11)
        items = list(range(1, 13))
        train = [(u, m, 4.0) for u in (1, 2, 3)
                 for m in rng.choice(items, size=4, replace=False).tolist()]
        # user 4 is in the universe but has no training ratings
        R = InteractionMatrix(train, item_ids=items, user_ids=[1, 2, 3, 4])
        S = rng.normal(size=(12, 12))
        np.fill_diagonal(S, 0.0)
        model = SimilarityModel(matrix=S, config=TrainConfig(), item_ids=tuple(items))
        unrated = {u: [m for m in items if (u, m, 4.0) not in train] for u in (1, 2, 3, 4)}
        ratings = [5.0, 4.0, 3.0, 4.5]
        # round-robin over the users, so no user's entries are adjacent
        entries = [(u, unrated[u][k], ratings[(k + u) % 4])
                   for k in range(4) for u in (2, 4, 1, 3)]
        want, skipped = [], 0
        for user_id, item_id, rating in entries:
            if rating < 4.0:
                continue
            rank = rank_unrated_oracle(model, R, user_id, item_id)
            if rank is None:
                skipped += 1
            else:
                want.append((R.user_index(user_id), rank))
        ranked, got_skipped = collect_observations(model, R, held_out(R, entries))
        assert list(zip(ranked["user"].tolist(), ranked["rank"].tolist())) == want
        assert got_skipped == skipped == 3 and len(want) == 9

    def test_rated_held_out_item_rejected_among_others(self):
        items = [1, 2, 3, 4]
        R = InteractionMatrix([(1, 1, 4.0), (2, 2, 4.0), (2, 3, 4.0)], item_ids=items)
        model = SimilarityModel(matrix=np.ones((4, 4)) - np.eye(4), config=TrainConfig(),
                                item_ids=tuple(items))
        entries = [(1, 2, 5.0), (2, 4, 5.0), (2, 3, 4.5), (1, 3, 5.0)]
        with pytest.raises(ParameterError, match="item 3 is already rated by user 2"):
            collect_observations(model, R, held_out(R, entries))


class TestEvalReport:
    def make_report(self):
        report = EvalReport(cutoffs=(1, 10, 20))
        rng = np.random.default_rng(0)
        for fold in range(5):
            users, ranks = rng.integers(1, 10, 30), rng.integers(1, 40, 30)
            report.add_fold(compute_metrics(users, ranks), skipped=fold)
        return report

    def test_csv_layout(self):
        report = self.make_report()
        lines = report.to_csv().splitlines()
        assert lines[0] == "family,metric,cutoff,fold,value"
        # 2 families x 3 metrics x 3 cutoffs x (5 folds + mean + ci95)
        assert len(lines) == 1 + 2 * 3 * 3 * 7
        assert any(line.startswith("protocol,recall,10,mean,") for line in lines)

    def test_ci_halfwidth_bounded_by_max_deviation(self):
        report = self.make_report()
        for metric in ("recall", "precision", "map"):
            for n in (1, 10, 20):
                vals = report.values("protocol", metric, n)
                max_dev = np.abs(vals - vals.mean()).max()
                assert report.ci_halfwidth("protocol", metric, n) <= max_dev + 1e-12

    def test_table_renders(self):
        text = self.make_report().table()
        assert "protocol" in text and "standard" in text

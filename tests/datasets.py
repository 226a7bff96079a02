"""Synthetic interaction datasets shared by the recommender tests, and the
feature-CSV writer that only tests need."""

import csv

import numpy as np

from visrec.featureio import FeatureRecord
from visrec.recsys import FeatureMatrix, InteractionMatrix


def write_feature_csv(path, records: list[FeatureRecord]) -> None:
    """Write records of one kind and length as the feature CSV that
    ``featureio.read_feature_csv`` reads, every value exact (17 digits)."""
    kind, length = records[0].vector.kind, len(records[0].vector)
    keyed = any(r.keyframe_index is not None for r in records)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        key_cols = ["movie_id", "keyframe_index"] if keyed else ["movie_id"]
        writer.writerow(key_cols + ["kind"] + [f"v{i}" for i in range(length)])
        for rec in records:
            key = [rec.movie_id, rec.keyframe_index] if keyed else [rec.movie_id]
            writer.writerow(key + [kind] + [format(v, ".17g") for v in rec.vector.values])


def two_block_dataset(n_users=50, n_items=20, rated_per_user=6, seed=5):
    """Two disjoint user/item communities; returns (R, F, held_out).

    Every user rates a subset of their block's items highly; one positive per
    user is withheld for evaluation. Features are noisy block indicators.
    """
    rng = np.random.default_rng(seed)
    half = n_items // 2
    item_ids = list(range(1, n_items + 1))
    entries = []
    held_out = []
    for user in range(1, n_users + 1):
        block_items = item_ids[:half] if user <= n_users // 2 else item_ids[half:]
        chosen = rng.permutation(block_items)[: rated_per_user + 1]
        held_out.append((user, int(chosen[0])))
        for item in chosen[1:]:
            entries.append((user, int(item), float(rng.choice([4.0, 4.5, 5.0])), 0))
    R = InteractionMatrix(entries, item_ids=item_ids)
    features = np.zeros((n_items, 2))
    features[:half, 0] = 1.0
    features[half:, 1] = 1.0
    features += 0.05 * rng.standard_normal(features.shape)
    F = FeatureMatrix(family="FUSED", item_ids=tuple(item_ids), values=features)
    return R, F, held_out


def cold_item_dataset(n_users=50, seed=9):
    """Items 1..50 in two blocks; 15 of them (30%) have no training ratings.

    Block one is items 1-25 with cold items 1-7; block two is items 26-50
    with cold items 26-33. Every user rates every warm item: own block high,
    other block low, so the unrated candidate pool is exactly the cold items.
    A user's held-out relevant items are their own block's cold items, which
    only the feature side information can tell apart from the other block's.
    """
    rng = np.random.default_rng(seed)
    item_ids = list(range(1, 51))
    cold = sorted(set(range(1, 8)) | set(range(26, 34)))
    cold_set = set(cold)
    warm_one = [i for i in range(1, 26) if i not in cold_set]
    warm_two = [i for i in range(26, 51) if i not in cold_set]
    entries = []
    test_positives = []
    for user in range(1, n_users + 1):
        own_block_one = user <= n_users // 2
        liked = warm_one if own_block_one else warm_two
        disliked = warm_two if own_block_one else warm_one
        for item in liked:
            entries.append((user, item, float(rng.choice([4.5, 5.0])), 0))
        for item in disliked:
            entries.append((user, item, float(rng.choice([1.0, 1.5])), 0))
        test_positives.extend(
            (user, c) for c in cold if (c <= 25) == own_block_one
        )
    R = InteractionMatrix(entries, item_ids=item_ids)
    features = np.zeros((50, 2))
    features[:25, 0] = 1.0
    features[25:, 1] = 1.0
    F = FeatureMatrix(family="FUSED", item_ids=tuple(item_ids), values=features)
    return R, F, cold, test_positives

"""Offline top-N evaluation: 80/10/10 splits, one-plus-all-unrated ranking,
recall/precision/MAP at cutoffs 1/10/20 across 5 folds.

Two metric families are reported side by side, because they answer different
questions and are often conflated:

* ``protocol`` metrics treat every held-out relevant item as its own test
  case: recall@N is the hit rate over test cases, precision@N is recall@N/N
  by construction, and MAP@N is the truncated reciprocal rank (the average
  precision of a list with a single relevant item).
* ``standard`` metrics are per-user top-N metrics over the user's whole test
  set, averaged over users.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyInputError, MissingUserError, ParameterError
from .recsys import (
    DEFAULT_RELEVANCE_THRESHOLD,
    InteractionMatrix,
    SimilarityModel,
    score,
)

CUTOFFS = (1, 10, 20)
METRIC_FAMILIES = ("protocol", "standard")
METRICS = ("recall", "precision", "map")

# 95% normal-approximation half-width; with 5 folds this stays below the
# largest per-fold deviation, which a t-quantile would not.
_Z95 = 1.959963984540054


@dataclass(frozen=True)
class Split:
    """Entry-index partition of one fold; indices point into the parent
    InteractionMatrix entry arrays."""

    fold: int
    seed: int
    train_idx: np.ndarray
    val_idx: np.ndarray
    test_idx: np.ndarray


def make_splits(R: InteractionMatrix, folds: int = 5, seed: int = 0) -> list[Split]:
    """Per-user-stratified random 80/10/10 splits, one per fold.

    Users with fewer than 3 ratings contribute to training only. Deterministic
    given (seed, fold).
    """
    if folds < 1:
        raise ParameterError(f"folds must be >= 1, got {folds}")
    if R.n_entries == 0:
        raise EmptyInputError("cannot split an empty interaction matrix")
    # each user's entry positions in ascending order, as the rng draws expect
    by_user = np.split(np.argsort(R.entry_users, kind="stable"), R.indptr[1:-1])
    splits = []
    for fold in range(folds):
        rng = np.random.default_rng([seed, fold])
        train, val, test = [], [], []
        for entries in by_user:
            n = len(entries)
            if n < 3:
                train.extend(entries)
                continue
            perm = entries[rng.permutation(n)]
            n_val = max(1, int(0.1 * n + 0.5))
            n_test = max(1, int(0.1 * n + 0.5))
            val.extend(perm[:n_val])
            test.extend(perm[n_val : n_val + n_test])
            train.extend(perm[n_val + n_test :])
        splits.append(
            Split(
                fold=fold,
                seed=seed,
                train_idx=np.sort(np.asarray(train, dtype=np.int64)),
                val_idx=np.sort(np.asarray(val, dtype=np.int64)),
                test_idx=np.sort(np.asarray(test, dtype=np.int64)),
            )
        )
    return splits


def _user_scores(model: SimilarityModel, R_train: InteractionMatrix, user_id):
    """(scores over every item, rated item positions) of one training user;
    the positions are a view of ``R_train.indices``."""
    u = R_train.user_index(user_id)
    rated = R_train.indices[R_train.indptr[u] : R_train.indptr[u + 1]]
    if len(rated) == 0:
        raise MissingUserError(f"user {user_id} has no training ratings")
    return score(model, R_train, user_id), rated


def _rank_unrated(R_train: InteractionMatrix, user_id, item_id, scores, rated) -> int:
    """1-based rank of the item among the items outside ``rated``. Ties count
    against the item."""
    t = R_train.item_index(item_id)
    if t in rated:
        raise ParameterError(f"item {item_id} is already rated by user {user_id}")
    mask = np.ones(R_train.n_items, dtype=bool)
    mask[rated] = False
    mask[t] = False
    return int(1 + (scores[mask] >= scores[t]).sum())


def rank_one_plus_unrated(
    model: SimilarityModel, R_train: InteractionMatrix, user_id, test_item_id
) -> int:
    """1-based rank of the held-out item among everything the user has not
    rated in training. Ties count against the test item."""
    scores, rated = _user_scores(model, R_train, user_id)
    return _rank_unrated(R_train, user_id, test_item_id, scores, rated)


@dataclass(frozen=True)
class RankObservation:
    user_id: int
    rank: int
    n_candidates: int


def compute_metrics(
    observations: list[RankObservation], cutoffs: tuple[int, ...] = CUTOFFS
) -> dict[tuple[str, str, int], float]:
    """Both metric families, keyed (family, metric, cutoff)."""
    if not observations:
        raise EmptyInputError("no rank observations to score")
    for n in cutoffs:
        if n < 1:
            raise ParameterError(f"cutoff must be >= 1, got {n}")
    ranks = np.array([o.rank for o in observations], dtype=np.float64)
    by_user: dict[int, list[int]] = {}
    for o in observations:
        by_user.setdefault(o.user_id, []).append(o.rank)

    out: dict[tuple[str, str, int], float] = {}
    for n in cutoffs:
        hits = ranks <= n
        recall = float(hits.mean())
        out[("protocol", "recall", n)] = recall
        out[("protocol", "precision", n)] = recall / n
        out[("protocol", "map", n)] = float(np.where(hits, 1.0 / ranks, 0.0).mean())

        precisions, recalls, aps = [], [], []
        for user_ranks in by_user.values():
            r = np.sort(np.asarray(user_ranks, dtype=np.float64))
            hit_ranks = r[r <= n]
            n_rel = len(r)
            precisions.append(len(hit_ranks) / n)
            recalls.append(len(hit_ranks) / n_rel)
            positions = np.arange(1, len(hit_ranks) + 1)
            ap = (positions / hit_ranks).sum() / min(n_rel, n) if len(hit_ranks) else 0.0
            aps.append(ap)
        out[("standard", "precision", n)] = float(np.mean(precisions))
        out[("standard", "recall", n)] = float(np.mean(recalls))
        out[("standard", "map", n)] = float(np.mean(aps))
    return out


def collect_observations(
    model: SimilarityModel,
    R_train: InteractionMatrix,
    test_entries: list[tuple[int, int, float]],
    relevance_threshold: float = DEFAULT_RELEVANCE_THRESHOLD,
) -> tuple[list[RankObservation], int]:
    """Rank every relevant test entry; returns (observations, skipped count).

    Observations come in entry order. Each user is scored once, all of the
    user's entries are ranked, and the scores are dropped before the next
    user, so memory holds one score vector at a time. Users that cannot be
    ranked (no training ratings) are skipped, not fatal.
    """
    relevant = [entry for entry in test_entries if entry[2] >= relevance_threshold]
    by_user: dict = {}  # user id -> positions in ``relevant``
    for pos, (user_id, _, _) in enumerate(relevant):
        by_user.setdefault(user_id, []).append(pos)
    ranked: list[RankObservation | None] = [None] * len(relevant)
    skipped = 0
    for user_id, positions in by_user.items():
        try:
            scores, rated = _user_scores(model, R_train, user_id)
        except MissingUserError:
            skipped += len(positions)
            continue
        for pos in positions:
            rank = _rank_unrated(R_train, user_id, relevant[pos][1], scores, rated)
            ranked[pos] = RankObservation(
                user_id=user_id, rank=rank, n_candidates=R_train.n_items - len(rated)
            )
    return [obs for obs in ranked if obs is not None], skipped


@dataclass
class EvalReport:
    """Per-fold metric values plus mean and 95% half-width across folds."""

    cutoffs: tuple[int, ...] = CUTOFFS
    fold_metrics: list[dict[tuple[str, str, int], float]] = field(default_factory=list)
    skipped: list[int] = field(default_factory=list)

    def add_fold(self, metrics: dict[tuple[str, str, int], float], skipped: int = 0):
        self.fold_metrics.append(metrics)
        self.skipped.append(skipped)

    def values(self, family: str, metric: str, cutoff: int) -> np.ndarray:
        return np.array([m[(family, metric, cutoff)] for m in self.fold_metrics])

    def mean(self, family: str, metric: str, cutoff: int) -> float:
        return float(self.values(family, metric, cutoff).mean())

    def ci_halfwidth(self, family: str, metric: str, cutoff: int) -> float:
        vals = self.values(family, metric, cutoff)
        if len(vals) < 2:
            return 0.0
        return float(_Z95 * vals.std(ddof=1) / np.sqrt(len(vals)))

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["family", "metric", "cutoff", "fold", "value"])
        for family in METRIC_FAMILIES:
            for metric in METRICS:
                for cutoff in self.cutoffs:
                    for fold, metrics in enumerate(self.fold_metrics):
                        writer.writerow(
                            [
                                family,
                                metric,
                                cutoff,
                                fold,
                                format(metrics[(family, metric, cutoff)], ".17g"),
                            ]
                        )
                    writer.writerow(
                        [family, metric, cutoff, "mean",
                         format(self.mean(family, metric, cutoff), ".17g")]
                    )
                    writer.writerow(
                        [family, metric, cutoff, "ci95",
                         format(self.ci_halfwidth(family, metric, cutoff), ".17g")]
                    )
        return buf.getvalue()

    def table(self) -> str:
        lines = [
            f"{'family':<10} {'metric':<10} "
            + " ".join(f"@{n:<14}" for n in self.cutoffs)
        ]
        for family in METRIC_FAMILIES:
            for metric in METRICS:
                cells = []
                for n in self.cutoffs:
                    cells.append(
                        f"{self.mean(family, metric, n):.4f}"
                        f"±{self.ci_halfwidth(family, metric, n):.4f}"
                    )
                lines.append(
                    f"{family:<10} {metric:<10} " + " ".join(f"{c:<15}" for c in cells)
                )
        if any(self.skipped):
            lines.append(f"skipped test cases per fold: {self.skipped}")
        return "\n".join(lines)

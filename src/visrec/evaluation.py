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

from .errors import EmptyInputError, ParameterError
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
                train_idx=np.sort(np.asarray(train, dtype=np.int64)),
                val_idx=np.sort(np.asarray(val, dtype=np.int64)),
                test_idx=np.sort(np.asarray(test, dtype=np.int64)),
            )
        )
    return splits


def compute_metrics(
    users, ranks, cutoffs: tuple[int, ...] = CUTOFFS
) -> dict[tuple[str, str, int], float]:
    """Both metric families, keyed (family, metric, cutoff), from each
    observation's user and rank, in observation order."""
    ranks = np.asarray(ranks, dtype=np.float64)
    if not len(ranks):
        raise EmptyInputError("no rank observations to score")
    for n in cutoffs:
        if n < 1:
            raise ParameterError(f"cutoff must be >= 1, got {n}")
    # each user's ranks, ascending, users in the order of their first
    # observation: the standard means add the users up in that order
    _, first, group, n_rel = np.unique(users, return_index=True, return_inverse=True,
                                       return_counts=True)
    n_rel = n_rel[np.argsort(first)]
    by_user = np.split(ranks[np.lexsort((ranks, first[group]))], np.cumsum(n_rel)[:-1])

    out: dict[tuple[str, str, int], float] = {}
    for n in cutoffs:
        hits = ranks <= n
        recall = float(hits.mean())
        out[("protocol", "recall", n)] = recall
        out[("protocol", "precision", n)] = recall / n
        out[("protocol", "map", n)] = float(np.where(hits, 1.0 / ranks, 0.0).mean())

        hit_ranks = [r[r <= n] for r in by_user]
        n_hit = np.array([len(h) for h in hit_ranks])
        aps = [(np.arange(1, len(h) + 1) / h).sum() / min(m, n) if len(h) else 0.0
               for h, m in zip(hit_ranks, n_rel)]
        out[("standard", "precision", n)] = float(np.mean(n_hit / n))
        out[("standard", "recall", n)] = float(np.mean(n_hit / n_rel))
        out[("standard", "map", n)] = float(np.mean(aps))
    return out


def collect_observations(
    model: SimilarityModel,
    R_train: InteractionMatrix,
    held_out: np.recarray,
    relevance_threshold: float = DEFAULT_RELEVANCE_THRESHOLD,
) -> tuple[np.recarray, int]:
    """Rank every relevant held-out entry; returns (ranked, skipped count).

    ``held_out`` holds entries in index space, as the fields ``user`` and
    ``item`` (positions in R_train's universes) and ``rating``. ``ranked``
    holds the ranked entries' ``user`` and ``rank`` fields, in entry order.
    An entry's rank is the count of the user's unrated items, the entry's
    own included, that score at least as high as it, so ties count against
    it. Each user is scored once and all of the user's entries are ranked
    together. Users with no training ratings cannot be ranked and are
    skipped, not fatal.
    """
    relevant = held_out[held_out["rating"] >= relevance_threshold]
    order = np.argsort(relevant["user"], kind="stable")
    users = relevant["user"][order]
    starts = np.flatnonzero(np.diff(users, prepend=-1))
    ranks = np.zeros(len(relevant), dtype=np.int64)
    kept = np.ones(len(relevant), dtype=bool)
    for u, at in zip(users[starts], np.split(order, starts[1:])):
        rated = R_train.indices[R_train.indptr[u] : R_train.indptr[u + 1]]
        if len(rated) == 0:
            kept[at] = False
            continue
        unrated = np.ones(R_train.n_items, dtype=bool)
        unrated[rated] = False
        items = relevant["item"][at]
        if not unrated[items].all():
            item = R_train.item_ids[items[~unrated[items]][0]]
            raise ParameterError(f"item {item} is already rated by user {R_train.user_ids[u]}")
        scores = score(model, R_train, R_train.user_ids[u])
        ranks[at] = (scores[unrated] >= scores[items][:, None]).sum(axis=1)
    ranked = np.rec.fromarrays((relevant["user"][kept], ranks[kept]), names="user,rank")
    return ranked, int((~kept).sum())


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

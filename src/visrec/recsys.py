"""Item-similarity recommendation: collective SLIM trained with pairwise ranking.

The similarity matrix S is learned from two signals sharing one set of
columns: sampled (user, positive, negative) ranking triples on the rating
matrix, weighted ``alpha``, and a full-batch reconstruction of the item
feature matrix, weighted ``1 - alpha``. An L2 penalty ``gamma`` applies to
every update and the diagonal of S is clamped to zero throughout, so an item
never recommends itself.

Training never forms S inside its loop. Both updates are linear in S, so S
is kept factored: a scaled n x n part takes the ranking writes, and the
feature steps live in G times a k x n matrix, where G is the n x k feature
matrix with k = min(n, d). One triple and its feature step then cost
O(n k^2 + |rated| k), against O(n^2 d) on a dense S, and the iterates are
the same up to rounding. S is materialised once per epoch.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from .errors import (
    AlignmentError,
    DivergenceError,
    DuplicateKeyError,
    FormatError,
    MissingUserError,
    ParameterError,
)
from .featureio import read_arrays, read_csv_table, write_arrays

RATING_MIN, RATING_MAX = 0.5, 5.0
DEFAULT_RELEVANCE_THRESHOLD = 4.0


class InteractionMatrix:
    """Sparse user x item ratings with timestamps.

    User and item id universes are fixed at construction; an explicit
    ``item_ids`` list lets cold items (features but no ratings) occupy
    columns.
    """

    def __init__(self, entries, item_ids=None, user_ids=None):
        entries = list(entries)
        users = sorted({e[0] for e in entries}) if user_ids is None else list(user_ids)
        items = sorted({e[1] for e in entries}) if item_ids is None else list(item_ids)
        self.user_ids = tuple(users)
        self.item_ids = tuple(items)
        self._user_index = {u: i for i, u in enumerate(users)}
        self._item_index = {m: i for i, m in enumerate(items)}
        seen = set()
        u_idx = np.empty(len(entries), dtype=np.int64)
        i_idx = np.empty(len(entries), dtype=np.int64)
        ratings = np.empty(len(entries))
        stamps = np.zeros(len(entries), dtype=np.int64)
        for pos, entry in enumerate(entries):
            user, item, rating = entry[0], entry[1], float(entry[2])
            if user not in self._user_index:
                raise AlignmentError(f"user {user} outside the declared user universe")
            if item not in self._item_index:
                raise AlignmentError(f"item {item} outside the declared item universe")
            if not RATING_MIN <= rating <= RATING_MAX:
                raise ParameterError(
                    f"rating {rating} for ({user}, {item}) outside "
                    f"[{RATING_MIN}, {RATING_MAX}]"
                )
            key = (user, item)
            if key in seen:
                raise DuplicateKeyError(f"duplicate rating for {key}")
            seen.add(key)
            u_idx[pos] = self._user_index[user]
            i_idx[pos] = self._item_index[item]
            ratings[pos] = rating
            if len(entry) > 3 and entry[3] is not None:
                stamps[pos] = int(entry[3])
        self.entry_users = u_idx
        self.entry_items = i_idx
        self.entry_ratings = ratings
        self.entry_timestamps = stamps
        self.matrix = sp.csr_matrix(
            (ratings, (u_idx, i_idx)), shape=(len(users), len(items))
        )

    @property
    def n_users(self) -> int:
        return len(self.user_ids)

    @property
    def n_items(self) -> int:
        return len(self.item_ids)

    @property
    def n_entries(self) -> int:
        return len(self.entry_ratings)

    def user_index(self, user_id) -> int:
        try:
            return self._user_index[user_id]
        except KeyError:
            raise MissingUserError(f"unknown user {user_id}") from None

    def item_index(self, item_id) -> int:
        return self._item_index[item_id]

    def user_ratings(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        """(item indices, rating values) of one user row, as copies."""
        lo, hi = self.matrix.indptr[u], self.matrix.indptr[u + 1]
        return (
            self.matrix.indices[lo:hi].astype(np.int64),
            self.matrix.data[lo:hi].copy(),
        )

    def _entries(self, positions) -> list[tuple]:
        return [
            (
                self.user_ids[self.entry_users[i]],
                self.item_ids[self.entry_items[i]],
                self.entry_ratings[i],
                self.entry_timestamps[i],
            )
            for i in positions
        ]

    def restrict(self, entry_indices) -> "InteractionMatrix":
        """Same user/item universes, entries limited to the given positions."""
        entries = self._entries(np.asarray(entry_indices, dtype=np.int64))
        return InteractionMatrix(entries, item_ids=self.item_ids, user_ids=self.user_ids)

    def with_items(self, item_ids) -> "InteractionMatrix":
        """Same entries and users over another item universe."""
        entries = self._entries(range(self.n_entries))
        return InteractionMatrix(entries, item_ids=item_ids, user_ids=self.user_ids)


def load_ratings_csv(path: str | Path, item_ids=None) -> InteractionMatrix:
    """MovieLens ratings.csv (userId,movieId,rating,timestamp)."""
    entries = read_csv_table(path, ("userId", "movieId", "rating"), lambda row: (
        int(row["userId"]),
        int(row["movieId"]),
        float(row["rating"]),
        int(row.get("timestamp") or 0),
    ))
    return InteractionMatrix(entries, item_ids=item_ids)


@dataclass(frozen=True)
class FeatureMatrix:
    """Dense items x d feature matrix, row-aligned against an item id list."""

    family: str
    item_ids: tuple[int, ...]
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2:
            raise ParameterError(f"feature matrix must be 2-D, got shape {v.shape}")
        if v.shape[0] != len(self.item_ids):
            raise AlignmentError(
                f"{v.shape[0]} feature rows for {len(self.item_ids)} item ids"
            )
        if not np.isfinite(v).all():
            raise ValueError("feature matrix contains non-finite values")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "item_ids", tuple(self.item_ids))

    @property
    def d(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class TrainConfig:
    alpha: float = 0.5
    gamma: float = 1e-4
    learning_rate: float = 0.05
    epochs: int = 30
    seed: int = 0
    relevance_threshold: float = DEFAULT_RELEVANCE_THRESHOLD

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ParameterError(f"alpha must lie in [0, 1], got {self.alpha}")
        if self.gamma < 0:
            raise ParameterError(f"gamma must be nonnegative, got {self.gamma}")
        if self.learning_rate <= 0:
            raise ParameterError(f"learning rate must be positive, got {self.learning_rate}")
        if self.epochs < 1:
            raise ParameterError(f"epochs must be >= 1, got {self.epochs}")


@dataclass(frozen=True)
class SimilarityModel:
    matrix: np.ndarray  # n_items x n_items, zero diagonal
    config: TrainConfig
    item_ids: tuple[int, ...]
    loss_history: tuple[float, ...] = field(default=())

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ParameterError(f"similarity matrix must be square, got {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError("similarity matrix contains non-finite values")
        if np.abs(np.diag(m)).max(initial=0.0) != 0.0:
            raise ValueError("similarity matrix must have a zero diagonal")
        object.__setattr__(self, "matrix", m)


def standardize_columns(values: np.ndarray) -> np.ndarray:
    """Zero-mean unit-variance columns; constant columns become zero."""
    centered = values - values.mean(axis=0)
    std = centered.std(axis=0)
    std[std == 0] = 1.0
    return centered / std


def sample_negative(rng: np.random.Generator, rated: set[int], n_items: int) -> int:
    """Uniform item the user has not rated (rejection sampling)."""
    while True:
        j = int(rng.integers(n_items))
        if j not in rated:
            return j


def _spectral_norm(G: np.ndarray, iters: int = 60) -> float:
    """Largest eigenvalue of G @ G.T by power iteration.

    The start vector is pseudo-random from a fixed seed: deterministic, and
    never exactly orthogonal to the dominant eigenspace the way a structured
    start (all-ones) can be on block-patterned features.
    """
    v = np.random.default_rng(1905).standard_normal(G.shape[0])
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        w = G @ (G.T @ v)
        norm = np.linalg.norm(w)
        if norm == 0:
            return 0.0
        lam = v @ w
        v = w / norm
    return float(max(lam, 0.0))


def train_collective_slim(
    R: InteractionMatrix, F: FeatureMatrix, cfg: TrainConfig
) -> SimilarityModel:
    """Learn S from sampled ranking triples (weight alpha), each triple
    update interleaved with one gradient step on the feature-reconstruction
    term (weight 1 - alpha). Deterministic given cfg.seed.

    Feature columns are standardized first so ``alpha`` means the same thing
    across feature families. Each feature gradient step is scaled by the
    feature Gram spectral norm, which makes it a guaranteed descent step for
    any ``learning_rate * (1 - alpha) <= 0.5`` and keeps the two pulls in
    balance, so the ranking updates cannot outrun the reconstruction term.

    S is not stored inside the loop. Every update is linear in S, so it is
    kept as ``S = s * B.T + G @ Z.T`` with the diagonal read as zero: ``B``
    (n x n, row t holds column t of S) takes the ranking writes divided by
    the running decay ``s``, and ``Z`` (n x k) the feature steps, in the
    k = min(n, d) columns of G. ``L = B @ G`` follows B, so a feature step
    never touches an n x n array.
    """
    if R.n_entries == 0:
        raise ParameterError("cannot train on an empty interaction matrix")
    if F.item_ids != R.item_ids:
        raise AlignmentError(
            "feature matrix items and interaction matrix items are not aligned"
        )
    n = R.n_items
    G = standardize_columns(F.values)

    rated_idx: list[np.ndarray] = []
    rated_val: list[np.ndarray] = []
    rated_set: list[set[int]] = []
    for u in range(R.n_users):
        idx, val = R.user_ratings(u)
        rated_idx.append(idx)
        rated_val.append(val)
        rated_set.append(set(int(i) for i in idx))

    # (user, positive item, position of the item in the user's rated row)
    pairs = [
        (u, int(i), pos)
        for u in range(R.n_users)
        if 0 < len(rated_idx[u]) < n
        for pos, (i, r) in enumerate(zip(rated_idx[u], rated_val[u]))
        if r >= cfg.relevance_threshold
    ]

    lam_f = _spectral_norm(G) if cfg.alpha < 1.0 else 0.0
    use_features = cfg.alpha < 1.0 and lam_f > 0.0
    lr, alpha, gamma = cfg.learning_rate, cfg.alpha, cfg.gamma
    run_bpr = alpha > 0.0 and bool(pairs)
    # without ranking triples to pace them, run enough feature steps per
    # epoch to keep plain gradient descent moving at any learning rate
    if use_features and not run_bpr:
        feature_steps = min(400, max(1, round(2.0 / (lr * (1.0 - alpha)))))
    else:
        feature_steps = 0
    decay = 1.0 - lr * gamma
    if use_features:
        if G.shape[1] > n:
            # the feature term sees G only through G @ G.T, which the thin
            # factor U * sigma (n x n) reproduces
            U, sigma, _ = np.linalg.svd(G, full_matrices=False)
            G = U * sigma
        H = G.T @ G
        gain = lr * 2.0 * (1.0 - alpha) / lam_f

    B = np.zeros((n, n))
    Z = np.zeros((n, G.shape[1]))
    L = np.zeros_like(Z)
    resid = np.empty_like(Z)
    s = 1.0
    sse_acc = [0.0, 0]

    def feature_step():
        # resid = G - S.T @ G = G - (s L + Z H - m G): B never takes a
        # diagonal write, so m = rowdot(Z, G) is the whole diagonal of
        # s B.T + G Z.T, which the zero clamp removes
        nonlocal s, B, L, Z, resid
        np.matmul(Z, H, out=resid)
        resid += s * L
        resid -= np.einsum("ij,ij->i", Z, G)[:, None] * G
        np.subtract(G, resid, out=resid)
        sse_acc[0] += float(np.vdot(resid, resid))
        sse_acc[1] += 1
        resid *= gain
        Z *= decay
        Z += resid
        s *= decay
        if abs(s) < 1e-30:  # fold the decay into B before B / s overflows
            B *= s
            L *= s
            s = 1.0

    signs = np.array([1.0, -1.0])
    rng = np.random.default_rng(cfg.seed)
    history = []
    for epoch in range(cfg.epochs):
        bpr_loss = 0.0
        sse_acc[:] = [0.0, 0]
        if run_bpr:
            order = rng.permutation(len(pairs))
            for p in order:
                u, i, pos = pairs[p]
                j = sample_negative(rng, rated_set[u], n)
                idx, val = rated_idx[u], rated_val[u]
                rows = ([i], [j]), idx
                cols = B[rows]  # S[idx, i] and S[idx, j] as two rows
                if use_features:
                    G_idx = G[idx]
                    cols *= s
                    cols += Z[[i, j]] @ G_idx.T
                cols[0, pos] = 0.0
                x_i, x_j = cols @ val
                bpr_loss += np.logaddexp(0.0, x_j - x_i)
                z = expit(x_j - x_i)
                delta = np.multiply.outer(signs, alpha * z * val)
                delta -= gamma * cols
                delta *= lr
                delta[0, pos] = 0.0
                delta /= s  # s stays 1.0 without feature steps
                B[rows] += delta
                if use_features:
                    L[[i, j]] += delta @ G_idx
                    feature_step()
        else:
            for _ in range(feature_steps):
                feature_step()
        S = np.multiply(B.T, s, order="C")
        if use_features:
            S += G @ Z.T
        np.fill_diagonal(S, 0.0)
        if not np.isfinite(S).all():
            raise DivergenceError(
                f"similarity matrix diverged at epoch {epoch}; lower the learning rate"
            )
        # monitor: every component averaged over the epoch's steps
        total = alpha * (bpr_loss / len(pairs) if pairs else 0.0)
        if alpha < 1.0:
            if sse_acc[1]:
                total += (1.0 - alpha) * sse_acc[0] / sse_acc[1]
            else:
                total += (1.0 - alpha) * float(((G.T - G.T @ S) ** 2).sum())
        total += gamma * float((S ** 2).sum())
        history.append(total)
    return SimilarityModel(
        matrix=S, config=cfg, item_ids=R.item_ids, loss_history=tuple(history)
    )


def score(model: SimilarityModel, R: InteractionMatrix, user_id) -> np.ndarray:
    """score(u, t) = sum over rated items l of r_ul * S[l, t]."""
    u = R.user_index(user_id)
    idx, val = R.user_ratings(u)
    if len(idx) == 0:
        return np.zeros(R.n_items)
    return val @ model.matrix[idx, :]


def recommend(model: SimilarityModel, R: InteractionMatrix, user_id, n: int) -> list:
    """Top-n unrated items; ties broken by ascending item id."""
    if n < 1:
        raise ParameterError(f"cutoff must be >= 1, got {n}")
    scores = score(model, R, user_id)
    u = R.user_index(user_id)
    rated, _ = R.user_ratings(u)
    mask = np.ones(R.n_items, dtype=bool)
    mask[rated] = False
    candidates = np.flatnonzero(mask)
    ids = np.array([model.item_ids[c] for c in candidates])
    order = np.lexsort((ids, -scores[candidates]))
    return [model.item_ids[candidates[o]] for o in order[:n]]


# ---------------------------------------------------------------------------
# Checkpoints: a "similarity" container file (see featureio) of the item ids,
# the dense S (it has no L1 term) and each TrainConfig field as an attr
# ---------------------------------------------------------------------------

_CHECKPOINT_ATTRS = {f.name: type(f.default) for f in fields(TrainConfig)} | {"feature_dim": int}


def save_model(path: str | Path, model: SimilarityModel, feature_dim: int = 0) -> None:
    attrs = {**asdict(model.config), "feature_dim": feature_dim}
    item_ids = np.asarray(model.item_ids, dtype=np.int64)
    write_arrays(path, "similarity", attrs, item_ids=item_ids, matrix=model.matrix)


def load_model(path: str | Path) -> SimilarityModel:
    attrs, arrays = read_arrays(path, "similarity", _CHECKPOINT_ATTRS,
                                {"item_ids": "<i8 n", "matrix": "<f8 n n"})
    del attrs["feature_dim"]
    try:
        return SimilarityModel(matrix=arrays["matrix"], config=TrainConfig(**attrs),
                               item_ids=tuple(arrays["item_ids"].tolist()))
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None

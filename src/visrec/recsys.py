"""Item-similarity recommendation: collective SLIM trained with pairwise ranking.

The similarity matrix S is learned from two signals sharing one set of
columns: sampled (user, positive, negative) ranking triples on the rating
matrix, weighted ``alpha``, and a full-batch reconstruction of the item
feature matrix, weighted ``1 - alpha``. An L2 penalty ``gamma`` applies to
every update and the diagonal of S is clamped to zero throughout, so an item
never recommends itself.

Training never forms S inside its loop. Both updates are linear in S, so S
is kept factored: a scaled n x n part takes the ranking writes, and the
feature steps live in G times a k x n matrix. The feature term sees the
features only through their item Gram, so G is the thin factor U * Sigma of
the standardized n x d features, with k = min(n, d), whose own Gram is the
diagonal Sigma^2. One triple and its feature step then cost
O(n k + |rated| k), against O(n^2 d) on a dense S, and the iterates are the
same up to rounding. S is materialised once per epoch.

Serving needs numpy alone: the rating matrix is kept as plain numpy CSR
arrays, and scipy is imported only by training (for ``expit``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import (
    AlignmentError,
    DivergenceError,
    DuplicateKeyError,
    FormatError,
    MissingUserError,
    ParameterError,
)
from .featureio import parse_int64, read_arrays, read_csv_table, write_arrays

RATING_MIN, RATING_MAX = 0.5, 5.0
DEFAULT_RELEVANCE_THRESHOLD = 4.0
# standardize_columns: a column with std at most this times max|values| is constant
CONSTANT_COLUMN_RTOL = 1e-12


class InteractionMatrix:
    """Sparse user x item ratings with timestamps.

    User and item id universes are fixed at construction; an explicit
    ``item_ids`` list lets cold items (features but no ratings) occupy
    columns. The ratings are held as numpy CSR arrays: ``indptr`` (one
    offset per user, plus one), ``indices`` (item columns, ascending within
    each user) and ``data`` (rating values).
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
        self._set_entries(u_idx, i_idx, ratings, stamps)

    def _set_entries(self, users, items, ratings, stamps) -> None:
        """Store valid entry arrays and build the CSR arrays from them."""
        self.entry_users = users
        self.entry_items = items
        self.entry_ratings = ratings
        self.entry_timestamps = stamps
        order = np.lexsort((items, users))
        self.indptr = np.concatenate(
            ([0], np.cumsum(np.bincount(users, minlength=self.n_users)))
        )
        self.indices = items[order]
        self.data = ratings[order]

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
        lo, hi = self.indptr[u], self.indptr[u + 1]
        return self.indices[lo:hi].copy(), self.data[lo:hi].copy()

    def restrict(self, entry_indices) -> "InteractionMatrix":
        """Same user/item universes, entries limited to the given positions."""
        # canonical positions, so that -1 and n_entries - 1 count as one entry
        pos = np.arange(self.n_entries)[np.asarray(entry_indices, dtype=np.int64)]
        if np.unique(pos).size != pos.size:
            raise DuplicateKeyError("restrict needs distinct entry positions")
        sub = InteractionMatrix([], item_ids=self.item_ids, user_ids=self.user_ids)
        sub._set_entries(self.entry_users[pos], self.entry_items[pos],
                         self.entry_ratings[pos], self.entry_timestamps[pos])
        return sub

    def with_items(self, item_ids) -> "InteractionMatrix":
        """Same entries and users over another item universe."""
        wide = InteractionMatrix([], item_ids=item_ids, user_ids=self.user_ids)
        remap = np.array([wide._item_index.get(m, -1) for m in self.item_ids], dtype=np.int64)
        items = remap[self.entry_items]
        if (items < 0).any():  # name the first entry, in entry order, whose item is missing
            item = self.item_ids[self.entry_items[np.argmax(items < 0)]]
            raise AlignmentError(f"item {item} outside the declared item universe")
        wide._set_entries(self.entry_users, items, self.entry_ratings, self.entry_timestamps)
        return wide


def load_ratings_csv(path: str | Path, item_ids=None) -> InteractionMatrix:
    """MovieLens ratings.csv (userId,movieId,rating,timestamp)."""
    entries = read_csv_table(path, ("userId", "movieId", "rating"), lambda row: (
        parse_int64(row["userId"]),
        parse_int64(row["movieId"]),
        float(row["rating"]),
        parse_int64(row.get("timestamp") or "0"),
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
        if self.seed < 0:
            raise ParameterError(f"seed must be nonnegative, got {self.seed}")


@dataclass(frozen=True)
class SimilarityModel:
    matrix: np.ndarray  # n_items x n_items, zero diagonal
    config: TrainConfig
    item_ids: tuple[int, ...]
    loss_history: tuple[float, ...] = field(default=())
    item_id_array: np.ndarray = field(init=False, repr=False, compare=False)  # int64

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ParameterError(f"similarity matrix must be square, got {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError("similarity matrix contains non-finite values")
        if np.abs(np.diag(m)).max(initial=0.0) != 0.0:
            raise ValueError("similarity matrix must have a zero diagonal")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "item_id_array", np.asarray(self.item_ids, dtype=np.int64))


def standardize_columns(values: np.ndarray) -> np.ndarray:
    """Zero-mean unit-variance columns; constant columns become zero.

    A column counts as constant when its standard deviation is at most
    ``CONSTANT_COLUMN_RTOL`` times the largest absolute entry of the whole
    matrix, so rounding noise in a column that should be constant is zeroed
    instead of scaled up to unit variance. The scale is the matrix's: a
    column of pure noise has no scale of its own to compare against.
    Values so large that a column's standard deviation overflows float64
    raise FormatError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        centered = values - values.mean(axis=0)
        std = centered.std(axis=0)
    if not np.isfinite(std).all():
        raise FormatError("the standard deviation of a feature column overflows float64")
    constant = std <= CONSTANT_COLUMN_RTOL * np.abs(values).max(initial=0.0)
    centered[:, constant] = 0.0
    std[constant] = 1.0
    return centered / std


def sample_negative(rng: np.random.Generator, rated: set[int], n_items: int) -> int:
    """Uniform item the user has not rated (rejection sampling)."""
    while True:
        j = int(rng.integers(n_items))
        if j not in rated:
            return j


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

    The feature term depends on the standardized features only through
    their item Gram, so training uses their thin factor ``G = U * sigma``
    (n x k, k = min(n, d)) from one thin SVD. Its k x k Gram is the diagonal
    ``sigma**2``, and the spectral norm is exactly ``sigma[0]**2``.

    S is not stored inside the loop. Every update is linear in S, so it is
    kept as ``S = s * B.T + G @ Z.T`` with the diagonal read as zero: ``B``
    (n x n, row t holds column t of S) takes the ranking writes divided by
    the running decay ``s``, and ``Z`` (n x k) the feature steps. ``L = B @ G``
    follows B, so a feature step never touches an n x n array and costs
    O(n k); a triple adds O(|rated| k).
    """
    from scipy.special import expit

    if R.n_entries == 0:
        raise ParameterError("cannot train on an empty interaction matrix")
    if F.item_ids != R.item_ids:
        raise AlignmentError(
            "feature matrix items and interaction matrix items are not aligned"
        )
    n = R.n_items
    G = standardize_columns(F.values)

    # per-user views of the CSR arrays; training only reads them
    rated_idx = np.split(R.indices, R.indptr[1:-1])
    rated_val = np.split(R.data, R.indptr[1:-1])
    rated_set = [set(idx.tolist()) for idx in rated_idx]

    # (user, positive item, position of the item in the user's rated row)
    pairs = [
        (u, int(i), pos)
        for u in range(R.n_users)
        if 0 < len(rated_idx[u]) < n
        for pos, (i, r) in enumerate(zip(rated_idx[u], rated_val[u]))
        if r >= cfg.relevance_threshold
    ]

    lr, alpha, gamma = cfg.learning_rate, cfg.alpha, cfg.gamma
    sigma2 = np.zeros(0)
    if alpha < 1.0:  # same item Gram; the k x k Gram is diag(sigma2)
        U, sigma, _ = np.linalg.svd(G, full_matrices=False)
        G, sigma2 = U * sigma, sigma**2
    lam_f = float(sigma2.max(initial=0.0))
    use_features = lam_f > 0.0
    run_bpr = alpha > 0.0 and bool(pairs)
    # without ranking triples to pace them, run enough feature steps per
    # epoch to keep plain gradient descent moving at any learning rate
    if use_features and not run_bpr:
        feature_steps = min(400, max(1, round(2.0 / (lr * (1.0 - alpha)))))
    else:
        feature_steps = 0
    decay = 1.0 - lr * gamma
    if use_features:
        gain = lr * 2.0 * (1.0 - alpha) / lam_f

    B = np.zeros((n, n))
    Z = np.zeros((n, G.shape[1]))
    L = np.zeros_like(Z)
    resid = np.empty_like(Z)
    s = 1.0
    sse_acc = [0.0, 0]

    def feature_step():
        # resid = G - S.T @ G = G - (s L + Z sigma^2 - m G): B never takes
        # a diagonal write, so m = rowdot(Z, G) is the whole diagonal of
        # s B.T + G Z.T, which the zero clamp removes
        nonlocal s, B, L, Z, resid
        np.multiply(Z, sigma2, out=resid)
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
        if sse_acc[1]:  # no feature step ran only if G is zero: its SSE is 0
            total += (1.0 - alpha) * sse_acc[0] / sse_acc[1]
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
    mask = np.ones(R.n_items, dtype=bool)
    mask[R.indices[R.indptr[u] : R.indptr[u + 1]]] = False
    candidates = np.flatnonzero(mask)
    ids = model.item_id_array[candidates]
    order = np.lexsort((ids, -scores[candidates]))
    return ids[order[:n]].tolist()


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

"""Item-similarity recommendation: collective SLIM trained with pairwise ranking.

The similarity matrix S is learned from two signals sharing one set of
columns: sampled (user, positive, negative) ranking triples on the rating
matrix, weighted ``alpha``, and a full-batch reconstruction of the item
feature matrix, weighted ``1 - alpha``, one gradient step of it after every
triple. An L2 penalty ``gamma`` applies to every update and the diagonal of
S is clamped to zero throughout, so an item never recommends itself.

Training never forms S inside an epoch. Both updates are linear in S, so S
is kept factored: a per-row scaled n x n part takes the ranking writes, and
the feature steps live in G times a k x n matrix, where G (n x k) is the
thin SVD factor of the standardized features, whose own Gram is diagonal.
A feature step then maps each item's row of that matrix on its own, by an
affine map whose linear part is diagonal plus rank one; so a row advances
over any run of steps in closed form, in its eigenbasis, and only when a
triple reads it. Triples on disjoint rows commute, so each epoch's triples
are drawn first and applied a level of disjoint triples at a time. One
triple costs O(k^2 + |rated| k), against O(n k) for a feature step over all
rows and O(n^2 d) on a dense S, and the iterates are the same up to
rounding. S is materialised once per epoch. What training needs of the
features alone, G and every row's eigen-decomposition, is one immutable
``FeatureSpectrum``, which trainings on the same features can share.

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

# The training arithmetic's revision, part of train's and evaluate's cache keys:
# raise it whenever trained similarities change, so a cache of the old models
# is stale.
VERSION = 1
RATING_MIN, RATING_MAX = 0.5, 5.0
DEFAULT_RELEVANCE_THRESHOLD = 4.0
# standardize_columns: a column with std at most this times max|values| is constant
CONSTANT_COLUMN_RTOL = 1e-12


class InteractionMatrix:
    """Sparse user x item ratings.

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
        self._set_entries(u_idx, i_idx, ratings)

    def _set_entries(self, users, items, ratings) -> None:
        """Store valid entry arrays and build the CSR arrays from them."""
        self.entry_users = users
        self.entry_items = items
        self.entry_ratings = ratings
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
        sub._set_entries(self.entry_users[pos], self.entry_items[pos], self.entry_ratings[pos])
        return sub

    def with_items(self, item_ids) -> "InteractionMatrix":
        """Same entries and users over another item universe."""
        wide = InteractionMatrix([], item_ids=item_ids, user_ids=self.user_ids)
        remap = np.array([wide._item_index.get(m, -1) for m in self.item_ids], dtype=np.int64)
        items = remap[self.entry_items]
        if (items < 0).any():  # name the first entry, in entry order, whose item is missing
            item = self.item_ids[self.entry_items[np.argmax(items < 0)]]
            raise AlignmentError(f"item {item} outside the declared item universe")
        wide._set_entries(self.entry_users, items, self.entry_ratings)
        return wide


def load_ratings_csv(path: str | Path, item_ids=None) -> InteractionMatrix:
    """MovieLens ratings.csv (userId,movieId,rating,timestamp); the timestamp
    is checked to be a 64-bit integer, not kept."""
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


# ---------------------------------------------------------------------------
# Exact lazy feature steps. Column t of S is scale_t * B[t] + G @ Z[t], and
# one feature step maps each row of (Z, P = scale * B @ G) on its own:
#   z -> z (decay I - gain K_r) + gain (g_r - p),   p -> decay p,
# with K_r = diag(d) - g_r^T g_r positive semi-definite (d = sigma^2 holds
# the eigenvalues of G^T G; the rank-one term is the zero clamp of S's
# diagonal, all of it because B never takes a diagonal write). A row
# therefore advances any number of steps in closed form in the eigenbasis
# of K_r, and is advanced only when a ranking triple touches it and at the
# end of an epoch.
# ---------------------------------------------------------------------------

# float64 elements that the temporaries of one slice of rows or triples may hold
_SLICE_ELEMENTS = 1 << 17
_SECULAR_ITERATIONS = 40
_EPS = np.finfo(np.float64).eps
_SIGNS = np.array([[1.0], [-1.0]])  # a triple pulls its positive up, its negative down


def _fall(gap, steps, odd):
    """``1 - r**steps`` with ``r = 1 - gap`` and ``steps >= 1``, from the gap.

    It goes through ``log1p`` and ``expm1`` of ``log|r|``, never through a
    power of r, so a ratio next to 1 keeps its digits; any ratio works.
    ``odd`` is ``steps % 2 == 1``. Call under ``np.errstate(all="ignore")``.
    """
    grown = np.expm1(steps * np.log1p(np.where(gap < 1.0, -gap, gap - 2.0)))  # |r|**T - 1
    return np.where((gap > 1.0) & odd, 2.0 + grown, -grown)


def _closed_form(y0, q0, a, lam, steps, decay, gain):
    """Advance eigen-coefficients ``steps >= 1`` feature steps at once.

    In one eigen-direction of K (eigenvalue ``lam``) a row's coordinates
    ``y`` (of z), ``q`` (of p) and ``a`` (of g) step as
    ``y' = mu y + gain (a - q)`` and ``q' = decay q``, with
    ``mu = decay - gain lam``; the residual ``rho = a - q - lam y`` then
    follows ``rho' = (1 - decay) a + mu rho``, so ``rho_t = A + P mu**t``.
    y after T steps and the sum of ``rho_t**2`` over them are geometric
    sums. Arrays are (rows, components) and ``steps`` is (rows, 1). Returns
    y after the steps and each row's residual sum of squares over them.
    Call under ``np.errstate(all="ignore")``.
    """
    odd = steps % 2 == 1
    lossy = 1.0 - decay
    gl = gain * lam
    c = lossy + gl  # 1 - mu
    mu = decay - gl
    # sum_t decay**(T-1-t) mu**t is the larger of the two to the power T - 1
    # times a geometric sum in the smaller over the larger
    big = np.where(abs(mu) <= abs(decay), decay, mu)
    gaps = np.empty((2,) + c.shape)
    gaps[0] = c
    np.divide(gl, abs(big), out=gaps[1])  # >= 0, or nan where decay and lam are 0
    falls = _fall(gaps, steps, odd)
    sums = np.where(gaps > 0.0, falls / gaps, steps)
    s1 = sums[0]  # sum mu**t
    mu_t = 1.0 - falls[0]
    s2 = np.where(c == 2.0, steps, s1 * (1.0 + mu_t) / (2.0 - c))  # sum mu**(2t)
    mixed = sums[1] * big ** (steps - 1.0)
    y = mu_t * y0 + gain * (a * s1 - q0 * mixed)
    A = a * (lossy / np.where(c == 0.0, 1.0, c))  # 0 when decay is 1 and lam 0
    P = a - A - lam * y0 - q0
    sse = (A * (steps * A + 2.0 * P * s1) + P * P * s2).sum(axis=1)
    return y, sse


def _two_pole_step(C, t1, t2, d_lo, d_hi, f, root):
    """The step eta that zeroes the model ``C - t1 / (d_lo - eta) -
    t2 / (d_hi - eta)`` of the secular function between its two poles;
    ``f`` is the model's value at eta = 0, and root 0 has no pole below."""
    qa = C * (d_lo + d_hi) - t1 - t2
    qb = d_lo * d_hi * f
    q = 0.5 * (qa + np.copysign(np.sqrt(np.maximum(qa * qa - 4.0 * C * qb, 0.0)), qa))
    eta1, eta2 = q / C, qb / q
    eta = np.where((eta2 > d_lo) & (eta2 < d_hi), eta2, eta1)
    return np.where(root == 0, d_hi - t2 / C, eta)


def _secular_roots(d, w2, active):
    """Eigen-decomposition of ``diag(d) - h h^T`` for a slice of rows.

    ``d`` (kc,) ascending distinct poles; ``w2`` (b, kc) the squares of h;
    ``active`` (b, kc) marks the components that take part (the others are
    deflated: eigenvalue d, eigenvector the unit vector). Each active root
    lies between two neighbouring active poles, and is held as the pole it
    is nearer to plus an offset, found by a safeguarded two-pole rational
    iteration (Bunch, Nielsen & Sorensen 1978). The eigenvector of root c
    is ``hhat / (d - lambda_c)``, normalised, where hhat is h corrected by
    Loewner's formula so that the vectors are orthogonal to working
    precision (Gu & Eisenstat 1994).

    Returns, per row and root (inactive roots last): the origin pole's
    index into ``d``, the offset (-inf for an inactive root), lambda, the
    inverse eigenvector norm, the coordinate of h in the eigenbasis, and
    hhat in the order of ``d``.
    """
    b, kc = w2.shape
    perm = np.argsort(~active, axis=1, kind="stable")  # active poles first
    dd = d[perm]
    h2 = np.take_along_axis(np.where(active, w2, 0.0), perm, axis=1)
    roots = np.arange(kc)
    valid = roots < active.sum(axis=1, keepdims=True)
    upper = dd
    lower = np.concatenate([dd[:, :1] - h2.sum(axis=1, keepdims=True), dd[:, :-1]], axis=1)
    mid = lower + 0.5 * (upper - lower)
    # f at each bracket's midpoint picks the side, and the first step models
    # f by the two bracketing poles as they are and the others as a constant
    # (the initial guess of LAPACK's dlaed4)
    ones = np.ones((b, kc))
    poles = np.stack([dd, ones], axis=1)  # [d_m; 1], so that [1, -x_c] @ poles = d_m - x_c
    inv = np.reciprocal(np.stack([ones, -mid], axis=2) @ poles)  # (row, root c, pole m)
    f = 1.0 - (inv @ h2[:, :, None])[:, :, 0]
    d_hi = np.diagonal(inv, 0, 1, 2).copy()
    d_lo = np.concatenate([np.zeros((b, 1)), np.diagonal(inv, -1, 1, 2)], axis=1)
    del inv
    t1 = np.concatenate([np.zeros((b, 1)), h2[:, :-1]], axis=1)
    eta = _two_pole_step(f + h2 * d_hi + t1 * d_lo, t1, h2, 1.0 / d_lo, 1.0 / d_hi, f, roots)
    above = f >= 0.0
    from_upper = above | (roots == 0)
    origin = np.where(from_upper, roots, roots - 1)
    lo = np.where(above, mid - upper, np.where(from_upper, lower - upper, 0.0))
    hi = np.where(from_upper, np.where(above, 0.0, mid - upper), mid - lower)
    tau = np.where(from_upper, mid - upper, mid - lower) + eta
    tau = np.where((tau > lo) & (tau < hi), tau, 0.5 * (lo + hi))
    # an inactive root sits on its own pole, so its Loewner factors below are 1
    origin = np.where(valid, origin, roots)
    tau = np.where(valid, tau, 0.0)
    offsets = np.stack([ones, -np.take_along_axis(dd, origin, axis=1)], axis=2) @ poles
    flat_offsets = offsets.reshape(b * kc, kc)
    tau, lo, hi = tau.ravel(), lo.ravel(), hi.ravel()
    lower_poles = np.tri(kc, k=-1, dtype=bool)  # [c, m]: pole m lies below root c's bracket
    pending = np.flatnonzero(valid)  # (row, root) pairs still iterating
    for _ in range(_SECULAR_ITERATIONS):
        if not pending.size:
            break
        row, root = np.divmod(pending, kc)
        at, t = np.arange(len(pending)), tau[pending]
        below = lower_poles[root]
        inv = flat_offsets[pending]
        inv -= t[:, None]  # d_m - lambda_c, exact at the origin pole
        d_hi = inv[at, root]
        d_lo = np.where(root > 0, inv[at, root - 1], 0.0)
        np.reciprocal(inv, out=inv)
        w = h2[row]
        w *= inv
        total = w.sum(axis=1)
        f = 1.0 - total
        psi = w.sum(axis=1, where=below)
        phi = total - psi
        w *= inv
        dtotal = w.sum(axis=1)
        dpsi = w.sum(axis=1, where=below)
        dphi = dtotal - dpsi
        l = np.where(f > 0.0, t, lo[pending])
        h = np.where(f < 0.0, t, hi[pending])
        lo[pending], hi[pending] = l, h
        done = abs(f) <= 8.0 * _EPS * (1.0 + abs(psi) + abs(phi) + abs(t) * dtotal)
        done |= h - l <= 2.0 * _EPS * np.maximum(abs(l), abs(h))
        # each side as one pole matching its value and slope (the middle way)
        t1, t2 = dpsi * d_lo * d_lo, dphi * d_hi * d_hi
        C = 1.0 - (psi - dpsi * d_lo) - (phi - dphi * d_hi)
        step = t + _two_pole_step(C, t1, t2, d_lo, d_hi, f, root)
        step = np.where((step > l) & (step < h), step, 0.5 * (l + h))
        tau[pending] = np.where(done, t, step)
        pending = pending[~done]
    tau = tau.reshape(b, kc)
    delta = offsets
    delta -= tau[:, :, None]
    # Loewner: hhat_m^2 = (d_m - lambda_m) prod_{c != m} (lambda_c - d_m) / (d_c - d_m)
    ratio = np.stack([ones, -dd], axis=2) @ poles  # d_m - d_c
    np.divide(delta, ratio, out=ratio)
    ratio[:, roots, roots] = 1.0
    hhat2 = np.diagonal(delta, 0, 1, 2) * ratio.prod(axis=1)
    del ratio
    hhat = np.where(valid, np.sqrt(np.maximum(hhat2, 0.0)), 0.0)
    vec = np.divide(hhat[:, None, :], delta, out=delta)  # unnormalised eigenvectors, by row c
    scale = np.where(valid, 1.0 / np.sqrt(np.einsum("bcm,bcm->bc", vec, vec)), 0.0)
    coord = np.where(valid, (vec @ np.sqrt(h2)[:, :, None])[:, :, 0] * scale, 0.0)
    lam = np.where(valid, np.maximum(np.take_along_axis(dd, origin, axis=1) + tau, 0.0), 0.0)
    hhat_d = np.empty_like(hhat)
    np.put_along_axis(hhat_d, perm, hhat, axis=1)
    origin = np.take_along_axis(perm, origin, axis=1)
    return origin, np.where(valid, tau, -np.inf), lam, scale, coord, hhat_d


class FeatureSpectrum:
    """What training needs of the features alone: immutable, so that one
    spectrum serves every training on the same features (the folds of an
    evaluation among them).

    ``G`` is the thin feature factor with ``G^T G = diag(d)``, ``d``
    ascending; ``k = 0`` trains without features. Every row r's spectrum of
    ``K_r = diag(d) - g_r^T g_r`` is found here, once; eigenvectors are
    formed slice by slice when rows advance, so storage stays O(n k).
    ``source`` is the FeatureMatrix the factor came from (see
    ``feature_spectrum``), or None for a factor given directly.
    """

    @np.errstate(all="ignore")
    def __init__(self, G, d, source: FeatureMatrix | None = None):
        n, k = G.shape
        self.source = source
        self.d = d.copy()
        self.G_pad = np.vstack([G, np.zeros((1, k))])  # row n pads rated rows too
        # poles within rounding of each other merge: K_r moves by at most that
        fresh = np.diff(d, prepend=-np.inf) > 8.0 * _EPS * d.max(initial=0.0)
        self.cluster = np.cumsum(fresh) - 1
        starts = np.flatnonzero(fresh)
        self.poles = d[starts]
        kc = len(starts)
        h2 = np.add.reduceat(G * G, starts, axis=1) if k else np.zeros((n, 0))
        self.h = np.sqrt(h2)
        # a component whose rank-one coupling is below rounding is deflated
        self.active = self.h * np.sqrt(h2.sum(axis=1, keepdims=True)) > 8.0 * _EPS * d.max(
            initial=0.0)
        shape = (n, kc)
        root_pole, self.tau, self.lam, self.inv_norm, self.coord = (
            np.zeros(shape) for _ in range(5))
        self.uh = np.zeros((n, k))  # g_j hhat_C / h_C: the Cauchy numerators
        for sl in _slices(n, 4 * kc * kc):  # _secular_roots holds about 4 (kc, kc) arrays
            origin, self.tau[sl], self.lam[sl], self.inv_norm[sl], self.coord[sl], hhat = (
                _secular_roots(self.poles, h2[sl], self.active[sl]))
            root_pole[sl] = self.poles[origin]
            hhat_over_h = np.where(self.active[sl], hhat / self.h[sl], 0.0)
            self.uh[sl] = G[sl] * hhat_over_h[:, self.cluster]
        # d_j - d_origin(c) as [d_j, 1] @ [1, -d_origin(c)]: two exact terms, one
        # rounding. A deflated column's pole reads as infinite: its entries are 0
        col_pole = np.where(self.active[:, self.cluster], self.poles[self.cluster], np.inf)
        self.col_aug = np.stack([col_pole, np.ones((n, k))], axis=2)
        self.root_aug = np.stack([np.ones(shape), -root_pole], axis=1)
        # columns outside the rank-one span of some row: merged poles and deflated ones
        single = np.bincount(self.cluster, minlength=kc) == 1
        self.wcols = np.flatnonzero(~single[self.cluster] | ~self.active.all(axis=0)[self.cluster])
        wc = self.cluster[self.wcols]
        self.same = (wc[:, None] == wc[None, :]).astype(float)
        self.merged = ~single[wc]
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)

    @property
    def G(self) -> np.ndarray:
        return self.G_pad[:-1]

    def cauchy(self, rows):
        """``1 / (d_j - lambda_c)`` for each row, column j and root c, each
        difference taken from root c's own pole; the eigenvector of root c
        is ``uh * cauchy[:, c] * inv_norm[c]``."""
        inv = self.col_aug[rows] @ self.root_aug[rows]
        inv -= self.tau[rows][:, None, :]
        return np.reciprocal(inv, out=inv)


def feature_spectrum(F: FeatureMatrix) -> FeatureSpectrum:
    """The spectrum of F's standardized columns, for ``train_collective_slim``.

    The feature term sees the standardized features only through their item
    Gram, so training uses their thin factor ``G = U * sigma`` from one thin
    SVD, keeping the k positive singular values, in ascending order.
    Features too large to standardize raise FormatError.
    """
    G = standardize_columns(F.values)
    U, sigma, _ = np.linalg.svd(G, full_matrices=False)
    keep = sigma > sigma.max(initial=0.0) * max(G.shape) * _EPS
    return FeatureSpectrum((U * sigma)[:, keep][:, ::-1], sigma[keep][::-1] ** 2, F)


class _LazyRows:
    """Training state whose rows catch up on feature steps only when read.

    Each item row r holds ``B[r]`` (column r of S's ranking part, over a
    per-row ``scale``), ``Z[r]``, ``P[r]`` and the step count ``clock[r]``
    it is current to; ``spectrum`` holds what the steps need of the
    features.
    """

    def __init__(self, spectrum: FeatureSpectrum, decay, gain):
        n, k = spectrum.G.shape
        self.spectrum = spectrum
        self.decay, self.gain = decay, gain
        self.B = np.zeros((n, n + 1))  # column n is the padding target
        self.scale = np.ones(n)
        self.Z = np.zeros((n, k))
        self.P = np.zeros((n, k))
        self.clock = np.zeros(n, dtype=np.int64)
        self.sse = 0.0

    def advance(self, rows, target):
        """Bring each of ``rows`` to its step in ``target``, adding the
        residuals of the steps to ``sse``."""
        behind = self.clock[rows] < target
        rows, target = rows[behind], target[behind]
        for sl in _slices(len(rows), self.Z.shape[1] * len(self.spectrum.poles)):
            self._advance(rows[sl], target[sl])
        self.clock[rows] = target

    def _advance(self, rows, target):
        steps = (target - self.clock[rows]).astype(np.float64)[:, None]
        shrink = self.decay**steps
        scale = self.scale[rows] * shrink[:, 0]
        small = abs(scale) < 1e-30  # fold the decay into B before B / scale overflows
        if small.any():
            self.B[rows[small]] *= scale[small, None]
            scale[small] = 1.0
        self.scale[rows] = scale
        sp = self.spectrum
        kc = len(sp.poles)
        if not kc:
            return
        z, p, uh = self.Z[rows], self.P[rows], sp.uh[rows]
        inv = sp.cauchy(rows)
        inv_norm = sp.inv_norm[rows]
        yq = (np.stack([z * uh, p * uh], axis=1) @ inv) * inv_norm[:, None, :]
        y0, q0, a, lam = yq[:, 0], yq[:, 1], sp.coord[rows], sp.lam[rows]
        wc = sp.wcols
        if wc.size:  # the rest of each row: eigenspaces of merged and deflated poles
            g, on = sp.G_pad[rows][:, wc], sp.active[rows][:, sp.cluster[wc]]
            u = np.where(on, g / sp.h[rows][:, sp.cluster[wc]], 0.0)
            wz, wp = (np.where(on, np.where(sp.merged, x - u * ((x * u) @ sp.same), 0.0), x)
                      for x in (z[:, wc], p[:, wc]))
            y0, q0 = np.hstack([y0, wz]), np.hstack([q0, wp])
            a = np.hstack([a, np.where(on, 0.0, g)])
            lam = np.hstack([lam, np.broadcast_to(sp.poles[sp.cluster[wc]], g.shape)])
        y, sse = _closed_form(y0, q0, a, lam, steps, self.decay, self.gain)
        z = uh * (inv @ (y[:, :kc] * inv_norm)[:, :, None])[:, :, 0]
        z[:, wc] += y[:, kc:]
        self.Z[rows] = z
        self.P[rows] = p * shrink
        self.sse += float(sse.sum())


def _slices(n, per_item):
    """Consecutive slices of range(n) whose temporaries fit the element budget."""
    step = max(1, _SLICE_ELEMENTS // max(per_item, 1))
    return [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]


def _levels(rows):
    """Level of each triple, given its two rows: 1 + the highest level of an
    earlier triple that shares a row with it. Triples of one level touch
    disjoint rows."""
    last: dict[int, int] = {}
    out = []
    for a, b in rows.tolist():
        level = max(last.get(a, 0), last.get(b, 0)) + 1
        last[a] = last[b] = level
        out.append(level)
    return np.asarray(out, dtype=np.int64)


def _draw_epoch(rng, pair_user, rated_set, n):
    """One epoch's pair order and negatives, drawn in the order the
    sequential loop draws them: the permutation, then one negative per
    triple."""
    order = rng.permutation(len(pair_user))
    negatives = [sample_negative(rng, rated_set[u], n) for u in pair_user[order].tolist()]
    return order, np.asarray(negatives, dtype=np.int64)


def _apply_triples(state, R, users, both, pos, cfg, expit):
    """Apply triples whose rows ``both`` (positive, negative) are disjoint,
    all at once; returns their BPR terms. The rated rows are padded into B's
    dummy column n, whose writes are all zero, so no duplicate fancy write
    can drop a delta."""
    lr, alpha, gamma = cfg.learning_rate, cfg.alpha, cfg.gamma
    start, length = R.indptr[users], R.indptr[users + 1] - R.indptr[users]
    span = np.arange(length.max())
    inside = span < length[:, None]
    at = np.minimum(start[:, None] + span, len(R.indices) - 1)
    idx = np.where(inside, R.indices[at], R.n_items)
    val = np.where(inside, R.data[at], 0.0)
    G_idx = state.spectrum.G_pad[idx]  # (m, W, k)
    scale = state.scale[both][:, :, None]
    cols = state.B[both[:, :, None], idx[:, None, :]] * scale  # S[idx, i], S[idx, j]
    cols += state.Z[both] @ G_idx.transpose(0, 2, 1)
    ar = np.arange(len(users))
    cols[ar, 0, pos] = 0.0
    x = (cols @ val[:, :, None])[:, :, 0]
    diff = x[:, 1] - x[:, 0]
    terms = np.logaddexp(0.0, diff)
    delta = _SIGNS * ((alpha * expit(diff))[:, None] * val)[:, None, :]
    delta -= gamma * cols
    delta *= lr
    delta[ar, 0, pos] = 0.0
    state.P[both] += delta @ G_idx
    delta /= scale
    state.B[both[:, :, None], idx[:, None, :]] += delta
    return terms


def train_collective_slim(
    R: InteractionMatrix, F: FeatureMatrix, cfg: TrainConfig,
    spectrum: FeatureSpectrum | None = None,
) -> SimilarityModel:
    """Learn S from sampled ranking triples (weight alpha), each triple
    update followed by one gradient step on the feature-reconstruction term
    (weight 1 - alpha). Deterministic given cfg.seed.

    Feature columns are standardized first so ``alpha`` means the same thing
    across feature families. Each feature gradient step is scaled by the
    feature Gram spectral norm, which makes it a guaranteed descent step for
    any ``learning_rate * (1 - alpha) <= 0.5`` and keeps the two pulls in
    balance, so the ranking updates cannot outrun the reconstruction term.

    What training needs of the features alone is their ``FeatureSpectrum``
    (see ``feature_spectrum``). It is built here unless ``spectrum`` gives
    it, prebuilt from F, so that trainings on the same features share it;
    one built from other items or values is an AlignmentError.

    S is never formed inside an epoch. Column t of S is ``scale_t * B[t] +
    G @ Z[t]`` with the diagonal read as zero, and a feature step maps each
    row of Z (and of ``P = scale * B @ G``) on its own by an affine map
    whose linear part is diagonal plus rank one. So a row advances over
    any run of steps in closed form (see ``_LazyRows``), and is advanced
    only when a triple reads it and at the epoch's end. A triple touches
    only rows i and j, so each epoch's triples are drawn first, with the
    same random stream as one-at-a-time training, grouped into levels of
    triples on disjoint rows, and a level runs as one set of array
    operations. A triple costs O(k^2 + |rated| k), S is formed once per
    epoch, and the iterates are those of the one-triple-one-step loop up to
    rounding. A step size so large that S or the loss stops being finite
    raises DivergenceError.
    """
    from scipy.special import expit

    if R.n_entries == 0:
        raise ParameterError("cannot train on an empty interaction matrix")
    if F.item_ids != R.item_ids:
        raise AlignmentError(
            "feature matrix items and interaction matrix items are not aligned"
        )
    if spectrum is not None and (spectrum.source is None
                                 or spectrum.source.item_ids != F.item_ids
                                 or not np.array_equal(spectrum.source.values, F.values)):
        raise AlignmentError("the feature spectrum was built from other features")
    n = R.n_items
    lr, alpha, gamma = cfg.learning_rate, cfg.alpha, cfg.gamma
    if alpha == 1.0:  # no feature term: train on an empty factor
        if spectrum is None:
            standardize_columns(F.values)  # features too large to standardize are refused
        spectrum = FeatureSpectrum(np.zeros((n, 0)), np.zeros(0))
    elif spectrum is None:
        spectrum = feature_spectrum(F)
    rated_set = [set(R.indices[R.indptr[u] : R.indptr[u + 1]].tolist())
                 for u in range(R.n_users)]
    # (user, positive item, position of the item in the user's rated row)
    rated_count = np.diff(R.indptr)
    user_of = np.repeat(np.arange(R.n_users), rated_count)
    position = np.arange(len(R.indices)) - R.indptr[user_of]
    relevant = (R.data >= cfg.relevance_threshold) & (rated_count[user_of] < n)
    pair_user, pair_item, pair_pos = user_of[relevant], R.indices[relevant], position[relevant]

    lam_f = float(spectrum.d.max(initial=0.0))  # the k x k Gram is diag(d)
    use_features = lam_f > 0.0
    run_bpr = alpha > 0.0 and len(pair_user) > 0
    # without ranking triples to pace them, run enough feature steps per
    # epoch to keep plain gradient descent moving at any learning rate
    if use_features and not run_bpr:
        feature_steps = min(400, max(1, round(2.0 / (lr * (1.0 - alpha)))))
    else:
        feature_steps = 0
    decay = 1.0 - lr * gamma if use_features else 1.0
    gain = lr * 2.0 * (1.0 - alpha) / lam_f if use_features else 0.0

    rng = np.random.default_rng(cfg.seed)
    history = []
    everyone = np.arange(n)
    G = spectrum.G
    k = G.shape[1]
    with np.errstate(all="ignore"):
        state = _LazyRows(spectrum, decay, gain)
        for epoch in range(cfg.epochs):
            state.sse = 0.0
            state.clock[:] = 0
            bpr_loss = 0.0
            steps = feature_steps
            if run_bpr:
                order, negatives = _draw_epoch(rng, pair_user, rated_set, n)
                users, pos = pair_user[order], pair_pos[order]
                rows = np.stack([pair_item[order], negatives], axis=1)  # (triple, 2)
                level = _levels(rows)
                by_level = np.argsort(level, kind="stable")
                ends = np.cumsum(np.bincount(level)[1:])
                terms = np.empty(len(order))
                for lo, hi in zip(np.concatenate(([0], ends[:-1])), ends):
                    batch = by_level[lo:hi]
                    width = int(rated_count[users[batch]].max())
                    for sl in _slices(len(batch), width * (k + 6)):
                        t = batch[sl]
                        state.advance(rows[t].ravel(), t.repeat(2))
                        terms[t] = _apply_triples(state, R, users[t], rows[t], pos[t], cfg, expit)
                bpr_loss = sum(terms.tolist())
                steps = len(order) if use_features else 0
            state.advance(everyone, np.full(n, steps))
            S = np.multiply(state.B[:, :n].T, state.scale, order="C")
            S += G @ state.Z.T
            np.fill_diagonal(S, 0.0)
            # monitor: every component averaged over the epoch's steps
            total = alpha * (bpr_loss / len(pair_user) if len(pair_user) else 0.0)
            if steps:  # no feature step ran only if G is zero: its SSE is 0
                total += (1.0 - alpha) * state.sse / steps
            total += gamma * float((S ** 2).sum())
            if not (np.isfinite(S).all() and np.isfinite(total)):
                raise DivergenceError(
                    f"similarity matrix diverged at epoch {epoch}; lower the learning rate"
                )
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
# the dense S (it has no L1 term), the per-epoch loss history and each
# TrainConfig field as an attr
# ---------------------------------------------------------------------------

_CHECKPOINT_ATTRS = {f.name: type(f.default) for f in fields(TrainConfig)} | {"feature_dim": int}


def save_model(path: str | Path, model: SimilarityModel, feature_dim: int = 0) -> None:
    attrs = {**asdict(model.config), "feature_dim": feature_dim}
    item_ids = np.asarray(model.item_ids, dtype=np.int64)
    write_arrays(path, "similarity", attrs, item_ids=item_ids, matrix=model.matrix,
                 loss_history=np.asarray(model.loss_history, dtype=np.float64))


def load_model(path: str | Path) -> SimilarityModel:
    attrs, arrays = read_arrays(path, "similarity", _CHECKPOINT_ATTRS,
                                {"item_ids": "<i8 n", "matrix": "<f8 n n",
                                 "loss_history": "<f8 e"})
    del attrs["feature_dim"]
    try:
        return SimilarityModel(matrix=arrays["matrix"], config=TrainConfig(**attrs),
                               item_ids=tuple(arrays["item_ids"].tolist()),
                               loss_history=tuple(arrays["loss_history"].tolist()))
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None

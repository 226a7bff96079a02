"""Two-view feature fusion with regularized canonical correlation analysis.

The fitted model projects each view onto its canonical directions; the fused
descriptor is the concatenation of the two projections (length 2k), which
keeps both views rather than collapsing them. ``fuse_matrix`` is the one
implementation of the projection.

Each centred view is whitened from its cheaper side: a view with fewer than
half as many items as dimensions by the thin SVD of its n x d rows, any
other by ``eigh`` of its d x d covariance. Either gives a basis V and the
regularized variances along it; the canonical problem is then the SVD of the
small core ``(Xc Bx)^T (Yc By) / (n - 1)``, with ``B = V diag(var^-1/2)``.
The directions off span(V) carry no cross-covariance, so they drop out, and
with few items no d x d or d1 x d2 matrix is built: the cost is
O(n^2 (d1 + d2)), with no d^3 term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AlignmentError,
    DimensionError,
    FormatError,
    ParameterError,
    SingularityError,
)

DEFAULT_RIDGE_FACTOR = 1e-4


@dataclass(frozen=True)
class CcaModel:
    wx: np.ndarray  # d1 x k
    wy: np.ndarray  # d2 x k
    correlations: np.ndarray  # k, descending in [0, 1]
    mean_x: np.ndarray
    mean_y: np.ndarray
    k: int
    ridge_x: float
    ridge_y: float

    @property
    def d1(self) -> int:
        return self.wx.shape[0]

    @property
    def d2(self) -> int:
        return self.wy.shape[0]


def _whiten(Xc: np.ndarray, ridge: float, side: str) -> np.ndarray:
    """B = V diag((s^2 / (n-1) + ridge)^-1/2) for the centred n x d view Xc,
    with V its right singular vectors (thin SVD, when 2n < d) or the
    eigenvectors of its covariance. B^T (C + ridge I) B = I."""
    n, d = Xc.shape
    if 2 * n < d:
        _, s, vt = np.linalg.svd(Xc, full_matrices=False)
        eigvals, basis = s * s / (n - 1) + ridge, vt.T
    else:
        eigvals, basis = np.linalg.eigh(Xc.T @ Xc / (n - 1) + ridge * np.eye(d))
    # the d - rank directions off span(V) have the eigenvalue ridge
    padded = np.append(eigvals, ridge) if basis.shape[1] < d else eigvals
    floor = max(padded.max(), 0.0) * 1e-12
    if padded.min() <= floor:
        raise SingularityError(
            f"{side} covariance is singular; pass a positive ridge to regularize"
        )
    return basis * eigvals ** -0.5


def fit_cca(
    X: np.ndarray,
    Y: np.ndarray,
    k: int | None = None,
    ridge: float | None = None,
) -> CcaModel:
    """Fit CCA on row-aligned item matrices.

    ridge=None picks a scale-aware default per view,
    DEFAULT_RIDGE_FACTOR * trace(C)/d; ridge=0 demands full-rank covariances.
    Values so large that a covariance overflows float64 raise FormatError.
    """
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if X.ndim != 2 or Y.ndim != 2:
        raise DimensionError("CCA inputs must be 2-D matrices")
    if X.shape[0] != Y.shape[0]:
        raise AlignmentError(
            f"views disagree on item count: {X.shape[0]} vs {Y.shape[0]}"
        )
    n, d1 = X.shape
    d2 = Y.shape[1]
    if n < 2:
        raise ParameterError(f"CCA needs at least 2 items, got {n}")
    max_k = min(d1, d2, n - 1)
    if k is None:
        k = max_k
    if not 1 <= k <= max_k:
        raise ParameterError(f"k must lie in [1, {max_k}], got {k}")

    with np.errstate(over="ignore", invalid="ignore"):
        mean_x = X.mean(axis=0)
        mean_y = Y.mean(axis=0)
        Xc = X - mean_x
        Yc = Y - mean_y
        trace_x = np.vdot(Xc, Xc) / (n - 1)
        trace_y = np.vdot(Yc, Yc) / (n - 1)
    for side, trace in (("X", trace_x), ("Y", trace_y)):
        if not np.isfinite(trace):
            raise FormatError(f"{side} covariance overflows float64")

    if ridge is None:
        ridge_x = DEFAULT_RIDGE_FACTOR * trace_x / d1
        ridge_y = DEFAULT_RIDGE_FACTOR * trace_y / d2
    else:
        if ridge < 0:
            raise ParameterError(f"ridge must be nonnegative, got {ridge}")
        ridge_x = ridge_y = float(ridge)

    bx = _whiten(Xc, ridge_x, "X")
    by = _whiten(Yc, ridge_y, "Y")
    u, d, vt = np.linalg.svd((Xc @ bx).T @ (Yc @ by) / (n - 1), full_matrices=False)
    wx = bx @ u[:, :k]
    wy = by @ vt[:k].T
    # deterministic sign: dominant coefficient of each wx column positive
    for j in range(k):
        pivot = np.abs(wx[:, j]).argmax()
        if wx[pivot, j] < 0:
            wx[:, j] = -wx[:, j]
            wy[:, j] = -wy[:, j]
    return CcaModel(
        wx=wx,
        wy=wy,
        correlations=d[:k].copy(),
        mean_x=mean_x,
        mean_y=mean_y,
        k=k,
        ridge_x=float(ridge_x),
        ridge_y=float(ridge_y),
    )


def fuse_matrix(model: CcaModel, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Project aligned item rows of both views; one fused row (length 2k) per item."""
    if X.shape[1] != model.d1 or Y.shape[1] != model.d2:
        raise DimensionError("matrix widths do not match the model")
    if X.shape[0] != Y.shape[0]:
        raise AlignmentError("views disagree on item count")
    with np.errstate(over="ignore", invalid="ignore"):
        px = (X - model.mean_x) @ model.wx
        py = (Y - model.mean_y) @ model.wy
    fused = np.hstack([px, py])
    if not np.isfinite(fused).all():
        raise FormatError("a projected row overflows float64")
    return fused

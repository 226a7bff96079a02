"""Independent brute-force oracles the tests check the fast paths against.

Nothing here shares code with the package implementations: the DCT oracle is
the O(N^4) double loop, the CCA oracle a multiresolution angular grid sweep,
HSV quantization a scalar re-derivation, and so on. Four exceptions share
code with the package. The collective SLIM oracle shares the trainer's input
preparation (column standardization and the negative sampler) and differs
from it in how S is stored and updated: it trains on the standardized
features themselves, not their thin factor, and takes the largest eigenvalue
of their Gram from a dense ``eigvalsh``. The HSV cell
reference ``hsv_cells_float`` is the float whole-frame cell rule that
``shots.hsv_cell_indices`` replaced with integer arithmetic: it bins the
package's own hexcone ``media.rgb_image_to_hsv``, which defines the cell ids.
The rank oracle ``rank_unrated_oracle`` is the per-entry rule that ranking
each user's held-out items at once replaced: one n-long mask per entry, over
the package's ``recsys.score``, the one scoring rule.
The primal CCA reference ``cca_primal_oracle`` is the covariance-space
``fit_cca`` that whitening each view from its cheaper side replaced: it
builds both d x d inverse square roots and the d1 x d2 whitened
cross-covariance, and takes the package's ``CcaModel`` and default ridge
factor.
The four kernel references keep the implementations that the trailer
kernels replaced, verbatim: ``csd_presence_oracle`` fills the window x color
presence matrix, ``htd_complex_oracle`` filters the complex ``fft2`` with
the unsymmetrised full-plane Gabor bank and keeps the real part of each
``ifft2`` (now the reference for HTD's energies only;
``htd_spectral_oracle`` writes out the spectral definition of both moments),
``ycbcr_planes_to_rgb_oracle`` runs the float BT.601 inverse
on every pixel, and ``write_y4m_oracle`` averages chroma with numpy's
``mean`` over reshaped blocks and appends each frame's bytes to a growing
buffer. They share the package's HSV quantizer, CSD subsample factor, luma,
forward BT.601 transform and HTD constants.
"""

import math

import numpy as np
from scipy.special import expit

from visrec.descriptors import (
    _HALF_PEAK,
    HTD_ORIENTATIONS,
    HTD_SCALES,
    _csd_subsample_factor,
    htd_center_frequency,
)
from visrec.errors import (
    AlignmentError,
    DimensionError,
    DivergenceError,
    FormatError,
    ParameterError,
    SingularityError,
)
from visrec.fusion import DEFAULT_RIDGE_FACTOR, CcaModel
from visrec.media import _KB, _KG, _KR, luma, rgb_image_to_hsv, rgb_to_ycbcr_planes
from visrec.recsys import (
    FeatureMatrix,
    InteractionMatrix,
    SimilarityModel,
    TrainConfig,
    sample_negative,
    score,
    standardize_columns,
)
from visrec.shots import N_CELLS, hsv_cell_indices


# --- scalar HSV quantization (mirrors the spec'd binning, written longhand) --

def hsv_bin_scalar(r, g, b, bins=(16, 4, 4)):
    hb, sb, vb = bins
    rf, gf, bf = r / 255.0, g / 255.0, b / 255.0
    mx, mn = max(rf, gf, bf), min(rf, gf, bf)
    d = mx - mn
    v = mx
    s = 0.0 if mx == 0 else d / mx
    if d == 0:
        h = 0.0
    elif mx == rf:
        h = 60.0 * (((gf - bf) / d) % 6.0)
    elif mx == gf:
        h = 60.0 * ((bf - rf) / d + 2.0)
    else:
        h = 60.0 * ((rf - gf) / d + 4.0)
    if h >= 360.0:
        h -= 360.0
    # the package's rule; h / (360 / hb) floors 717 of the 2**24 triples lower
    hi = min(int(h * (hb / 360.0)), hb - 1)
    si = min(int(s * sb), sb - 1)
    vi = min(int(v * vb), vb - 1)
    return hi * (sb * vb) + si * vb + vi


def hsv_cells_float(pixels, bins=(16, 4, 4)):
    """H-major cell ids of a (..., 3) RGB array by the float hexcone: the
    reference that every id of ``shots.hsv_cell_indices`` must equal."""
    hb, sb, vb = bins
    hsv = rgb_image_to_hsv(pixels)
    hi = np.minimum((hsv[..., 0] * (hb / 360.0)).astype(np.int32), hb - 1)
    si = np.minimum((hsv[..., 1] * sb).astype(np.int32), sb - 1)
    vi = np.minimum((hsv[..., 2] * vb).astype(np.int32), vb - 1)
    return hi * (sb * vb) + si * vb + vi


def histogram_oracle(frame, bins=(16, 4, 4)):
    n_cells = bins[0] * bins[1] * bins[2]
    counts = np.zeros(n_cells)
    h, w, _ = frame.pixels.shape
    for y in range(h):
        for x in range(w):
            r, g, b = (int(c) for c in frame.pixels[y, x])
            counts[hsv_bin_scalar(r, g, b, bins)] += 1
    return counts / (h * w)


# --- O(N^4) orthonormal type-II DCT --------------------------------------

def dct2_oracle(block):
    n = block.shape[0]
    out = np.zeros((n, n))
    for u in range(n):
        for v in range(n):
            acc = 0.0
            for x in range(n):
                for y in range(n):
                    acc += (
                        block[x, y]
                        * math.cos(math.pi * (2 * x + 1) * u / (2 * n))
                        * math.cos(math.pi * (2 * y + 1) * v / (2 * n))
                    )
            cu = math.sqrt(1.0 / n) if u == 0 else math.sqrt(2.0 / n)
            cv = math.sqrt(1.0 / n) if v == 0 else math.sqrt(2.0 / n)
            out[u, v] = cu * cv * acc
    return out


# --- EHD: per-block 2x2 filter scoring, written independently -------------

def ehd_oracle(luma_plane, block_size, threshold=11.0):
    h, w = luma_plane.shape
    hist = np.zeros((4, 4, 5))
    s2 = math.sqrt(2.0)
    for si in range(4):
        for sj in range(4):
            r0, r1 = si * h // 4, (si + 1) * h // 4
            c0, c1 = sj * w // 4, (sj + 1) * w // 4
            sub = luma_plane[r0:r1, c0:c1]
            nby, nbx = sub.shape[0] // block_size, sub.shape[1] // block_size
            counts = np.zeros(5)
            half = block_size // 2
            for by in range(nby):
                for bx in range(nbx):
                    blk = sub[
                        by * block_size : (by + 1) * block_size,
                        bx * block_size : (bx + 1) * block_size,
                    ]
                    a0 = blk[:half, :half].mean()
                    a1 = blk[:half, half:].mean()
                    a2 = blk[half:, :half].mean()
                    a3 = blk[half:, half:].mean()
                    resp = [
                        abs(a0 - a1 + a2 - a3),
                        abs(a0 + a1 - a2 - a3),
                        s2 * abs(a0 - a3),
                        s2 * abs(a1 - a2),
                        abs(2 * a0 - 2 * a1 - 2 * a2 + 2 * a3),
                    ]
                    best = int(np.argmax(resp))
                    if resp[best] >= threshold:
                        counts[best] += 1
            hist[si, sj] = counts / (nby * nbx)
    return hist.reshape(80)


# --- CSD: brute-force window enumeration ----------------------------------

def csd_oracle(cell_grid, n_cells=256, window=8, stride=1):
    """cell_grid is the (already subsampled) lattice of quantized colors."""
    hs, ws = cell_grid.shape
    counts = np.zeros(n_cells)
    placements = 0
    for y in range(0, hs - window + 1, stride):
        for x in range(0, ws - window + 1, stride):
            present = set()
            for dy in range(window):
                for dx in range(window):
                    present.add(int(cell_grid[y + dy, x + dx]))
            for cell in present:
                counts[cell] += 1
            placements += 1
    return counts / placements


# --- the trailer kernels the package replaced, kept verbatim ----------------

def csd_presence_oracle(frame) -> np.ndarray:
    """CSD from the n_windows x 256 boolean presence matrix."""
    cells = hsv_cell_indices(frame)
    k = _csd_subsample_factor(frame.width, frame.height)
    lattice = cells[::k, ::k]
    hs, ws = lattice.shape
    if hs < 8 or ws < 8:
        # degenerate frame: one whole-frame window
        present = np.unique(lattice)
        out = np.zeros(N_CELLS)
        out[present] = 1.0
        return out
    windows = np.lib.stride_tricks.sliding_window_view(lattice, (8, 8))
    flat = windows.reshape(-1, 64)
    n_windows = flat.shape[0]
    presence = np.zeros((n_windows, N_CELLS), dtype=bool)
    presence[np.arange(n_windows)[:, None], flat] = True
    return presence.sum(axis=0) / n_windows


def _gabor_bank_full(height: int, width: int) -> np.ndarray:
    fy = np.fft.fftfreq(height)[:, None]
    fx = np.fft.fftfreq(width)[None, :]
    omega = np.hypot(fx, fy)
    theta = np.arctan2(fy, fx)
    sigma_theta = (math.pi / 12.0) / _HALF_PEAK
    bank = np.empty((HTD_SCALES * HTD_ORIENTATIONS, height, width))
    for s in range(HTD_SCALES):
        f0 = htd_center_frequency(s)
        sigma_f = f0 / (3.0 * _HALF_PEAK)
        radial = np.exp(-0.5 * ((omega - f0) / sigma_f) ** 2)
        for r in range(HTD_ORIENTATIONS):
            theta0 = math.pi * r / HTD_ORIENTATIONS
            dtheta = (theta - theta0 + math.pi / 2.0) % math.pi - math.pi / 2.0
            g = radial * np.exp(-0.5 * (dtheta / sigma_theta) ** 2)
            g[0, 0] = 0.0
            bank[s * HTD_ORIENTATIONS + r] = g
    return bank


def htd_complex_oracle(frame) -> np.ndarray:
    """HTD from the complex fft2 and the real part of one ifft2 per filter."""
    y = luma(frame)
    spectrum = np.fft.fft2(y)
    bank = _gabor_bank_full(frame.height, frame.width)
    energies = np.empty(HTD_SCALES * HTD_ORIENTATIONS)
    deviations = np.empty_like(energies)
    for idx in range(bank.shape[0]):
        response = np.fft.ifft2(spectrum * bank[idx]).real
        power = response ** 2
        energies[idx] = math.log1p(power.mean())
        deviations[idx] = math.log1p(power.std())
    return np.concatenate([[y.mean(), y.std()], energies, deviations])


def htd_spectral_oracle(frame) -> np.ndarray:
    """HTD's spectral definition on the complex fft2: each channel's energy
    and deviation are the mean and std of |Y g|^2 / N over all N entries of
    the full plane. g is the full-plane filter symmetrised as
    (g(f) + g(-f)) / 2, so Y g is the spectrum of the real part of the
    response that ``htd_complex_oracle`` keeps; the unsymmetrised filter
    differs from it on the Nyquist row and column of an even size."""
    y = luma(frame)
    n = y.size
    spectrum = np.fft.fft2(y)
    bank = _gabor_bank_full(frame.height, frame.width)
    energies = np.empty(HTD_SCALES * HTD_ORIENTATIONS)
    deviations = np.empty_like(energies)
    for idx in range(bank.shape[0]):
        g = bank[idx]
        # g at -f: index (-i mod height, -j mod width)
        symmetrised = 0.5 * (g + np.roll(g[::-1, ::-1], 1, axis=(0, 1)))
        power = np.abs(spectrum * symmetrised) ** 2 / n
        energies[idx] = math.log1p(power.mean())
        deviations[idx] = math.log1p(power.std())
    return np.concatenate([[y.mean(), y.std()], energies, deviations])


def ycbcr_planes_to_rgb_oracle(y, cb, cr) -> np.ndarray:
    """The float BT.601 inverse on full-resolution planes, rounded and clipped."""
    y = y.astype(np.float64)
    db = (cb.astype(np.float64) - 128.0) * (2.0 * (1.0 - _KB))
    dr = (cr.astype(np.float64) - 128.0) * (2.0 * (1.0 - _KR))
    r = y + dr
    b = y + db
    g = (y - _KR * r - _KB * b) / _KG
    rgb = np.stack([r, g, b], axis=-1)
    return np.clip(np.rint(rgb), 0, 255).astype(np.uint8)


def write_y4m_oracle(frames, fps: str, chroma: str) -> bytes:
    """Y4M bytes of 8-bit RGB frames, their chroma averaged by ``mean`` over
    reshaped 2x2 (4:2:0) or 1x2 (4:2:2) blocks; ``fps`` is the header's
    ``num:den``."""
    h, w = frames[0].shape[:2]
    tag = {"420": "420jpeg", "422": "422", "444": "444"}[chroma]
    out = bytearray()
    out += f"YUV4MPEG2 W{w} H{h} F{fps} Ip A1:1 C{tag}\n".encode()
    for pixels in frames:
        y, cb, cr = rgb_to_ycbcr_planes(pixels)
        if chroma == "420":
            cb = cb.reshape(h // 2, 2, w // 2, 2).mean(axis=(1, 3))
            cr = cr.reshape(h // 2, 2, w // 2, 2).mean(axis=(1, 3))
        elif chroma == "422":
            cb = cb.reshape(h, w // 2, 2).mean(axis=2)
            cr = cr.reshape(h, w // 2, 2).mean(axis=2)
        out += b"FRAME\n"
        for plane in (y, cb, cr):
            out += np.clip(np.rint(plane), 0, 255).astype(np.uint8).tobytes()
    return bytes(out)


# --- CCA: multiresolution angular grid sweep with hand-rolled deflation ----

def _direction(angles):
    """Spherical-coordinate unit vector for a (d-1)-angle tuple."""
    d = len(angles) + 1
    v = np.ones(d)
    for i, a in enumerate(angles):
        v[i] *= math.cos(a)
        v[i + 1 :] *= math.sin(a)
    return v


def _angle_grid(centers, spans, steps):
    axes = [np.linspace(c - s, c + s, steps) for c, s in zip(centers, spans)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _correlation_matrix(Xp, Yp):
    """corr between every column of Xp and every column of Yp."""
    Xc = Xp - Xp.mean(axis=0)
    Yc = Yp - Yp.mean(axis=0)
    xn = np.sqrt((Xc ** 2).sum(axis=0))
    yn = np.sqrt((Yc ** 2).sum(axis=0))
    xn[xn == 0] = 1.0
    yn[yn == 0] = 1.0
    return (Xc / xn).T @ (Yc / yn)


def _best_direction_pair(X, Y, rounds=22, steps=11):
    da, db = X.shape[1], Y.shape[1]
    ca = np.zeros(da - 1) if da > 1 else np.zeros(0)
    cb = np.zeros(db - 1) if db > 1 else np.zeros(0)
    sa = np.full(da - 1, math.pi)
    sb = np.full(db - 1, math.pi)
    best = (-np.inf, None, None)
    for _ in range(rounds):
        ga = _angle_grid(ca, sa, steps) if da > 1 else np.zeros((1, 0))
        gb = _angle_grid(cb, sb, steps) if db > 1 else np.zeros((1, 0))
        dirs_a = np.array([_direction(a) for a in ga])
        dirs_b = np.array([_direction(b) for b in gb])
        corr = _correlation_matrix(X @ dirs_a.T, Y @ dirs_b.T)
        ia, ib = np.unravel_index(np.argmax(corr), corr.shape)
        best = (corr[ia, ib], dirs_a[ia], dirs_b[ib])
        ca, cb = ga[ia], gb[ib]
        # grids keep overlapping generously while shrinking, which lets the
        # sweep walk out of a slightly-off coarse basin
        sa = sa * 0.55
        sb = sb * 0.55
    return best


def _complement_basis(constraints, dim):
    """Orthonormal basis of the subspace orthogonal to the constraint rows,
    built by do-it-yourself Gram-Schmidt against the identity."""
    basis = []
    normalized = []
    for c in constraints:
        v = c.astype(np.float64).copy()
        for o in normalized:
            v -= (v @ o) * o
        n = np.linalg.norm(v)
        if n > 1e-12:
            normalized.append(v / n)
    for i in range(dim):
        v = np.zeros(dim)
        v[i] = 1.0
        for o in normalized + basis:
            v -= (v @ o) * o
        n = np.linalg.norm(v)
        if n > 1e-10:
            basis.append(v / n)
    return np.array(basis).T  # dim x kept


def cca_correlations_oracle(X, Y, k):
    """Leading k canonical correlations via grid sweeps with deflation.

    After each direction pair is found, the search restricts to directions
    orthogonal (in the within-view covariance metric) to everything found so
    far, which is the defining constraint of the next canonical pair.
    """
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    n = X.shape[0]
    Xc = X - X.mean(axis=0)
    Yc = Y - Y.mean(axis=0)
    cxx = Xc.T @ Xc / (n - 1)
    cyy = Yc.T @ Yc / (n - 1)
    corrs = []
    constraints_a: list[np.ndarray] = []
    constraints_b: list[np.ndarray] = []
    found_a: list[np.ndarray] = []
    found_b: list[np.ndarray] = []
    for _ in range(k):
        Ba = _complement_basis(constraints_a, X.shape[1])
        Bb = _complement_basis(constraints_b, Y.shape[1])
        if Ba.shape[1] == 0 or Bb.shape[1] == 0:
            break
        rho, ua, ub = _best_direction_pair(Xc @ Ba, Yc @ Bb)
        a = Ba @ ua
        b = Bb @ ub
        corrs.append(max(rho, 0.0))
        found_a.append(a)
        found_b.append(b)
        constraints_a.append(cxx @ a)
        constraints_b.append(cyy @ b)
    return np.array(corrs)


# --- CCA in covariance space: both d x d inverse square roots ----------------

def _inv_sqrt(cov: np.ndarray, ridge: float, side: str) -> np.ndarray:
    reg = cov + ridge * np.eye(cov.shape[0])
    eigvals, eigvecs = np.linalg.eigh(reg)
    floor = max(eigvals.max(), 0.0) * 1e-12
    if eigvals.min() <= floor:
        raise SingularityError(
            f"{side} covariance is singular; pass a positive ridge to regularize"
        )
    return eigvecs @ np.diag(eigvals ** -0.5) @ eigvecs.T


def cca_primal_oracle(
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
        cxx = Xc.T @ Xc / (n - 1)
        cyy = Yc.T @ Yc / (n - 1)
        cxy = Xc.T @ Yc / (n - 1)
        trace_x, trace_y = np.trace(cxx), np.trace(cyy)
    for side, arrays in (("X", (cxx, trace_x)), ("Y", (cyy, trace_y, cxy))):
        if not all(np.isfinite(a).all() for a in arrays):
            raise FormatError(f"{side} covariance overflows float64")

    if ridge is None:
        ridge_x = DEFAULT_RIDGE_FACTOR * trace_x / d1
        ridge_y = DEFAULT_RIDGE_FACTOR * trace_y / d2
    else:
        if ridge < 0:
            raise ParameterError(f"ridge must be nonnegative, got {ridge}")
        ridge_x = ridge_y = float(ridge)

    wx_white = _inv_sqrt(cxx, ridge_x, "X")
    wy_white = _inv_sqrt(cyy, ridge_y, "Y")
    u, d, vt = np.linalg.svd(wx_white @ cxy @ wy_white)
    wx = wx_white @ u[:, :k]
    wy = wy_white @ vt[:k].T
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


# --- cubic characteristic polynomial roots for a 3x3 Gram matrix ----------

def gram3_singular_values(matrix):
    """Singular values of a (m x 3) matrix from the characteristic polynomial
    of its 3x3 Gram, solved by numpy's polynomial root finder."""
    g = matrix.T @ matrix
    assert g.shape == (3, 3)
    c2 = -np.trace(g)
    minors = (
        g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
        + g[0, 0] * g[2, 2] - g[0, 2] * g[2, 0]
        + g[1, 1] * g[2, 2] - g[1, 2] * g[2, 1]
    )
    c0 = -np.linalg.det(g)
    roots = np.roots([1.0, c2, minors, c0])
    eigs = np.sort(np.real(roots))[::-1]
    return np.sqrt(np.clip(eigs, 0.0, None))


# --- top-N metric enumeration ----------------------------------------------

def metrics_oracle(observations, cutoff):
    """Recall/precision/MAP by direct enumeration over test cases and users.

    observations: list of (user_id, rank). Returns both families as a dict.
    """
    n_tests = len(observations)
    hits = sum(1 for _, r in observations if r <= cutoff)
    protocol_recall = hits / n_tests
    protocol_precision = protocol_recall / cutoff
    protocol_map = sum(1.0 / r for _, r in observations if r <= cutoff) / n_tests

    users = {}
    for u, r in observations:
        users.setdefault(u, []).append(r)
    precs, recs, aps = [], [], []
    for ranks in users.values():
        ranks = sorted(ranks)
        krel = len(ranks)
        user_hits = [r for r in ranks if r <= cutoff]
        precs.append(len(user_hits) / cutoff)
        recs.append(len(user_hits) / krel)
        ap = 0.0
        for m, r in enumerate(user_hits, start=1):
            ap += m / r
        aps.append(ap / min(krel, cutoff))
    return {
        ("protocol", "recall"): protocol_recall,
        ("protocol", "precision"): protocol_precision,
        ("protocol", "map"): protocol_map,
        ("standard", "precision"): float(np.mean(precs)),
        ("standard", "recall"): float(np.mean(recs)),
        ("standard", "map"): float(np.mean(aps)),
    }


# --- 80/10/10 splits: the per-user loop that ``evaluation.make_splits`` replaced

def make_splits_oracle(R: InteractionMatrix, folds: int, seed: int) -> list[tuple]:
    """(train, val, test) entry positions per fold, each user's positions
    gathered in a Python loop over the entries and drawn with the same rng."""
    by_user = [[] for _ in range(R.n_users)]
    for pos, u in enumerate(R.entry_users):
        by_user[u].append(pos)
    out = []
    for fold in range(folds):
        rng = np.random.default_rng([seed, fold])
        train, val, test = [], [], []
        for u in range(R.n_users):
            entries = np.asarray(by_user[u], dtype=np.int64)
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
        out.append(tuple(np.sort(np.asarray(part, dtype=np.int64))
                         for part in (train, val, test)))
    return out


# --- one-plus-unrated ranks: the per-entry mask rule that
# ``evaluation.collect_observations`` replaced

def rank_unrated_oracle(model: SimilarityModel, R_train: InteractionMatrix, user_id, item_id):
    """1-based rank of the item among the items the user has not rated in
    training, ties counting against it; None for a user with no training
    ratings, and a ParameterError for an item the user has rated."""
    u = R_train.user_index(user_id)
    rated = R_train.indices[R_train.indptr[u] : R_train.indptr[u + 1]]
    if len(rated) == 0:
        return None
    scores = score(model, R_train, user_id)
    t = R_train.item_index(item_id)
    if t in rated:
        raise ParameterError(f"item {item_id} is already rated by user {user_id}")
    mask = np.ones(R_train.n_items, dtype=bool)
    mask[rated] = False
    mask[t] = False
    return int(1 + (scores[mask] >= scores[t]).sum())


# --- collective SLIM: the dense trainer, one full O(n^2 d) feature step per
# triple. It keeps S as a plain n x n array and applies every update to it
# as written. It reuses the package's input preparation (column
# standardisation, negative sampler, Gram spectral norm) so that both
# trainers consume the same random stream; the arithmetic on S is its own.

def collective_slim_oracle(
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
    """
    if R.n_entries == 0:
        raise ParameterError("cannot train on an empty interaction matrix")
    if F.item_ids != R.item_ids:
        raise AlignmentError(
            "feature matrix items and interaction matrix items are not aligned"
        )
    n = R.n_items
    G = standardize_columns(F.values)
    GT = G.T.copy()

    rated_idx: list[np.ndarray] = []
    rated_val: list[np.ndarray] = []
    rated_set: list[set[int]] = []
    for u in range(R.n_users):
        idx, val = R.user_ratings(u)
        rated_idx.append(idx)
        rated_val.append(val)
        rated_set.append(set(int(i) for i in idx))

    pairs = [
        (u, int(i))
        for u in range(R.n_users)
        if 0 < len(rated_idx[u]) < n
        for i, r in zip(rated_idx[u], rated_val[u])
        if r >= cfg.relevance_threshold
    ]

    lam_f = float(np.linalg.eigvalsh(G @ G.T)[-1]) if cfg.alpha < 1.0 else 0.0
    use_features = cfg.alpha < 1.0 and lam_f > 0.0
    lr, alpha, gamma = cfg.learning_rate, cfg.alpha, cfg.gamma
    run_bpr = alpha > 0.0 and bool(pairs)
    # without ranking triples to pace them, run enough feature steps per
    # epoch to keep plain gradient descent moving at any learning rate
    if use_features and not run_bpr:
        feature_steps = min(400, max(1, round(2.0 / (lr * (1.0 - alpha)))))
    else:
        feature_steps = 0

    sse_acc = [0.0, 0]

    def feature_step(S):
        resid = GT - GT @ S
        sse_acc[0] += float((resid ** 2).sum())
        sse_acc[1] += 1
        S += lr * ((2.0 * (1.0 - alpha) / lam_f) * (G @ resid) - gamma * S)
        np.fill_diagonal(S, 0.0)

    S = np.zeros((n, n))
    rng = np.random.default_rng(cfg.seed)
    history = []
    for epoch in range(cfg.epochs):
        bpr_loss = 0.0
        sse_acc[:] = [0.0, 0]
        if run_bpr:
            order = rng.permutation(len(pairs))
            for p in order:
                u, i = pairs[p]
                j = sample_negative(rng, rated_set[u], n)
                idx, val = rated_idx[u], rated_val[u]
                x_i = val @ S[idx, i]
                x_j = val @ S[idx, j]
                bpr_loss += np.logaddexp(0.0, x_j - x_i)
                z = expit(x_j - x_i)
                S[idx, i] += lr * (alpha * z * val - gamma * S[idx, i])
                S[idx, j] += lr * (-alpha * z * val - gamma * S[idx, j])
                S[i, i] = 0.0
                if use_features:
                    feature_step(S)
        else:
            for _ in range(feature_steps):
                feature_step(S)
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
                total += (1.0 - alpha) * float(((GT - GT @ S) ** 2).sum())
        total += gamma * float((S ** 2).sum())
        history.append(total)
    return SimilarityModel(
        matrix=S, config=cfg, item_ids=R.item_ids, loss_history=tuple(history)
    )

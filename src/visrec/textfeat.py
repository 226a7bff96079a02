"""Baseline feature families: binary genre vectors and LSA-reduced tags.

scipy is imported inside ``tfidf_matrix`` and ``fit_tag_lsa``, the only
functions that use it, so importing this module costs numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import EmptyInputError, ParameterError, VocabularyError
from .featureio import parse_int64, read_csv_table

if TYPE_CHECKING:
    import scipy.sparse as sp

# The 19-label genre vocabulary of the rating corpus.
GENRES = (
    "action", "adventure", "animation", "children's", "comedy", "crime",
    "documentary", "drama", "fantasy", "film-noir", "horror", "musical",
    "mystery", "romance", "sci-fi", "thriller", "war", "western", "unknown",
)
_GENRE_INDEX = {g: i for i, g in enumerate(GENRES)}
# Spellings that show up in MovieLens exports.
_GENRE_ALIASES = {"children": "children's", "(no genres listed)": "unknown"}


def normalize_genre(label: str) -> str:
    name = label.strip().lower()
    name = _GENRE_ALIASES.get(name, name)
    if name not in _GENRE_INDEX:
        raise VocabularyError(f"unknown genre label {label!r}")
    return name


def build_genre_matrix(catalog: list[tuple[int, list[str]]]) -> tuple[np.ndarray, list[int]]:
    """items x 19 binary matrix from (movie_id, genre labels) pairs.

    Returns the matrix and the movie id per row (catalog order).
    """
    if not catalog:
        raise EmptyInputError("empty movie catalog")
    matrix = np.zeros((len(catalog), len(GENRES)))
    ids = []
    for row, (movie_id, labels) in enumerate(catalog):
        if not labels:
            raise VocabularyError(f"movie {movie_id} lists no genres")
        for label in labels:
            matrix[row, _GENRE_INDEX[normalize_genre(label)]] = 1.0
        ids.append(movie_id)
    return matrix, ids


@dataclass(frozen=True)
class TagLsaModel:
    vocabulary: tuple[str, ...]  # tag per matrix row
    item_ids: tuple[int, ...]  # movie per matrix column
    k: int
    item_factors: np.ndarray  # items x k, rows are V * Sigma
    singular_values: np.ndarray  # k, descending
    truncated: bool  # requested rank exceeded the matrix rank


def normalize_tag(tag: str) -> str:
    return tag.strip().lower()


def tfidf_matrix(
    tag_assignments: list[tuple[int, str, float]],
) -> tuple[sp.csr_matrix, tuple[str, ...], tuple[int, ...]]:
    """TF-IDF-weighted tag x item matrix with L2-normalized item columns.

    idf uses the smoothed form ln((1+n)/(1+df)) + 1 so no tag gets zeroed out.
    """
    import scipy.sparse as sp

    if not tag_assignments:
        raise EmptyInputError("no tag assignments")
    counts: dict[tuple[str, int], float] = {}
    for movie_id, tag, count in tag_assignments:
        name = normalize_tag(tag)
        if not name:
            continue
        key = (name, movie_id)
        counts[key] = counts.get(key, 0.0) + float(count)
    if not counts:
        raise EmptyInputError("tag assignments contain only empty tags")
    vocab = tuple(sorted({t for t, _ in counts}))
    items = tuple(sorted({m for _, m in counts}))
    tag_idx = {t: i for i, t in enumerate(vocab)}
    item_idx = {m: j for j, m in enumerate(items)}
    rows, cols, data = [], [], []
    for (tag, movie), c in counts.items():
        rows.append(tag_idx[tag])
        cols.append(item_idx[movie])
        data.append(c)
    m = sp.csr_matrix((data, (rows, cols)), shape=(len(vocab), len(items)))
    df = (m > 0).sum(axis=1).A1
    idf = np.log((1.0 + len(items)) / (1.0 + df)) + 1.0
    weighted = sp.diags(idf) @ m
    col_norms = np.sqrt(weighted.power(2).sum(axis=0)).A1
    col_norms[col_norms == 0] = 1.0
    weighted = weighted @ sp.diags(1.0 / col_norms)
    return weighted.tocsr(), vocab, items


def fit_tag_lsa(tag_assignments: list[tuple[int, str, float]], k: int = 100) -> TagLsaModel:
    """Truncated SVD of the TF-IDF tag-item matrix; item factors are V*Sigma.

    A k above the matrix rank is silently truncated and flagged on the model.
    """
    from scipy.sparse.linalg import svds

    if k < 1:
        raise ParameterError(f"LSA rank must be >= 1, got {k}")
    matrix, vocab, items = tfidf_matrix(tag_assignments)
    max_rank = min(matrix.shape)
    if k < max_rank:
        u, s, vt = svds(matrix, k=k, random_state=0)
        order = np.argsort(-s)
        s = s[order]
        vt = vt[order]
    else:
        u, s, vt = np.linalg.svd(matrix.toarray(), full_matrices=False)
    tol = max(matrix.shape) * np.finfo(np.float64).eps * (s[0] if len(s) else 0.0)
    effective = int((s > tol).sum())
    kept = min(k, effective)
    truncated = kept < k
    s = s[:kept]
    vt = vt[:kept]
    return TagLsaModel(
        vocabulary=vocab,
        item_ids=items,
        k=kept,
        item_factors=vt.T * s,
        singular_values=s,
        truncated=truncated,
    )


# ---------------------------------------------------------------------------
# MovieLens-format loaders
# ---------------------------------------------------------------------------

def load_movies_csv(path: str | Path) -> list[tuple[int, str, list[str]]]:
    """movies.csv rows as (movieId, title, genre labels); pipes split genres."""
    return read_csv_table(path, ("movieId", "title", "genres"), lambda row: (
        parse_int64(row["movieId"]), row["title"], [g for g in row["genres"].split("|") if g]))


def load_tags_csv(path: str | Path) -> list[tuple[int, str, float]]:
    """tags.csv rows collapsed to (movieId, tag, occurrence count)."""
    counts: dict[tuple[int, str], float] = {}
    for key in read_csv_table(path, ("movieId", "tag"), lambda row: (
            parse_int64(row["movieId"]), normalize_tag(row["tag"]))):
        counts[key] = counts.get(key, 0.0) + 1.0
    return [(movie, tag, c) for (movie, tag), c in sorted(counts.items())]

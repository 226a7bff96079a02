import numpy as np
import pytest

from visrec.errors import DuplicateKeyError, FormatError, VocabularyError
from visrec.recsys import load_ratings_csv
from visrec.textfeat import (
    GENRES,
    build_genre_matrix,
    fit_tag_lsa,
    load_movies_csv,
    load_tags_csv,
    tfidf_matrix,
)

from oracles import gram3_singular_values


class TestGenreMatrix:
    def test_single_genre_one_hot(self):
        matrix, ids = build_genre_matrix([(10, ["comedy"])])
        assert ids == [10]
        assert matrix.sum() == 1.0
        assert matrix[0, GENRES.index("comedy")] == 1.0

    def test_all_genres_saturated_row(self):
        matrix, _ = build_genre_matrix([(1, list(GENRES))])
        assert matrix.shape == (1, 19)
        assert (matrix[0] == 1.0).all()

    def test_three_movie_toy_catalog(self):
        catalog = [
            (1, ["action", "thriller"]),
            (2, ["comedy"]),
            (3, ["sci-fi", "action", "war"]),
        ]
        matrix, ids = build_genre_matrix(catalog)
        expected = np.zeros((3, 19))
        for row, labels in ((0, ("action", "thriller")), (1, ("comedy",)),
                            (2, ("sci-fi", "action", "war"))):
            for label in labels:
                expected[row, GENRES.index(label)] = 1.0
        np.testing.assert_array_equal(matrix, expected)
        assert ids == [1, 2, 3]

    def test_unknown_genre_named_in_error(self):
        with pytest.raises(VocabularyError) as err:
            build_genre_matrix([(1, ["gardening"])])
        assert "gardening" in str(err.value)

    def test_movielens_spellings_normalized(self):
        matrix, _ = build_genre_matrix([(1, ["Children", "Sci-Fi", "(no genres listed)"])])
        assert matrix[0, GENRES.index("children's")] == 1.0
        assert matrix[0, GENRES.index("sci-fi")] == 1.0
        assert matrix[0, GENRES.index("unknown")] == 1.0


def toy_assignments():
    return [
        (1, "space", 3.0), (1, "robots", 1.0),
        (2, "space", 1.0), (2, "aliens", 2.0),
        (3, "romance", 2.0), (3, "paris", 1.0),
        (4, "space", 2.0), (4, "robots", 2.0),
    ]


class TestTagLsa:
    def test_identical_tag_multisets_identical_factors(self):
        assignments = [
            (1, "space", 2.0), (1, "robots", 1.0),
            (2, "space", 2.0), (2, "robots", 1.0),
            (3, "romance", 1.0),
        ]
        model = fit_tag_lsa(assignments, k=2)
        i1 = model.item_ids.index(1)
        i2 = model.item_ids.index(2)
        np.testing.assert_allclose(model.item_factors[i1], model.item_factors[i2],
                                   atol=1e-9)

    def test_rank_one_matrix_exactly_reconstructed(self):
        # single tag: the weighted matrix is rank 1 whatever the weighting
        assignments = [(m, "space", float(m)) for m in (1, 2, 3, 4)]
        model = fit_tag_lsa(assignments, k=1)
        matrix, _, _ = tfidf_matrix(assignments)
        dense = matrix.toarray()
        # reconstruct from the item factors: M ~ u * s * v^T, factors = V*S
        u = dense @ model.item_factors / (model.singular_values[0] ** 2)
        recon = u @ model.item_factors.T
        assert np.abs(recon - dense).max() <= 1e-8

    def test_singular_values_match_characteristic_polynomial(self):
        # 4 tags x 3 items: the item Gram is 3x3, small enough to solve its
        # characteristic cubic directly
        assignments = [
            (1, "space", 3.0), (1, "robots", 1.0), (1, "noir", 1.0),
            (2, "space", 1.0), (2, "aliens", 2.0),
            (3, "robots", 2.0), (3, "aliens", 1.0), (3, "noir", 2.0),
        ]
        matrix, vocab, items = tfidf_matrix(assignments)
        assert matrix.shape == (4, 3)
        model = fit_tag_lsa(assignments, k=2)
        oracle = gram3_singular_values(matrix.toarray())
        np.testing.assert_allclose(model.singular_values, oracle[:2], atol=1e-8)

    def test_requested_rank_above_matrix_rank_truncates(self):
        model = fit_tag_lsa([(1, "space", 1.0), (2, "space", 2.0)], k=5)
        assert model.truncated
        assert model.k == 1

    def test_reconstruction_error_nonincreasing_in_k(self):
        assignments = toy_assignments()
        matrix, _, _ = tfidf_matrix(assignments)
        dense = matrix.toarray()
        errors = []
        for k in (1, 2, 3):
            model = fit_tag_lsa(assignments, k=k)
            u, s, vt = np.linalg.svd(dense, full_matrices=False)
            recon = u[:, :k] @ np.diag(s[:k]) @ vt[:k]
            errors.append(np.linalg.norm(dense - recon))
        assert errors[0] >= errors[1] >= errors[2]

    def test_item_factor_gram_matches_low_rank_inner_products(self):
        assignments = toy_assignments()
        model = fit_tag_lsa(assignments, k=2)
        matrix, _, _ = tfidf_matrix(assignments)
        u, s, vt = np.linalg.svd(matrix.toarray(), full_matrices=False)
        approx = u[:, :2] @ np.diag(s[:2]) @ vt[:2]
        np.testing.assert_allclose(
            model.item_factors @ model.item_factors.T, approx.T @ approx, atol=1e-8
        )

    def test_tags_normalized(self):
        model = fit_tag_lsa([(1, "  Space ", 1.0), (2, "space", 1.0)], k=1)
        assert model.vocabulary == ("space",)


class TestMovieLensLoaders:
    def test_movies_and_tags(self, tmp_path):
        movies = tmp_path / "movies.csv"
        movies.write_text(
            "movieId,title,genres\n"
            '1,Example One,Action|Thriller\n'
            '2,"Example, Two",Comedy\n'
        )
        catalog = load_movies_csv(movies)
        assert catalog == [(1, "Example One", ["Action", "Thriller"]),
                           (2, "Example, Two", ["Comedy"])]
        tags = tmp_path / "tags.csv"
        tags.write_text(
            "userId,movieId,tag,timestamp\n"
            "1,1,Space,100\n"
            "2,1,space,101\n"
            "3,2,paris,102\n"
        )
        assert load_tags_csv(tags) == [(1, "space", 2.0), (2, "paris", 1.0)]

    def test_repeated_movie_id_rejected(self, tmp_path):
        movies = tmp_path / "movies.csv"
        movies.write_text("movieId,title,genres\n"
                          "1,Example One,Action\n2,Example Two,Drama\n1,Again,Comedy\n")
        with pytest.raises(DuplicateKeyError) as err:
            load_movies_csv(movies)
        assert str(err.value) == f"{movies}: movieId 1 is listed more than once"

    @pytest.mark.parametrize("loader, name, text, where", [
        (load_tags_csv, "tags.csv",
         "userId,movieId,tag,timestamp\n1,1,space,100\n3,abc,car chase,101\n", "line 3"),
        (load_ratings_csv, "ratings.csv",
         "userId,movieId,rating,timestamp\n1,1,4.0,100\n1,2,x,101\n", "line 3"),
        (load_ratings_csv, "ratings.csv", "userId,movieId,score\n1,1,4.0\n", "rating"),
        (load_movies_csv, "movies.csv", "movieId,title\n1,Example One\n", "genres"),
        (load_ratings_csv, "ratings.csv",
         "userId,movieId,rating,timestamp\n1,1,4.0,99999999999999999999\n", "line 2"),
        (load_movies_csv, "movies.csv",
         "movieId,title,genres\n100000000000000000000,Big,Comedy\n", "line 2"),
    ], ids=["tag-movie-id", "rating-value", "ratings-column", "movies-column",
            "timestamp-int64", "movie-id-int64"])
    def test_malformed_file_names_file_and_place(self, tmp_path, loader, name, text, where):
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(FormatError) as err:
            loader(path)
        assert str(path) in str(err.value) and where in str(err.value)

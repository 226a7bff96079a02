import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from visrec.aggregate import AggregationKind, aggregate
from visrec.errors import EmptyInputError, FormatError

# one movie's keyframe vectors: 1 to 8 rows of 2 to 6 values
VECSETS = st.tuples(st.integers(1, 8), st.integers(2, 6)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=st.floats(-100, 100))
)


class TestAggregateExamples:
    def test_singleton_is_identity(self):
        v = np.array([[2.5, -1.0, 7.0]])
        for kind in AggregationKind:
            np.testing.assert_array_equal(aggregate(v, kind), v[0])

    def test_hand_computed_triple(self):
        vs = np.array([[1.0, 5.0], [3.0, 3.0], [5.0, 1.0]])
        assert aggregate(vs, AggregationKind.INTERSECTION).tolist() == [1, 1]
        assert aggregate(vs, AggregationKind.AVERAGE).tolist() == [3, 3]
        assert aggregate(vs, AggregationKind.MEDIAN).tolist() == [3, 3]
        assert aggregate(vs, AggregationKind.UNION).tolist() == [5, 5]

    def test_identical_vectors_fixed_point(self):
        v = np.array([4.0, 0.25, -3.5])
        for kind in AggregationKind:
            np.testing.assert_array_equal(aggregate(np.tile(v, (5, 1)), kind), v)

    def test_even_count_median_is_midpoint(self):
        vs = np.array([[0.0], [1.0], [10.0], [11.0]])
        assert aggregate(vs, AggregationKind.MEDIAN)[0] == pytest.approx(5.5)

    def test_empty_list_rejected(self):
        with pytest.raises(EmptyInputError):
            aggregate(np.empty((0, 3)), AggregationKind.AVERAGE)

    @pytest.mark.parametrize("kind", [AggregationKind.AVERAGE, AggregationKind.MEDIAN])
    def test_overflowing_reduction_raises(self, kind):
        vs = np.full((4, 1024), 1e308)
        with pytest.raises(FormatError, match=f"{kind.value} of these vectors overflows"):
            aggregate(vs, kind)
        for bounded in (AggregationKind.INTERSECTION, AggregationKind.UNION):
            assert aggregate(vs, bounded)[0] == 1e308

    def test_kind_and_length_preserved(self):
        vs = np.random.default_rng(0).random((3, 80))
        out = aggregate(vs, AggregationKind.MEDIAN)
        assert out.dtype == np.float64 and out.shape == (80,)


class TestAggregateAlgebra:
    @settings(max_examples=80, deadline=None)
    @given(VECSETS)
    def test_ordering_chain(self, vs):
        inter = aggregate(vs, AggregationKind.INTERSECTION)
        med = aggregate(vs, AggregationKind.MEDIAN)
        avg = aggregate(vs, AggregationKind.AVERAGE)
        union = aggregate(vs, AggregationKind.UNION)
        eps = 1e-9
        assert (inter <= med + eps).all() and (med <= union + eps).all()
        assert (inter <= avg + eps).all() and (avg <= union + eps).all()

    @settings(max_examples=50, deadline=None)
    @given(VECSETS, st.randoms(use_true_random=False))
    def test_permutation_invariance_bit_exact(self, vs, rnd):
        order = list(range(len(vs)))
        rnd.shuffle(order)
        for kind in AggregationKind:
            assert np.array_equal(aggregate(vs, kind), aggregate(vs[order], kind))

    def test_average_is_linear(self, rng):
        vs = rng.normal(size=(4, 5))
        np.testing.assert_allclose(
            aggregate(3.0 * vs, AggregationKind.AVERAGE),
            3.0 * aggregate(vs, AggregationKind.AVERAGE),
            atol=1e-12,
        )

    def test_min_max_idempotent_under_repetition(self, rng):
        vs = rng.normal(size=(3, 4))
        for kind in (AggregationKind.INTERSECTION, AggregationKind.UNION):
            once = aggregate(vs, kind)
            np.testing.assert_array_equal(once, aggregate(np.array([once, once]), kind))

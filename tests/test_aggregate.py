import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from visrec.aggregate import AggregationKind, aggregate
from visrec.errors import EmptyInputError, FormatError, KindMismatchError
from visrec.featureio import FeatureVector


def fused(values):
    return FeatureVector("FUSED", np.asarray(values, dtype=np.float64))


VECSETS = st.integers(min_value=2, max_value=6).flatmap(
    lambda length: st.lists(
        arrays(np.float64, length, elements=st.floats(-100, 100)),
        min_size=1,
        max_size=8,
    )
)


class TestAggregateExamples:
    def test_singleton_is_identity(self):
        v = fused([2.5, -1.0, 7.0])
        for kind in AggregationKind:
            np.testing.assert_array_equal(aggregate([v], kind).values, v.values)

    def test_hand_computed_triple(self):
        vs = [fused([1, 5]), fused([3, 3]), fused([5, 1])]
        assert aggregate(vs, AggregationKind.INTERSECTION).values.tolist() == [1, 1]
        assert aggregate(vs, AggregationKind.AVERAGE).values.tolist() == [3, 3]
        assert aggregate(vs, AggregationKind.MEDIAN).values.tolist() == [3, 3]
        assert aggregate(vs, AggregationKind.UNION).values.tolist() == [5, 5]

    def test_identical_vectors_fixed_point(self):
        v = fused([4.0, 0.25, -3.5])
        for kind in AggregationKind:
            np.testing.assert_array_equal(aggregate([v] * 5, kind).values, v.values)

    def test_even_count_median_is_midpoint(self):
        vs = [fused([0.0]), fused([1.0]), fused([10.0]), fused([11.0])]
        assert aggregate(vs, AggregationKind.MEDIAN).values[0] == pytest.approx(5.5)

    def test_empty_list_rejected(self):
        with pytest.raises(EmptyInputError):
            aggregate([], AggregationKind.AVERAGE)

    def test_mixed_kinds_rejected(self):
        with pytest.raises(KindMismatchError):
            aggregate([fused([1.0]), FeatureVector("TAG_LSA", np.array([1.0]))],
                      AggregationKind.UNION)

    @pytest.mark.parametrize("kind", [AggregationKind.AVERAGE, AggregationKind.MEDIAN])
    def test_overflowing_reduction_raises(self, kind):
        vs = [FeatureVector("DNN", np.full(1024, 1e308))] * 4
        with pytest.raises(FormatError, match=f"{kind.value} of these DNN vectors overflows"):
            aggregate(vs, kind)
        for bounded in (AggregationKind.INTERSECTION, AggregationKind.UNION):
            assert aggregate(vs, bounded).values[0] == 1e308

    def test_kind_and_length_preserved(self):
        vs = [FeatureVector("EHD", np.random.default_rng(0).random(80)) for _ in range(3)]
        out = aggregate(vs, AggregationKind.MEDIAN)
        assert out.kind == "EHD" and len(out) == 80


class TestAggregateAlgebra:
    @settings(max_examples=80, deadline=None)
    @given(VECSETS)
    def test_ordering_chain(self, raw):
        vs = [fused(v) for v in raw]
        inter = aggregate(vs, AggregationKind.INTERSECTION).values
        med = aggregate(vs, AggregationKind.MEDIAN).values
        avg = aggregate(vs, AggregationKind.AVERAGE).values
        union = aggregate(vs, AggregationKind.UNION).values
        eps = 1e-9
        assert (inter <= med + eps).all() and (med <= union + eps).all()
        assert (inter <= avg + eps).all() and (avg <= union + eps).all()

    @settings(max_examples=50, deadline=None)
    @given(VECSETS, st.randoms(use_true_random=False))
    def test_permutation_invariance_bit_exact(self, raw, rnd):
        vs = [fused(v) for v in raw]
        shuffled = list(vs)
        rnd.shuffle(shuffled)
        for kind in AggregationKind:
            a = aggregate(vs, kind).values
            b = aggregate(shuffled, kind).values
            assert np.array_equal(a, b)

    def test_average_is_linear(self, rng):
        vs = [fused(rng.normal(size=5)) for _ in range(4)]
        scaled = [fused(3.0 * v.values) for v in vs]
        np.testing.assert_allclose(
            aggregate(scaled, AggregationKind.AVERAGE).values,
            3.0 * aggregate(vs, AggregationKind.AVERAGE).values,
            atol=1e-12,
        )

    def test_min_max_idempotent_under_repetition(self, rng):
        vs = [fused(rng.normal(size=4)) for _ in range(3)]
        for kind in (AggregationKind.INTERSECTION, AggregationKind.UNION):
            once = aggregate(vs, kind)
            twice = aggregate([once, once], kind)
            np.testing.assert_array_equal(once.values, twice.values)

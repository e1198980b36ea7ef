"""Unit tests for numeric distance and interval mapping."""

import pytest

from repro.core.errors import QueryError
from repro.similarity.numeric import (
    Interval,
    absolute_distance,
    euclidean_box,
    euclidean_distance,
    similarity_interval,
)


class TestDistances:
    def test_absolute_distance(self):
        assert absolute_distance(3.0, 7.5) == 4.5
        assert absolute_distance(7.5, 3.0) == 4.5

    def test_euclidean_distance(self):
        assert euclidean_distance((0, 0), (3, 4)) == 5.0

    def test_euclidean_dimension_mismatch(self):
        with pytest.raises(QueryError):
            euclidean_distance((1, 2), (1, 2, 3))


class TestInterval:
    def test_contains(self):
        interval = Interval(1.0, 2.0)
        assert interval.contains(1.0)
        assert interval.contains(2.0)
        assert not interval.contains(2.1)

    def test_width(self):
        assert Interval(1.0, 3.5).width() == 2.5

    def test_empty_rejected(self):
        with pytest.raises(QueryError):
            Interval(2.0, 1.0)


class TestSimilarityMapping:
    def test_similarity_interval(self):
        assert similarity_interval(10.0, 2.0) == Interval(8.0, 12.0)

    def test_zero_distance(self):
        assert similarity_interval(5.0, 0.0) == Interval(5.0, 5.0)

    def test_negative_distance_rejected(self):
        with pytest.raises(QueryError):
            similarity_interval(5.0, -1.0)

    def test_euclidean_box_covers_ball(self):
        box = euclidean_box((1.0, 2.0), 3.0)
        assert box == [Interval(-2.0, 4.0), Interval(-1.0, 5.0)]

    def test_euclidean_box_negative_rejected(self):
        with pytest.raises(QueryError):
            euclidean_box((0.0,), -0.5)

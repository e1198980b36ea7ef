"""Unit tests for the numeric distance and its intervals."""

import pytest

from repro.core.errors import QueryError
from repro.similarity.numeric import Interval, absolute_distance


class TestDistances:
    def test_absolute_distance(self):
        assert absolute_distance(3.0, 7.5) == 4.5
        assert absolute_distance(7.5, 3.0) == 4.5


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

"""Unit tests for configuration validation and the stats accumulators."""

import dataclasses

import pytest

from repro.core.config import (
    RankFunction,
    SimilarityStrategy,
    StoreConfig,
    TrieBalancing,
)
from repro.core.errors import ConfigError
from repro.core.stats import QueryStats
from repro.overlay.messages import CostReport


class TestStoreConfigValidation:
    def test_defaults_valid(self):
        config = StoreConfig()
        assert config.value_bits == config.key_bits - config.attr_bits

    @pytest.mark.parametrize("field,value", [
        ("key_bits", 2),
        ("key_bits", 200),
        ("attr_bits", 0),
        ("attr_bits", 32),
        ("q", 0),
        ("refs_per_level", 0),
        ("replication", 0),
    ])
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ConfigError):
            StoreConfig(**{field: value})

    def test_replace_preserves_other_fields(self):
        config = StoreConfig(seed=9, q=4)
        changed = config.replace(replication=2)
        assert changed.seed == 9
        assert changed.q == 4
        assert changed.replication == 2
        assert config.replication == 1  # original untouched

    def test_frozen(self):
        with pytest.raises(Exception):
            StoreConfig().q = 5  # type: ignore[misc]

    def test_fields(self):
        assert [f.name for f in dataclasses.fields(StoreConfig)] == [
            "key_bits", "attr_bits", "q", "strategy", "refs_per_level",
            "replication", "balancing", "seed", "index_values",
            "index_instance_grams", "index_schema_grams",
        ]

    @pytest.mark.parametrize(
        "knob",
        ["enable_length_filter", "enable_position_filter", "strict_completeness"],
    )
    def test_removed_knob_rejected(self, knob):
        with pytest.raises(TypeError):
            StoreConfig(**{knob: False})


class TestSimilarityStrategyNames:
    @pytest.mark.parametrize("name,expected", [
        ("qgrams", SimilarityStrategy.QGRAM),
        ("QGRAM", SimilarityStrategy.QGRAM),
        ("qgram", SimilarityStrategy.QGRAM),
        ("qsamples", SimilarityStrategy.QSAMPLE),
        ("qsample", SimilarityStrategy.QSAMPLE),
        ("strings", SimilarityStrategy.NAIVE),
        ("naive", SimilarityStrategy.NAIVE),
        ("string", SimilarityStrategy.NAIVE),
    ])
    def test_aliases(self, name, expected):
        assert SimilarityStrategy.from_name(name) is expected

    def test_unknown_rejected(self):
        with pytest.raises(ConfigError):
            SimilarityStrategy.from_name("bloom")


class TestEnums:
    def test_rank_functions(self):
        assert RankFunction("NN") is RankFunction.NN

    def test_balancing_values(self):
        assert TrieBalancing.DATA_AWARE.value == "data-aware"


class TestQueryStats:
    def _cost(self, messages, bytes_):
        return CostReport(
            messages=messages,
            payload_bytes=bytes_,
            by_type={"route": messages},
            by_phase={"q": messages},
        )

    def test_record_accumulates(self):
        stats = QueryStats()
        stats.record(self._cost(10, 1000))
        stats.record(self._cost(5, 500))
        assert stats.queries == 2
        assert stats.messages == 15
        assert stats.payload_bytes == 1500
        assert stats.by_type["route"] == 15

    def test_payload_megabytes(self):
        stats = QueryStats()
        stats.record(self._cost(10, 2_000_000))
        assert stats.payload_megabytes == 2.0

    def test_summary_format(self):
        stats = QueryStats()
        stats.record(self._cost(3, 1_234_567))
        assert "1 queries" in stats.summary()
        assert "1.235 MB" in stats.summary()

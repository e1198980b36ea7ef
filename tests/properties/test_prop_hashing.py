"""Property-based tests: hash monotonicity and key-space closure."""

from hypothesis import given, settings, strategies as st

from repro.core.config import StoreConfig
from repro.overlay.hashing import (
    CompositeKeyCodec,
    NumericKeyCodec,
    OrderPreservingStringHash,
    float_to_ordered_int,
    uniform_key,
)

from tests.reference.key_codec import ReferenceKeyCodec

simple_text = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz 0123456789", max_size=20
)
finite_floats = st.floats(allow_nan=False, allow_infinity=False)


class TestStringHash:
    @given(simple_text, simple_text)
    def test_monotone(self, a, b):
        hasher = OrderPreservingStringHash(32)
        if a < b:
            assert hasher.key_value(a) <= hasher.key_value(b)
        elif a > b:
            assert hasher.key_value(a) >= hasher.key_value(b)
        else:
            assert hasher.key_value(a) == hasher.key_value(b)

    @given(simple_text)
    def test_key_in_range(self, text):
        hasher = OrderPreservingStringHash(24)
        value = hasher.key_value(text)
        assert 0 <= value < (1 << 24)
        assert len(hasher.key(text)) == 24

    @given(st.text(alphabet="abcdef", min_size=1, max_size=8))
    def test_strict_on_short_distinct_strings(self, a):
        # Short strings fit entirely in the bit budget: extending a string
        # strictly increases its key.
        hasher = OrderPreservingStringHash(64)
        assert hasher.key_value(a) < hasher.key_value(a + "a")


class TestNumericHash:
    @given(finite_floats, finite_floats)
    def test_ordered_int_monotone(self, a, b):
        if a < b:
            assert float_to_ordered_int(a) < float_to_ordered_int(b)
        elif a == b:
            assert float_to_ordered_int(a) == float_to_ordered_int(b)

    @given(finite_floats)
    def test_codec_range_contains_point(self, x):
        codec = NumericKeyCodec(24)
        lo, hi = codec.range_keys(x, x)
        assert lo == hi == codec.key_value(x)

    @given(finite_floats, finite_floats, finite_floats)
    def test_value_inside_interval_maps_inside_key_range(self, a, b, c):
        lo_v, hi_v = min(a, b), max(a, b)
        if not lo_v <= c <= hi_v:
            return
        codec = NumericKeyCodec(24)
        lo, hi = codec.range_keys(lo_v, hi_v)
        assert lo <= codec.key_value(c) <= hi


class TestUniformKey:
    @given(st.text(min_size=1, max_size=30), st.integers(min_value=4, max_value=64))
    def test_width_and_alphabet(self, text, bits):
        key = uniform_key(text, bits)
        assert len(key) == bits
        assert set(key) <= {"0", "1"}

    @given(st.text(min_size=1, max_size=30))
    def test_deterministic(self, text):
        assert uniform_key(text, 32) == uniform_key(text, 32)


# Attribute names and values drawn from small pools, so one example asks
# for the same thing several times and in varying order.
attribute_names = st.sampled_from(["word:text", "car:name", "Car:Name", "a", ""])
# Shorter than, equal to and longer than any drawn q; mixed case; characters
# below ('\x00'), above ('~') and outside ('é', '中') the hash alphabet.
string_values = st.text(alphabet="abzABZ 09#~\x00\x01é中", max_size=8)
numeric_values = st.one_of(
    st.integers(-(2**62), 2**62), finite_floats, st.booleans()
)
codec_calls = st.one_of(
    st.tuples(st.just("oid_key"), string_values),
    st.tuples(st.just("value_key"), st.one_of(string_values, numeric_values)),
    st.tuples(st.just("schema_gram_key"), string_values),
    st.tuples(st.just("attr_prefix"), attribute_names),
    st.tuples(
        st.just("attr_value_key"),
        attribute_names,
        st.one_of(string_values, numeric_values),
    ),
    st.tuples(
        st.just("attr_value_range"), attribute_names, finite_floats, finite_floats
    ).map(lambda call: call[:2] + tuple(sorted(call[2:]))),
    st.tuples(
        st.just("attr_string_range"), attribute_names, string_values, string_values
    ).map(lambda call: call[:2] + tuple(sorted(call[2:]))),
)


class TestCodecMemo:
    """What the codec remembers never changes what it answers."""

    @settings(max_examples=200, deadline=None)
    @given(
        key_bits=st.integers(4, 64),
        attr_share=st.floats(0.0, 1.0),
        q=st.integers(1, 5),
        calls=st.lists(codec_calls, min_size=1, max_size=30),
    )
    def test_every_method_equals_the_unmemoised_reference(
        self, key_bits, attr_share, q, calls
    ):
        attr_bits = 1 + int(attr_share * (key_bits - 2))
        config = StoreConfig(key_bits=key_bits, attr_bits=attr_bits, q=q)
        codec = CompositeKeyCodec(config)
        reference = ReferenceKeyCodec(config)
        # Twice over: the second round is answered from whatever the first
        # left behind.
        for name, *args in calls + calls:
            assert getattr(codec, name)(*args) == getattr(reference, name)(*args)

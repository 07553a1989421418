import copy
import pickle

import pytest
from hypothesis import given, strategies as st

from goodnet import Weight
from goodnet.weights import SCALE


@pytest.mark.parametrize(
    "clone", [copy.copy, copy.deepcopy, lambda w: pickle.loads(pickle.dumps(w))], ids=["copy", "deepcopy", "pickle"]
)
def test_weight_copies_and_pickles(clone):
    for w in (Weight.from_decimal("-0.1"), Weight(2**70)):
        twin = clone(w)
        assert twin == w and twin.micros == w.micros and type(twin) is Weight


def test_from_decimal_exact():
    assert Weight.from_decimal("0.1").micros == 100_000
    assert Weight.from_decimal("-0.000001").micros == -1
    assert Weight.from_decimal("3").micros == 3 * SCALE
    assert Weight.from_decimal("+2.5").micros == 2_500_000
    assert Weight.from_decimal("250.700000").micros == 250_700_000


@pytest.mark.parametrize("bad", ["", "1.2.3", "1e5", "abc", "--1", "0.1234567"])
def test_from_decimal_rejects(bad):
    with pytest.raises(ValueError):
        Weight.from_decimal(bad)


def test_arithmetic_is_exact():
    # the float trap this type exists to avoid: 0.1 + 0.2 != 0.3 in binary
    a = Weight.from_decimal("0.1")
    b = Weight.from_decimal("0.2")
    assert a + b == Weight.from_decimal("0.3")
    assert -a == Weight.from_decimal("-0.1")


def test_comparisons_and_zero_literal():
    assert Weight.from_int(-1) < Weight(0) < Weight.from_decimal("0.000001")
    assert Weight.from_int(2) >= Weight.from_int(2)
    assert max(Weight.from_int(1), Weight.from_int(-3)) == Weight.from_int(1)
    # Weights do not mix with bare ints (micros): equality is False, ordering and addition raise
    assert Weight(0) != 0
    with pytest.raises(TypeError):
        Weight(0) < 0
    with pytest.raises(TypeError):
        Weight(0) + 0
    # and a Weight holds whole micros only
    with pytest.raises(TypeError, match="micros must be int, got float"):
        Weight(1.5)


def test_weight_times_weight_is_undefined():
    with pytest.raises(TypeError):
        Weight.from_int(2) * Weight.from_int(3)


def test_str_is_canonical():
    assert str(Weight.from_decimal("250.700000")) == "250.7"
    assert str(Weight.from_int(-3)) == "-3"
    assert str(Weight.from_decimal("-0.1")) == "-0.1"
    assert str(Weight(1)) == "0.000001"
    assert str(Weight(0)) == "0"


def test_float_conversion():
    assert float(Weight.from_decimal("2.5")) == 2.5


@given(st.integers(min_value=-(10**12), max_value=10**12))
def test_text_round_trip(micros):
    w = Weight(micros)
    assert Weight.from_decimal(str(w)) == w


@given(
    st.integers(min_value=-(10**10), max_value=10**10),
    st.integers(min_value=-(10**10), max_value=10**10),
)
def test_addition_matches_integer_arithmetic(a, b):
    assert (Weight(a) + Weight(b)).micros == a + b
    assert (Weight(a) < Weight(b)) == (a < b)

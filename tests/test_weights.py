import copy
import pickle

import pytest
from hypothesis import example, given, settings, strategies as st

from goodnet import Weight
from goodnet.weights import SCALE, format_micros, parse_micros

from helpers import decimal_micros_reference, from_decimal_reference, micros_text_reference


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


# Arabic-Indic and fullwidth digits, which `int` and str.isdecimal accept
@pytest.mark.parametrize("bad", ["\u0661", "\u0663.\u0665", "1.\u0665", "-\u0663", "\uff13", "2\u0660"])
def test_decimals_take_ascii_digits_only(bad):
    with pytest.raises(ValueError, match="^malformed number: "):
        parse_micros(bad)
    with pytest.raises(ValueError, match="^malformed number: "):
        Weight.from_decimal(bad)


@pytest.mark.parametrize("digits", [19, 5000])
def test_a_whole_part_too_long_is_refused_by_its_length(monkeypatch, digits):
    # `int` would raise its own bare ValueError past 4,300 digits; the length
    # check comes first, so no digit is read
    monkeypatch.setattr("goodnet.weights.int", lambda text: pytest.fail("int read the digits"), raising=False)
    for text in ("1" * digits, "-" + "1" * digits + ".5"):
        with pytest.raises(ValueError) as info:
            parse_micros(text)
        assert str(info.value) == f"whole part of {digits} digits, more than 18"


def test_the_longest_whole_part_is_read():
    assert parse_micros("9" * 18 + ".999999") == 10**24 - 1
    assert parse_micros("-" + "9" * 18) == -(10**24 - 10**6)


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


@given(st.one_of(st.integers(-(2**62), 2**62), st.integers(-3 * SCALE, 3 * SCALE)))
@example(-1)
@example(-SCALE - 1)
@example(SCALE * 10**12 + 500_000)
def test_format_micros_matches_the_reference(micros):
    assert format_micros(micros) == micros_text_reference(micros) == str(Weight(micros))


# digits, signs, points, whitespace, an underscore, an exponent and non-ASCII digits
_NEAR_DECIMALS = st.text(alphabet="0123456789+-._ \t\ne٣０", max_size=12)
_DECIMALS = st.builds(
    lambda pad, sign, whole, frac: f"{pad}{sign}{whole}{frac}{pad}",
    st.sampled_from(["", " ", "\t", "\n"]),
    st.sampled_from(["", "+", "-"]),
    st.text(alphabet="0123456789٣", min_size=1, max_size=8),
    st.one_of(st.just(""), st.text(alphabet="0123456789", max_size=8).map(lambda f: "." + f)),
)


def _same_outcome(text):
    """Weight.from_decimal and the reference parser accept `text` alike (equal
    micros) or reject it alike (the same message)."""
    try:
        expected = decimal_micros_reference(text)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            Weight.from_decimal(text)
        assert str(info.value) == str(exc)
    else:
        assert Weight.from_decimal(text).micros == expected


@pytest.mark.parametrize(
    "text", ["+5", "-0", ".5", "5.", "1_0", " 3 ", "1.1234567", "", "٣", "-٣.٣", "5\n", "1 0", "+-5", "5.5.5", "-0.000001"]
)
def test_from_decimal_on_edge_cases_matches_the_reference(text):
    _same_outcome(text)


@settings(max_examples=300)
@given(st.one_of(_NEAR_DECIMALS, _DECIMALS))
def test_from_decimal_matches_the_reference(text):
    _same_outcome(text)


# sign, digits (some of them non-ASCII), an optional point, 0-8 fractional digits, then junk
_TOKENS = st.builds(
    lambda sign, whole, frac, junk: f"{sign}{whole}{frac}{junk}",
    st.sampled_from(["", "+", "-", "+-", " "]),
    st.text(alphabet="0123456789\u0663\uff10", max_size=6),
    st.one_of(st.just(""), st.text(alphabet="0123456789\u0665", max_size=8).map(lambda f: "." + f)),
    st.one_of(st.just(""), st.text(max_size=3)),
)


@settings(max_examples=400)
@given(st.one_of(_TOKENS, st.text(max_size=10)))
@example("\u2003-1.5\u2003")  # non-ASCII whitespace around ASCII digits is stripped, as before
@example("1" * 30 + ".123456")
def test_parse_micros_matches_the_kept_from_decimal(text):
    """The one micros reader agrees with the pre-change Weight.from_decimal
    (equal value or the same ValueError message) on text that is ASCII once
    stripped, and refuses any other text as malformed."""
    if not text.strip().isascii():
        with pytest.raises(ValueError, match="^malformed number: "):
            parse_micros(text)
        return
    try:
        expected = from_decimal_reference(text).micros
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            parse_micros(text)
        assert str(info.value) == str(exc)
    else:
        assert parse_micros(text) == Weight.from_decimal(text).micros == expected

"""Exact six-decimal values for connection weights and unit biases.

Threshold rules of the form ``sum >= -theta`` and max-recurrences over
goodness values must be decided exactly; binary floats cannot represent
decimals like 0.1 and would make tie decisions platform-dependent.  A
:class:`Weight` stores an integer number of millionths ("micros").  The
rules, solvers and trace lines use those integers: `parse_micros` is the
one reader of decimal text, `parse_digits` the one reader of an integer
token (a node id or count, a fixture argument, a decimal's whole part, an
integer flag), and `format_micros` (``str()`` of a Weight) the one
writer.  A Weight appears where a value is handed out, compared or
printed, exact in comparison, sum and negation.
"""

from __future__ import annotations

import functools

SCALE = 10**6


# The longest digit run `parse_digits` reads: a longer one is refused by its
# length before `int` reads it, which raises its own bare ValueError past
# 4,300 digits.  A node id needs at most 18, and 18 whole digits are 10**24
# micros, past the bound of every exact path.
MAX_DIGITS = 18


def is_ascii_digits(token: str) -> bool:
    """The one spelling of a digit run: ASCII digits only, so ``1_0``, ``+3``
    and non-ASCII digits are refused although `int` reads them."""
    return token.isascii() and token.isdigit()


def parse_digits(token: str, what: str) -> int:
    """`token`, a run of at most `MAX_DIGITS` ASCII digits, as an int;
    ValueError naming `what` otherwise, a too-long run refused by its
    length before `int` reads it."""
    if not is_ascii_digits(token):
        raise ValueError(f"bad {what} {token!r}")
    if len(token) > MAX_DIGITS:
        raise ValueError(f"{what} of {len(token)} digits, more than {MAX_DIGITS}")
    return int(token)


def parse_micros(text: str) -> int:
    """A decimal literal (optional sign, ASCII digits, optionally a point and
    ASCII digits; surrounding whitespace ignored) with at most six fractional
    digits and at most `MAX_DIGITS` whole ones, as int micros; ValueError
    otherwise."""
    whole, point, frac = text.strip().partition(".")
    sign = whole[:1]
    if sign == "-" or sign == "+":
        whole = whole[1:]
    if not is_ascii_digits(whole) or (point and not is_ascii_digits(frac)):
        raise ValueError(f"malformed number: {text!r}")
    micros = parse_digits(whole, "whole part") * SCALE
    if len(frac) > 6:
        raise ValueError(f"more than 6 fractional digits: {text!r}")
    if point:
        micros += int(frac.ljust(6, "0"))
    return -micros if sign == "-" else micros


def format_micros(micros: int) -> str:
    """`micros` millionths as decimal text, with no point when whole and no trailing zeros."""
    if not micros % SCALE:
        return str(micros // SCALE)
    sign = "-" if micros < 0 else ""
    whole, frac = divmod(abs(micros), SCALE)
    return f"{sign}{whole}.{str(frac).zfill(6).rstrip('0')}"


@functools.total_ordering
class Weight:
    """Signed fixed-point number with six decimal places."""

    __slots__ = ("micros",)

    def __init__(self, micros: int = 0):
        if not isinstance(micros, int):
            raise TypeError(f"micros must be int, got {type(micros).__name__}")
        object.__setattr__(self, "micros", micros)

    @classmethod
    def from_int(cls, value: int) -> "Weight":
        return cls(value * SCALE)

    @classmethod
    def from_decimal(cls, text: str) -> "Weight":
        """The Weight of a decimal literal, read by `parse_micros`."""
        return cls(parse_micros(text))

    def __setattr__(self, name, value):
        raise AttributeError("Weight is immutable")

    def __reduce__(self):
        return Weight, (self.micros,)

    def __add__(self, other):
        if isinstance(other, Weight):
            return Weight(self.micros + other.micros)
        return NotImplemented

    def __neg__(self):
        return Weight(-self.micros)

    def __eq__(self, other):
        if isinstance(other, Weight):
            return self.micros == other.micros
        return NotImplemented

    def __lt__(self, other):
        if isinstance(other, Weight):
            return self.micros < other.micros
        return NotImplemented

    def __hash__(self):
        return hash(("Weight", self.micros))

    def __float__(self):
        return self.micros / SCALE

    def __str__(self):
        return format_micros(self.micros)

    def __repr__(self):
        return f"Weight({str(self)})"

"""Exact six-decimal values for connection weights and unit biases.

Threshold rules of the form ``sum >= -theta`` and max-recurrences over
goodness values must be decided exactly; binary floats cannot represent
decimals like 0.1 and would make tie decisions platform-dependent.  A
:class:`Weight` stores an integer number of millionths ("micros").  The
rules, solvers and trace lines use those integers (`format_micros` is
``str()`` of a Weight); a Weight appears where a value is parsed,
printed, compared or returned, exact in comparison, sum and negation.
"""

from __future__ import annotations

import functools

SCALE = 10**6


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
        """Parse a decimal literal (sign, digits, point and digits) with at most six fractional digits."""
        whole, point, frac = text.strip().partition(".")
        sign = whole[:1]
        if sign == "-" or sign == "+":
            whole = whole[1:]
        if not whole.isdecimal() or (point and not frac.isdecimal()):
            raise ValueError(f"malformed number: {text!r}")
        if len(frac) > 6:
            raise ValueError(f"more than 6 fractional digits: {text!r}")
        micros = int(whole) * SCALE + (int(frac.ljust(6, "0")) if point else 0)
        return cls(-micros if sign == "-" else micros)

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

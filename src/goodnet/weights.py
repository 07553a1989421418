"""Exact fixed-point arithmetic for connection weights and unit biases.

Threshold rules of the form ``sum >= -theta`` and max-recurrences over
goodness values must be decided exactly; binary floats cannot represent
decimals like 0.1 and would make tie decisions platform-dependent.  A
:class:`Weight` stores an integer number of millionths, so addition,
negation and comparison are exact for any decimal with at most six
fractional digits.
"""

from __future__ import annotations

import re

SCALE = 10**6

_DECIMAL_RE = re.compile(r"^([+-]?)(\d+)(?:\.(\d+))?$")


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
        """Parse a decimal literal with at most six fractional digits."""
        m = _DECIMAL_RE.match(text.strip())
        if m is None:
            raise ValueError(f"malformed number: {text!r}")
        sign, whole, frac = m.groups()
        frac = frac or ""
        if len(frac) > 6:
            raise ValueError(f"more than 6 fractional digits: {text!r}")
        micros = int(whole) * SCALE + int(frac.ljust(6, "0") or "0")
        return cls(-micros if sign == "-" else micros)

    def __setattr__(self, name, value):
        raise AttributeError("Weight is immutable")

    def __add__(self, other):
        if isinstance(other, Weight):
            return Weight(self.micros + other.micros)
        if other == 0:  # lets sum() start from 0
            return Weight(self.micros)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Weight):
            return Weight(self.micros - other.micros)
        return NotImplemented

    def __neg__(self):
        return Weight(-self.micros)

    def __abs__(self):
        return Weight(abs(self.micros))

    def __mul__(self, other):
        """Scale by an integer (activation bits, counts); Weight*Weight is undefined."""
        if isinstance(other, int):
            return Weight(self.micros * other)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, Weight):
            return self.micros == other.micros
        if other == 0:
            return self.micros == 0
        return NotImplemented

    def __lt__(self, other):
        if isinstance(other, Weight):
            return self.micros < other.micros
        if other == 0:
            return self.micros < 0
        return NotImplemented

    def __le__(self, other):
        if isinstance(other, Weight):
            return self.micros <= other.micros
        if other == 0:
            return self.micros <= 0
        return NotImplemented

    def __gt__(self, other):
        result = self.__le__(other)
        return NotImplemented if result is NotImplemented else not result

    def __ge__(self, other):
        result = self.__lt__(other)
        return NotImplemented if result is NotImplemented else not result

    def __hash__(self):
        return hash(("Weight", self.micros))

    def __bool__(self):
        return self.micros != 0

    def __float__(self):
        return self.micros / SCALE

    def __str__(self):
        sign = "-" if self.micros < 0 else ""
        whole, frac = divmod(abs(self.micros), SCALE)
        if frac == 0:
            return f"{sign}{whole}"
        return f"{sign}{whole}.{str(frac).zfill(6).rstrip('0')}"

    def __repr__(self):
        return f"Weight({str(self)})"


ZERO = Weight(0)


def wsum(values) -> Weight:
    """Exact sum of an iterable of Weights (empty sum is zero)."""
    total = 0
    for v in values:
        total += v.micros
    return Weight(total)

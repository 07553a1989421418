"""Exact six-decimal values for connection weights and unit biases.

Threshold rules of the form ``sum >= -theta`` and max-recurrences over
goodness values must be decided exactly; binary floats cannot represent
decimals like 0.1 and would make tie decisions platform-dependent.  A
:class:`Weight` stores an integer number of millionths ("micros").  The
rules and solvers compute on those integers directly; a Weight appears
where a value is parsed, printed, compared or returned, and its
comparisons, addition and negation are exact.
"""

from __future__ import annotations

import functools
import re

SCALE = 10**6

_DECIMAL_RE = re.compile(r"^([+-]?)(\d+)(?:\.(\d+))?$")


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
        sign = "-" if self.micros < 0 else ""
        whole, frac = divmod(abs(self.micros), SCALE)
        if frac == 0:
            return f"{sign}{whole}"
        return f"{sign}{whole}.{str(frac).zfill(6).rstrip('0')}"

    def __repr__(self):
        return f"Weight({str(self)})"

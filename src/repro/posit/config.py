"""Posit format configuration.

A posit format is fully determined by the pair ``(n, es)`` where ``n`` is the
total word size in bits and ``es`` is the maximum number of exponent bits
(Gustafson & Yonemoto, 2017).  This module defines :class:`PositConfig`, a
small immutable value object that exposes the derived constants used
throughout the library:

``useed``
    ``2 ** (2 ** es)`` — the base of the regime scaling.
``maxpos`` / ``minpos``
    The largest and smallest representable positive values,
    ``useed ** (n - 2)`` and ``useed ** (2 - n)`` respectively.

The configurations used in the paper are provided as module-level constants,
e.g. :data:`POSIT_8_1` and :data:`POSIT_16_2`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from ..formats.base import NumberFormat


@dataclass(frozen=True, order=True)
class PositConfig(NumberFormat):
    """Immutable description of an ``(n, es)`` posit format.

    Parameters
    ----------
    n:
        Total word size in bits.  Must be at least 2.
    es:
        Maximum exponent field width in bits.  Must be non-negative and small
        enough that the derived constants stay inside IEEE double range
        (``(n - 2) * 2 ** es < 1024``).

    Examples
    --------
    >>> cfg = PositConfig(8, 1)
    >>> cfg.useed
    4
    >>> cfg.maxpos
    16777216.0
    >>> cfg.minpos
    5.960464477539063e-08
    """

    n: int
    es: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or not isinstance(self.es, int):
            raise TypeError("n and es must be integers")
        if self.n < 2:
            raise ValueError(f"posit word size must be >= 2, got n={self.n}")
        if self.es < 0:
            raise ValueError(f"exponent field size must be >= 0, got es={self.es}")
        # Guard against formats whose dynamic range exceeds IEEE double, which
        # the software implementation relies on for exact intermediate values.
        if (self.n - 2) * (1 << self.es) >= 1024:
            raise ValueError(
                f"(n={self.n}, es={self.es}) exceeds the dynamic range representable "
                "in float64; this software model supports (n - 2) * 2**es < 1024"
            )

    @property
    def useed(self) -> int:
        """The regime base, ``2 ** (2 ** es)``."""
        return 1 << (1 << self.es)

    @property
    def maxpos(self) -> float:
        """Largest representable positive value, ``useed ** (n - 2)``."""
        return float(2.0 ** ((self.n - 2) * (1 << self.es)))

    @property
    def minpos(self) -> float:
        """Smallest representable positive value, ``useed ** (2 - n)``."""
        return float(2.0 ** (-(self.n - 2) * (1 << self.es)))

    @property
    def max_exponent(self) -> int:
        """Largest power-of-two exponent representable, ``(n - 2) * 2**es``."""
        return (self.n - 2) * (1 << self.es)

    @property
    def nar_pattern(self) -> int:
        """Bit pattern of NaR (Not a Real): sign bit set, all others zero."""
        return 1 << (self.n - 1)

    @property
    def code_count(self) -> int:
        """Total number of distinct bit patterns, ``2 ** n``."""
        return 1 << self.n

    @property
    def positive_code_count(self) -> int:
        """Number of strictly positive representable values, ``2**(n-1) - 1``."""
        return (1 << (self.n - 1)) - 1

    @property
    def dynamic_range_decades(self) -> float:
        """Dynamic range in decades, ``log10(maxpos / minpos)``."""
        return 2 * self.max_exponent * math.log10(2.0)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"posit({self.n},{self.es})"

    def as_tuple(self) -> tuple[int, int]:
        """Return ``(n, es)`` as a plain tuple."""
        return (self.n, self.es)

    # ------------------------------------------------------------------ #
    # NumberFormat surface (see repro.formats.base, which also supplies the
    # codec methods).
    # ------------------------------------------------------------------ #
    @property
    def bits(self) -> int:
        """Total storage width in bits (protocol alias for ``n``)."""
        return self.n

    @property
    def name(self) -> str:
        """Human-readable format name, e.g. ``"posit(8,1)"``."""
        return f"posit({self.n},{self.es})"

    def spec(self) -> str:
        """Canonical registry spec string; identical to :attr:`name`."""
        return f"posit({self.n},{self.es})"


@lru_cache(maxsize=None)
def get_config(n: int, es: int) -> PositConfig:
    """Return a cached :class:`PositConfig` for ``(n, es)``."""
    return PositConfig(n, es)


#: Formats used throughout the paper's experiments (Table III) and hardware
#: evaluation (Tables IV and V).
POSIT_5_1 = PositConfig(5, 1)
POSIT_8_0 = PositConfig(8, 0)
POSIT_8_1 = PositConfig(8, 1)
POSIT_8_2 = PositConfig(8, 2)
POSIT_16_1 = PositConfig(16, 1)
POSIT_16_2 = PositConfig(16, 2)
POSIT_32_2 = PositConfig(32, 2)
POSIT_32_3 = PositConfig(32, 3)

#: All formats that appear in the paper, keyed by a human-readable name.
#: POSIT_32_2 (the posit-standard 32-bit format) is deliberately excluded:
#: the paper's experiments and hardware tables use posit(32,3), not (32,2);
#: the constant exists for interop with other posit work.  The format
#: registry (:mod:`repro.formats`) exposes *every* module-level constant,
#: including ``"posit(32,2)"``, so nothing is lost by the curation here.
PAPER_FORMATS: dict[str, PositConfig] = {
    "posit(5,1)": POSIT_5_1,
    "posit(8,0)": POSIT_8_0,
    "posit(8,1)": POSIT_8_1,
    "posit(8,2)": POSIT_8_2,
    "posit(16,1)": POSIT_16_1,
    "posit(16,2)": POSIT_16_2,
    "posit(32,3)": POSIT_32_3,
}

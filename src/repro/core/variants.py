"""The four FuSeConv network variants evaluated in Table I.

* ``FULL``     — every depthwise layer replaced, D=1 (row *and* column
  filters on all C channels; depthwise stage outputs 2C channels).
* ``HALF``     — every depthwise layer replaced, D=2 (row filters on one
  half of the channels, column filters on the other; output stays C).
* ``FULL_50`` / ``HALF_50`` — only the 50 % of depthwise layers with the
  largest latency savings are replaced (§V-A.1).
"""

from __future__ import annotations

from enum import Enum


class FuSeVariant(Enum):
    """Variant of the FuSeConv drop-in replacement (§IV-A, §V-A.1)."""

    FULL = "full"
    HALF = "half"
    FULL_50 = "full_50"
    HALF_50 = "half_50"

    @property
    def d(self) -> int:
        """The paper's design knob D: 1 for Full, 2 for Half variants."""
        return 1 if self in (FuSeVariant.FULL, FuSeVariant.FULL_50) else 2

    @property
    def replace_fraction(self) -> float:
        """Fraction of depthwise layers replaced (1.0 or 0.5)."""
        return 0.5 if self in (FuSeVariant.FULL_50, FuSeVariant.HALF_50) else 1.0

    @property
    def ranks_by_latency(self) -> bool:
        """True for the 50 % variants: they replace the depthwise layers
        with the largest cycle savings on the target array, so the
        transformed graph depends on that array.  Full and Half replace
        every depthwise layer, whatever the array."""
        return self.replace_fraction < 1.0

    @property
    def label(self) -> str:
        """Display label matching Table I rows (e.g. ``"FuSe-Half-50%"``)."""
        base = "FuSe-Full" if self.d == 1 else "FuSe-Half"
        return base + ("-50%" if self.replace_fraction < 1.0 else "")

    @classmethod
    def from_label(cls, label: str) -> "FuSeVariant":
        for variant in cls:
            if variant.label == label or variant.value == label:
                return variant
        raise ValueError(f"unknown FuSe variant {label!r}")


#: All four variants in the order Table I reports them.
ALL_VARIANTS = (
    FuSeVariant.FULL,
    FuSeVariant.HALF,
    FuSeVariant.FULL_50,
    FuSeVariant.HALF_50,
)

"""Fixed-point position representation used by the FASDA datapath.

The paper normalizes the cell edge to the cutoff radius ``R_c = 1`` so a
particle's position inside its home cell is a pure fraction in ``[0, 1)``,
and its *relative cell ID* (RCID) along each axis is an integer in
``{1, 2, 3}`` (paper 4.2): the home cell of the evaluating PE is RCID 2,
the negative neighbor 1, the positive neighbor 3.  Concatenating RCID with
the in-cell fraction yields a Q2.f unsigned fixed-point coordinate in
``[1, 4)`` whose differences give inter-particle displacements directly
("easy distance calculation by direct subtraction").

This module models that format as integers scaled by ``2**-frac_bits`` so
quantization is exact and reproducible, while bulk math stays vectorized
NumPy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.errors import ValidationError


@dataclass(frozen=True)
class FixedPointFormat:
    """An unsigned Q(int_bits).(frac_bits) fixed-point format.

    Parameters
    ----------
    frac_bits:
        Number of fraction bits.  The paper does not publish the exact
        width; FPGA MD designs in this line of work use 24-27 bit
        positions, so the default of 23 fraction bits (+2 integer bits
        for the RCID) models a 25-bit coordinate.
    int_bits:
        Number of integer bits.  2 suffices for RCID values 1..3.
    """

    frac_bits: int = 23
    int_bits: int = 2

    def __post_init__(self) -> None:
        if self.frac_bits < 1 or self.frac_bits > 52:
            raise ValidationError(
                f"frac_bits must be in [1, 52], got {self.frac_bits}"
            )
        if self.int_bits < 1 or self.int_bits > 10:
            raise ValidationError(f"int_bits must be in [1, 10], got {self.int_bits}")

    @property
    def total_bits(self) -> int:
        """Total width of one coordinate in bits."""
        return self.frac_bits + self.int_bits

    @property
    def scale(self) -> float:
        """Value of one least-significant bit (2**-frac_bits)."""
        return 2.0 ** -self.frac_bits

    @property
    def max_value(self) -> float:
        """Largest representable value: 2**int_bits - 1 LSB."""
        return 2.0 ** self.int_bits - self.scale

    def to_raw(self, values: np.ndarray) -> np.ndarray:
        """Quantize float values in ``[0, 2**int_bits)`` to raw integers.

        Rounds to nearest (ties to even, matching NumPy) and raises
        :class:`ValidationError` on out-of-range input rather than
        silently wrapping, because a wrap in the real hardware would be a
        design bug, not a runtime condition.
        """
        values = np.asarray(values, dtype=np.float64)
        raw = np.rint(values * 2.0 ** self.frac_bits).astype(np.int64)
        limit = np.int64(1) << (self.frac_bits + self.int_bits)
        if np.any(raw < 0) or np.any(raw >= limit):
            raise ValidationError(
                "fixed-point overflow: input outside "
                f"[0, {2.0 ** self.int_bits}) for {self!r}"
            )
        return raw

    def from_raw(self, raw: np.ndarray) -> np.ndarray:
        """Convert raw integers back to float64 values."""
        return np.asarray(raw, dtype=np.float64) * self.scale

    def quantize(self, values: np.ndarray) -> np.ndarray:
        """Round float values to the nearest representable fixed-point value."""
        return self.from_raw(self.to_raw(values))

    def quantize_fraction(self, fractions: np.ndarray) -> np.ndarray:
        """Quantize in-cell fractional offsets in ``[0, 1)``.

        A fraction that rounds up to exactly 1.0 is clamped to the largest
        representable fraction below 1.0, mirroring hardware that keeps
        the in-cell offset strictly inside the cell.
        """
        fractions = np.asarray(fractions, dtype=np.float64)
        if np.any(fractions < 0.0) or np.any(fractions >= 1.0):
            raise ValidationError("cell fractions must lie in [0, 1)")
        return self.quantize_unit(fractions.copy())

    def quantize_unit(self, scratch: np.ndarray) -> np.ndarray:
        """:meth:`quantize_fraction` of float64 values already in
        ``[0, 1]`` (or NaN, which is refused), overwriting ``scratch``.

        Equal to :meth:`quantize` followed by the clamp below 1.0: the
        raw integers are exact in float64 and ``scale`` is a power of
        two, so clamping them to ``2**frac_bits - 1`` first changes no
        bit, and the integer round trip turns ``-0.0`` into ``+0.0``.
        """
        scratch *= 2.0 ** self.frac_bits
        raw = np.rint(scratch, out=scratch).astype(np.int64)
        if raw.min(initial=0) < 0:  # a NaN's cast
            raise ValidationError(
                "fixed-point overflow: input outside "
                f"[0, {2.0 ** self.int_bits}) for {self!r}"
            )
        np.minimum(raw, (1 << self.frac_bits) - 1, out=raw)
        return np.multiply(raw, self.scale, out=scratch)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"FixedPointFormat(Q{self.int_bits}.{self.frac_bits})"

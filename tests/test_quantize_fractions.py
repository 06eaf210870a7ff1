"""Exact values and refusals of the in-cell fraction quantizers.

``quantize_cell_fractions`` clamps each particle's in-cell fraction into
``[0, 1)`` before it quantizes (a particle exactly on a face, or any
excursion of the division), so only a NaN is refused; a direct
``FixedPointFormat.quantize_fraction`` call refuses everything outside
``[0, 1)``.  Every value is compared bit for bit (a zero is ``+0.0``).
"""

import numpy as np
import pytest

from repro.arith.fixedpoint import FixedPointFormat
from repro.core.datapath import quantize_cell_fractions
from repro.util.errors import ValidationError

FMT = FixedPointFormat(frac_bits=23)
TOP = 1.0 - FMT.scale
EDGE = 2.5


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def _cell(fractions, coords=(1, 2, 0)):
    """Positions whose fractions in cell ``coords`` are ``fractions``
    (one row per particle), and those coords."""
    frac = np.asarray(fractions, dtype=np.float64).reshape(-1, 3)
    coords = np.broadcast_to(np.asarray(coords, dtype=np.int64), frac.shape)
    return (frac + coords) * EDGE, np.ascontiguousarray(coords)


class TestCellFractions:
    def test_values_round_to_nearest_lsb(self):
        frac = np.array([
            [0.0, 0.25, 0.5],
            [0.1, 0.3, 0.7],
            [1.0 - 2.0 ** -30, 2.0 ** -24, 3 * 2.0 ** -24],
        ])
        got = quantize_cell_fractions(*_cell(frac), EDGE, FMT)
        pos, coords = _cell(frac)
        exact = pos / EDGE - coords
        want = np.minimum(np.rint(exact * 2.0 ** 23), 2.0 ** 23 - 1) * FMT.scale
        assert got.dtype == np.float64 and got.shape == (3, 3)
        assert np.array_equal(_bits(got), _bits(want))
        # Rounding up to 1.0 stays one LSB inside the cell.
        assert got[2, 0] == TOP

    def test_particle_on_a_face(self):
        coords = np.array([[1, 2, 0], [1, 2, 0]])
        pos = np.array([
            [2 * EDGE, 3 * EDGE, 1 * EDGE],  # the upper faces: fraction 1
            [1 * EDGE, 2 * EDGE, 0.0],       # the lower faces: fraction 0
        ])
        got = quantize_cell_fractions(pos, coords, EDGE, FMT)
        assert np.array_equal(_bits(got[0]), _bits([TOP] * 3))
        assert np.array_equal(_bits(got[1]), _bits([0.0] * 3))

    def test_excursions_clamp(self):
        pos = np.array([[-1e-12, -0.0, -3.0], [EDGE * 1.5, EDGE, 1e300]])
        coords = np.zeros((2, 3), dtype=np.int64)
        got = quantize_cell_fractions(pos, coords, EDGE, FMT)
        assert np.array_equal(_bits(got[0]), _bits([0.0, 0.0, 0.0]))
        assert np.array_equal(_bits(got[1]), _bits([TOP, TOP, TOP]))

    def test_infinities_clamp(self):
        pos = np.array([[np.inf, -np.inf, 0.5 * EDGE]])
        got = quantize_cell_fractions(pos, np.zeros((1, 3)), EDGE, FMT)
        assert np.array_equal(_bits(got), _bits([[TOP, 0.0, 0.5]]))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("where", [(0, 0), (1, 2)])
    def test_nan_refused(self, where):
        pos, coords = _cell(np.full((2, 3), 0.5))
        pos[where] = np.nan
        with pytest.raises(ValidationError):
            quantize_cell_fractions(pos, coords, EDGE, FMT)

    def test_inputs_untouched(self):
        pos, coords = _cell(np.array([[0.2, -0.1, 1.3]]))
        before = pos.copy()
        quantize_cell_fractions(pos, coords, EDGE, FMT)
        assert np.array_equal(_bits(pos), _bits(before))


class TestQuantizeFraction:
    def test_values(self):
        frac = np.array([0.0, -0.0, 0.1, 0.5, 1.0 - 2.0 ** -30, TOP])
        got = FMT.quantize_fraction(frac)
        want = [0.0, 0.0, np.rint(0.1 * 2.0 ** 23) * FMT.scale, 0.5, TOP, TOP]
        assert got.dtype == np.float64
        assert np.array_equal(_bits(got), _bits(want))
        assert np.signbit(frac[1])  # the caller's array is not written

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [
        -1e-300, -0.5, 1.0, 1.5, np.inf, -np.inf, np.nan,
    ])
    def test_outside_unit_interval_refused(self, bad):
        with pytest.raises(ValidationError):
            FMT.quantize_fraction(np.array([0.25, bad, 0.5]))

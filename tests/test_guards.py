"""Guards on arguments outside a function's domain, each raising its error."""

import numpy as np
import pytest

from spinorlab import homotopy, io, mdo, plane, rim, rng
from spinorlab.errors import BasisMismatch, DegenerateBasis


def _coefficients() -> plane.CoefficientSet:
    return plane.coefficient_set(rim.validate(0.7 + 0.4j, 0.7 - 0.9j), 0.6, 0.8, 1.0, 0.5, 0.7)


def _sample_a_base_without_block1():
    path = homotopy.basis_homotopy(homotopy.CoordFunction(1.0 + 0j), homotopy.CoordFunction(2.0 + 0j))
    homotopy.sample_basis(path, np.array([0, 0, 1, 0.5], dtype=complex), 0.5)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: plane.map_dirac_mdo(np.ones(4), _coefficients(), "sideways"), ValueError, "unknown direction 'sideways'"),
        (lambda: plane.convert_coords(plane.PlaneCoords(1.0, 1.0), "X", _coefficients()), BasisMismatch, "unknown basis 'X'"),
        (lambda: rng.stream(0, "general"), KeyError, "unknown stream label 'general'"),
        (lambda: mdo.elko(mdo.Momentum(1.0, 0.7, 1.1, 0.6), +1, "T"), ValueError, "conj must be 'S' or 'A'"),
        (lambda: io.dumps_report({"x": object()}), TypeError, "object is not JSON serializable"),
        (_sample_a_base_without_block1, DegenerateBasis, "base block vanishes; coordinate unrecoverable"),
    ],
    ids=["map_direction", "convert_basis", "stream_label", "elko_conj", "report_object", "sample_basis_block1"],
)
def test_an_argument_outside_the_domain_raises(call, error, message):
    with pytest.raises(error, match=message):
        call()

"""The package's public names resolve, so a deletion cannot leave a stale export,
its public callables take the classification tolerance one way, and its
records hold no field that restates another value."""

import dataclasses
import inspect

import numpy as np
import pytest

import spinorlab
from spinorlab import bilinear, homotopy, io, lounesto, mdo, plane, rim
from spinorlab.spinor import DEFAULT_TOL


def test_every_exported_name_resolves():
    missing = [name for name in spinorlab.__all__ if not hasattr(spinorlab, name)]
    assert missing == []
    assert len(set(spinorlab.__all__)) == len(spinorlab.__all__)


def test_star_import_binds_exactly_the_exports():
    namespace = {}
    exec("from spinorlab import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(spinorlab.__all__)


@pytest.mark.parametrize("module", [lounesto, rim, plane, homotopy, mdo], ids=lambda m: m.__name__)
def test_the_tolerance_is_a_plain_float_tol(module):
    """One convention: no public callable takes an options record ``opt``,
    and each ``tol`` parameter defaults to ``DEFAULT_TOL``."""
    for name, value in vars(module).items():
        if name.startswith("_") or not callable(value):
            continue
        try:
            params = inspect.signature(value).parameters
        except (TypeError, ValueError):  # a callable without a signature
            continue
        assert "opt" not in params, name
        if "tol" in params:
            assert params["tol"].default == DEFAULT_TOL, name


@pytest.mark.parametrize(
    "record, names",
    [
        (plane.CoefficientSet, ("alpha", "beta", "delta", "epsilon", "omega", "zeta", "J")),
        (mdo.ElkoSpinor, ("spinor", "sign")),
        (rim.BaseValidation, ("ok", "failed")),
    ],
    ids=["CoefficientSet", "ElkoSpinor", "BaseValidation"],
)
def test_records_hold_only_what_a_caller_reads(record, names):
    assert tuple(f.name for f in dataclasses.fields(record)) == names


def test_reports_have_no_custom_encoder():
    """A report holds plain Python values, so ``dumps_report`` names any
    non-finite float before json sees it."""
    assert not hasattr(io, "_json_default")


def test_homotopy_keeps_no_emulated_complex_arithmetic():
    """Paths take numpy's own complex products and quotients, as every other module does."""
    assert not {"_complex", "_times", "_over"} & set(vars(homotopy))


def test_the_coefficient_route_has_one_scalar_reference_row(monkeypatch):
    """``classify_by_coefficients`` and ``near_degenerate`` are views of
    ``_coefficient_row``: what it gives, they give, and no rescale helper
    stands beside it."""
    assert not hasattr(lounesto, "_unit_scale")
    zero = lounesto.COEFFICIENT_ERRORS[1]
    entries = iter([(lounesto.LounestoClass.TYPE3, True), (lounesto.LounestoClass.TYPE3, True), (zero, False)])
    calls = []

    def row(*args):
        calls.append(args)
        return next(entries)

    monkeypatch.setattr(lounesto, "_coefficient_row", row)
    assert lounesto.classify_by_coefficients(1.0, 2.0, 0.6, 0.8) is lounesto.LounestoClass.TYPE3
    assert lounesto.near_degenerate(1.0, 2.0, 0.6, 0.8) is True
    with pytest.raises(zero[0], match=zero[1]):
        lounesto.classify_by_coefficients(1.0, 2.0, 0.6, 0.8, tol=1e-6)
    assert calls == [(1.0, 2.0, 0.6, 0.8, DEFAULT_TOL)] * 2 + [(1.0, 2.0, 0.6, 0.8, 1e-6)]


@pytest.mark.filterwarnings("ignore:overflow encountered in dot:RuntimeWarning")
def test_decompose_hands_exactly_its_rows_out_of_range_to_the_batch(monkeypatch):
    """``_rows_in_range`` is ``plane``'s one rescaling: ``decompose`` calls
    ``decompose_batch`` on a row whose psi or base norm is out of range, and
    on no other row."""
    assert not {"_in_range", "_unit_powers", "_divided"} & set(vars(plane))
    batch, calls = plane.decompose_batch, []

    def spy(psis, base):
        calls.append((psis.shape, np.shape(base)))
        return batch(psis, base)

    monkeypatch.setattr(plane, "decompose_batch", spy)
    base = np.array([0.6 - 0.2j, 0.3 + 0.9j, 0.1, -0.7j])
    psi = plane.block_scale(base, 2.0 - 0.5j, 0.3 + 1.1j)
    for scale in (1.0, 1e-300, 2.0**500):
        plane.decompose(psi * scale, base)
    with pytest.raises(plane.NotInPlane):
        plane.decompose(np.array([1.0, 0.5j, 0.0, 1.0]), base)
    with pytest.raises(plane.DegenerateBasis):
        plane.decompose(psi, np.array([0.0, 0.0, 0.1, -0.7j]))
    assert calls == []
    plane.decompose(psi * 2.0**512, base)  # its squared norm overflows
    plane.decompose(psi, base * 2.0**-451)  # a base norm of 0.67 * 2^-450
    assert calls == [((1, 4), (4,))] * 2


def test_a_covariant_record_is_built_only_from_its_rows():
    """``Bilinears(rows, dual)`` is the one constructor; no method rebuilds
    the one-row dict from the fields."""
    assert not hasattr(bilinear.Bilinears, "as_batch")
    assert [f.name for f in dataclasses.fields(bilinear.Bilinears) if f.init] == ["rows", "dual"]

"""The package's public names resolve, so a deletion cannot leave a stale export,
its public callables take the classification tolerance one way, and its
records hold no field that restates another value."""

import dataclasses
import inspect

import pytest

import spinorlab
from spinorlab import homotopy, io, lounesto, mdo, plane, rim
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

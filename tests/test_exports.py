"""The package's public names resolve, so a deletion cannot leave a stale export,
and its public callables take the classification tolerance one way."""

import inspect

import pytest

import spinorlab
from spinorlab import homotopy, lounesto, mdo, plane, rim
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

"""The package's public names resolve, so a deletion cannot leave a stale export."""

import spinorlab


def test_every_exported_name_resolves():
    missing = [name for name in spinorlab.__all__ if not hasattr(spinorlab, name)]
    assert missing == []
    assert len(set(spinorlab.__all__)) == len(spinorlab.__all__)


def test_star_import_binds_exactly_the_exports():
    namespace = {}
    exec("from spinorlab import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(spinorlab.__all__)

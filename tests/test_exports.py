import importlib

import pytest

# The benchmark tracer wraps the seven layer modules and resolves every
# __all__ name with getattr, so a stale export left by a deletion would
# crash a traced run.  `cli` declares no __all__; the tracer then takes
# the names bound in the module, which always resolve.
MODULES_WITH_EXPORTS = ("rational", "polynomial", "distribution", "median", "critical", "verify")


@pytest.mark.parametrize("name", MODULES_WITH_EXPORTS)
def test_every_export_resolves(name):
    module = importlib.import_module(f"binomedian.{name}")
    exports = module.__all__
    assert exports and len(set(exports)) == len(exports)
    assert [attr for attr in exports if not hasattr(module, attr)] == []

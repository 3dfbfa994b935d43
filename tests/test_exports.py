import importlib

import pytest

import binomedian
from binomedian import cli

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


# the names `binomedian` re-exports, by owning module
PACKAGE_EXPORTS = {
    "critical": (
        "DEFAULT_WIDTH", "Bracket", "ExactRational", "ExactRoot", "FalsificationError",
        "IrrationalBySymmetry", "IrrationalityCertificate", "IrrationalUpperHalf",
        "RootEnclosure", "certify", "certify_range", "critical_poly", "isolate_root",
    ),
    "distribution": ("BinomialParams", "ParameterError", "cdf", "pmf", "pmf_sequence", "survival"),
    "median": ("MedianInterval", "MedianResult", "UniqueMedian", "median_binomial"),
    "polynomial": ("IntPolynomial",),
    "rational": (
        "RationalParseError", "ZeroDenominatorError", "as_exact", "decimal_string",
        "format_rational", "parse_rational", "shared_prefix_decimal",
    ),
    "verify": ("CheckResult", "VerificationReport", "verify_theorem"),
}
# the one name the package defines itself
PACKAGE_OWN = ("WorkerError",)
# the name `cli` reads from `critical` only when asked for
CLI_LAZY = {"critical": ("isolate_root",)}


def owned(exports):
    return [(owner, name) for owner, names in exports.items() for name in names]


def test_package_all_is_the_reexported_names():
    names = [*PACKAGE_OWN, *(name for _, name in owned(PACKAGE_EXPORTS))]
    assert len(names) == 35
    assert sorted(binomedian.__all__) == sorted(names)
    star = {}
    exec("from binomedian import *", star)
    assert set(star) - {"__builtins__"} == set(names)


def test_dir_lists_exports_and_submodules():
    listed = dir(binomedian)
    assert set(binomedian.__all__) <= set(listed)
    for owner in PACKAGE_EXPORTS:
        assert owner in listed
        assert getattr(binomedian, owner) is importlib.import_module(f"binomedian.{owner}")
    assert set(name for _, name in owned(CLI_LAZY)) <= set(dir(cli))


@pytest.mark.parametrize("module", [binomedian, cli], ids=["package", "cli"])
def test_unknown_name_raises_attribute_error(module):
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name


@pytest.mark.parametrize(
    "module,owner,name",
    [(binomedian, *pair) for pair in owned(PACKAGE_EXPORTS)]
    + [(cli, *pair) for pair in owned(CLI_LAZY)],
    ids=[f"package-{name}" for _, name in owned(PACKAGE_EXPORTS)]
    + [f"cli-{name}" for _, name in owned(CLI_LAZY)],
)
def test_name_follows_its_owner(monkeypatch, module, owner, name):
    # a name cached in the namespace would keep a tracer's wrapper after
    # uninstall(), and hide a test's monkeypatch
    owning = importlib.import_module(f"binomedian.{owner}")
    original = getattr(owning, name)
    assert getattr(module, name) is original
    stand_in = object()
    monkeypatch.setattr(owning, name, stand_in)
    assert getattr(module, name) is stand_in
    monkeypatch.undo()
    assert getattr(module, name) is original
    assert name not in vars(module)


def test_every_reexport_is_in_its_owners_all():
    # the package's lists and its owners' lists cannot drift apart
    for owner, names in binomedian._EXPORTS.items():
        module = importlib.import_module(f"binomedian.{owner}")
        assert set(names) <= set(module.__all__), owner


def test_worker_error_is_the_packages_own():
    # `verify` raises it and `cli` catches it, under one name
    from binomedian import verify

    assert binomedian.WorkerError.__module__ == "binomedian"
    assert "WorkerError" in vars(binomedian)
    assert verify.WorkerError is binomedian.WorkerError is cli.WorkerError
    assert "WorkerError" in verify.__all__

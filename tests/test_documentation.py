"""Documentation quality gates: every public item must be documented."""

import importlib
import inspect
import pkgutil

import pytest

import repro


def _walk_modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield importlib.import_module(info.name)


ALL_MODULES = list(_walk_modules())


@pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.__name__)
def test_module_has_docstring(module):
    assert module.__doc__ and len(module.__doc__.strip()) > 20, module.__name__


@pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.__name__)
def test_public_functions_and_classes_documented(module):
    undocumented = []
    for name in getattr(module, "__all__", []):
        item = getattr(module, name)
        if inspect.isfunction(item) or inspect.isclass(item):
            if not (item.__doc__ and item.__doc__.strip()):
                undocumented.append(name)
            if inspect.isclass(item):
                for member_name, member in inspect.getmembers(item):
                    if member_name.startswith("_"):
                        continue
                    if inspect.isfunction(member) and member.__qualname__.startswith(
                        item.__name__
                    ):
                        if not (member.__doc__ and member.__doc__.strip()):
                            undocumented.append(f"{name}.{member_name}")
    assert not undocumented, f"{module.__name__}: {undocumented}"


def test_every_package_exports_something():
    packages = [m for m in ALL_MODULES if hasattr(m, "__path__")]
    for package in packages:
        assert getattr(package, "__all__", None) or package.__doc__


def test_api_methods_have_distinct_docstrings():
    from repro.engine import solver_specs

    for kind in ("uds", "dds"):
        docs = [spec.func.__doc__ for spec in solver_specs(kind)]
        assert all(doc and doc.strip() for doc in docs)
        assert len(set(docs)) == len(docs)  # no copy-pasted descriptions

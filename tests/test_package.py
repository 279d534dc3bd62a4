"""The lazy package surface: every exported name resolves on first access."""

import importlib

import pytest

import fluxks


def test_every_exported_name_is_its_defining_modules_object():
    for name in fluxks.__all__:
        if name == "__version__":
            continue
        module = importlib.import_module(f"fluxks.{fluxks._EXPORTS[name]}")
        assert getattr(fluxks, name) is getattr(module, name), name
    assert set(fluxks.__all__) <= set(dir(fluxks))
    assert fluxks.__version__ == importlib.import_module("fluxks._version").__version__


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from fluxks import *", namespace)
    assert set(fluxks.__all__) <= set(namespace)


def test_submodules_resolve_as_attributes():
    assert fluxks.sweep is importlib.import_module("fluxks.sweep")
    assert fluxks.runtime is importlib.import_module("fluxks.runtime")


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        fluxks.no_such_name  # noqa: B018

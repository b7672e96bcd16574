"""The package's public names."""

import sys

import pytest

import ncg_torus


def test_every_exported_name_resolves_once():
    names = ncg_torus.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(ncg_torus, name)]
    assert missing == []


def test_every_exported_name_is_its_defining_modules_object():
    # the numeric names load on first use; each must be the object its own
    # module defines, not a copy or the module itself
    for name in ncg_torus.__all__:
        value = getattr(ncg_torus, name)
        if name == "errors":
            assert value is sys.modules["ncg_torus.errors"]
        elif name != "__version__":
            assert getattr(sys.modules[value.__module__], name) is value, name


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from ncg_torus import *", namespace)
    assert all(namespace[name] is getattr(ncg_torus, name) for name in ncg_torus.__all__)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="nonexistent"):
        ncg_torus.nonexistent


def test_numeric_modules_resolve_as_attributes(monkeypatch):
    # ncg_torus.fredholm and ncg_torus.torus_rep are read like any other name
    import ncg_torus.fredholm  # noqa: F401  (loads torus_rep too)

    for home in ("fredholm", "torus_rep"):
        monkeypatch.delattr(ncg_torus, home)
        assert getattr(ncg_torus, home) is sys.modules[f"ncg_torus.{home}"]

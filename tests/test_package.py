"""The package's public names."""

import ncg_torus


def test_every_exported_name_resolves_once():
    names = ncg_torus.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(ncg_torus, name)]
    assert missing == []

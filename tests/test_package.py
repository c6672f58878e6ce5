"""The package's public surface."""

import deepo


def test_every_exported_name_resolves():
    missing = [name for name in deepo.__all__ if not hasattr(deepo, name)]
    assert not missing
    assert len(set(deepo.__all__)) == len(deepo.__all__)

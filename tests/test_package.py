"""The package root's public names."""

import denumerant


def test_every_exported_name_resolves():
    missing = [name for name in denumerant.__all__ if not hasattr(denumerant, name)]
    assert missing == []
    assert len(set(denumerant.__all__)) == len(denumerant.__all__)

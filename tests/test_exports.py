"""The package's public names: every export resolves, and a star import works."""

import phasic


def test_every_export_resolves():
    assert len(set(phasic.__all__)) == len(phasic.__all__)
    missing = [name for name in phasic.__all__ if not hasattr(phasic, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from phasic import *", namespace)
    assert set(phasic.__all__) <= set(namespace)

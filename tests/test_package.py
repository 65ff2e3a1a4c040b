import cdl


def test_every_public_name_resolves():
    # `from cdl import *` fails on a name in __all__ that the package lacks
    assert [name for name in cdl.__all__ if not hasattr(cdl, name)] == []

import rooflm


def test_every_export_resolves():
    """A name dropped from the package but left in ``__all__`` breaks ``from rooflm import *``."""
    assert [name for name in rooflm.__all__ if not hasattr(rooflm, name)] == []

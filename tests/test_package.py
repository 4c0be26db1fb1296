import importlib

import capax

MODULES = ("capacity", "coeffs", "cpop", "errors", "expsum", "holderlab", "linalg")


def test_package_reexports_each_module_all():
    """capax.__all__ is the union of its modules' __all__ lists plus
    __version__: 84 unique names, each the very object its module exports,
    and no name declared by two modules."""
    names = capax.__all__
    assert len(names) == 84
    assert len(set(names)) == 84
    owners = {}
    for name in MODULES:
        module = importlib.import_module(f"capax.{name}")
        for public in module.__all__:
            assert public not in owners, f"{public} exported by {owners[public]} and {name}"
            owners[public] = name
            assert getattr(capax, public) is getattr(module, public)
    assert set(names) == set(owners) | {"__version__"}
    assert isinstance(capax.__version__, str)

import pkgutil

import evitrust
from evitrust import amazon, core, errors, numerics, propagation, simulation, updates

# The library modules, in layer order; the CLI exports nothing.
_LAYERS = (errors, numerics, core, propagation, updates, simulation, amazon)


def test_package_exports_every_module_name_once():
    names = [name for module in _LAYERS for name in module.__all__]
    assert evitrust.__all__ == names
    assert len(set(names)) == len(names)
    for module in _LAYERS:
        for name in module.__all__:
            assert getattr(evitrust, name) is getattr(module, name)


def test_every_module_but_the_cli_is_a_layer():
    modules = {info.name for info in pkgutil.iter_modules(evitrust.__path__)}
    assert modules - {"cli"} == {module.__name__.rpartition(".")[2] for module in _LAYERS}

import pkgutil
import re
from pathlib import Path

import evitrust
from evitrust import amazon, core, errors, propagation, simulation, updates

# The library modules, in layer order; the CLI exports nothing.
_LAYERS = (errors, core, propagation, updates, simulation, amazon)


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


def _readme_block(heading):
    """The first fenced block under a README heading, without its fences."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    return readme.split(heading, 1)[1].split("```")[1]


def test_readme_layout_lists_every_module():
    listed = re.findall(r"^  (\w+)\.py ", _readme_block("## Layout"), re.MULTILINE)
    modules = [info.name for info in pkgutil.iter_modules(evitrust.__path__)]
    assert sorted(listed) == sorted(modules)


def test_readme_quick_tour_runs():
    language, _, tour = _readme_block("## Library quick tour").partition("\n")
    assert language == "python"
    exec(compile(tour, "README.md quick tour", "exec"), {})

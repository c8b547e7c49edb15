"""Every name a pcvstream module imports at module level is used there,
and each module imports only the pcvstream modules its layer allows.

The one exception to the first rule is a name that `perfbench/tracer.py`
patches in that module (PATCH_POINTS): it is imported only so the traced
run can swap it, and every such name must stay where the tracer looks it
up.
"""

import ast
import importlib
from pathlib import Path

import pytest

from conftest import load_perfbench
import pcvstream

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "pcvstream").glob("*.py"))


def imported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


# the pcvstream modules each module imports, anywhere in its body: the
# geometry and the network engine stand alone, the codec builds on both,
# the scheduler on the network engine only, and the simulator on all
LAYERS = {
    "__init__": set(),
    "_util": set(),
    "cloud": set(),
    "nn": set(),
    "roi": {"_util", "cloud"},
    "codec": {"_util", "cloud", "nn"},
    "scheduler": {"nn"},
    "sim": {"cloud", "codec", "roi", "scheduler"},
}


def package_imports(tree):
    """Names of the pcvstream modules a module's code imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                target = node.module
            elif (node.module or "").startswith("pcvstream."):
                target = node.module.split(".")[1]
            else:
                continue
            if target is None:  # from . import x
                yield from (alias.name for alias in node.names)
            else:
                yield target.split(".")[0]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("pcvstream."):
                    yield alias.name.split(".")[1]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_imports_only_its_layers(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert set(package_imports(tree)) == LAYERS[path.stem]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_level_imports_are_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    patched = {attr.split(".")[0]
               for module, attr, _ in load_perfbench("tracer").PATCH_POINTS
               if module == path.stem}
    unused = [name for name in imported_names(tree)
              if name not in used and name not in patched]
    assert not unused, f"{path.name} imports unused names: {unused}"


def test_every_patch_point_resolves_through_vars():
    """`tracer.traced` resolves each point and swaps `vars(owner)[attr]`;
    a point that lookup cannot find fails the traced benchmark run."""
    tracer = load_perfbench("tracer")

    def resolves(module, path):
        importlib.import_module(f"pcvstream.{module}")
        try:
            owner, attr = tracer.resolve(pcvstream, module, path)
            return callable(vars(owner)[attr])
        except (AttributeError, KeyError):
            return False

    missing = [f"{module}.{path}" for module, path, _ in tracer.PATCH_POINTS
               if not resolves(module, path)]
    assert not missing, f"patch points missing from pcvstream: {missing}"

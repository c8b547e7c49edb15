"""Every name a pcvstream module imports at module level is used there.

The one exception is a name that `perfbench/tracer.py` patches in that
module (PATCH_POINTS): it is imported only so the traced run can swap it,
and every such name must stay where the tracer looks it up.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import pcvstream

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "pcvstream").glob("*.py"))


def load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def imported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_level_imports_are_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    patched = {attr.split(".")[0]
               for module, attr, _ in load_tracer().PATCH_POINTS
               if module == path.stem}
    unused = [name for name in imported_names(tree)
              if name not in used and name not in patched]
    assert not unused, f"{path.name} imports unused names: {unused}"


def test_every_patch_point_resolves_through_vars():
    """`tracer.traced` resolves each point and swaps `vars(owner)[attr]`;
    a point that lookup cannot find fails the traced benchmark run."""
    tracer = load_tracer()

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

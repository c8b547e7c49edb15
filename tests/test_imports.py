"""Every name a pcvstream module imports at module level is used there,
each module imports only the pcvstream modules its layer allows, and only
the third-party modules pinned for it.

The one exception to the first rule is a name that `perfbench/tracer.py`
patches in that module (PATCH_POINTS): it is imported only so the traced
run can swap it, and every such name must stay where the tracer looks it
up.
"""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import load_perfbench
import pcvstream
from pcvstream import codec

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
    "cloud": {"_util"},
    "nn": set(),
    "roi": {"_util", "cloud"},
    "codec": {"_util", "cloud", "nn"},
    "scheduler": {"_util", "nn"},
    "sim": {"_util", "cloud", "codec", "roi", "scheduler"},
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


# the third-party modules each module imports at module level. Only
# training computes the EMD loss, so `nn.emd_loss` imports the assignment
# solver (scipy.optimize) itself, and a stream process never loads it.
THIRD_PARTY = {
    "__init__": set(),
    "_util": {"numpy"},  # array `ceil_count` and `run_starts`
    "cloud": {"numpy", "scipy.spatial"},
    "nn": {"numpy"},
    "roi": {"numpy", "scipy.spatial"},
    "codec": {"numpy"},
    "scheduler": {"numpy"},
    "sim": {"numpy"},
}


def module_level(node):
    """The nodes that run when the module is imported: all but the bodies
    of functions and lambdas."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
            yield child
            yield from module_level(child)


def third_party_imports(tree):
    for node in module_level(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        yield from (name for name in names
                    if name.split(".")[0] not in sys.stdlib_module_names)


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_imports_only_its_third_party_modules(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert set(third_party_imports(tree)) == THIRD_PARTY[path.stem]


def one_epoch():
    model = codec.make_codec_model(16, 32, seed=16, enc_hidden=(8,),
                                   dec_hidden=(16,))
    return codec.train(model, codec.toy_block_dataset(8, 32, seed=3),
                       epochs=1)


# streams one room through every policy kind, ROI on and off, then trains
STREAM_THEN_TRAIN = f"""
import json, sys, tempfile
from pathlib import Path
from pcvstream import codec, scheduler, sim

with tempfile.TemporaryDirectory() as tmp:
    registry = sim.ModelRegistry(Path(tmp))
    model = codec.make_codec_model(16, 32, seed=16, enc_hidden=(8,),
                                   dec_hidden=(16,))
    codec.serialize(model, Path(tmp) / "tiny.iscm")
    registry.add(sim.RegistryEntry("tiny", "tiny.iscm", 16, 32, 1e-4, 5e-5,
                                   0.05))
    net = scheduler.ActorCritic.create(actions=("tiny",), seed=0)
    scene = sim.generate_scene(rooms=1, frames=3, subject_points=150,
                               background_points=1200, seed=5)
    trace = sim.NetworkTrace.preset("4g", seed=1)
    device = sim.DeviceModel.preset("device-2")
    for policy in ("fixed:tiny", "octree:5", "drl"):
        for roi in ("on", "off"):
            sim.run_session(scene, policy, trace, device, registry, net,
                            roi=roi)
streamed = "scipy.optimize" in sys.modules

{inspect.getsource(one_epoch)}
curve = one_epoch()
print(json.dumps({{"streamed": streamed,
                  "trained": "scipy.optimize" in sys.modules,
                  "curve": curve.tolist()}}))
"""


def test_streaming_never_loads_the_solver_and_training_does():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    child = subprocess.run([sys.executable, "-c", STREAM_THEN_TRAIN],
                           env=env, capture_output=True, text=True,
                           timeout=120)
    assert child.returncode == 0, child.stderr
    out = json.loads(child.stdout)
    assert not out["streamed"], "a stream process imported scipy.optimize"
    assert out["trained"]
    assert out["curve"] == one_epoch().tolist()


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

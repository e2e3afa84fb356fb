"""The package's lazy exports, and which modules each entry point loads."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sievelab

SRC = Path(__file__).resolve().parents[1] / "src"
LAYERTRACE = SRC.parent / "bench" / "layertrace.py"
SUBMODULES = ("arith", "bounds", "counting", "errors", "harmonic", "moduli",
              "oracles", "sequences", "util", "verify")
# modules that neither a-count, a sweep without sieve sums nor a grid
# bracket uses
OFF_PATH = ("sievelab.verify", "sievelab.oracles", "sievelab.harmonic",
            "fractions", "json", "numpy.ma")


def _loaded(*args: str) -> set[str]:
    """Every module a fresh interpreter imports while running args."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:") and "|" in line}


def test_import_loads_no_submodule():
    mods = _loaded("-c", "import sievelab; assert set(sievelab.__all__) <= set(dir(sievelab))")
    assert "sievelab" in mods
    assert not [m for m in mods if m.startswith("sievelab.")]


@pytest.mark.parametrize("argv", [
    "--cmd a-count --moduli primes --q 50 --u 5 --k 1 --l 0 --t 1",
    "--cmd sweep --grid-n 4096 --grid-q 8 --moduli squares --no-lhs",
    "--cmd bracket --moduli octave --q0 64 --n 1024 --z-grid 8",
], ids=["a-count", "sweep-no-lhs", "bracket"])
def test_commands_load_only_what_they_run(argv):
    mods = _loaded("-m", "sievelab", *argv.split())
    assert {"sievelab.cli", "sievelab.bounds", "sievelab.moduli"} <= mods
    assert not mods & set(OFF_PATH)


def test_sequences_load_none_of_the_layers_above_them():
    # bounds takes the fold from sequences, so sequences may not import back
    mods = _loaded("-c", "import sievelab.sequences")
    assert "sievelab.sequences" in mods
    assert not mods & {"sievelab.bounds", "sievelab.moduli", "sievelab.counting"}


def test_exports_resolve_to_their_home_objects(monkeypatch):
    # each name is listed once, under one home
    assert sum(map(len, sievelab._EXPORTS.values())) == len(sievelab.__all__)
    for name in sievelab.__all__:
        home = importlib.import_module(f"sievelab.{sievelab._HOME[name]}")
        # drop the cached value, so the lookup goes through __getattr__
        monkeypatch.delattr(sievelab, name, raising=False)
        assert getattr(sievelab, name) is getattr(home, name)
        assert name in vars(sievelab)
    for name in SUBMODULES:
        monkeypatch.delattr(sievelab, name, raising=False)
        assert getattr(sievelab, name) is importlib.import_module(f"sievelab.{name}")


def test_star_import_and_dir_cover_all():
    ns = {}
    exec("from sievelab import *", ns)
    assert set(sievelab.__all__) <= set(ns)
    assert set(sievelab.__all__) <= set(dir(sievelab))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="'sievelab' has no attribute 'no_such_name'"):
        sievelab.no_such_name
    assert not hasattr(sievelab, "no_such_name")


def test_a_value_set_on_the_package_is_what_it_returns(monkeypatch):
    # a tracer rebinds package names with setattr, before or after their
    # first lookup, and callers that look them up later see its value
    def traced(*args, **kwargs):
        return None

    monkeypatch.delattr(sievelab, "sieve_lhs", raising=False)
    monkeypatch.setattr(sievelab, "sieve_lhs", traced, raising=False)
    assert sievelab.sieve_lhs is traced
    monkeypatch.setattr(sievelab, "square_class_count", traced)
    assert sievelab.square_class_count is traced


def _traced_layers(tree: ast.Module) -> dict:
    """LAYERS of the tracer's source, read as a literal."""
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["LAYERS"])


def test_every_traced_name_is_a_callable_of_its_layer():
    # the tracer's source is read, so the benchmark's tracer is not imported
    layers = _traced_layers(ast.parse(LAYERTRACE.read_text(encoding="utf-8")))
    assert layers
    for layer, names in layers.items():
        module = importlib.import_module(f"sievelab.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"


def test_traced_counters_read_arguments_their_functions_take():
    # the counters of layer.fn are the Tracer methods _work_layer_fn and
    # _count_layer_fn; they read a call's arguments by position, through
    # _arg(args, kwargs, i, key), or by name from its bound signature
    tree = ast.parse(LAYERTRACE.read_text(encoding="utf-8"))
    homes = {f"_{kind}_{layer}_{name}": (layer, name)
             for layer, names in _traced_layers(tree).items()
             for name in names for kind in ("work", "count")}
    tracer = next(node for node in tree.body
                  if isinstance(node, ast.ClassDef) and node.name == "Tracer")
    counters = [node for node in tracer.body if isinstance(node, ast.FunctionDef)
                and node.name.startswith(("_work_", "_count_"))]
    assert counters
    for counter in counters:
        assert counter.name in homes, f"{counter.name} counts no traced function"
        layer, name = homes[counter.name]
        fn = getattr(importlib.import_module(f"sievelab.{layer}"), name)
        params = inspect.signature(fn).parameters
        positional = [p for p in params.values()
                      if p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD]
        for node in ast.walk(counter):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_arg":
                i = ast.literal_eval(node.args[2])
                assert i < len(positional), f"{counter.name} reads argument {i} of {name}"
            elif (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                  and isinstance(node.slice, ast.Constant)):
                assert node.slice.value in params, f"{counter.name} reads {node.slice.value}"

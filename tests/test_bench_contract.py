"""The benchmark's tracer must still fit the library it wraps.

bench/tracer.py wraps library functions by owner and attribute name, so
a refactor that renames one, drops a re-imported binding or turns a
traced generator into a plain function breaks
``python3 bench/run.py --trace 1`` without failing any other test.
These checks read bench/ and BENCHMARK.json and change nothing.
"""

import inspect
import json
import pathlib
import types

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def tracer():
    # compiled from source, so that no bytecode cache is written in bench/
    path = ROOT / "bench" / "tracer.py"
    module = types.ModuleType("bench_tracer")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def test_layers_resolve(tracer):
    for prefix, owner, attr, _ in tracer.LAYERS:
        assert callable(getattr(owner, attr, None)), prefix


def test_rebound_names_are_their_layer_functions(tracer):
    layer_fn = {attr: getattr(owner, attr) for _, owner, attr, _ in tracer.LAYERS}
    for module, attr in tracer.REBOUND:
        assert getattr(module, attr) is layer_fn[attr], (module.__name__, attr)


def test_layers_with_yield_counts_are_generators(tracer):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_fn = {prefix: getattr(owner, attr)
                for prefix, owner, attr, _ in tracer.LAYERS}
    names = [m["name"][:-len(".yields")] for m in bench["per_layer"]
             if m["name"].endswith(".yields")]
    assert names
    for name in names:
        assert inspect.isgeneratorfunction(layer_fn[name]), name

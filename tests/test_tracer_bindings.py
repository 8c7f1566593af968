"""The benchmark tracer's layer bindings name attributes igamf still has.

``perfbench/tracer.py`` rebinds the functions and methods listed in its
``LAYER_BINDINGS`` for a traced run (``perfbench/run.py --trace 1``).  A
renamed or deleted target breaks that run, so every entry is resolved
here the way the tracer resolves it.
"""

import importlib.util
import sys
from pathlib import Path

import igamf

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave the tree as is
    spec.loader.exec_module(module)
    return module


def test_layer_bindings_resolve(monkeypatch):
    bindings = _load_tracer(monkeypatch).LAYER_BINDINGS
    assert bindings
    missing = []
    for mod_name, attr, _, _ in bindings:
        mod = getattr(igamf, mod_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = vars(mod).get(cls_name)
            # the tracer patches the class's own method, not an inherited one
            ok = isinstance(cls, type) and meth in vars(cls)
        else:
            ok = attr in vars(mod)
        if not ok:
            missing.append(f"{mod_name}.{attr}")
    assert not missing, f"tracer bindings without a target: {missing}"

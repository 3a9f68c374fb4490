"""The traced benchmark wraps the public functions that bench/tracer.py lists by name."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_every_traced_name_is_a_function_of_its_layer():
    # loading the file does not install the tracer; only install() does
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{layer}.{name}" for layer, names in tracer.LAYERS.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"cubedecomp.{layer}"), name, None))]
    assert not missing

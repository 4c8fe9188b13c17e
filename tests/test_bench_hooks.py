"""The benchmark's hooks still bind.

``perfbench/`` wraps sydes functions, methods and attributes by name: the
tracer when it is installed and watches a model, each workload when it is
built.  A change to ``src/`` that drops or renames one of those names would
fail every benchmark run, so this installs the tracer, watches a desk model
and builds every workload of ``BENCHMARK.json``, then undoes it all.  It
reads ``perfbench/`` and changes nothing there.
"""

import importlib.util
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def perfbench_module(name: str):
    """``perfbench/<name>.py``, imported under the name ``run.py`` gives it."""
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            name, os.path.join(ROOT, "perfbench", f"{name}.py"))
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


def test_tracer_and_workloads_bind_to_the_package():
    tracer, workloads = perfbench_module("tracer"), perfbench_module("workloads")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    sy = workloads.load_sydes(ROOT)
    backward, step = sy.tensor.Tensor.backward, sy.training.AdamW.step
    tr = tracer.Tracer()
    try:
        tr.install(sy)
        desk = sy.config.RunConfig()
        model = sy.model.SydesModel(desk.image, desk.encoder, 16,
                                    decoder_layers=desk.decoder_layers,
                                    decoder_heads=desk.decoder_heads)
        tr.watch_model(model)
        assert len(tr.params) == len(model.parameters())
        for name in names:
            workloads.make(name, sy).close()
    finally:
        tr.remove()
    assert sy.tensor.Tensor.backward is backward and sy.training.AdamW.step is step

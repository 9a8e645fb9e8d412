"""The benchmark's tracer must still find every function it wraps by name.

``perfbench/tracer.py`` patches ``midas`` functions and one method from
outside the package. A renamed or removed target otherwise shows up only
when the benchmark runs with tracing on.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import midas

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_over_every_module():
    for info in pkgutil.iter_modules(midas.__path__):
        importlib.import_module(f"midas.{info.name}")
    tracer_module = _load_tracer()
    targets = [(importlib.import_module(m), attr) for m, attr, _, _ in tracer_module.TARGETS]

    def resolve(module, attr):
        owner = module
        for part in attr.split("."):
            owner = getattr(owner, part)
        return owner

    originals = [resolve(m, attr) for m, attr in targets]
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        for (module, attr), original in zip(targets, originals):
            assert resolve(module, attr) is not original, f"{module.__name__}.{attr} not wrapped"
    finally:
        tracer.uninstall()
    assert [resolve(m, attr) for m, attr in targets] == originals

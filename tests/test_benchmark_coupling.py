"""The benchmark must still run on the package as it is.

``perfbench/tracer.py`` patches ``midas`` functions and one method from
outside the package, and ``perfbench/workloads.py`` reads library views
(``dataset.entries``, ``MixedBatch.samples``) and checks every output
against independent reference code. A renamed target, a broken view or an
output mismatch otherwise shows up only when the benchmark runs.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import midas

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER_PATH = PERFBENCH / "tracer.py"


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


@pytest.mark.parametrize("name", ["train-mix", "train-fixed", "cli-walkthrough"])
def test_workload_round_passes_its_checks(name, tmp_path, monkeypatch):
    # One set-up and one round of each workload, then the same output checks
    # as ``perfbench/run.py``, in this process and without timing.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    workload = workloads.WORKLOADS[name](0, tmp_path)
    workload.setup()
    workload.prepare(0)
    stats = workload.round(0)
    assert stats["failed"] == 0
    assert stats["attempted"] >= 1
    workload.check()

"""Every setting takes at least two values across the bundled workloads, so
every bool setting is taken both ways. A setting that no bundled workload
varies is an option that preparation, training and scoring must support
while no workload runs any other value of it: it belongs in a module
constant, as training.BATCH_SIZE or synth.N_RELATIONS.

The bundled workloads are the sweep cells of scenarios.lowdata_experiment
and the node-budget cells of scenarios.noisy_experiment, built as
experiments.sweep_fraction and experiments.ablate_subgraph build them; the
cells of the benchmark's workloads (bench/harness.py `WORKLOADS`); and the
task specs LOWDATA_SPEC and NOISY_SPEC for gen-synth, with the benchmark's.
"""

import dataclasses
import importlib
import os

import pytest

from actknow.config import ExperimentConfig
from actknow.pipeline import training_config_for
from actknow.scenarios import LOWDATA_SPEC, NOISY_SPEC, lowdata_experiment, noisy_experiment
from actknow.synth import SyntheticSpec
from actknow.training import TrainConfig

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")

# the settings that every bundled workload gives one value, and why each
# stays a setting
ONE_VALUED = {
    "node_dim": "the width of the node-features file: gen-synth writes it, and train reads it",
    "text_dim": "the finite-difference suites build their models at width 8",
    "gcn_hidden": "the finite-difference suites build their models at width 8",
}


@pytest.fixture
def harness(monkeypatch):
    monkeypatch.syspath_prepend(BENCH_DIR)
    return importlib.import_module("harness")


def one_valued(settings: type, instances: list) -> list[str]:
    """The fields of the dataclass `settings` that hold one value across
    `instances`."""
    return [f.name for f in dataclasses.fields(settings) if len({getattr(i, f.name) for i in instances}) < 2]


def bundled_cells(workloads: dict) -> list[ExperimentConfig]:
    lowdata = lowdata_experiment("data", "out")
    noisy = noisy_experiment("data", "out")
    benchmark = [training_config_for(cfg, **overrides) for w in workloads.values()
                 for cfg in [w.experiment("data", "out")] for _, overrides in w.cells(cfg)]
    return [*(training_config_for(lowdata, mode=mode, seed=seed, data_fraction=fraction)
              for fraction in lowdata.fractions for mode in lowdata.modes for seed in lowdata.seeds),
            *(training_config_for(noisy, max_nodes=budget) for budget in noisy.node_budgets),
            *benchmark]


def test_the_guard_sees_a_switch_no_instance_flips():
    @dataclasses.dataclass
    class Settings:
        on: bool = True
        count: int = 0

    assert one_valued(Settings, [Settings(), Settings(count=1)]) == ["on"]
    assert one_valued(Settings, [Settings(), Settings(on=False)]) == ["count"]
    assert one_valued(Settings, [Settings(), Settings(on=False, count=1)]) == []


def test_every_setting_takes_two_values_in_the_bundled_workloads(harness):
    specs = [LOWDATA_SPEC, NOISY_SPEC, *(w.spec for w in harness.WORKLOADS.values())]
    for settings, instances in ((TrainConfig, bundled_cells(harness.WORKLOADS)), (SyntheticSpec, specs)):
        kept = [f.name for f in dataclasses.fields(settings) if f.name in ONE_VALUED]
        assert one_valued(settings, instances) == kept, settings.__name__

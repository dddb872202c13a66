"""Every bool setting is taken both ways by the bundled cells. A switch that
no bundled cell flips doubles the configurations preparation, training and
scoring must support while no workload runs the other half.

The bundled cells are the sweep cells of scenarios.lowdata_experiment and
the node-budget cells of scenarios.noisy_experiment, built as
experiments.sweep_fraction and experiments.ablate_subgraph build them, and
the two task specs LOWDATA_SPEC and NOISY_SPEC for gen-synth.
"""

import dataclasses

from actknow.config import ExperimentConfig
from actknow.pipeline import training_config_for
from actknow.scenarios import LOWDATA_SPEC, NOISY_SPEC, lowdata_experiment, noisy_experiment
from actknow.synth import SyntheticSpec


def one_valued_bools(settings: type, instances: list) -> list[str]:
    """The bool fields of the dataclass `settings` that hold one value
    across `instances`."""
    return [f.name for f in dataclasses.fields(settings)
            if isinstance(f.default, bool) and len({getattr(i, f.name) for i in instances}) < 2]


def bundled_cells() -> list[ExperimentConfig]:
    lowdata = lowdata_experiment("data", "out")
    noisy = noisy_experiment("data", "out")
    return [*(training_config_for(lowdata, mode=mode, seed=seed, data_fraction=fraction)
              for fraction in lowdata.fractions for mode in lowdata.modes for seed in lowdata.seeds),
            *(training_config_for(noisy, max_nodes=budget) for budget in noisy.node_budgets)]


def test_the_guard_sees_a_switch_no_instance_flips():
    @dataclasses.dataclass
    class Settings:
        on: bool = True
        count: int = 0

    assert one_valued_bools(Settings, [Settings(), Settings(count=1)]) == ["on"]
    assert one_valued_bools(Settings, [Settings(), Settings(on=False)]) == []


def test_every_bool_setting_takes_both_values_in_the_bundled_cells():
    assert one_valued_bools(ExperimentConfig, bundled_cells()) == []
    assert one_valued_bools(SyntheticSpec, [LOWDATA_SPEC, NOISY_SPEC]) == []

"""Declarative scenario layer: one spec to configure, serialize, sweep
and cache every experiment.

:class:`ScenarioSpec` (:mod:`repro.scenario.spec`) is the canonical,
frozen description of a run — workload, device geometry, FTL, PPB and
reliability knobs, and the phase schedule (warm fill, pre-age, replay,
shelf-age + re-read).  It round-trips losslessly through dicts and
JSON/TOML files (:mod:`repro.scenario.serialize`), expands into sweeps
by dotted field path (:mod:`repro.scenario.sweep`), executes through
:mod:`repro.scenario.run`, and serves directly as the memoization cache
key of :class:`repro.bench.memo.ReplayRunner`.

Quick tour::

    from repro.scenario import ScenarioSpec, SweepAxis, run_scenario, sweep

    spec = ScenarioSpec(workload="web-sql", ftl="ppb", num_requests=4000)
    result = run_scenario(spec)

    from repro.scenario import load_scenario_file
    bundle = load_scenario_file("examples/scenarios/retention_abtest.toml")
    specs = bundle.scenarios()          # the file's sweep cross-product
"""

from repro.scenario.run import build_trace, execute_scenario, run_scenario, run_scenarios
from repro.scenario.serialize import (
    ScenarioFile,
    load_scenario_file,
    parse_scenario_file,
    save_scenario_file,
    spec_from_dict,
    spec_from_json,
    spec_from_toml,
    spec_to_dict,
    spec_to_json,
    spec_to_toml,
)
from repro.scenario.spec import (
    PreconditionPhase,
    ScenarioSpec,
    TenantSpec,
)
from repro.scenario.sweep import (
    SweepAxis,
    axis_values,
    get_path,
    list_paths,
    parse_scalar,
    parse_set_arg,
    set_path,
    set_paths,
    sweep,
)

__all__ = [
    "ScenarioSpec",
    "TenantSpec",
    "PreconditionPhase",
    "ScenarioFile",
    "SweepAxis",
    "axis_values",
    "build_trace",
    "execute_scenario",
    "get_path",
    "list_paths",
    "load_scenario_file",
    "parse_scalar",
    "parse_scenario_file",
    "parse_set_arg",
    "run_scenario",
    "run_scenarios",
    "save_scenario_file",
    "set_path",
    "set_paths",
    "spec_from_dict",
    "spec_from_json",
    "spec_from_toml",
    "spec_to_dict",
    "spec_to_json",
    "spec_to_toml",
    "sweep",
]

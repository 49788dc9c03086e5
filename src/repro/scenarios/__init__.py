"""``repro.scenarios``: declarative scenario packs.

Scenario diversity as data, not code: a JSON/YAML document describes a
cluster-scale CXL experiment (topology + device profile, workload mix,
traffic shape, fault plan, sweep axes, acceptance checks), and the
generic adapter registers it in :mod:`repro.experiments.registry` so it
flows through the existing worker-pool/cache/checkpoint/resume/faults
machinery unchanged.  See docs/SCENARIOS.md for the format reference
and the shipped-pack catalog.
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping

from .adapter import register_scenario, scenario_runner
from .expand import expand_grid, find_placeholders, substitute
from .loader import PACK_DIR, load_pack, load_scenario_file, pack_files
from .profiles import build_testbed
from .schema import Field, ValidationError
from .spec import (AXES, CHECK_KINDS, METRICS, Scenario, parse_scenario,
                   point_grid)

__all__ = [
    "AXES", "CHECK_KINDS", "Field", "METRICS", "PACK_DIR", "Scenario",
    "ValidationError", "build_testbed", "expand_grid",
    "find_placeholders", "load_pack", "load_scenario_file",
    "pack_files", "parse_scenario", "point_grid", "register_pack",
    "register_scenario", "resolve_scenario_ids", "scenario_runner",
    "scenario_testbed", "substitute",
]


def register_pack(directory: str | Path = PACK_DIR) -> list[str]:
    """Register every scenario in ``directory``; idempotent.

    Returns the experiment ids in pack (file-name) order.  Already
    registered ids are left alone, so importing
    :mod:`repro.experiments` twice — or alongside an explicit
    ``--scenario`` load — never trips the duplicate-id guard.
    """
    from ..experiments.registry import REGISTRY

    ids = []
    for scenario in load_pack(directory):
        if scenario.experiment_id not in REGISTRY:
            register_scenario(scenario)
        ids.append(scenario.experiment_id)
    return ids


def resolve_scenario_ids(spec: str, *,
                         variables: Mapping | None = None) -> list[str]:
    """Resolve a ``--scenario`` argument to registered experiment ids.

    ``spec`` is ``pack`` (the whole shipped pack), a scenario name
    (with or without the ``scn-`` prefix), or a path to a scenario
    file.  Unknown names raise a :class:`ValidationError` listing the
    valid choices.
    """
    from ..experiments.registry import REGISTRY

    if spec == "pack":
        return register_pack()
    path = Path(spec)
    if path.suffix in (".json", ".yaml", ".yml") or path.exists():
        scenario = load_scenario_file(path, variables=variables)
        if scenario.experiment_id not in REGISTRY:
            register_scenario(scenario)
        return [scenario.experiment_id]
    pack_ids = register_pack()
    candidate = spec if spec.startswith("scn-") else f"scn-{spec}"
    if candidate in REGISTRY:
        return [candidate]
    names = ", ".join(eid.removeprefix("scn-") for eid in pack_ids)
    raise ValidationError(
        "scenario", f"unknown scenario {spec!r}; shipped pack: {names} "
                    f"(or pass a scenario file path, or 'pack')")


def scenario_testbed(spec: str):
    """The :class:`~repro.config.SystemConfig` a scenario's device
    profile describes — the ``memo --scenario`` testbed override."""
    path = Path(spec)
    if path.suffix in (".json", ".yaml", ".yml") or path.exists():
        scenario = load_scenario_file(path)
    else:
        name = spec.removeprefix("scn-")
        matches = [s for s in load_pack() if s.name == name]
        if not matches:
            names = ", ".join(s.name for s in load_pack())
            raise ValidationError(
                "scenario",
                f"unknown scenario {spec!r}; shipped pack: {names}")
        scenario = matches[0]
    return build_testbed(scenario.topology.device)

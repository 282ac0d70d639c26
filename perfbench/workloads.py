"""The benchmark's workloads: what one repetition runs and how its
simulated outputs are checked.

Each workload's ``run(seed, traced)`` makes one repetition and returns
a :class:`Rep`.  ``setup_in_run`` says where ``setup_s`` comes from: a
workload that builds its fabrics in the benchmark's process has its
set-up timed inside each run, around the run's own build calls; one
whose trials build in campaign workers has a ``setup(seed)`` that makes
the same build calls once, for set-up-only repetitions.  Simulated
outputs are correctness checks, never performance metrics.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.campaign.report import STATUS_OK
from repro.campaign.runner import run_campaign
from repro.campaign.spec import TrialSpec
from repro.experiments.common import build_bundle
from repro.experiments.conditions import conditions_topology
from repro.experiments.flowscale import run_flow_scale_trial
from repro.experiments.partition_aggregate import (
    PartitionAggregateConfig,
    run_flow_partition_aggregate,
)
from repro.sim.units import seconds, to_milliseconds

import repro.campaign.trials  # noqa: F401  (registers the trial kinds)

#: the seed whose outputs are pinned below
DEFAULT_SEED = 7

Outputs = Dict[str, Dict[str, Any]]


@dataclass
class Rep:
    """One repetition: per-cell outputs, exact work counts, cells that
    failed while running, and campaign fan-out figures if any."""

    outputs: Outputs
    counts: Dict[str, int]
    errors: List[str] = field(default_factory=list)
    campaign: Optional[Dict[str, float]] = None


class FluidRecovery:
    """Warm-started single-flow recovery on a k-ary fat tree (fluid
    backend).  It draws no randomness, so its outputs are pinned for
    every seed."""

    seeded = False
    setup_in_run = True
    workers = 1
    cells = ("trial",)

    def __init__(self, ports: int = 32) -> None:
        self.ports = ports

    def run(self, seed: int, traced: bool) -> Rep:
        result = run_flow_scale_trial(ports=self.ports)
        loss = result.connectivity_loss
        return Rep(
            outputs={"trial": {
                "connectivity_loss_ms": None if loss is None else to_milliseconds(loss),
                "packets_sent": result.packets_sent,
                "packets_received": result.packets_received,
                "path_after_complete": result.path_after_complete,
            }},
            counts={
                "trial/events": result.events_processed,
                "trial/batch_spf_runs": result.batch_spf_runs,
                "trial/batch_spf_hits": result.batch_spf_hits,
                "trial/flow_recomputes": result.flow_recomputes,
            },
        )

    def ordering_violations(self, outputs: Outputs) -> List[str]:
        return []


class FluidFig6:
    """One Fig 6 partition-aggregate cell on the fluid backend, on the
    F²Tree and on the fat tree, with concurrent failures."""

    seeded = True
    setup_in_run = True
    workers = 1
    cells = ("f2tree", "fat-tree")

    def __init__(
        self,
        duration_s: float = 10.0,
        n_requests: int = 60,
        n_background_flows: int = 30,
        concurrent_failures: int = 3,
    ) -> None:
        self.sizing = dict(
            duration=seconds(duration_s),
            n_requests=n_requests,
            n_background_flows=n_background_flows,
            concurrent_failures=concurrent_failures,
        )

    def config(self, seed: int) -> PartitionAggregateConfig:
        return PartitionAggregateConfig(seed=seed, **self.sizing)

    def run(self, seed: int, traced: bool) -> Rep:
        config = self.config(seed)
        outputs: Outputs = {}
        counts: Dict[str, int] = {}
        for kind in self.cells:
            result = run_flow_partition_aggregate(kind, config)
            stats = result.stats
            outputs[kind] = {
                "deadline_miss_ratio": result.deadline_miss_ratio,
                "fct_p50_ms": to_milliseconds(stats.percentile(50)),
                "fct_p99_ms": to_milliseconds(stats.percentile(99)),
                "background_completed": result.background_completed,
            }
            counts[f"{kind}/requests"] = stats.total
            counts[f"{kind}/background_total"] = result.background_total
            counts[f"{kind}/failures"] = result.n_failures
        return Rep(outputs=outputs, counts=counts)

    def ordering_violations(self, outputs: Outputs) -> List[str]:
        """The paper's Fig 6 claim: F²Tree misses no more deadlines."""
        f2, fat = outputs.get("f2tree"), outputs.get("fat-tree")
        if f2 and fat and f2["deadline_miss_ratio"] > fat["deadline_miss_ratio"]:
            return ["f2tree"]
        return []


#: Fig 4 cells: (Table IV condition, fabric)
FIG4_CELLS: Tuple[Tuple[str, str], ...] = (
    ("C1", "fat-tree"),
    ("C1", "f2tree"),
    ("C7", "f2tree"),
)


class PacketFig4:
    """A Fig 4 subset as a campaign of ``condition`` trials (a UDP and
    a TCP run each) on the packet backend."""

    seeded = True
    setup_in_run = False

    def __init__(self, cells: Tuple[Tuple[str, str], ...] = FIG4_CELLS) -> None:
        self.cells = tuple(f"{label}/{kind}" for label, kind in cells)
        self._specs = [
            TrialSpec.make("condition", seed=None, label=label, topology=kind)
            for label, kind in cells
        ]
        self._kinds = sorted({kind for _, kind in cells})
        self.workers = min(os.cpu_count() or 1, 2)

    def setup(self, seed: int) -> None:
        # the build calls of plan_scenario and run_recovery, once per
        # fabric: the trials themselves build in campaign workers
        for kind in self._kinds:
            build_bundle(conditions_topology(kind)).converge()

    def run(self, seed: int, traced: bool) -> Rep:
        # the traced run executes in-process so the span wrappers see
        # every trial; telemetry adds the per-packet counters
        workers = 1 if traced else self.workers
        report = run_campaign(
            self._specs, name="packet-fig4", workers=workers,
            campaign_seed=seed, telemetry=traced,
        )
        outputs: Outputs = {}
        counts: Dict[str, int] = {}
        errors: List[str] = []
        for record in report.records:
            params = record.spec.param_dict()
            cell = f"{params['label']}/{params['topology']}"
            if record.status != STATUS_OK or record.payload is None:
                errors.append(cell)
                continue
            payload = record.payload
            outputs[cell] = {
                "connectivity_loss_ms": payload["connectivity_loss_ms"],
                "packets_lost": payload["packets_lost"],
                "collapse_ms": payload["collapse_ms"],
            }
            for name, value in sorted((record.metrics or {}).items()):
                if isinstance(value, int):
                    counts[f"{cell}/{name}"] = value
        return Rep(
            outputs=outputs,
            counts=counts,
            errors=errors,
            campaign={
                "trials": len(report.records),
                "retries": sum(r.attempts - 1 for r in report.records),
                "trial_s_sum": sum(r.duration_s for r in report.records),
                "workers": report.workers,
            },
        )

    def ordering_violations(self, outputs: Outputs) -> List[str]:
        """The paper's Fig 4 claim: F²Tree loses less than the fat tree
        under C1 (fast reroute against control-plane recovery)."""
        f2, fat = outputs.get("C1/f2tree"), outputs.get("C1/fat-tree")
        if f2 and fat and not f2["connectivity_loss_ms"] < fat["connectivity_loss_ms"]:
            return ["C1/f2tree"]
        return []


def make(name: str, tiny: bool = False) -> Any:
    """The named workload at its benchmark size, or at the self-test's
    tiny size (k=8 recovery, a minimal Fig 6 cell, one Fig 4 cell)."""
    if name == "fluid-recovery-k32":
        return FluidRecovery(ports=8 if tiny else 32)
    if name == "fluid-fig6":
        if tiny:
            return FluidFig6(duration_s=2.0, n_requests=8, n_background_flows=4,
                             concurrent_failures=1)
        return FluidFig6()
    if name == "packet-fig4":
        return PacketFig4(cells=FIG4_CELLS[1:2]) if tiny else PacketFig4()
    raise KeyError(name)


WORKLOADS = ("fluid-recovery-k32", "fluid-fig6", "packet-fig4")

#: simulated outputs at DEFAULT_SEED (any seed for unseeded workloads)
PINS: Dict[str, Outputs] = {
    "fluid-recovery-k32": {
        "trial": {
            "connectivity_loss_ms": 270.134,
            "packets_sent": 25000,
            "packets_received": 22300,
            "path_after_complete": True,
        },
    },
    "fluid-fig6": {
        "f2tree": {
            "deadline_miss_ratio": 0.0,
            "fct_p50_ms": 0.223384,
            "fct_p99_ms": 0.554172,
            "background_completed": 30,
        },
        "fat-tree": {
            "deadline_miss_ratio": 0.08333333333333333,
            "fct_p50_ms": 0.210192,
            "fct_p99_ms": 1423.57194,
            "background_completed": 30,
        },
    },
    "packet-fig4": {
        "C1/fat-tree": {"connectivity_loss_ms": 270.134, "packets_lost": 2700, "collapse_ms": 600.0},
        "C1/f2tree": {"connectivity_loss_ms": 60.117, "packets_lost": 600, "collapse_ms": 200.0},
        "C7/f2tree": {"connectivity_loss_ms": 270.0558, "packets_lost": 2443, "collapse_ms": 600.0},
    },
}


def _same(have: Any, want: Any) -> bool:
    if isinstance(want, float) and isinstance(have, (int, float)):
        return math.isclose(have, want, rel_tol=1e-9, abs_tol=1e-12)
    return bool(have == want) and type(have) is type(want)


def pin_mismatches(outputs: Outputs, pins: Outputs) -> Dict[str, List[str]]:
    """Per cell, the outputs that differ from their pinned values."""
    found: Dict[str, List[str]] = {}
    for cell, expected in sorted(pins.items()):
        got = outputs.get(cell, {})
        for key, want in sorted(expected.items()):
            have = got.get(key)
            if not _same(have, want):
                found.setdefault(cell, []).append(f"{key}={have!r}, pinned {want!r}")
    return found

"""Repository benchmark: three recovery workloads, host-time metrics.

Run from the repository root::

    python3 perfbench/run.py --workload fluid-recovery-k32 --seed 7 \
        --seconds 36 --trace 0

``--trace 0`` prints the end-to-end metrics (``run_s``, ``setup_s``,
``cpu_s``, ``peak_rss_mb``); ``--trace 1`` prints the per-layer ledger
from a separate traced run.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it records the seed, the host (nproc, Python, numpy)
and every repetition's raw figures.

Every repetition runs in a fresh interpreter, so each one starts as a
user's run would (cold module caches, its own peak RSS).  Its host
timings are scaled to a reference host speed sampled while it runs
(``reference.py``), so that the shared host's slow and fast periods do
not show as changes of the program.  ``setup_s``
is a median over one kind of sample per workload: set-up timed inside
each run around the run's own build calls (the fluid workloads), or
set-up-only repetitions (the campaign workload, whose trials build in
worker processes).  Each run's
simulated outputs are checked: against pinned values on the default
seed, against the paper's orderings on every seed, and against every
earlier repetition of the same code and seed (exact work counts
included), kept in ``.perfbench/ledger.json``.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import pathlib
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"

#: the whole run, children included, must end well inside 180 s
RUN_BUDGET_S = 170.0
#: full repetitions per untraced run, at least (more while they fit)
MIN_REPS = 2
#: set-up-only repetitions per untraced run of a workload whose
#: set-up is not timed inside its runs
SETUP_SAMPLES = 3

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "topology.build_s": "s",
    "dataplane.build_s": "s",
    "routing.warmstart_s": "s",
    "routing.batch_spf_s": "s",
    "fib.bulk_load_s": "s",
    "fib.entries_loaded": "count",
    "routing.spf_s": "s",
    "routing.fib_download_s": "s",
    "routing.batch_spf_runs": "count",
    "routing.batch_spf_hits": "count",
    "routing.spf_runs": "count",
    "routing.spf_incremental_runs": "count",
    "routing.spf_nodes_touched": "count",
    "routing.lsa_flooded": "count",
    "routing.lsa_accepted": "count",
    "fib.installs": "count",
    "routing.converge_s": "s",
    "flow.solver_s": "s",
    "flow.solver_calls": "count",
    "flow.path_resolve_s": "s",
    "flow.recomputes": "count",
    "flow.full_solves": "count",
    "flow.incremental_solves": "count",
    "flow.path_cache_hit_ratio": "ratio",
    "sim.events": "count",
    "sim.ns_per_event": "ns",
    "sim.queue_depth_max": "count",
    "dataplane.pkt_forwarded": "count",
    "dataplane.pkt_delivered": "count",
    "fib.chain_hit_ratio": "ratio",
    "topology.self_s": "s",
    "dataplane.self_s": "s",
    "fib.self_s": "s",
    "routing.self_s": "s",
    "sim.self_s": "s",
    "flow.self_s": "s",
    "transport.self_s": "s",
    "workloads.self_s": "s",
    "campaign.self_s": "s",
    "campaign.trials": "count",
    "campaign.retries": "count",
    "campaign.trial_s_sum": "s",
    "campaign.fanout_efficiency": "ratio",
    "workloads.requests": "count",
    "workloads.flows": "count",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}


class BenchError(Exception):
    """A repetition could not produce a result."""


# --------------------------------------------------------------- child side


def _usage() -> Tuple[float, float]:
    """(CPU seconds of self and reaped children, peak RSS MB of self
    plus the largest child)."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, (me.ru_maxrss + kids.ru_maxrss) / 1024.0


def _ratio(hits: float, total: float) -> float:
    return hits / total if total else 0.0


def layer_metrics(tracer: Any) -> Dict[str, float]:
    """The traced repetition's per-layer figures (timings and counts)."""
    sims = tracer.objects("sim")
    networks = tracer.objects("network")
    models = tracer.objects("model")
    oracles = tracer.objects("oracle")
    # simulators of one trial may share a registry: count each once
    registries = {id(sim.obs.metrics): sim.obs.metrics for sim in sims}
    snapshots = [registry.snapshot() for registry in registries.values()]

    def counter(name: str) -> int:
        return sum(int(snap.get(name, 0)) for snap in snapshots)

    def model_stat(name: str) -> int:
        return sum(model.stats()[name] for model in models)

    chain_hits = chain_misses = 0
    for network in networks:
        for switch in network.switches():
            chain_hits += switch.fib.chain_hits
            chain_misses += switch.fib.chain_misses
    events = sum(sim.events_processed for sim in sims)
    sim_run_s = tracer.total_s("sim.run")
    resolutions = model_stat("path_resolutions")
    cache_hits = model_stat("path_cache_hits")
    self_s = tracer.self_s_by_layer()
    out: Dict[str, float] = {
        "topology.build_s": tracer.total_s("topology.build"),
        "dataplane.build_s": tracer.total_s("dataplane.build"),
        "routing.warmstart_s": tracer.total_s("routing.warmstart"),
        "routing.batch_spf_s": tracer.total_s("routing.batch_spf"),
        "fib.bulk_load_s": tracer.total_s("fib.bulk_load"),
        "fib.entries_loaded": tracer.entries_loaded,
        "routing.spf_s": tracer.total_s("routing.spf"),
        "routing.fib_download_s": tracer.total_s("routing.fib_download"),
        "routing.batch_spf_runs": sum(o.batch_runs for o in oracles),
        "routing.batch_spf_hits": sum(o.hits for o in oracles),
        "routing.spf_runs": counter("spf.runs"),
        "routing.spf_incremental_runs": counter("spf.incremental.runs"),
        "routing.spf_nodes_touched": counter("spf.incremental.touched"),
        "routing.lsa_flooded": counter("lsa.flooded"),
        "routing.lsa_accepted": counter("lsa.accepted"),
        "fib.installs": counter("fib.installs"),
        "routing.converge_s": tracer.total_s("routing.converge"),
        "flow.solver_s": tracer.total_s("flow.solver"),
        "flow.solver_calls": tracer.calls("flow.solver"),
        "flow.path_resolve_s": tracer.total_s("flow.path_resolve"),
        "flow.recomputes": model_stat("recomputes"),
        "flow.full_solves": model_stat("full_solves"),
        "flow.incremental_solves": model_stat("incremental_solves"),
        "flow.path_cache_hit_ratio": _ratio(cache_hits, cache_hits + resolutions),
        "sim.events": events,
        "sim.ns_per_event": _ratio(sim_run_s * 1e9, events),
        "sim.queue_depth_max": tracer.queue_depth_max,
        "dataplane.pkt_forwarded": counter("pkt.forwarded"),
        "dataplane.pkt_delivered": counter("pkt.delivered"),
        "fib.chain_hit_ratio": _ratio(chain_hits, chain_hits + chain_misses),
        "workloads.requests": sum(len(w.stats.records) for w in tracer.objects("requests")),
        "workloads.flows": sum(len(model.flows) for model in models),
        "trace.unattributed_s": tracer.unattributed_s(),
    }
    for prefix, seconds in self_s.items():
        out[f"{prefix}.self_s"] = seconds
    return out


def child_main(args: argparse.Namespace) -> int:
    """One repetition in this (fresh) interpreter; prints one JSON line.

    An untraced repetition samples the host's speed while it runs (in
    this process, or in each campaign worker) and reports, next to its
    timings, the ``scale`` that takes them to the reference speed; the
    time spent sampling is left out of every timing."""
    from perfbench import workloads
    from perfbench.reference import SpeedSampler, read_worker_samples, sample_workers, scale

    workload = workloads.make(args.workload, args.tiny)
    sampler = SpeedSampler()
    if args.child == "setup":
        sampler.start()
        started = sampler.clock()
        workload.setup(args.seed)
        setup_s = sampler.clock() - started
        sampler.stop()
        print(json.dumps({"setup_s": setup_s, "scale": scale(sampler.samples)}))
        return 0

    from perfbench.tracing import ROOT_SPAN, SetupClock, Tracer

    tracer = Tracer() if args.child == "traced" else None
    workers_dir: Optional[pathlib.Path] = None
    restore_workers = None
    if tracer is None and workload.workers > 1:
        workers_dir = STATE / f"speed-{os.getpid()}"
        restore_workers = sample_workers(workers_dir)
    elif tracer is None:
        sampler.start()
    clock = SetupClock(sampler.clock) if tracer is None and workload.setup_in_run else None
    hooks = tracer or clock
    if hooks is not None:
        hooks.install()
    cpu0, _ = _usage()
    own0 = sampler.own_s
    started = sampler.clock()
    try:
        if tracer is not None:
            rep = tracer.span(ROOT_SPAN, workload.run, args.seed, True)
        else:
            rep = workload.run(args.seed, False)
        run_s = sampler.clock() - started
        cpu1, peak_mb = _usage()
        own_s = sampler.own_s - own0
    finally:
        if hooks is not None:
            hooks.uninstall()
        sampler.stop()
        if restore_workers is not None:
            restore_workers()
    samples = list(sampler.samples)
    if workers_dir is not None:
        worker_samples = read_worker_samples(workers_dir)
        shutil.rmtree(workers_dir)
        samples += worker_samples
        own_s += sum(worker_samples)
    result: Dict[str, Any] = {
        "run_s": run_s,
        "cpu_s": cpu1 - cpu0 - own_s,
        "peak_rss_mb": peak_mb,
        "outputs": rep.outputs,
        "counts": rep.counts,
        "errors": rep.errors,
        "campaign": rep.campaign,
    }
    if tracer is None:
        result["scale"] = scale(samples)
        result["speed_samples"] = len(samples)
    if clock is not None:
        result["setup_s"] = clock.setup_s
    if tracer is not None:
        layers = layer_metrics(tracer)
        result["layers"] = layers
        # exact work counts of the traced run join the ledger
        for name, unit in sorted(PER_LAYER.items()):
            if unit == "count" and not name.startswith("campaign."):
                result["counts"][f"layer/{name}"] = int(layers[name])
        tracer.dump(STATE / f"spans-{args.workload}-seed{args.seed}.json")
    print(json.dumps(result))
    return 0


# -------------------------------------------------------------- parent side


def run_child(args: argparse.Namespace, kind: str, timeout: float) -> Dict[str, Any]:
    """One ``kind`` repetition in a fresh interpreter; its JSON result
    plus ``wall_s``.  The child's process group is killed on the way
    out, so neither a child that timed out nor a campaign worker it
    left behind survives."""
    if timeout <= 0:
        raise BenchError(f"no time left for a {kind} repetition")
    argv = [
        sys.executable, str(HERE / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--child", kind,
    ] + (["--tiny"] if args.tiny else [])
    started = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{kind} repetition exited {proc.returncode}")
    lines = out.decode().strip().splitlines()
    if not lines:
        raise BenchError(f"{kind} repetition printed nothing")
    result: Dict[str, Any] = json.loads(lines[-1])
    result["wall_s"] = time.perf_counter() - started
    return result


def tree_digest() -> str:
    """Digest of the program and benchmark sources: ledger entries are
    compared only between runs of identical code."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


class Ledger:
    """Outputs and exact work counts of every checked repetition, keyed
    by code digest, workload, seed and mode; a later repetition must
    reproduce them exactly."""

    def __init__(self, path: pathlib.Path, key: str) -> None:
        self.path = path
        self.key = key
        try:
            self.data: Dict[str, Any] = json.loads(path.read_text())
        except (OSError, ValueError):
            self.data = {}

    def compare(self, mode: str, rep: Dict[str, Any]) -> List[str]:
        """Cells whose outputs or counts differ from the recorded ones
        (recording them when this is the first repetition)."""
        entry = {"outputs": rep["outputs"], "counts": rep["counts"]}
        known = self.data.setdefault(f"{self.key}|{mode}", entry)
        return sorted(
            _output_drift(known["outputs"], entry["outputs"])
            | _count_drift(known["counts"], entry["counts"])
        )

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(self.data, sort_keys=True, indent=1))
        tmp.replace(self.path)


def _output_drift(a: Dict[str, Any], b: Dict[str, Any]) -> Set[str]:
    return {cell for cell in set(a) | set(b) if a.get(cell) != b.get(cell)}


def _count_drift(a: Dict[str, int], b: Dict[str, int]) -> Set[str]:
    """Cells with a differing count (count names are ``cell/name``)."""
    return {
        name.rsplit("/", 1)[0] for name in set(a) | set(b) if a.get(name) != b.get(name)
    }


def check_reps(
    workload: Any,
    seed: int,
    reps: Sequence[Tuple[str, Dict[str, Any]]],
    pins: Dict[str, Dict[str, Any]],
    ledger: Optional[Ledger] = None,
) -> Tuple[int, int, List[str]]:
    """(operations attempted, operations failed, messages).

    One operation is one cell of one repetition, plus the traced
    repetition's whole-run work ledger (cell ``layer``).  A cell fails
    when its trial did not finish ``ok``, its outputs differ from the
    pins (default seed only), it breaks the paper's ordering, or its
    outputs or exact work counts differ from another repetition of the
    same code and seed.
    """
    from perfbench import workloads

    pinned = not workload.seeded or seed == workloads.DEFAULT_SEED
    attempted = failed = 0
    messages: List[str] = []
    first: Dict[str, Dict[str, Any]] = {}
    for index, (mode, rep) in enumerate(reps):
        bad: Dict[str, str] = {cell: "trial not ok" for cell in rep["errors"]}
        if pinned:
            for cell, diffs in workloads.pin_mismatches(rep["outputs"], pins).items():
                bad.setdefault(cell, "; ".join(diffs))
        for cell in workload.ordering_violations(rep["outputs"]):
            bad.setdefault(cell, "breaks the paper's ordering")
        # outputs must agree across modes, work counts within a mode
        drift = _output_drift(reps[0][1]["outputs"], rep["outputs"])
        drift |= _count_drift(first.setdefault(mode, rep)["counts"], rep["counts"])
        for cell in sorted(drift):
            bad.setdefault(cell, "differs from an earlier repetition of this run")
        if ledger is not None:
            for cell in ledger.compare(mode, rep):
                bad.setdefault(cell, "differs from the ledger (same code and seed)")
        cells = set(workload.cells) | set(bad)
        if mode == "traced":
            cells.add("layer")
        attempted += len(cells)
        failed += len(bad)
        messages.extend(
            f"rep {index} ({mode}) {cell}: {why}" for cell, why in sorted(bad.items())
        )
    return attempted, failed, messages


def _median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def parent_main(args: argparse.Namespace) -> int:
    from perfbench import workloads

    started = time.perf_counter()

    def remaining() -> float:
        return RUN_BUDGET_S - (time.perf_counter() - started)

    workload = workloads.make(args.workload, args.tiny)
    reps: List[Tuple[str, Dict[str, Any]]] = []
    info: Dict[str, Any] = {}
    if not args.trace:
        setup_reps: List[Dict[str, Any]] = []
        if not workload.setup_in_run:
            setup_reps = [run_child(args, "setup", remaining()) for _ in range(SETUP_SAMPLES)]
        # MIN_REPS full repetitions, then more while the next still
        # fits in --seconds
        while len(reps) < MIN_REPS or (
            time.perf_counter() - started + reps[-1][1]["wall_s"] <= args.seconds
        ):
            reps.append(("run", run_child(args, "run", remaining())))
        runs = [rep for _, rep in reps]
        if workload.setup_in_run:
            setup_reps = runs
        # timings at the reference host speed (see reference.py)
        values = {
            "run_s": _median([r["run_s"] * r["scale"] for r in runs]),
            "setup_s": _median([r["setup_s"] * r["scale"] for r in setup_reps]),
            "cpu_s": _median([r["cpu_s"] * r["scale"] for r in runs]),
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in runs]),
        }
        for key in ("run_s", "cpu_s", "peak_rss_mb", "scale", "speed_samples"):
            info[key] = [r[key] for r in runs]
        info["setup_s"] = [r["setup_s"] for r in setup_reps]
        info["setup_scale"] = [r["scale"] for r in setup_reps]
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    else:
        plain = run_child(args, "run", remaining())
        traced = run_child(args, "traced", remaining())
        reps = [("run", plain), ("traced", traced)]
        layers = dict(traced["layers"])
        campaign = plain["campaign"]
        if campaign is not None:
            # the traced campaign runs serially in-process: its untraced
            # twin is the sum of the fanned-out run's trial times
            baseline = campaign["trial_s_sum"]
            layers["campaign.trials"] = campaign["trials"]
            layers["campaign.retries"] = campaign["retries"]
            layers["campaign.trial_s_sum"] = campaign["trial_s_sum"]
            layers["campaign.fanout_efficiency"] = campaign["trial_s_sum"] / (
                campaign["workers"] * plain["run_s"]
            )
        else:
            baseline = plain["run_s"]
            for key in ("trials", "retries", "trial_s_sum", "fanout_efficiency"):
                layers[f"campaign.{key}"] = 0
        layers["trace.overhead_s"] = traced["run_s"] - baseline
        info["untraced_run_s"] = plain["run_s"]
        info["traced_run_s"] = traced["run_s"]
        metrics = {
            k: {"value": layers[k], "unit": unit} for k, unit in PER_LAYER.items()
        }

    size = "tiny" if args.tiny else "bench"
    ledger = Ledger(
        STATE / "ledger.json", f"{tree_digest()}|{args.workload}|{size}|seed={args.seed}"
    )
    pins = {} if args.tiny else workloads.PINS[args.workload]
    attempted, failed, messages = check_reps(workload, args.seed, reps, pins, ledger)
    ledger.save()
    for message in messages:
        print(f"perfbench: FAILED {args.workload} seed {args.seed}: {message}", file=sys.stderr)

    import numpy

    info.update({
        "workload": args.workload,
        "seed": args.seed,
        "pinned_seed": workloads.DEFAULT_SEED,
        "trace": args.trace,
        "workers": workload.workers,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "repetitions": len(reps),
        "failures": messages,
    })
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: one repetition in a subprocess; the self-test's tiny sizes
    parser.add_argument("--child", choices=("setup", "run", "traced"), help=argparse.SUPPRESS)
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)
    try:
        return parent_main(args)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Harness self-test at tiny sizes (k=8 fluid recovery, a minimal Fig 6
cell, one Fig 4 cell).

    python3 perfbench/selftest.py

It first checks that the host-speed sampler keeps chunks taken while
the process is busy and drops those taken after it sat idle.  For every
workload and both modes it runs the real command with the
hidden ``--tiny`` size and asserts that the result line has exactly the
metrics BENCHMARK.json names, each with its unit, and that the run is
correct, with every end-to-end figure above 0.  For a workload timed by
set-up-only repetitions it checks that ``setup(seed)`` builds the same
fabrics (topology, switches, hosts, links) and batch-SPF engines as its
run, so that ``setup_s`` times the run's own set-up.  It then checks one tiny
repetition against its own outputs as pins (no failure) and against a
deliberately wrong pin (the cell fails).  Exits 0 when every check
passes.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys
import time
from typing import Any, Callable, Set, Tuple

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def _result(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, check=True, stdout=subprocess.PIPE, timeout=300,
    ).stdout.decode()
    return json.loads(out.strip().splitlines()[-1])


def _built(call: Callable[[], Any]) -> Tuple[Any, Set[Tuple[Any, ...]]]:
    """``call()``'s result and the fabrics and oracles it built."""
    from perfbench.tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        value = call()
    finally:
        tracer.uninstall()
    built = {
        ("fabric", n.topology.name, len(n.switches()), len(n.hosts()), len(n.links))
        for n in tracer.objects("network")
    }
    built |= {("oracle", oracle.engine) for oracle in tracer.objects("oracle")}
    return value, built


def _check_sampler() -> None:
    """The host-speed sampler keeps chunks taken while the process was
    busy and drops those taken after it sat idle."""
    from perfbench.reference import PERIOD_S, SpeedSampler

    sampler = SpeedSampler().start()
    started = time.perf_counter()
    while time.perf_counter() - started < 6 * PERIOD_S:
        pass
    busy = len(sampler.samples)
    time.sleep(1.5 * PERIOD_S)  # the first chunk after the loop may go either way
    settled = len(sampler.samples)
    time.sleep(4 * PERIOD_S)
    idle = len(sampler.samples) - settled
    sampler.stop()
    assert busy >= 5 and idle == 0, (busy, idle)
    print(f"ok   speed sampler: {busy} busy chunks kept, idle chunks dropped")


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import run, workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    assert expected[0] == run.END_TO_END, "BENCHMARK.json end_to_end != run.END_TO_END"
    assert expected[1] == run.PER_LAYER, "BENCHMARK.json per_layer != run.PER_LAYER"
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)

    _check_sampler()

    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            result = _result(name, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0, (name, trace, result)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == expected[trace], (name, trace, sorted(set(got) ^ set(expected[trace])))
            for key, metric in result["metrics"].items():
                assert isinstance(metric["value"], (int, float)), (name, key, metric)
                assert trace or metric["value"] > 0, (name, key, metric)
            print(f"ok   {name} --trace {trace}: {len(got)} metrics, "
                  f"{result['attempted']} operations")

        workload = workloads.make(name, tiny=True)
        seed = workloads.DEFAULT_SEED
        rep, run_built = _built(lambda: workload.run(seed, True))
        if not workload.setup_in_run:
            _, setup_built = _built(lambda: workload.setup(seed))
            assert setup_built == run_built, (name, sorted(setup_built ^ run_built, key=str))
            print(f"ok   {name}: set-up builds what the run builds ({len(run_built)} kinds)")
        raw = {"outputs": rep.outputs, "counts": rep.counts, "errors": rep.errors}
        pins = json.loads(json.dumps(rep.outputs))
        attempted, failed, _ = run.check_reps(workload, seed, [("run", raw)], pins)
        assert failed == 0 and attempted >= 1, (name, attempted, failed)
        cell = sorted(pins)[0]
        key = sorted(pins[cell])[0]
        pins[cell][key] = "deliberately wrong"
        _, failed, messages = run.check_reps(workload, seed, [("run", raw)], pins)
        assert failed == 1 and cell in messages[0], (name, messages)
        print(f"ok   {name}: a wrong pin on {cell}.{key} fails the run")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

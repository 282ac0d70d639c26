"""Host speed, sampled while a repetition runs.

On a shared host the speed of a core moves by up to 1.5x for periods of
tens of seconds to minutes, and CPU time moves with it, so neither the
wall nor the CPU seconds of a repetition are comparable between runs
made minutes apart.  While an untraced repetition runs, a
:class:`SpeedSampler` interrupts it every ``PERIOD_S`` (``SIGALRM``) and
times one fixed chunk of interpreter work in the same process.  The
benchmark reports the repetition's timings scaled to the host speed at
which a chunk takes ``NOMINAL_S``::

    scaled = (measured - time spent in chunks)
             * (NOMINAL_S / median(chunk)) ** SENSITIVITY

A change to the program moves the scaled figure exactly as it moves the
measured one; a slow or fast period of the host slows or speeds the
chunks with the program and cancels out.  The program feels the host's
slow periods somewhat less than the chunk does: over back-to-back
repetitions on the host named below, the log-log slope of repetition
time on chunk time was 0.60-0.65 (``fluid-recovery-k32``) and 0.78
(``fluid-fig6``), with correlations of 0.92-0.97, and near 0.9 across a
1.8x slow period.  The ratio is raised to ``SENSITIVITY``, the exponent
that gave the smallest spread over two sets of ten benchmark runs of
each workload.  The chunk touches
no program state and runs with the garbage collector off, so it does
not collect the program's heap inside its timing.  Its result is
checked, so it cannot drift.

Campaign workers are forked processes: :func:`sample_workers` starts a
sampler in each worker that appends its chunk timings to a file, which
the repetition reads back when the campaign is done.
"""

from __future__ import annotations

import gc
import heapq
import os
import pathlib
import signal
import statistics
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: seconds one chunk takes at the reference host speed (about the
#: median on a 2-vCPU Intel Xeon (Sapphire Rapids) KVM guest, Python 3.11)
NOMINAL_S = 0.005
#: how strongly the program's time follows the chunk's (see above)
SENSITIVITY = 0.85
#: seconds between two chunks (a chunk costs about 2% of a repetition)
PERIOD_S = 0.25
#: a chunk is kept only if, since the previous one, the process was on
#: a core for at least this share of the wall time
BUSY_SHARE = 0.5
#: nodes in the chunk's working set (a few MB: past L2, like the
#: simulators' own state) and steps in one chunk
NODES = 16384
STEPS = 2000


class _Node:
    __slots__ = ("key", "weight", "next")

    def __init__(self, key: int, weight: float) -> None:
        self.key = key
        self.weight = weight
        self.next = self

    def cost(self, factor: float) -> float:
        return self.weight * factor


def _working_set() -> Dict[Tuple[str, int], _Node]:
    nodes = [_Node(key, key * 0.5) for key in range(NODES)]
    for key, node in enumerate(nodes):
        node.next = nodes[(key * 7919) % NODES]
    return {("node", key): node for key, node in enumerate(nodes)}


_INDEX = _working_set()


def _chunk() -> float:
    """What the simulators spend their time on, in miniature: keyed dict
    lookups, pointer chasing, method calls, float arithmetic and a heap
    of ``(time, seq, item)`` tuples, over a fixed pseudo-random walk."""
    index = _INDEX
    heap: List[Tuple[int, int, _Node]] = []
    state = 12345
    total = 0.0
    for seq in range(STEPS):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        node = index[("node", state % NODES)].next
        total += node.cost(1.5)
        heapq.heappush(heap, (state & 0xFFFF, seq, node))
        if len(heap) > 256:
            heapq.heappop(heap)
    return total


#: the chunk's result, fixed by its inputs
EXPECTED = 12119526.0


def _timed_chunk() -> float:
    # the chunk's tuples must not trigger a collection of the program's
    # heap inside the timing
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        result = _chunk()
        elapsed = time.perf_counter() - started
    finally:
        if collecting:
            gc.enable()
    if result != EXPECTED:
        raise RuntimeError(f"speed chunk returned {result!r}, expected {EXPECTED!r}")
    return elapsed


class SpeedSampler:
    """Times one chunk every ``PERIOD_S`` of wall time in this process;
    ``sink``, if given, is a file each timing is appended to."""

    def __init__(self, sink: Optional[pathlib.Path] = None) -> None:
        self.samples: List[float] = []
        #: seconds spent in chunks so far (wall and CPU alike)
        self.own_s = 0.0
        self._sink = None if sink is None else os.open(
            sink, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        self._previous: Any = None
        self._running = False
        self._wall = self._cpu = 0.0

    def _tick(self, signum: int, frame: Any) -> None:
        # a process that sat idle since the last chunk (a campaign worker
        # waiting for a trial) wakes on a cold core: its chunk says
        # nothing about the speed the program ran at, and is not kept
        wall, cpu = time.perf_counter(), time.process_time()
        busy = cpu - self._cpu >= BUSY_SHARE * (wall - self._wall)
        elapsed = _timed_chunk()
        self.own_s += elapsed
        if busy:
            self.samples.append(elapsed)
            if self._sink is not None:
                os.write(self._sink, f"{elapsed!r}\n".encode())
        self._wall, self._cpu = time.perf_counter(), time.process_time()

    def start(self) -> "SpeedSampler":
        """Time a chunk now and then every ``PERIOD_S``."""
        self._wall, self._cpu = time.perf_counter(), time.process_time()
        self._tick(signal.SIGALRM, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._running = True
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self) -> None:
        """Time a last chunk and stop (a no-op if never started)."""
        if not self._running:
            return
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self._running = False
        self._tick(signal.SIGALRM, None)
        if self._sink is not None:
            os.close(self._sink)
            self._sink = None

    def clock(self) -> float:
        """``time.perf_counter()`` minus the time spent in chunks."""
        return time.perf_counter() - self.own_s


def scale(samples: List[float]) -> float:
    """Factor that takes host seconds measured over ``samples`` to
    seconds at the reference host speed."""
    if not samples:
        raise RuntimeError("no host-speed sample was taken")
    return float((NOMINAL_S / statistics.median(samples)) ** SENSITIVITY)


def sample_workers(directory: pathlib.Path) -> Callable[[], None]:
    """Make every campaign worker forked from now on sample its own
    speed into ``directory``; returns the function that undoes it."""
    from repro.campaign import runner

    original = runner._warm_worker
    directory.mkdir(parents=True, exist_ok=True)

    def warm_and_sample() -> None:
        original()
        SpeedSampler(directory / f"{os.getpid()}.txt").start()

    runner._warm_worker = warm_and_sample  # type: ignore[assignment]

    def restore() -> None:
        runner._warm_worker = original  # type: ignore[assignment]

    return restore


def read_worker_samples(directory: pathlib.Path) -> List[float]:
    """Every chunk timing the campaign workers wrote to ``directory``."""
    samples: List[float] = []
    for path in sorted(directory.glob("*.txt")):
        samples.extend(float(line) for line in path.read_text().split())
    return samples

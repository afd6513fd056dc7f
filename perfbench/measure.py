"""Percentiles with the tail-sample rule, host speed, and process-tree memory."""

from __future__ import annotations

import math
import os
import subprocess
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Sequence

#: A tail percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10
#: Dict entries one calibration chunk builds.
CHUNK_STEPS = 20000
#: Wall milliseconds of one chunk at the reference speed: its median
#: over minutes, rounded, on the host the benchmark was defined on
#: (2-vCPU Intel Xeon under KVM; 9.9-10.8 ms in sizing runs).
REFERENCE_CHUNK_MS = 10.0


def rank(count: int, q: float) -> int:
    """The nearest-rank index of quantile *q* among *count* samples."""
    return max(0, math.ceil(q * count) - 1)


def beyond(count: int, q: float) -> int:
    """How many of *count* samples lie beyond the *q* nearest rank."""
    return count - rank(count, q) - 1


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile *q* of *values* (which must be non-empty)."""
    ordered = sorted(values)
    return ordered[rank(len(ordered), q)]


def calibration_chunk() -> float:
    """Wall milliseconds of a fixed pure-Python workload.

    The workload fills a dict with tuple keys and hashes frozensets, the
    operations the planner spends its time on, over a working set large
    enough to leave the processor's small caches.  Wall time, not CPU
    time: the host's slow stretches come as much from its vCPUs being
    descheduled as from them running slowly, and both stretch the
    program's latencies.
    """
    started = time.perf_counter()
    table: dict[tuple[int, int], tuple] = {}
    for step in range(CHUNK_STEPS):
        key = (step * 7919 % 100003, step % 97)
        table[key] = (key, len(table))
    {frozenset(value) for value in list(table.values())[:3000]}
    return (time.perf_counter() - started) * 1000.0


class HostSpeed:
    """How much slower than the reference host this host runs.

    The benchmark's host shares its processors with other machines: its
    speed drifts by up to 1.7x within minutes, more than any regression
    bound could absorb.  Calibration chunks, interleaved with the timed
    calls on the thread that makes them, measure the drift: every
    reported latency is divided by :attr:`slowdown` and every rate
    multiplied by it, so a run on a slow stretch compares with a run on
    a fast one.  A change to the program moves its times but not the
    chunks.  (Sizing runs: interleaved with cold ``plan()`` calls, the
    chunk's time correlated with theirs at 0.69-0.76 on a log scale, and
    normalizing 3-second blocks cut the spread of planning time from
    0.18-0.19 to 0.05-0.08.  Chunks timed in bursts between the phases
    of a program running in other processes did not track it: they
    doubled the spread of the serve metrics, so those are reported as
    measured.)
    """

    def __init__(self, samples: Sequence[float] = ()) -> None:
        self.samples = list(samples)

    @property
    def slowdown(self) -> float:
        return median(self.samples) / REFERENCE_CHUNK_MS

    def time(self, value: float) -> float:
        """*value*, a time measured on this host, at the reference speed."""
        return value / self.slowdown

    def rate(self, value: float) -> float:
        """*value*, a rate measured on this host, at the reference speed."""
        return value * self.slowdown

    def metric(self) -> "Metric":
        return Metric(self.slowdown, "ratio", len(self.samples))


@dataclass(frozen=True)
class Metric:
    """One reported number, its unit and how many samples it summarizes."""

    value: float
    unit: str
    samples: int


@dataclass
class Result:
    """What one workload run reports."""

    #: End-to-end metrics of the untraced run.
    metrics: dict[str, Metric] = field(default_factory=dict)
    #: Per-layer metrics of the traced run (empty without tracing).
    layers: dict[str, Metric] = field(default_factory=dict)
    #: Printed beside the end-to-end metrics, not part of the result line.
    extra: dict[str, Metric] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Answers that differed from their reference.
    wrong: int = 0
    #: Sampled reference rewritings that failed certification.
    uncertified: int = 0

    @property
    def correct(self) -> bool:
        return self.wrong == 0 and self.uncertified == 0

    def count(self, ok: bool, *, wrong: bool = False) -> None:
        """Account one attempted operation."""
        self.attempted += 1
        self.failed += not ok
        self.wrong += wrong


def add_median(
    table: dict[str, Metric], name: str, values: Sequence[float], unit: str
) -> None:
    """Record the median of *values* as *name*, when there are any."""
    if values:
        table[name] = Metric(float(median(values)), unit, len(values))


def outcome_layers(
    outcomes: Sequence[dict], role: str, *, phases: bool
) -> dict[str, Metric]:
    """Per-layer metrics of one phase from its ok ``--profile`` outcomes.

    Outcomes are the program's own NDJSON / response objects.  With
    *phases*, the plan phases' times come from their profiles too: that
    work ran in worker processes, which no wrapper reaches.
    """
    from perfbench.tracing import CORE_PHASES

    layers: dict[str, Metric] = {}
    profiles = [outcome["profile"] for outcome in outcomes]
    seconds = [profile["phase_seconds"] for profile in profiles]
    search = [profile["search"] for profile in profiles]
    if phases:
        add_median(
            layers, f"planner.preflight_ms.{role}",
            [phase["preflight"] * 1000.0 for phase in seconds], "ms",
        )
        for core in CORE_PHASES:
            add_median(
                layers, f"core.{core}_ms.{role}",
                [phase[core] * 1000.0 for phase in seconds], "ms",
            )
    add_median(
        layers, f"core.rewritings.{role}",
        [len(outcome["rewritings"]) for outcome in outcomes], "count",
    )
    for counter in ("hom_searches", "hom_nodes"):
        add_median(
            layers, f"containment.{counter}.{role}",
            [counts[counter] for counts in search], "count",
        )
    searches = sum(counts["hom_searches"] for counts in search)
    fast = sum(counts["fast_path_searches"] for counts in search)
    layers[f"containment.fast_path_share.{role}"] = Metric(
        fast / searches if searches else 0.0, "ratio", len(search)
    )
    add_median(
        layers, f"cost.ranking_share.{role}",
        [
            profile["phase_seconds"]["cost_ranking"] / profile["total_seconds"]
            if profile["total_seconds"] else 0.0
            for profile in profiles
        ],
        "ratio",
    )
    layers[f"service.attempts_per_ok.{role}"] = Metric(
        sum(outcome["attempts"] for outcome in outcomes) / max(1, len(outcomes)),
        "ratio",
        len(outcomes),
    )
    return layers


def overhead(traced: dict[str, Metric], plain: dict[str, Metric]) -> dict[str, Metric]:
    """``trace.overhead_pct.<metric>``: traced minus untraced, in percent."""
    return {
        f"trace.overhead_pct.{name}": Metric(
            100.0 * (traced[name].value - metric.value) / metric.value,
            "%",
            traced[name].samples,
        )
        for name, metric in plain.items()
        if name in traced and metric.value
    }


def _children(pid: int) -> list[int]:
    """Direct children of *pid*, whichever of its threads started them."""
    found: list[int] = []
    try:
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/children", "rb") as handle:
                found.extend(int(child) for child in handle.read().split())
    except OSError:
        pass  # the process (or thread) has exited
    return found


def _peak_kib(pid: int) -> int | None:
    try:
        with open(f"/proc/{pid}/status", "rb") as handle:
            for line in handle:
                if line.startswith(b"VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


class TreePeakMemory:
    """Samples the peak resident set of a process and its descendants.

    A background thread reads each live process's high-water mark
    (``VmHWM``) every *interval* seconds and keeps the largest reading
    per pid; :meth:`stop` returns their sum in MB.  The mark only grows,
    so a coarse interval loses at most the last interval of a process's
    life, and keeps the sampler off the CPU the program is using.
    """

    def __init__(self, root: int, interval: float = 0.5) -> None:
        self.root = root
        self.interval = interval
        self._peaks: dict[int, int] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def sample(self) -> None:
        pending = [self.root]
        while pending:
            pid = pending.pop()
            peak = _peak_kib(pid)
            if peak is not None:
                self._peaks[pid] = max(peak, self._peaks.get(pid, 0))
            pending.extend(_children(pid))

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample()

    def stop(self) -> float:
        self._stop.set()
        self._thread.join()
        return sum(self._peaks.values()) / 1024.0


def child_env(root: Path, work: Path) -> dict[str, str]:
    """Environment for a program process: sources from the checkout."""
    return dict(
        os.environ, PYTHONPATH=str(root / "src"), TMPDIR=str(work)
    )


@dataclass(frozen=True)
class Finished:
    """A program process that ran to completion (or was killed)."""

    wall_s: float
    returncode: int
    stdout: str
    stderr: str
    peak_rss_mb: float


def run_child(
    command: list[str], *, cwd: Path, env: dict[str, str], timeout: float
) -> Finished:
    """Run *command*, timing it from launch to exit, sampling its memory."""
    started = time.monotonic()
    process = subprocess.Popen(
        command, cwd=cwd, env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    memory = TreePeakMemory(process.pid)
    try:
        stdout, stderr = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        process.kill()
        stdout, stderr = process.communicate()
    wall = time.monotonic() - started
    return Finished(wall, process.returncode, stdout, stderr, memory.stop())

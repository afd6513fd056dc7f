"""Run the repository benchmark.

Usage::

    python3 perfbench/run.py [--workload NAME|all] [--seed N]
                             [--seconds S] [--trace 0|1]

Workloads: ``plan-star``, ``batch-chain``, ``serve-chain-rw`` (default:
all three, one after another).  ``BENCHMARK.json`` names the first and
the last; ``batch-chain`` runs by name only (see README.md).  Inputs are generated from ``--seed``
before anything is timed; every answer is checked against a reference.
Each metric prints as ``workload  name  value unit  (n=samples)``; the
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` — every end-to-end metric of
``BENCHMARK.json``, or with ``--trace 1`` every per-layer metric of it,
from a separate traced run.  Every workload reports every one of them.

The program is imported from ``src/`` of the checkout this file sits
in; without it the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Scratch space inside the checkout (ignored by git, removed per run).
WORK = ROOT / ".perfbench-work"
WORKLOADS = ("plan-star", "batch-chain", "serve-chain-rw")


def manifest_names(traced: bool) -> list[str]:
    """The metric names the result line carries, from ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [metric["name"] for metric in spec["per_layer" if traced else "end_to_end"]]


def _print(workload: str, result) -> None:
    for table in (result.metrics, result.extra, result.layers):
        for name, metric in table.items():
            print(
                f"{workload:<15} {name:<40} {metric.value:>14.4f} "
                f"{metric.unit:<6} (n={metric.samples})"
            )
    print(
        f"{workload:<15} attempted={result.attempted} failed={result.failed} "
        f"wrong={result.wrong} uncertified={result.uncertified}"
    )


def _summary(results: dict, traced: bool) -> dict:
    prefix = len(results) > 1
    metrics = {}
    for workload, result in results.items():
        table = result.layers if traced else result.metrics
        for name in manifest_names(traced):
            metric = table[name]
            key = f"{workload}.{name}" if prefix else name
            metrics[key] = {"value": metric.value, "unit": metric.unit}
    return {
        "correct": all(result.correct for result in results.values()),
        "attempted": sum(result.attempted for result in results.values()),
        "failed": sum(result.failed for result in results.values()),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        work = WORK / f"{name}-{args.seed}-{os.getpid()}"
        work.mkdir(parents=True)
        # Temporary files of this process and its children stay in the
        # checkout too.
        os.environ["TMPDIR"] = str(work)
        tempfile.tempdir = None
        module = importlib.import_module("perfbench." + name.replace("-", "_"))
        try:
            results[name] = module.run(
                seed=args.seed,
                seconds=args.seconds,
                traced=bool(args.trace),
                work=work,
                root=ROOT,
            )
        finally:
            shutil.rmtree(work, ignore_errors=True)
            with contextlib.suppress(OSError):  # still in use by another run
                WORK.rmdir()
        _print(name, results[name])
    print(json.dumps(_summary(results, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    sys.exit(main())

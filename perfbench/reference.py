"""The correctness gate: reference answers, certification, comparison.

References are computed during set-up with untimed ``plan()`` calls,
each on a fresh :class:`~repro.planner.PlannerContext`, split over two
child processes so set-up stays short.  A seeded sample of reference
rewritings is then certified with
:func:`repro.views.is_equivalent_rewriting`.  Every timed answer is
compared with its reference as a sorted set of rewriting texts,
through :func:`answer_digest`.

Run as a script (``reference.py SPEC_JSON OUT_JSON INDEX COUNT``) this
module is one of those child processes: it answers every COUNT-th query
of SPEC_JSON, starting at INDEX.
"""

from __future__ import annotations

import hashlib
import json
import random
import subprocess
import sys
from pathlib import Path
from typing import Iterable, Sequence

ROOT = Path(__file__).resolve().parent.parent

#: Child processes computing references (the container has 2 cores).
WORKERS = 2
#: Queries per run whose reference rewritings are certified.
CERTIFIED_QUERIES = 8
TIMEOUT_S = 120.0


def answer_digest(rewritings: Iterable[str]) -> str:
    """A digest of the rewriting texts as a sorted set."""
    text = "\n".join(sorted(set(rewritings)))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def references(
    views: Sequence[str],
    queries: Sequence[str],
    cost_model: str | None,
    *,
    work: Path,
    env: dict[str, str],
) -> list[list[str]]:
    """The sorted rewriting texts of every query, in query order."""
    spec = work / "reference.json"
    spec.write_text(
        json.dumps(
            {"views": list(views), "queries": list(queries), "cost_model": cost_model}
        )
    )
    outputs = [work / f"reference-{index}.json" for index in range(WORKERS)]
    processes = [
        subprocess.Popen(
            [sys.executable, __file__, str(spec), str(out), str(index), str(WORKERS)],
            cwd=work, env=env,
        )
        for index, out in enumerate(outputs)
    ]
    try:
        codes = [process.wait(timeout=TIMEOUT_S) for process in processes]
    finally:
        for process in processes:
            if process.poll() is None:
                process.kill()
                process.wait()
    if any(codes):
        raise RuntimeError(f"reference processes exited {codes}")
    answers: list[list[str]] = [[] for _ in queries]
    for index, out in enumerate(outputs):
        share = json.loads(out.read_text())
        for position, answer in zip(range(index, len(queries), WORKERS), share):
            answers[position] = answer
    return answers


def certify(
    views: Sequence[str],
    queries: Sequence[str],
    answers: Sequence[Sequence[str]],
    seed: int,
) -> int:
    """How many sampled reference rewritings are not equivalent rewritings.

    Samples ``CERTIFIED_QUERIES`` queries by *seed* and checks the first
    and last rewriting of each against Definition 2.3.
    """
    from repro.datalog.parser import parse_query
    from repro.views import ViewCatalog, is_equivalent_rewriting

    catalog = ViewCatalog(views)
    rng = random.Random(f"certify:{seed}")
    sample = rng.sample(range(len(queries)), min(CERTIFIED_QUERIES, len(queries)))
    failures = 0
    for index in sample:
        query = parse_query(queries[index])
        for text in {answers[index][0], answers[index][-1]} if answers[index] else ():
            if not is_equivalent_rewriting(parse_query(text), query, catalog):
                failures += 1
    return failures


def main(argv: list[str]) -> int:
    source, target, index, count = argv
    spec = json.loads(Path(source).read_text())
    from repro.datalog.parser import parse_query
    from repro.planner import PlannerContext, plan
    from repro.views import ViewCatalog

    catalog = ViewCatalog(spec["views"])
    share = []
    for query in spec["queries"][int(index)::int(count)]:
        result = plan(
            parse_query(query),
            catalog,
            backend="corecover",
            cost_model=spec["cost_model"],
            context=PlannerContext(),
        )
        share.append(sorted({str(rewriting) for rewriting in result.rewritings}))
    Path(target).write_text(json.dumps(share))
    return 0


if __name__ == "__main__":
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    sys.exit(main(sys.argv[1:]))

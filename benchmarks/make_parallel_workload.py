"""Generate the CI parallel-smoke workload.

Writes a chain-shape view catalog (``views.dl``) and a 50-line NDJSON
request file (``requests.ndjson``) that all plan against that one
catalog, so a ``repro batch --workers 2`` smoke run exercises the
process pool *and* each worker's warm planner context and resident
catalog (every request after a worker's first replans on memos that
worker already holds).

Usage::

    python benchmarks/make_parallel_workload.py OUTDIR \
        [--num-views 120] [--requests 50] [--seed 23]
"""

import argparse
import json
import pathlib
import sys

from repro.workload import WorkloadConfig, workload_series

CHAIN_RELATIONS = 40


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("outdir", type=pathlib.Path)
    parser.add_argument("--num-views", type=int, default=120)
    parser.add_argument("--requests", type=int, default=50)
    parser.add_argument("--seed", type=int, default=23)
    args = parser.parse_args(argv)

    template = WorkloadConfig(
        shape="chain",
        num_relations=CHAIN_RELATIONS,
        num_views=args.num_views,
        nondistinguished=0,
        seed=args.seed,
    )
    workloads = list(workload_series(template, args.requests))

    args.outdir.mkdir(parents=True, exist_ok=True)
    views_path = args.outdir / "views.dl"
    # One shared catalog: every request fingerprints to the same warm
    # context.  workload_series varies the query, not the views.
    views_path.write_text(
        "\n".join(str(view.definition) for view in workloads[0].views) + "\n"
    )
    requests_path = args.outdir / "requests.ndjson"
    requests_path.write_text(
        "\n".join(
            json.dumps(
                {"id": f"q{i:03d}", "query": str(workload.query),
                 "timeout": 30.0}
            )
            for i, workload in enumerate(workloads)
        )
        + "\n"
    )
    print(f"wrote {views_path} ({args.num_views} views)")
    print(f"wrote {requests_path} ({args.requests} requests)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Audit: every taxonomy error reaches the CLI surface correctly.

For each documented exit code (65-79) a real command line triggers the
error, and the contract is checked end to end: the process exit code
matches the class's ``exit_code``, and the **last stderr line** is the
structured one-line JSON rendering (``error``/``exit_code``/``message``)
— under ``--format text`` and ``--format json`` alike for subcommands
that render their happy-path output in multiple formats.

The serve-tier codes (78 overload, 79 shutting down) are triggered
through a real in-process daemon: ``repro serve send`` reconstructs the
daemon's structured error response and exits with the same status a
local run would have.
"""

import json
import os
import subprocess
import sys
import time
from contextlib import ExitStack
from pathlib import Path

import pytest

from repro import ViewCatalog
from repro.cli import main
from repro.testing.faults import ExitFault, RaiseFault, StallFault, inject

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
QUERY = "q(X, Y) :- a(X, Z), a(Z, Z), b(Z, Y)"
VIEWS_TEXT = """
v1(A, B) :- a(A, B), a(B, B)
v2(C, D) :- a(C, E), b(C, D)
v3(A) :- a(A, A)
"""


@pytest.fixture()
def views_file(tmp_path):
    path = tmp_path / "views.dl"
    path.write_text(VIEWS_TEXT)
    return str(path)


def _request_file(tmp_path, *payloads):
    path = tmp_path / "requests.ndjson"
    path.write_text("\n".join(json.dumps(p) for p in payloads) + "\n")
    return str(path)


def _case_parse(tmp_path, views_file):
    return ["rewrite", "q(X :- a(X)", "--views", views_file], None


def _case_unsafe(tmp_path, views_file):
    requests = _request_file(tmp_path, {"query": "q(X) :- a(Y)"})
    return ["batch", requests, "--views", views_file], None


def _case_arity(tmp_path, views_file):
    requests = _request_file(tmp_path, {"query": "q(X) :- a(X), a(X, X)"})
    return ["batch", requests, "--views", views_file], None


def _case_unknown_view(tmp_path, views_file):
    requests = _request_file(tmp_path, {"query": QUERY, "views": ["nope"]})
    return ["batch", requests, "--views", views_file], None


def _case_budget(tmp_path, views_file):
    return [
        "rewrite", QUERY, "--views", views_file,
        "--timeout", "0", "--strict-budget",
    ], None


def _case_chain_config(tmp_path, views_file):
    requests = _request_file(tmp_path, {"query": QUERY})
    return [
        "batch", requests, "--views", views_file,
        "--chain", "corecover,inverse-rules",
    ], None


def _case_duplicate_view(tmp_path, views_file):
    dup = tmp_path / "dup.dl"
    dup.write_text("v1(A, B) :- a(A, B)\nv1(C, D) :- b(C, D)\n")
    return ["rewrite", QUERY, "--views", str(dup)], None


def _case_unsupported(tmp_path, views_file):
    return [
        "rewrite", "q(X) :- a(X, Y), X < Y", "--views", views_file,
    ], None


def _case_analysis(tmp_path, views_file):
    return ["lint", "q(X) :- a(Y)", "--views", views_file], None


def _case_retry_exhausted(tmp_path, views_file):
    requests = _request_file(tmp_path, {"query": QUERY})
    argv = [
        "batch", requests, "--views", views_file,
        "--chain", "corecover", "--max-attempts", "1",
    ]
    return argv, inject(RaiseFault("hom_search", times=None))


def _case_circuit_open(tmp_path, views_file):
    requests = _request_file(
        tmp_path, {"id": "b1", "query": QUERY}, {"id": "b2", "query": QUERY}
    )
    argv = [
        "batch", requests, "--views", views_file,
        "--chain", "corecover", "--max-attempts", "1",
        "--breaker-window", "1", "--breaker-threshold", "1.0",
        "--breaker-cooldown", "9999",
    ]
    return argv, inject(RaiseFault("hom_search", times=None))


def _case_worker_crash(tmp_path, views_file):
    # The active fault plan is fork-inherited by every pool worker, so
    # the worker SIGKILLs itself on its first task dispatch; the
    # supervisor sees it die mid-request and the batch's terminal
    # failure is the WorkerCrashError.
    requests = _request_file(tmp_path, {"id": "w1", "query": QUERY,
                                        "timeout": 0.2})
    argv = [
        "batch", requests, "--views", views_file,
        "--chain", "corecover", "--workers", "2", "--task-grace", "0.5",
    ]
    return argv, inject(ExitFault("worker_dispatch", times=None))


def _case_cache_corruption(tmp_path, views_file):
    requests = _request_file(tmp_path, {"query": QUERY})
    rogue = tmp_path / "not-a-directory"
    rogue.write_text("collision")
    return [
        "batch", requests, "--views", views_file, "--cache", str(rogue),
    ], None


def _serve_config(**overrides):
    from repro.parallel import SupervisorPolicy
    from repro.parallel.worker import WorkerConfig
    from repro.serve import ServeConfig
    from repro.service import ServicePolicy

    overrides.setdefault(
        "worker",
        WorkerConfig(policy=ServicePolicy(chain=("corecover",)), pool_size=2),
    )
    overrides.setdefault("supervisor", SupervisorPolicy(workers=1))
    return ServeConfig(**overrides)


def _serve_catalog():
    return ViewCatalog(
        line.strip() for line in VIEWS_TEXT.splitlines() if line.strip()
    )


def _serve_argv(handle, requests):
    _, host, port = handle.address
    return ["serve", "send", requests, "--host", host, "--port", str(port)]


def _case_overload(tmp_path, views_file):
    # The "noisy" tenant's rate override is zero: its very first
    # request sheds with OverloadError/78 and a retry hint.
    from repro.serve import AdmissionPolicy
    from repro.serve.testing import running_daemon

    requests = _request_file(
        tmp_path, {"id": "n1", "query": QUERY, "tenant": "noisy"}
    )
    stack = ExitStack()
    handle = stack.enter_context(
        running_daemon(
            _serve_config(
                admission=AdmissionPolicy(tenant_rates={"noisy": 0.0})
            ),
            catalog=_serve_catalog(),
        )
    )
    return _serve_argv(handle, requests), stack


def _case_shutting_down(tmp_path, views_file):
    # A stalled request (on a side connection) keeps the drain from
    # completing, so the daemon deterministically answers the post-drain
    # plan frame with ShuttingDownError/79 before it exits.
    from repro.serve.testing import running_daemon

    requests = _request_file(
        tmp_path, {"id": "d", "type": "drain"}, {"id": "l1", "query": QUERY}
    )
    stack = ExitStack()
    stack.enter_context(inject(StallFault("worker_dispatch", seconds=2.0)))
    handle = stack.enter_context(
        running_daemon(_serve_config(), catalog=_serve_catalog())
    )
    blocker = stack.enter_context(handle.client())
    blocker.send({"id": "blocker", "query": QUERY})
    limit = time.monotonic() + 30.0
    while time.monotonic() < limit:
        if handle.daemon.pool.busy_workers() == 1:
            break
        time.sleep(0.02)
    else:  # pragma: no cover - diagnostic only
        raise TimeoutError("blocker request never reached a worker")
    return _serve_argv(handle, requests), stack


def _case_catalog_corruption(tmp_path, views_file):
    # A state dir whose journal claims a content root the views cannot
    # reproduce: recovery quarantines the catalog, and the plan frame
    # naming it answers with CatalogCorruptionError/80 over the wire.
    from repro.serve.journal import JOURNAL_NAME, CatalogJournal
    from repro.serve.testing import running_daemon

    state = tmp_path / "state"
    state.mkdir()
    journal = CatalogJournal(state / JOURNAL_NAME)
    journal.append(
        {
            "op": "register",
            "name": "t-bad",
            "views": [
                line.strip()
                for line in VIEWS_TEXT.splitlines()
                if line.strip()
            ],
            "root": "0" * 64,
        }
    )
    journal.close()
    requests = _request_file(
        tmp_path, {"id": "c1", "query": QUERY, "catalog": "t-bad"}
    )
    stack = ExitStack()
    handle = stack.enter_context(
        running_daemon(_serve_config(state_dir=str(state)))
    )
    return _serve_argv(handle, requests), stack


CASES = [
    pytest.param(_case_parse, 65, "ParseError", id="65-parse"),
    pytest.param(_case_unsafe, 66, "UnsafeQueryError", id="66-unsafe"),
    pytest.param(_case_arity, 67, "ArityMismatchError", id="67-arity"),
    pytest.param(
        _case_unknown_view, 68, "UnknownViewError", id="68-unknown-view"
    ),
    pytest.param(_case_budget, 69, "BudgetExceededError", id="69-budget"),
    pytest.param(
        _case_chain_config, 70, "ChainConfigError", id="70-chain-config"
    ),
    pytest.param(
        _case_duplicate_view, 71, "DuplicateViewError", id="71-duplicate"
    ),
    pytest.param(
        _case_unsupported, 72, "UnsupportedQueryError", id="72-unsupported"
    ),
    pytest.param(_case_analysis, 73, "AnalysisError", id="73-analysis"),
    pytest.param(
        _case_retry_exhausted, 74, "RetryExhaustedError", id="74-retry"
    ),
    pytest.param(
        _case_circuit_open, 75, "CircuitOpenError", id="75-circuit-open"
    ),
    pytest.param(
        _case_cache_corruption, 76, "CacheCorruptionError", id="76-cache"
    ),
    pytest.param(
        _case_worker_crash, 77, "WorkerCrashError", id="77-worker-crash"
    ),
    pytest.param(_case_overload, 78, "OverloadError", id="78-overload"),
    pytest.param(
        _case_shutting_down, 79, "ShuttingDownError", id="79-shutting-down"
    ),
    pytest.param(
        _case_catalog_corruption,
        80,
        "CatalogCorruptionError",
        id="80-catalog-corruption",
    ),
]

#: Subcommands whose happy-path output has a --format flag; the error
#: contract must hold regardless of the chosen rendering.
_FORMATTED = {"batch", "lint", "serve"}


def _run(argv, fault_context, capsys):
    if fault_context is not None:
        with fault_context:
            code = main(argv)
    else:
        code = main(argv)
    return code, capsys.readouterr()


def _assert_structured_stderr(captured, exit_code, error_name):
    lines = [line for line in captured.err.splitlines() if line.strip()]
    assert lines, "expected a structured error line on stderr"
    payload = json.loads(lines[-1])
    assert payload["error"] == error_name
    assert payload["exit_code"] == exit_code
    assert payload["message"]


@pytest.mark.parametrize("case, exit_code, error_name", CASES)
def test_exit_code_and_structured_stderr(
    case, exit_code, error_name, tmp_path, views_file, capsys
):
    argv, fault_context = case(tmp_path, views_file)
    code, captured = _run(argv, fault_context, capsys)
    assert code == exit_code
    _assert_structured_stderr(captured, exit_code, error_name)


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("case, exit_code, error_name", CASES)
def test_contract_holds_under_both_formats(
    case, exit_code, error_name, fmt, tmp_path, views_file, capsys
):
    argv, fault_context = case(tmp_path, views_file)
    if argv[0] not in _FORMATTED:
        pytest.skip(f"{argv[0]} has a single output format")
    argv = [*argv, "--format", fmt]
    code, captured = _run(argv, fault_context, capsys)
    assert code == exit_code
    _assert_structured_stderr(captured, exit_code, error_name)


def test_every_taxonomy_exit_code_is_audited():
    """The audit table covers the documented code range with no gaps."""
    audited = sorted(code for _, code, _ in (p.values for p in CASES))
    assert audited == list(range(65, 81))


@pytest.mark.parametrize(
    "argv",
    [
        ["batch", "--max-attempts", "0"],
        ["batch", "--breaker-window", "0"],
        ["batch", "--breaker-threshold", "0"],
        ["batch", "--timeout", "-1"],
        ["serve", "run", "--port", "0", "--max-attempts", "0"],
        ["serve", "run", "--port", "0", "--timeout", "-1"],
    ],
    ids=lambda argv: f"{argv[0]} {argv[-2]}",
)
def test_out_of_range_settings_are_parse_errors(
    argv, tmp_path, views_file, capsys
):
    """A setting the service refuses ends in one structured line, exit
    65, before any request is read or any worker starts."""
    if argv[0] == "batch":
        requests = _request_file(tmp_path, {"query": QUERY})
        argv = ["batch", requests, "--views", views_file, *argv[1:]]
    code, captured = _run(argv, None, capsys)
    assert code == 65
    assert len([line for line in captured.err.splitlines() if line]) == 1
    _assert_structured_stderr(captured, 65, "ParseError")
    assert "ready" not in captured.out


def test_serve_run_refuses_an_empty_catalog_lru_before_ready():
    """``--pool-size 0`` would leave workers no room for a catalog; the
    daemon refuses it instead of printing its ready line.  The timeout
    turns a daemon that starts anyway into a failure, not a hang."""
    proc = subprocess.run(
        [
            sys.executable, "-m", "repro", "serve", "run",
            "--host", "127.0.0.1", "--port", "0", "--workers", "1",
            "--pool-size", "0",
        ],
        env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode == 65, proc.stderr
    assert '"ready"' not in proc.stdout
    payload = json.loads(proc.stderr.strip().splitlines()[-1])
    assert payload["error"] == "ParseError"
    assert "pool_size" in payload["message"]

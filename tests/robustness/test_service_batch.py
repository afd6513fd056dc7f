"""The ``repro batch`` and ``repro faults`` CLI surface.

Batch contract: NDJSON in, one JSON outcome per line out (same order),
summary on stderr, and a process exit code that reflects the batch's
final failure mode through the error taxonomy.
"""

import json

import pytest

from repro import ParseError, ResourceBudget, UnknownViewError, ViewCatalog
from repro.cli import main
from repro.errors import UnsafeQueryError
from repro.service import parse_request_line, parse_requests
from repro.testing.faults import INJECTION_POINTS, RaiseFault, inject

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


def write_requests(tmp_path, lines):
    path = tmp_path / "requests.ndjson"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def outcome_lines(capsys):
    captured = capsys.readouterr()
    return [json.loads(line) for line in captured.out.splitlines()], captured


class TestRequestParsing:
    @pytest.fixture()
    def catalog(self):
        return ViewCatalog(
            line.strip() for line in VIEWS_TEXT.strip().splitlines()
        )

    def test_minimal_line(self, catalog):
        request = parse_request_line(
            json.dumps({"query": QUERY}), catalog, number=7
        )
        assert request.id == "7"  # defaults to the line number
        assert request.budget is None
        assert len(request.views) == len(catalog)

    def test_views_subset_and_timeout(self, catalog):
        request = parse_request_line(
            json.dumps(
                {"id": "r1", "query": QUERY, "views": ["v1"], "timeout": 0.5}
            ),
            catalog,
            number=1,
        )
        assert request.id == "r1"
        assert [view.name for view in request.views] == ["v1"]
        assert request.budget.deadline_seconds == 0.5

    def test_timeout_overrides_the_default_budget(self, catalog):
        request = parse_request_line(
            json.dumps({"query": QUERY, "timeout": 0.25}),
            catalog,
            number=1,
            default_budget=ResourceBudget(
                deadline_seconds=9.0, max_hom_searches=100
            ),
        )
        assert request.budget.deadline_seconds == 0.25
        assert request.budget.max_hom_searches == 100  # preserved

    def test_non_numeric_timeout_is_a_typed_intake_error(self, catalog):
        """A bad timeout must surface as ParseError (exit 65), not as a
        bare TypeError/ValueError escaping the taxonomy."""
        with pytest.raises(ParseError) as excinfo:
            parse_request_line(
                json.dumps({"query": QUERY, "timeout": "fast"}),
                catalog,
                number=4,
            )
        assert "request line 4" in str(excinfo.value)
        assert '"timeout" must be a number' in str(excinfo.value)
        with pytest.raises(ParseError):
            parse_request_line(
                json.dumps({"query": QUERY, "timeout": [1]}),
                catalog,
                number=5,
            )

    def test_unknown_view_name_fails_fast(self, catalog):
        with pytest.raises(UnknownViewError):
            parse_request_line(
                json.dumps({"query": QUERY, "views": ["nope"]}),
                catalog,
                number=1,
            )

    def test_unsafe_query_rejected_at_intake(self, catalog):
        with pytest.raises(UnsafeQueryError) as excinfo:
            parse_request_line(
                json.dumps({"query": "q(X) :- a(Y)"}), catalog, number=3
            )
        assert "request line 3" in str(excinfo.value)

    def test_invalid_json_names_the_line(self, catalog):
        with pytest.raises(ParseError) as excinfo:
            parse_request_line("{not json", catalog, number=2)
        assert "request line 2" in str(excinfo.value)

    def test_blank_lines_are_skipped_but_still_numbered(self, catalog):
        requests = list(
            parse_requests(
                ["", json.dumps({"query": QUERY}), "   "], catalog
            )
        )
        assert [request.id for request in requests] == ["2"]


class TestBatchCommand:
    def test_ndjson_out_matches_requests_in_order(
        self, tmp_path, views_file, capsys
    ):
        requests = write_requests(
            tmp_path,
            [
                json.dumps({"id": "first", "query": QUERY}),
                json.dumps({"id": "second", "query": QUERY}),
            ],
        )
        code = main(["batch", requests, "--views", views_file])
        outcomes, captured = outcome_lines(capsys)
        assert code == 0
        assert [o["id"] for o in outcomes] == ["first", "second"]
        assert all(o["status"] == "ok" for o in outcomes)
        assert all(o["backend_used"] == "corecover" for o in outcomes)
        assert outcomes[0]["rewritings"] == [
            "q(X, Y) :- v1(X, Z), v2(Z, Y)"
        ]
        assert "batch: 2 ok, 0 degraded, 0 failed" in captured.err

    def test_serial_batch_replans_a_repeated_request_warm(
        self, tmp_path, views_file, capsys
    ):
        # Serial batch plans every request on the executor's one context,
        # as a pool worker does, so a repeat needs no homomorphism search.
        line = json.dumps({"query": QUERY})
        requests = write_requests(tmp_path, [line, line])
        code = main(["batch", requests, "--views", views_file, "--profile"])
        outcomes, _ = outcome_lines(capsys)
        assert code == 0
        searches = [o["profile"]["search"]["hom_searches"] for o in outcomes]
        assert searches[0] > 0
        assert searches[1] == 0
        assert outcomes[1]["rewritings"] == outcomes[0]["rewritings"]

    def test_text_format(self, tmp_path, views_file, capsys):
        requests = write_requests(
            tmp_path, [json.dumps({"id": "t1", "query": QUERY})]
        )
        code = main(
            ["batch", requests, "--views", views_file, "--format", "text"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "t1: ok backend=corecover attempts=1" in captured.out
        assert "v1(X, Z), v2(Z, Y)" in captured.out

    def test_stdin_requests(self, views_file, capsys, monkeypatch):
        import io

        monkeypatch.setattr(
            "sys.stdin", io.StringIO(json.dumps({"query": QUERY}) + "\n")
        )
        code = main(["batch", "-", "--views", views_file])
        outcomes, _ = outcome_lines(capsys)
        assert code == 0
        assert outcomes[0]["status"] == "ok"

    def test_cache_hits_on_the_second_run(self, tmp_path, views_file, capsys):
        requests = write_requests(
            tmp_path, [json.dumps({"id": "c1", "query": QUERY})]
        )
        cache_dir = str(tmp_path / "plans")
        argv = [
            "batch", requests, "--views", views_file, "--cache", cache_dir
        ]
        assert main(argv) == 0
        first, _ = outcome_lines(capsys)
        assert first[0]["cache"] == "miss"
        assert main(argv) == 0
        second, _ = outcome_lines(capsys)
        assert second[0]["cache"] == "hit"
        assert second[0]["attempts"] == 0
        # Hits carry the cached entry's own plan status — only complete
        # results are ever cached.
        assert second[0]["plan_status"] == "complete"

    def test_all_backends_faulted_exits_74(self, tmp_path, views_file, capsys):
        requests = write_requests(
            tmp_path, [json.dumps({"id": "f1", "query": QUERY})]
        )
        with inject(RaiseFault("hom_search", times=None)):
            code = main(
                [
                    "batch", requests, "--views", views_file,
                    "--chain", "corecover", "--max-attempts", "1",
                ]
            )
        outcomes, captured = outcome_lines(capsys)
        assert code == 74
        assert outcomes[0]["status"] == "failed"
        assert outcomes[0]["error"]["error"] == "RetryExhaustedError"
        # The structured one-liner also lands on stderr via main().
        assert '"exit_code": 74' in captured.err

    def test_breaker_open_mid_batch_exits_75(
        self, tmp_path, views_file, capsys
    ):
        """Request 1 trips the breaker; request 2 finds it open.  The
        exit code reflects the *final* failure mode: back off."""
        requests = write_requests(
            tmp_path,
            [
                json.dumps({"id": "b1", "query": QUERY}),
                json.dumps({"id": "b2", "query": QUERY}),
            ],
        )
        with inject(RaiseFault("hom_search", times=None)):
            code = main(
                [
                    "batch", requests, "--views", views_file,
                    "--chain", "corecover", "--max-attempts", "1",
                    "--breaker-window", "1", "--breaker-threshold", "1.0",
                    "--breaker-cooldown", "9999",
                ]
            )
        outcomes, _ = outcome_lines(capsys)
        assert code == 75
        assert outcomes[0]["error"]["error"] == "RetryExhaustedError"
        assert outcomes[1]["error"]["error"] == "CircuitOpenError"
        assert outcomes[1]["attempts"] == 0
        assert outcomes[1]["breakers"]["corecover"] == "open"

    def test_stale_cache_degraded_serving_exits_zero(
        self, tmp_path, views_file, capsys
    ):
        """Acceptance: all backends down + past-TTL cache entry ->
        ``degraded: true`` outcome, successful exit."""
        requests = write_requests(
            tmp_path, [json.dumps({"id": "d1", "query": QUERY})]
        )
        cache_dir = str(tmp_path / "plans")
        argv = [
            "batch", requests, "--views", views_file,
            "--cache", cache_dir, "--cache-ttl", "0",
            "--chain", "corecover", "--max-attempts", "1",
        ]
        assert main(argv) == 0  # warm the cache
        capsys.readouterr()
        with inject(RaiseFault("hom_search", times=None)):
            code = main(argv)
        outcomes, captured = outcome_lines(capsys)
        assert code == 0
        assert outcomes[0]["status"] == "degraded"
        assert outcomes[0]["degraded"] is True
        assert outcomes[0]["cache"] == "stale"
        assert outcomes[0]["rewritings"]
        assert "batch: 0 ok, 1 degraded, 0 failed" in captured.err

    def test_intake_error_aborts_with_taxonomy_exit(
        self, tmp_path, views_file, capsys
    ):
        requests = write_requests(tmp_path, ['{"query": "q(X :- a(X)"}'])
        code = main(["batch", requests, "--views", views_file])
        captured = capsys.readouterr()
        assert code == 65
        error = json.loads(captured.err.splitlines()[-1])
        assert error["error"] == "ParseError"
        assert "request line 1" in error["message"]


class TestFaultsCommand:
    def test_list_text(self, capsys):
        assert main(["faults", "list"]) == 0
        out = capsys.readouterr().out
        for point in INJECTION_POINTS:
            assert point in out

    def test_list_json_matches_the_registry(self, capsys):
        assert main(["faults", "list", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        points = [
            entry["point"] for entry in payload["injection_points"]
        ]
        assert tuple(points) == INJECTION_POINTS
        assert all(
            entry["description"] for entry in payload["injection_points"]
        )

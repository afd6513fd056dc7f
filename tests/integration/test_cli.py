"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


@pytest.fixture()
def clp_files(tmp_path):
    views = tmp_path / "views.dl"
    views.write_text(
        """
        # car-loc-part views
        v1(M, D, C) :- car(M, D), loc(D, C)
        v2(S, M, C) :- part(S, M, C)
        v3(S) :- car(M, a), loc(a, C), part(S, M, C)
        v4(M, D, C, S) :- car(M, D), loc(D, C), part(S, M, C)
        v5(M, D, C) :- car(M, D), loc(D, C)
        """
    )
    data = tmp_path / "db.json"
    data.write_text(
        json.dumps(
            {
                "car": [["m1", "a"], ["m2", "a"], ["m1", "d1"]],
                "loc": [["a", "c1"], ["a", "c2"], ["d1", "c1"]],
                "part": [["s1", "m1", "c1"], ["s2", "m2", "c2"]],
            }
        )
    )
    query = "q1(S, C) :- car(M, a), loc(a, C), part(S, M, C)"
    return query, str(views), str(data)


class TestRewrite:
    def test_corecover(self, clp_files, capsys):
        query, views, _data = clp_files
        assert main(["rewrite", query, "--views", views]) == 0
        out = capsys.readouterr().out
        assert "v4(M, a, C, S)" in out

    def test_corecover_star_verbose(self, clp_files, capsys):
        query, views, _data = clp_files
        code = main(
            ["rewrite", query, "--views", views,
             "--backend", "corecover-star", "--verbose"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "filter candidates" in out
        assert "v3(S)" in out

    def test_baseline_algorithms(self, clp_files, capsys):
        query, views, _data = clp_files
        for algorithm in ("naive", "minicon", "bucket"):
            assert main(
                ["rewrite", query, "--views", views, "--backend", algorithm]
            ) == 0

    def test_no_rewriting_exit_code(self, tmp_path, capsys):
        views = tmp_path / "views.dl"
        views.write_text("v(A) :- e(A, A)\n")
        code = main(["rewrite", "q(X, Y) :- e(X, Y)", "--views", str(views)])
        assert code == 1
        assert "no equivalent rewriting" in capsys.readouterr().out

    def test_query_from_file(self, clp_files, tmp_path, capsys):
        query, views, _data = clp_files
        query_file = tmp_path / "q.dl"
        query_file.write_text(query + "\n")
        assert main(["rewrite", f"@{query_file}", "--views", views]) == 0


class TestOptimize:
    def test_m1(self, clp_files, capsys):
        query, views, data = clp_files
        assert main(
            ["optimize", query, "--views", views, "--data", data,
             "--cost-model", "m1"]
        ) == 0
        assert "M1-optimal" in capsys.readouterr().out

    def test_m2_with_filters(self, clp_files, capsys):
        query, views, data = clp_files
        code = main(
            ["optimize", query, "--views", views, "--data", data,
             "--cost-model", "m2", "--filters"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "M2-optimal" in out
        assert "matches" in out

    def test_m3(self, clp_files, capsys):
        query, views, data = clp_files
        code = main(
            ["optimize", query, "--views", views, "--data", data,
             "--cost-model", "m3", "--annotator", "heuristic"]
        )
        assert code == 0
        assert "M3-optimal" in capsys.readouterr().out


class TestFigures:
    def test_delegates_to_experiments(self, capsys):
        assert main(["figures", "fig9b", "--queries", "1"]) == 0
        assert "fig9b" in capsys.readouterr().out

"""Tests for job-file IO (`repro.service.batch_io`) and `repro serve-batch`."""

import json

import pytest

from repro.cli import main
from repro.core import Fact
from repro.exceptions import ReproError
from repro.io import prioritizing_to_dict, save_prioritizing_instance
from repro.service import RepairService, ServiceConfig
from repro.service.batch_io import (
    candidate_from_spec,
    load_batch_file,
    load_problem_from_csv_spec,
    write_metrics_json,
    write_results_jsonl,
)


@pytest.fixture
def problem_file(simple_problem, tmp_path):
    prioritizing, _, _ = simple_problem
    path = tmp_path / "problem.json"
    save_prioritizing_instance(prioritizing, path)
    return path


class TestCandidateFromSpec:
    def test_indices_resolve_in_canonical_order(self, simple_problem):
        prioritizing, _, _ = simple_problem
        candidate = candidate_from_spec(prioritizing, [0])
        assert len(candidate.facts) == 1

    def test_fact_dicts_resolve(self, simple_problem):
        prioritizing, _, _ = simple_problem
        candidate = candidate_from_spec(
            prioritizing, [{"relation": "R", "values": [1, "a"]}]
        )
        assert Fact("R", (1, "a")) in candidate.facts

    def test_bad_index_rejected(self, simple_problem):
        prioritizing, _, _ = simple_problem
        with pytest.raises(ReproError, match="out of range"):
            candidate_from_spec(prioritizing, [99])

    def test_bool_entry_rejected(self, simple_problem):
        prioritizing, _, _ = simple_problem
        with pytest.raises(ReproError, match="bad candidate entry"):
            candidate_from_spec(prioritizing, [True])

    def test_malformed_fact_rejected(self, simple_problem):
        prioritizing, _, _ = simple_problem
        with pytest.raises(ReproError, match="malformed candidate fact"):
            candidate_from_spec(prioritizing, [{"relation": "R"}])


class TestJsonJobFiles:
    def test_inline_problem_and_defaults(self, simple_problem, tmp_path):
        prioritizing, _, _ = simple_problem
        document = {
            "problem": prioritizing_to_dict(prioritizing),
            "defaults": {"semantics": "pareto", "budget": 123},
            "jobs": [
                {"id": "j1", "candidate": [0], "priority": 7},
                {"id": "j2", "candidate": [1], "semantics": "global"},
            ],
        }
        path = tmp_path / "batch.json"
        path.write_text(json.dumps(document))
        loaded, jobs = load_batch_file(path)
        assert loaded.instance == prioritizing.instance
        assert [job.job_id for job in jobs] == ["j1", "j2"]
        assert jobs[0].semantics == "pareto"  # default applied
        assert jobs[0].priority == 7
        assert jobs[0].node_budget == 123
        assert jobs[1].semantics == "global"  # per-job override wins

    def test_problem_path_resolved_relative(self, problem_file, tmp_path):
        document = {
            "problem": "problem.json",
            "jobs": [{"id": "j1", "candidate": [0]}],
        }
        path = tmp_path / "batch.json"
        path.write_text(json.dumps(document))
        prioritizing, jobs = load_batch_file(path)
        assert len(jobs) == 1
        assert len(prioritizing.instance.facts) == 2

    def test_missing_problem_rejected(self, tmp_path):
        path = tmp_path / "batch.json"
        path.write_text(json.dumps({"jobs": [{"candidate": [0]}]}))
        with pytest.raises(ReproError, match="problem"):
            load_batch_file(path)

    def test_both_problem_and_csv_rejected(self, tmp_path):
        path = tmp_path / "batch.json"
        path.write_text(
            json.dumps({"problem": "p.json", "csv": {}, "jobs": []})
        )
        with pytest.raises(ReproError, match="pick one"):
            load_batch_file(path)

    def test_job_without_candidate_rejected(self, simple_problem, tmp_path):
        prioritizing, _, _ = simple_problem
        path = tmp_path / "batch.json"
        path.write_text(json.dumps({"jobs": [{"id": "j1"}]}))
        with pytest.raises(ReproError, match="no 'candidate'"):
            load_batch_file(path, prioritizing)


def _without_instance(problem):
    return {"schema": problem["schema"]}


def _with_list_values(problem):
    return dict(problem, instance=[{"relation": "R", "values": [[1], "a"]}])


_DEEP = "[" * 100_000 + "]" * 100_000


class TestMalformedJobFiles:
    """A bad job file raises only ReproError, whatever is wrong with it."""

    @pytest.mark.parametrize(
        "content, match",
        [
            (b"not json", "batch.json"),
            (b"\xff\xfe{", "batch.json"),
            (b"[1]", "batch.json"),
            (b'{"jobs": ' + _DEEP.encode() + b"}", "batch.json"),
            (b'{"problem": "nope.json", "jobs": []}', "nope.json"),
            (b'{"csv": 5, "jobs": []}', "csv problem spec"),
        ],
        ids=[
            "not-json",
            "not-utf8",
            "top-level-list",
            "deep-nesting",
            "missing-problem-file",
            "csv-spec-not-object",
        ],
    )
    def test_unreadable_file(self, tmp_path, content, match):
        path = tmp_path / "batch.json"
        path.write_bytes(content)
        with pytest.raises(ReproError, match=match):
            load_batch_file(path)

    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda d: dict(d, problem=_without_instance(d["problem"])),
             "'instance'"),
            (lambda d: dict(d, problem=_with_list_values(d["problem"])),
             "unhashable"),
            (lambda d: dict(d, jobs=5), "'jobs' a list"),
            (lambda d: dict(d, defaults=[]), "'defaults' must be"),
            (lambda d: dict(d, jobs=[5]), "not an object"),
            (lambda d: dict(d, jobs=[{"candidate": 0}]), "must be a list"),
            (lambda d: dict(d, jobs=[{"candidate": [0], "priority": "x"}]),
             "bad priority"),
        ],
        ids=[
            "problem-without-instance",
            "unhashable-fact-values",
            "jobs-not-a-list",
            "defaults-not-an-object",
            "job-not-an-object",
            "candidate-not-a-list",
            "priority-not-an-int",
        ],
    )
    def test_malformed_document(self, simple_problem, tmp_path, edit, match):
        prioritizing, _, _ = simple_problem
        document = {
            "problem": prioritizing_to_dict(prioritizing),
            "jobs": [{"candidate": [0]}],
        }
        path = tmp_path / "batch.json"
        path.write_text(json.dumps(edit(document)))
        with pytest.raises(ReproError, match=match):
            load_batch_file(path)

    @pytest.mark.parametrize(
        "content, match",
        [
            (b"id,candidate\nj1,x\n", "row #0"),
            (b"id,candidate,timeout\nj1,0,soon\n", "row #0"),
            (b"\xff\xfe,\n", "batch.csv"),
        ],
        ids=["bad-index", "bad-timeout", "not-utf8"],
    )
    def test_malformed_csv(self, simple_problem, tmp_path, content, match):
        prioritizing, _, _ = simple_problem
        path = tmp_path / "batch.csv"
        path.write_bytes(content)
        with pytest.raises(ReproError, match=match):
            load_batch_file(path, prioritizing)

    def test_missing_csv_file(self, simple_problem, tmp_path):
        prioritizing, _, _ = simple_problem
        with pytest.raises(ReproError, match="absent.csv"):
            load_batch_file(tmp_path / "absent.csv", prioritizing)


class TestCsvJobFiles:
    def test_rows_become_jobs(self, simple_problem, tmp_path):
        prioritizing, _, _ = simple_problem
        path = tmp_path / "batch.csv"
        path.write_text(
            "id,candidate,semantics,method,priority,timeout,budget\n"
            "j1,0,global,auto,5,,\n"
            "j2,1,pareto,,0,2.5,50000\n"
        )
        _, jobs = load_batch_file(path, prioritizing)
        assert [job.job_id for job in jobs] == ["j1", "j2"]
        assert jobs[0].priority == 5
        assert jobs[0].timeout is None
        assert jobs[1].semantics == "pareto"
        assert jobs[1].timeout == 2.5
        assert jobs[1].node_budget == 50000

    def test_requires_problem(self, tmp_path):
        path = tmp_path / "batch.csv"
        path.write_text("id,candidate\nj1,0\n")
        with pytest.raises(ReproError, match="problem"):
            load_batch_file(path)

    def test_missing_columns_rejected(self, simple_problem, tmp_path):
        prioritizing, _, _ = simple_problem
        path = tmp_path / "batch.csv"
        path.write_text("id,semantics\nj1,global\n")
        with pytest.raises(ReproError, match="candidate"):
            load_batch_file(path, prioritizing)


class TestCsvProblemSpec:
    def test_tagged_sources_build_priority(self, tmp_path):
        (tmp_path / "curated.csv").write_text("a,b\n1,x\n2,y\n")
        (tmp_path / "scraped.csv").write_text("a,b\n1,z\n")
        prioritizing = load_problem_from_csv_spec(
            {
                "schema": "R:2; 1 -> 2",
                "relation": "R",
                "sources": ["curated.csv", "scraped.csv"],
            },
            tmp_path,
        )
        assert len(prioritizing.instance.facts) == 3
        # The curated fact outranks the scraped conflicting one.
        assert len(prioritizing.priority) == 1

    def test_missing_key_rejected(self):
        with pytest.raises(ReproError, match="missing"):
            load_problem_from_csv_spec({"schema": "R:2"})


class TestResultWriters:
    def test_jsonl_and_metrics_roundtrip(self, simple_problem, tmp_path):
        prioritizing, optimal, non_optimal = simple_problem
        from repro.service import RepairJob

        service = RepairService(ServiceConfig(executor="serial"))
        report = service.run_batch(
            [
                RepairJob("j1", prioritizing, optimal),
                RepairJob("j2", prioritizing, non_optimal),
            ]
        )
        out = tmp_path / "results.jsonl"
        metrics_out = tmp_path / "metrics.json"
        write_results_jsonl(report, out)
        write_metrics_json(report, metrics_out)
        lines = [
            json.loads(line) for line in out.read_text().splitlines()
        ]
        assert [line["job_id"] for line in lines] == ["j1", "j2"]
        assert lines[0]["status"] == "ok"
        metrics = json.loads(metrics_out.read_text())
        assert metrics["counters"]["jobs.ok"] == 2
        assert "result_cache" in metrics


class TestServeBatchCli:
    def jobs_json(self, prioritizing, tmp_path, extra=()):
        document = {
            "problem": prioritizing_to_dict(prioritizing),
            "jobs": [
                {"id": "j1", "candidate": [0]},
                {"id": "j2", "candidate": [1]},
                *extra,
            ],
        }
        path = tmp_path / "jobs.json"
        path.write_text(json.dumps(document))
        return path

    def test_end_to_end(self, simple_problem, tmp_path, capsys):
        prioritizing, _, _ = simple_problem
        jobs_path = self.jobs_json(prioritizing, tmp_path)
        out = tmp_path / "results.jsonl"
        metrics_out = tmp_path / "metrics.json"
        exit_code = main(
            [
                "serve-batch",
                str(jobs_path),
                "--executor",
                "serial",
                "--out",
                str(out),
                "--metrics-out",
                str(metrics_out),
            ]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "ok" in captured
        assert "counters:" in captured
        results = [
            json.loads(line) for line in out.read_text().splitlines()
        ]
        assert {entry["job_id"] for entry in results} == {"j1", "j2"}
        assert json.loads(metrics_out.read_text())["counters"]["jobs.ok"] == 2

    def test_csv_jobs_with_problem_flag(
        self, simple_problem, problem_file, tmp_path, capsys
    ):
        jobs_path = tmp_path / "jobs.csv"
        jobs_path.write_text("id,candidate\nj1,0\nj2,0;1\n")
        exit_code = main(
            [
                "serve-batch",
                str(jobs_path),
                "--problem",
                str(problem_file),
                "--executor",
                "serial",
            ]
        )
        assert exit_code == 0
        assert "jobs" in capsys.readouterr().out

    def test_exit_code_one_on_job_error(
        self, simple_problem, tmp_path, capsys
    ):
        prioritizing, _, _ = simple_problem
        jobs_path = self.jobs_json(
            prioritizing,
            tmp_path,
            extra=[
                {
                    "id": "bad",
                    "candidate": [
                        {"relation": "R", "values": [99, "zz"]}
                    ],
                }
            ],
        )
        exit_code = main(
            ["serve-batch", str(jobs_path), "--executor", "serial"]
        )
        assert exit_code == 1
        assert "error" in capsys.readouterr().out

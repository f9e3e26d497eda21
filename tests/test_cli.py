"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import main, parse_schema_spec
from repro.exceptions import ReproError, UsageError


class TestSchemaSpecParser:
    def test_single_relation_with_implicit_prefix(self):
        schema = parse_schema_spec("R:3; 1 -> 2; 2 -> 3")
        assert schema.signature.arity("R") == 3
        assert len(schema.fds) == 2

    def test_multi_relation(self):
        schema = parse_schema_spec("R:2, S:2; R: 1 -> 2; S: {} -> 1")
        assert sorted(schema.relation_names()) == ["R", "S"]

    def test_no_fds(self):
        schema = parse_schema_spec("R:2")
        assert len(schema.fds) == 0

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError):
            parse_schema_spec("  ")


class TestCommands:
    def test_classify_tractable(self, capsys):
        assert main(["classify", "R:2; 1 -> 2"]) == 0
        out = capsys.readouterr().out
        assert "PTIME" in out

    def test_classify_hard(self, capsys):
        assert main(["classify", "R:3; 1 -> 2; 2 -> 3"]) == 0
        out = capsys.readouterr().out
        assert "coNP-complete" in out

    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "J3: globally-optimal=False pareto-optimal=True" in out

    def test_gadget_hamiltonian(self, capsys):
        code = main(
            ["gadget", "--nodes", "3", "--edges", "0,1", "1,2", "0,2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "reduction agrees: True" in out
        assert "extracted cycle" in out

    def test_gadget_non_hamiltonian(self, capsys):
        assert main(["gadget", "--nodes", "3", "--edges", "0,1", "1,2"]) == 0
        out = capsys.readouterr().out
        assert "Held-Karp says Hamiltonian: False" in out
        assert "J globally-optimal: True" in out

    def test_hard_schemas(self, capsys):
        assert main(["hard-schemas"]) == 0
        out = capsys.readouterr().out
        assert out.count(": tractable=False") == 6
        assert out.count("ccp-tractable=False") == 4


class TestWorkloadCommand:
    def test_generate_then_check_clean(self, capsys, tmp_path):
        out = tmp_path / "clean"
        assert main(
            ["workload", "generate", "--sf", "0.002", "--seed", "4",
             "--out", str(out)]
        ) == 0
        assert (out / "lineitem.tbl").exists()
        capsys.readouterr()
        assert main(["workload", "check", str(out)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["consistent"] is True and report["ok"] is True
        assert report["manifest"] is None

    def test_inject_check_repair_roundtrip(self, capsys, tmp_path):
        out = tmp_path / "injected"
        assert main(
            ["workload", "inject", "--sf", "0.002", "--seed", "4",
             "--rate", "0.05", "--out", str(out)]
        ) == 0
        inject_report = json.loads(capsys.readouterr().out)
        assert inject_report["injected_conflicts"] > 0
        assert (out / "manifest.json").exists()
        assert main(["workload", "check", str(out)]) == 0
        check_report = json.loads(capsys.readouterr().out)
        assert check_report["consistent"] is False
        assert check_report["manifest"]["pairs_match_manifest"] is True
        assert main(["workload", "repair", str(out)]) == 0
        repair_report = json.loads(capsys.readouterr().out)
        assert repair_report["certified_optimal"] is True
        assert repair_report["repair_is_all_trusted"] is True

    def test_check_names_the_malformed_table_line(self, capsys, tmp_path):
        out = tmp_path / "clean"
        assert main(
            ["workload", "generate", "--sf", "0.002", "--seed", "4",
             "--out", str(out)]
        ) == 0
        capsys.readouterr()
        region = out / "region.tbl"
        region.write_bytes(region.read_bytes() + b"9|\xff|x|\n")
        lines = region.read_bytes().count(b"\n")
        with pytest.raises(UsageError, match=f"region.tbl:{lines}: not valid"):
            main(["workload", "check", str(out)])

    def test_check_refuses_a_store_of_another_layout(self, capsys,
                                                     tmp_path):
        import sqlite3

        out = tmp_path / "clean"
        assert main(
            ["workload", "generate", "--sf", "0.002", "--seed", "4",
             "--out", str(out)]
        ) == 0
        capsys.readouterr()
        store = tmp_path / "old.sqlite"
        connection = sqlite3.connect(store)
        connection.execute("CREATE TABLE t_region (skey TEXT, c1 TEXT)")
        connection.close()
        with pytest.raises(ReproError, match="old.sqlite"):
            main(["workload", "check", str(out), "--store", str(store)])

    def test_e2e_writes_json_report(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        assert main(
            ["workload", "e2e", "--sf", "0.002", "--seed", "4",
             "--rate", "0.05", "--json", str(report_path)]
        ) == 0
        capsys.readouterr()
        report = json.loads(report_path.read_text())
        assert report["ok"] is True
        assert report["manifest"]["pairs_match_manifest"] is True
        assert report["repair_is_all_trusted"] is True

    def test_repair_requires_manifest(self, tmp_path, capsys):
        out = tmp_path / "clean"
        assert main(
            ["workload", "generate", "--sf", "0.002", "--out", str(out)]
        ) == 0
        capsys.readouterr()
        with pytest.raises(UsageError):
            main(["workload", "repair", str(out)])

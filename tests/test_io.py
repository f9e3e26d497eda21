"""Unit tests for JSON serialization."""

import json

import pytest

from repro.core import Fact, PrioritizingInstance, PriorityRelation, Schema
from repro.exceptions import CyclicPriorityError, ReproError, UsageError
from repro.io import (
    instance_from_list,
    instance_to_list,
    load_prioritizing_instance,
    load_schema,
    prioritizing_from_dict,
    prioritizing_to_dict,
    save_prioritizing_instance,
    save_schema,
    schema_from_dict,
    schema_to_dict,
)
from repro.workloads.generators import random_instance_with_conflicts
from repro.workloads.priorities import random_prioritizing_instance
from repro.workloads.scenarios import running_example


class TestSchemaRoundTrip:
    def test_simple(self):
        schema = Schema.single_relation(["1 -> 2", "2 -> 1"], arity=2)
        assert schema_from_dict(schema_to_dict(schema)) == schema

    def test_with_attribute_names_and_multi_relation(self, running):
        schema = running.schema
        restored = schema_from_dict(schema_to_dict(schema))
        assert restored == schema
        assert restored.relation("BookLoc").attribute_names == (
            "isbn",
            "genre",
            "lib",
        )

    def test_empty_lhs_fd(self):
        schema = Schema.single_relation(["{} -> 1"], arity=2)
        assert schema_from_dict(schema_to_dict(schema)) == schema

    def test_malformed_rejected(self):
        with pytest.raises(ReproError):
            schema_from_dict({"relations": [{"name": "R"}]})

    def test_json_stable(self):
        schema = Schema.single_relation(["1 -> 2"], arity=2)
        a = json.dumps(schema_to_dict(schema), sort_keys=True)
        b = json.dumps(schema_to_dict(schema), sort_keys=True)
        assert a == b


class TestInstanceRoundTrip:
    def test_values_preserved(self):
        schema = Schema.single_relation([], relation="R", arity=3)
        instance = schema.instance(
            [Fact("R", (1, "x", None)), Fact("R", (2.5, True, "y"))]
        )
        restored = instance_from_list(schema, instance_to_list(instance))
        assert restored == instance

    def test_non_scalar_values_rejected(self):
        schema = Schema.single_relation([], relation="R", arity=1)
        instance = schema.instance([Fact("R", ((1, 2),))])
        with pytest.raises(ReproError):
            instance_to_list(instance)

    def test_malformed_rejected(self):
        schema = Schema.single_relation([], relation="R", arity=1)
        with pytest.raises(ReproError):
            instance_from_list(schema, [{"relation": "R"}])


class TestPrioritizingRoundTrip:
    def test_running_example(self, running):
        document = prioritizing_to_dict(running.prioritizing)
        restored = prioritizing_from_dict(document)
        assert restored.instance == running.prioritizing.instance
        assert restored.priority == running.prioritizing.priority
        assert restored.schema == running.schema
        assert not restored.is_ccp

    @pytest.mark.parametrize("ccp", [False, True])
    def test_random_instances(self, ccp):
        schema = Schema.single_relation(["1 -> 2"], arity=2)
        instance = random_instance_with_conflicts(schema, 15, 0.6, seed=4)
        pri = random_prioritizing_instance(schema, instance, seed=4, ccp=ccp)
        restored = prioritizing_from_dict(prioritizing_to_dict(pri))
        assert restored.instance == pri.instance
        assert restored.priority == pri.priority
        assert restored.is_ccp == ccp

    def test_validation_runs_on_load(self):
        """A tampered document with a priority cycle is rejected."""
        schema = Schema.single_relation(["1 -> 2"], arity=2)
        a, b = Fact("R", (1, "a")), Fact("R", (1, "b"))
        pri = PrioritizingInstance(
            schema, schema.instance([a, b]), PriorityRelation([(a, b)])
        )
        document = prioritizing_to_dict(pri)
        document["priority"].append(
            {
                "better": document["priority"][0]["worse"],
                "worse": document["priority"][0]["better"],
            }
        )
        with pytest.raises(CyclicPriorityError):
            prioritizing_from_dict(document)

    def test_bad_indices_rejected(self):
        schema = Schema.single_relation(["1 -> 2"], arity=2)
        a = Fact("R", (1, "a"))
        pri = PrioritizingInstance(
            schema, schema.instance([a]), PriorityRelation([])
        )
        document = prioritizing_to_dict(pri)
        document["priority"] = [{"better": 0, "worse": 99}]
        with pytest.raises(ReproError):
            prioritizing_from_dict(document)


class TestFiles:
    def test_save_and_load_prioritizing(self, tmp_path, running):
        path = tmp_path / "example.json"
        save_prioritizing_instance(running.prioritizing, path)
        restored = load_prioritizing_instance(path)
        assert restored.instance == running.prioritizing.instance
        assert restored.priority == running.prioritizing.priority

    def test_save_and_load_schema(self, tmp_path):
        schema = Schema.parse(
            {"R": 2, "S": 3}, ["R: 1 -> 2", "S: {1,2} -> 3"]
        )
        path = tmp_path / "schema.json"
        save_schema(schema, path)
        assert load_schema(path) == schema

    @pytest.mark.parametrize("load", [load_prioritizing_instance, load_schema])
    @pytest.mark.parametrize(
        "content",
        [None, b"{", b"\xff\xfe{", b"[" * 100_000 + b"]" * 100_000],
        ids=["missing", "not-json", "not-utf8", "deep-nesting"],
    )
    def test_unreadable_file_is_a_usage_error(self, tmp_path, load, content):
        path = tmp_path / "doc.json"
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(UsageError, match="doc.json"):
            load(path)

    def test_document_missing_a_section(self, tmp_path):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps({"instance": []}))
        with pytest.raises(ReproError, match="'schema'"):
            load_prioritizing_instance(path)

    def test_checking_result_survives_round_trip(self, tmp_path, running):
        """The loaded problem gives identical repair-checking answers."""
        from repro.core.checking import check_globally_optimal

        path = tmp_path / "example.json"
        save_prioritizing_instance(running.prioritizing, path)
        restored = load_prioritizing_instance(path)
        j2 = restored.instance.subinstance(running.j2.facts)
        j3 = restored.instance.subinstance(running.j3.facts)
        assert check_globally_optimal(restored, j2).is_optimal
        assert not check_globally_optimal(restored, j3).is_optimal

"""Unit tests for schemas and the set-semantics relation."""

import pytest

from repro.conditions.parser import parse_condition
from repro.data.relation import Relation
from repro.data.schema import AttrType, Attribute, Schema
from repro.errors import SchemaError, UnknownAttributeError


@pytest.fixture
def schema():
    return Schema.of(
        "t", [("id", AttrType.INT), ("name", AttrType.STRING),
              ("price", AttrType.FLOAT)], key="id"
    )


@pytest.fixture
def relation(schema):
    rows = [
        {"id": 1, "name": "a", "price": 10.0},
        {"id": 2, "name": "b", "price": 20.0},
        {"id": 3, "name": "a", "price": 30.0},
        {"id": 4, "name": "c", "price": 10.0},
    ]
    return Relation(schema, rows)


class TestSchema:
    def test_duplicate_attributes_rejected(self):
        with pytest.raises(SchemaError):
            Schema("t", (Attribute("a"), Attribute("a")))

    def test_empty_schema_rejected(self):
        with pytest.raises(SchemaError):
            Schema("t", ())

    def test_key_must_exist(self):
        with pytest.raises(SchemaError):
            Schema.of("t", ["a"], key="nope")

    def test_contains_and_lookup(self, schema):
        assert "name" in schema
        assert "ghost" not in schema
        assert schema.attribute("price").type is AttrType.FLOAT
        with pytest.raises(UnknownAttributeError):
            schema.attribute("ghost")

    def test_validate_attributes(self, schema):
        assert schema.validate_attributes(["id", "name"]) == {"id", "name"}
        with pytest.raises(UnknownAttributeError):
            schema.validate_attributes(["id", "ghost"])

    def test_project_keeps_schema_order_and_the_key_only_if_projected(
            self, schema):
        sub = schema.project({"price", "id"})
        assert sub.attribute_names == ("id", "price") and sub.key == "id"
        assert schema.project(["name"]).key is None
        assert schema.position("price") == 2
        with pytest.raises(UnknownAttributeError):
            schema.project({"id", "ghost"})

    def test_project_is_memoised_and_the_memo_is_bounded(self):
        from repro.data import schema as schema_module

        wide = Schema.of("w", [f"a{i}" for i in range(10)])
        assert wide.project({"a1", "a2"}) is wide.project(["a2", "a1"])
        for i in range(schema_module._MAX_PROJECTIONS + 10):
            bits = [f"a{j}" for j in range(10) if (i + 1) >> j & 1]
            assert wide.project(bits).attribute_names == tuple(bits)
        assert len(wide._projections) <= schema_module._MAX_PROJECTIONS
        assert wide == Schema.of("w", [f"a{i}" for i in range(10)])

    def test_row_validation(self, schema):
        with pytest.raises(SchemaError):
            schema.validate_row({"id": 1, "name": "a"})  # missing price
        with pytest.raises(SchemaError):
            schema.validate_row(
                {"id": 1, "name": "a", "price": 1.0, "extra": 2}
            )
        with pytest.raises(SchemaError):
            schema.validate_row({"id": "one", "name": "a", "price": 1.0})

    def test_int_rejects_bool(self):
        attr = Attribute("n", AttrType.INT)
        assert attr.admits(3)
        assert not attr.admits(True)

    def test_float_accepts_int(self):
        assert Attribute("x", AttrType.FLOAT).admits(3)

    def test_none_is_always_admitted(self):
        assert Attribute("x", AttrType.INT).admits(None)


class TestRelationOperators:
    def test_select(self, relation):
        out = relation.select(parse_condition("name = 'a'"))
        assert len(out) == 2
        assert {r["id"] for r in out} == {1, 3}

    def test_project_deduplicates(self, relation):
        out = relation.project(["name"])
        assert len(out) == 3  # a, b, c
        assert out.schema.key is None

    def test_project_keeps_key_when_included(self, relation):
        out = relation.project(["id", "name"])
        assert out.schema.key == "id"
        assert len(out) == 4

    def test_project_unknown_attribute(self, relation):
        with pytest.raises(UnknownAttributeError):
            relation.project(["ghost"])

    def test_sp_is_select_then_project(self, relation):
        out = relation.sp(parse_condition("price <= 10"), ["name"])
        assert out.as_row_set() == {("a",), ("c",)}

    def test_union(self, relation):
        left = relation.select(parse_condition("id <= 2")).project(["name"])
        right = relation.select(parse_condition("id >= 2")).project(["name"])
        assert left.union(right).as_row_set() == {("a",), ("b",), ("c",)}

    def test_intersect(self, relation):
        left = relation.select(parse_condition("price <= 20")).project(["id", "name"])
        right = relation.select(parse_condition("price >= 20")).project(["id", "name"])
        assert left.intersect(right).as_row_set() == {(2, "b")}

    def test_intersect_anomaly_without_key(self, relation):
        # Projecting away the key makes π∩π over-approximate π(σ∧σ):
        # 'a' appears on both sides via *different* tuples (ids 1 and 3).
        # This is the paper-inherited anomaly documented in DESIGN.md.
        left = relation.select(parse_condition("price <= 20")).project(["name"])
        right = relation.select(parse_condition("price >= 20")).project(["name"])
        both = relation.sp(
            parse_condition("price <= 20 and price >= 20"), ["name"]
        )
        assert left.intersect(right).as_row_set() == {("a",), ("b",)}
        assert both.as_row_set() == {("b",)}

    def test_set_ops_require_same_attributes(self, relation):
        left = relation.project(["name"])
        right = relation.project(["id"])
        with pytest.raises(SchemaError):
            left.union(right)
        with pytest.raises(SchemaError):
            left.intersect(right)

    def test_distinct(self, schema):
        rel = Relation(
            schema,
            [{"id": 1, "name": "a", "price": 1.0},
             {"id": 1, "name": "a", "price": 1.0}],
        )
        assert len(rel.distinct()) == 1

    def test_rows_returns_copies(self, relation):
        rows = relation.rows
        rows[0]["name"] = "mutated"
        assert relation.rows[0]["name"] != "mutated"

    def test_validation_on_construction(self, schema):
        with pytest.raises(SchemaError):
            Relation(schema, [{"id": 1, "name": "a"}])

"""Unit tests for descriptors (the uniform node annotations)."""

import pytest

from repro.algebra.descriptors import Descriptor
from repro.algebra.properties import (
    DescriptorSchema,
    DONT_CARE,
    PropertyDef,
    PropertyType,
)
from repro.errors import DescriptorError


@pytest.fixture()
def schema():
    return DescriptorSchema(
        [
            PropertyDef("cost", PropertyType.COST),
            PropertyDef("tuple_order", PropertyType.ORDER),
            PropertyDef("attributes", PropertyType.ATTRS),
            PropertyDef("num_records", PropertyType.FLOAT),
        ]
    )


class TestConstruction:
    def test_fresh_descriptor_has_defaults(self, schema):
        d = Descriptor(schema)
        assert d["cost"] is DONT_CARE
        assert len(d) == 4

    def test_initial_values(self, schema):
        d = Descriptor(schema, {"cost": 3.0, "num_records": 10.0})
        assert d["cost"] == 3.0

    def test_initial_values_validated(self, schema):
        with pytest.raises(DescriptorError):
            Descriptor(schema, {"cost": "expensive"})

    def test_unknown_initial_property_rejected(self, schema):
        with pytest.raises(DescriptorError):
            Descriptor(schema, {"bogus": 1})


class TestAccess:
    def test_mapping_set_get(self, schema):
        d = Descriptor(schema)
        d["cost"] = 5.0
        assert d["cost"] == 5.0

    def test_attribute_get(self, schema):
        d = Descriptor(schema, {"num_records": 7.0})
        assert d.num_records == 7.0

    def test_attribute_set(self, schema):
        d = Descriptor(schema)
        d.tuple_order = "a1"
        assert d["tuple_order"] == "a1"

    def test_attribute_error_for_unknown(self, schema):
        d = Descriptor(schema)
        with pytest.raises(AttributeError):
            _ = d.not_a_property

    def test_set_unknown_property_rejected(self, schema):
        d = Descriptor(schema)
        with pytest.raises(DescriptorError):
            d["bogus"] = 1

    def test_type_validated_on_set(self, schema):
        d = Descriptor(schema)
        with pytest.raises(DescriptorError):
            d["num_records"] = "many"

    def test_get_with_default(self, schema):
        d = Descriptor(schema)
        assert d.get("missing", 42) == 42
        assert d.get("cost") is DONT_CARE

    def test_contains_iter_items(self, schema):
        d = Descriptor(schema)
        assert "cost" in d
        assert set(iter(d)) == set(schema.names)
        assert dict(d.items()) == d.as_dict()


class TestCopySemantics:
    def test_copy_is_independent(self, schema):
        d = Descriptor(schema, {"cost": 1.0})
        clone = d.copy()
        clone["cost"] = 2.0
        assert d["cost"] == 1.0

    def test_copy_shares_schema(self, schema):
        d = Descriptor(schema)
        assert d.copy().schema is schema

    def test_assign_from_overwrites_everything(self, schema):
        a = Descriptor(schema, {"cost": 1.0, "tuple_order": "x"})
        b = Descriptor(schema, {"cost": 9.0})
        a.assign_from(b)
        assert a["cost"] == 9.0
        assert a["tuple_order"] is DONT_CARE

    def test_assign_from_does_not_alias(self, schema):
        a = Descriptor(schema)
        b = Descriptor(schema, {"cost": 9.0})
        a.assign_from(b)
        a["cost"] = 1.0
        assert b["cost"] == 9.0

    def test_assign_from_rejects_other_schema(self, schema):
        other = DescriptorSchema([PropertyDef("different", PropertyType.ANY)])
        a = Descriptor(schema)
        b = Descriptor(other)
        with pytest.raises(DescriptorError):
            a.assign_from(b)


class TestProjection:
    def test_project_order(self, schema):
        d = Descriptor(schema, {"cost": 1.0, "num_records": 2.0})
        assert d.project(("num_records", "cost")) == (2.0, 1.0)

    def test_project_freezes_lists(self, schema):
        d = Descriptor(schema, {"attributes": ["a", "b"]})
        projected = d.project(("attributes",))
        assert projected == (("a", "b"),)
        hash(projected)  # must be hashable

    def test_project_missing_yields_dont_care(self, schema):
        d = Descriptor(schema)
        assert d.project(("nonexistent",)) == (DONT_CARE,)
        assert d.project(("cost", "nonexistent")) == (DONT_CARE, DONT_CARE)

    def test_project_no_names(self, schema):
        assert Descriptor(schema, {"cost": 1.0}).project(()) == ()

    def test_project_freezes_lists_among_others(self, schema):
        d = Descriptor(schema, {"attributes": ["a"], "num_records": 3.0})
        projected = d.project(("num_records", "attributes", "cost"))
        assert projected == (3.0, ("a",), DONT_CARE)
        assert type(projected[1]) is tuple

    def test_project_sees_writes(self, schema):
        d = Descriptor(schema, {"num_records": 1.0})
        names = ("num_records", "cost")
        assert d.project(names) == (1.0, DONT_CARE)
        d["num_records"] = 2.0
        assert d.project(names) == (2.0, DONT_CARE)


class TestComparison:
    def test_equal_descriptors(self, schema):
        a = Descriptor(schema, {"cost": 1.0})
        b = Descriptor(schema, {"cost": 1.0})
        assert a == b
        assert hash(a) == hash(b)

    def test_unequal_descriptors(self, schema):
        a = Descriptor(schema, {"cost": 1.0})
        b = Descriptor(schema, {"cost": 2.0})
        assert a != b

    def test_repr_shows_only_set_values(self, schema):
        d = Descriptor(schema, {"cost": 1.0})
        assert "cost" in repr(d)
        assert "tuple_order" not in repr(d)

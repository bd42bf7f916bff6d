"""The descriptor schema shared by both optimizers (paper Table 2).

Prairie's uniformity goal #2: the user declares *one* flat list of
properties; P2V classifies them later.  The list below is Table 2 of the
paper extended with the extra annotations the Open-OODB algebra needs
(materialization and unnest attributes) and a ``file_name`` link so that
contextual helpers can reach catalog statistics from any node descriptor.
"""

from __future__ import annotations

from repro.algebra.descriptors import Descriptor
from repro.algebra.properties import (
    DescriptorSchema,
    DONT_CARE,
    PropertyType,
)
from repro.catalog.schema import StoredFileInfo


def make_schema() -> DescriptorSchema:
    """The single descriptor structure for the paper's optimizers."""
    schema = DescriptorSchema()
    schema.declare(
        "file_name",
        PropertyType.STRING,
        doc="stored file a RET/leaf node reads (catalog key)",
    )
    schema.declare(
        "attributes",
        PropertyType.ATTRS,
        doc="attributes of the resulting stream",
    )
    schema.declare(
        "num_records",
        PropertyType.FLOAT,
        doc="estimated number of tuples of the resulting stream",
    )
    schema.declare(
        "tuple_size",
        PropertyType.FLOAT,
        doc="size in bytes of one tuple of the resulting stream",
    )
    schema.declare(
        "selection_predicate",
        PropertyType.PREDICATE,
        doc="selection predicate (RET and SELECT operators)",
    )
    schema.declare(
        "join_predicate",
        PropertyType.PREDICATE,
        doc="join predicate (JOIN operator)",
    )
    schema.declare(
        "projected_attributes",
        PropertyType.ATTRS,
        doc="output attribute list (PROJECT and RET operators)",
    )
    schema.declare(
        "mat_attribute",
        PropertyType.STRING,
        doc="reference attribute chased by the MAT operator",
    )
    schema.declare(
        "unnest_attribute",
        PropertyType.STRING,
        doc="set-valued attribute flattened by the UNNEST operator",
    )
    schema.declare(
        "tuple_order",
        PropertyType.ORDER,
        doc="tuple order of the resulting stream, DONT_CARE if none",
    )
    schema.declare(
        "cost",
        PropertyType.COST,
        doc="estimated cost of the implementing algorithm",
    )
    return schema


def leaf_descriptor(schema: DescriptorSchema, info: StoredFileInfo) -> Descriptor:
    """The initialized descriptor of a stored-file leaf."""
    return Descriptor(
        schema,
        {
            "file_name": info.name,
            "attributes": tuple(info.attributes),
            "num_records": float(info.cardinality),
            "tuple_size": float(info.tuple_size),
        },
    )

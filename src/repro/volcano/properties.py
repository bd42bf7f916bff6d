"""Physical property vectors.

Volcano's top-down strategy optimizes each equivalence class against a
*required physical property vector*: the properties (here, derived
automatically by P2V — e.g. ``tuple_order``) that the plan produced for
the class must deliver.  A vector is a plain tuple aligned with the rule
set's ordered physical-property names; :data:`~repro.algebra.properties.DONT_CARE`
entries mean "no requirement".

Vectors are tuples (hashable) because they key the winner cache of every
group: one winner per (group, required-vector) pair.
"""

from __future__ import annotations

from repro.algebra.properties import DONT_CARE

PropertyVector = tuple  # alias for readability in signatures

# Interning table for property vectors.  Vectors key every group's winner
# cache and the cross-query plan cache; interning makes repeated lookups
# hit dict slots through the identity fast path instead of re-hashing and
# element-wise comparing tuples.  Bounded so pathological workloads cannot
# grow it without limit (overflow vectors are simply returned uninterned).
_VECTOR_INTERN: dict = {}
_VECTOR_INTERN_LIMIT = 4096

_DONT_CARE_VECTORS: dict = {}


def intern_vector(vector: PropertyVector) -> PropertyVector:
    """Return the canonical instance of ``vector`` (identity-stable)."""
    cached = _VECTOR_INTERN.get(vector)
    if cached is not None:
        return cached
    if len(_VECTOR_INTERN) >= _VECTOR_INTERN_LIMIT:
        return vector
    _VECTOR_INTERN[vector] = vector
    return vector


def dont_care_vector(names: "tuple[str, ...]") -> PropertyVector:
    """The all-DONT_CARE vector for the given physical properties."""
    n = len(names)
    cached = _DONT_CARE_VECTORS.get(n)
    if cached is None:
        cached = _DONT_CARE_VECTORS[n] = intern_vector((DONT_CARE,) * n)
    return cached


def satisfies(delivered: PropertyVector, required: PropertyVector) -> bool:
    """True when a delivered vector meets a required vector.

    Component-wise: a requirement is met when it is DONT_CARE or exactly
    equal to the delivered value.
    """
    for have, want in zip(delivered, required):
        if want is DONT_CARE:
            continue
        if have != want:
            return False
    return True


def is_trivial(vector: PropertyVector) -> bool:
    """True when the vector imposes no requirement at all."""
    return all(v is DONT_CARE for v in vector)


def format_vector(names: "tuple[str, ...]", vector: PropertyVector) -> str:
    """Human-readable rendering for debug output and reports."""
    parts = [
        f"{name}={value!r}"
        for name, value in zip(names, vector)
        if value is not DONT_CARE
    ]
    return "{" + ", ".join(parts) + "}" if parts else "{any}"

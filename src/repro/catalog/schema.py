"""Stored-file metadata: the optimizer's catalog.

The catalog answers the questions cost models and rules ask about base
relations / classes: which attributes exist, how many tuples there are,
how wide tuples are, which indices are available, and (for the
object-oriented algebra) which attributes are *references* to other
classes (chased by the MAT operator) or *set-valued* (flattened by
UNNEST).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from repro.errors import CatalogError

DEFAULT_TUPLE_SIZE = 100  # bytes; matches nothing in particular, stable


@dataclass(frozen=True)
class IndexInfo:
    """A secondary index on one attribute of a stored file.

    The paper's experiments use at most one index per class, always on the
    attribute referenced by the selection predicate (Section 4.3).
    ``clustered`` affects the index-scan cost model.
    """

    attribute: str
    clustered: bool = False

    def __str__(self) -> str:
        kind = "clustered" if self.clustered else "secondary"
        return f"{kind} index on {self.attribute}"


@dataclass(frozen=True)
class StoredFileInfo:
    """Catalog entry for one stored file (base relation or class).

    Parameters
    ----------
    name:
        The file's unique name (``R1``, ``C3``, …).
    attributes:
        Attribute names, in storage order.  Attribute names are unique
        per file; the workload generator additionally keeps them unique
        across files so join predicates need no qualification.
    cardinality:
        Estimated (and, for generated data, exact) number of tuples.
    tuple_size:
        Width of one tuple in bytes; drives I/O cost estimates.
    indices:
        Available secondary indices.
    reference_attrs:
        Attributes that are object references to other classes; these are
        what the MAT (materialize) operator chases.  Maps attribute name →
        referenced file name.
    set_valued_attrs:
        Attributes holding sets of values; these are what UNNEST flattens.
    identity_attr:
        Optional attribute holding the object's identity (its row id in
        generated data).  Reference attributes of other classes point at
        these values; pointer joins equate a reference attribute with the
        target's identity attribute.
    """

    name: str
    attributes: tuple[str, ...]
    cardinality: int
    tuple_size: int = DEFAULT_TUPLE_SIZE
    indices: tuple[IndexInfo, ...] = ()
    reference_attrs: tuple[tuple[str, str], ...] = ()
    set_valued_attrs: tuple[str, ...] = ()
    identity_attr: "str | None" = None

    def __post_init__(self) -> None:
        if self.cardinality < 0:
            raise CatalogError(f"{self.name}: negative cardinality")
        if len(set(self.attributes)) != len(self.attributes):
            raise CatalogError(f"{self.name}: duplicate attribute names")
        attrs = set(self.attributes)
        for idx in self.indices:
            if idx.attribute not in attrs:
                raise CatalogError(
                    f"{self.name}: index on unknown attribute {idx.attribute!r}"
                )
        for attr, _target in self.reference_attrs:
            if attr not in attrs:
                raise CatalogError(
                    f"{self.name}: reference attribute {attr!r} not declared"
                )
        for attr in self.set_valued_attrs:
            if attr not in attrs:
                raise CatalogError(
                    f"{self.name}: set-valued attribute {attr!r} not declared"
                )
        if self.identity_attr is not None and self.identity_attr not in attrs:
            raise CatalogError(
                f"{self.name}: identity attribute {self.identity_attr!r} "
                f"not declared"
            )

    def has_index_on(self, attribute: str) -> bool:
        return any(idx.attribute == attribute for idx in self.indices)

    def index_on(self, attribute: str) -> "IndexInfo | None":
        for idx in self.indices:
            if idx.attribute == attribute:
                return idx
        return None

    @property
    def references(self) -> Mapping[str, str]:
        """reference attribute → referenced file name."""
        return dict(self.reference_attrs)


class Catalog:
    """A named collection of :class:`StoredFileInfo` entries.

    The catalog is the optimizer's only source of base-file facts; rules
    and cost functions receive it through the optimization context
    (:mod:`repro.volcano.search`).
    """

    def __init__(self, files: "Iterable[StoredFileInfo] | None" = None) -> None:
        self._files: dict[str, StoredFileInfo] = {}
        self._attr_index: "dict[str, StoredFileInfo | None] | None" = None
        self._version = 0
        # Memo table for derived statistics (selectivities, distinct-value
        # estimates); owned by the catalog so any mutation drops it along
        # with the version bump.  Filled by repro.catalog.statistics.
        self._stats_cache: dict = {}
        # Cached (version, token) pair for state_token().
        self._token_cache: "tuple[int, tuple] | None" = None
        for info in files or []:
            self.add(info)

    @property
    def version(self) -> int:
        """Monotonic mutation counter.

        Every structural change (currently: adding a file) bumps it,
        which is how :meth:`state_token` knows its cached token is
        stale.  Cross-query caches compare tokens, not versions.
        """
        return self._version

    def state_token(self) -> tuple:
        """A deterministic structural digest of the catalog's content.

        The tuple of this catalog's (frozen, value-comparable)
        :class:`StoredFileInfo` entries.  Unlike object identity or the
        :attr:`version` counter, the token survives pickling: a catalog
        shipped to a worker process and back compares equal to the
        original.  Plan-cache entries (:mod:`repro.volcano.plancache`)
        record it and are valid exactly while it is unchanged, in any
        process.  Cached per version, so an unchanged catalog returns
        the same tuple object and the cache's check is an identity
        test; not a Python ``hash()`` (those are salted per process).
        """
        cached = self._token_cache
        if cached is not None and cached[0] == self._version:
            return cached[1]
        token = tuple(self._files.values())
        self._token_cache = (self._version, token)
        return token

    def add(self, info: StoredFileInfo) -> StoredFileInfo:
        if info.name in self._files:
            raise CatalogError(f"duplicate stored file {info.name!r}")
        self._files[info.name] = info
        self._attr_index = None
        self._version += 1
        self._stats_cache.clear()
        return info

    def __getitem__(self, name: str) -> StoredFileInfo:
        try:
            return self._files[name]
        except KeyError:
            raise CatalogError(f"unknown stored file {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._files

    def __iter__(self) -> Iterator[StoredFileInfo]:
        return iter(self._files.values())

    def __len__(self) -> int:
        return len(self._files)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._files)

    def file_of_attribute(self, attribute: str) -> StoredFileInfo:
        """The unique file declaring ``attribute``.

        Workload catalogs keep attribute names globally unique, which lets
        rules resolve a predicate's attributes back to base files.  Raises
        if the attribute is unknown or ambiguous.  The attribute→file
        index is cached (this lookup sits inside selectivity estimation,
        which the search engine calls constantly).
        """
        if self._attr_index is None:
            index: "dict[str, StoredFileInfo | None]" = {}
            for info in self:
                for attr in info.attributes:
                    # None marks an ambiguous attribute.
                    index[attr] = info if attr not in index else None
            self._attr_index = index
        owner = self._attr_index.get(attribute)
        if owner is None:
            if attribute in self._attr_index:
                raise CatalogError(
                    f"attribute {attribute!r} is ambiguous across files"
                )
            raise CatalogError(f"no stored file declares attribute {attribute!r}")
        return owner

"""The ``poset v1`` text format, canonical JSON, and DOT export.

:func:`load_poset` reads the text format::

    poset v1
    # anything after a hash is a comment
    elements a b c
    rel a<b
    rel b<c

One ``elements`` line declares the labels in index order; each ``rel x<y``
line relates two distinct declared labels.  Labels are whitespace-free
tokens without ``<`` or ``#``.

JSON output is canonical: compact separators, object keys sorted, subsets
as lexicographically sorted label arrays, nucleus tables as [downset,
image] pairs in canonical downset order, topologies as label-to-sieve-array
objects.  Serializing equal values yields byte-identical text.
"""

from __future__ import annotations

import json
import re

from .errors import (
    DuplicateLabelError,
    PosetSyntaxError,
    UnknownLabelError,
)
from .nucleus import Nucleus, validate_nucleus
from .poset import Poset, Subset, build_poset
from .topology import GrothendieckTopology, validate_topology
from .triangle import TriangleReport

__all__ = [
    "export_hasse_dot",
    "load_poset",
    "nucleus_from_jsonable",
    "serialize",
    "subset_from_jsonable",
    "topology_from_jsonable",
]

_LABEL = re.compile(r"^[^\s<#]+$")


def load_poset(text: str) -> Poset:
    """Parse ``poset v1`` text and build the poset, reporting 1-based line numbers."""
    labels: tuple[str, ...] | None = None
    relations: list[tuple[str, str]] = []
    header_seen = False
    lineno = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not header_seen:
            if line.split() != ["poset", "v1"]:
                raise PosetSyntaxError(lineno, "expected header 'poset v1'")
            header_seen = True
            continue
        directive, *tail = line.split(None, 1)
        rest = tail[0] if tail else ""
        if directive == "elements":
            if labels is not None:
                raise PosetSyntaxError(lineno, "second 'elements' line")
            toks = rest.split()
            seen: set[str] = set()
            for tok in toks:
                if not _LABEL.match(tok):
                    raise PosetSyntaxError(lineno, f"bad label {tok!r}")
                if tok in seen:
                    raise DuplicateLabelError(tok, lineno)
                seen.add(tok)
            labels = tuple(toks)
        elif directive == "rel":
            if labels is None:
                raise PosetSyntaxError(lineno, "'rel' before 'elements'")
            lhs, sep, rhs = rest.partition("<")
            x, y = lhs.strip(), rhs.strip()
            if not sep or not x or not y or "<" in y:
                raise PosetSyntaxError(lineno, f"expected 'rel x<y', got {rest!r}")
            if x == y:
                raise PosetSyntaxError(lineno, f"'rel {x}<{y}' relates a label to itself")
            for lab in (x, y):
                if lab not in labels:
                    raise UnknownLabelError(lab, lineno)
            relations.append((x, y))
        else:
            raise PosetSyntaxError(lineno, f"unknown directive {directive!r}")
    if not header_seen:
        raise PosetSyntaxError(lineno + 1, "missing header 'poset v1'")
    if labels is None:
        raise PosetSyntaxError(lineno + 1, "missing 'elements' line")
    return build_poset(labels, relations)


# -- canonical JSON ---------------------------------------------------------


def to_jsonable(value):
    if isinstance(value, (Subset, Nucleus, GrothendieckTopology, TriangleReport)):
        return value.to_jsonable()
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _canonical_json(data) -> str:
    """Sorted keys, no whitespace: equal data gives the same bytes."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def serialize(value) -> str:
    """Canonical JSON text of a subset, nucleus, topology or report."""
    return _canonical_json(to_jsonable(value))


def subset_from_jsonable(poset: Poset, data) -> Subset:
    if not isinstance(data, list) or not all(isinstance(x, str) for x in data):
        raise ValueError("subset must be a JSON array of label strings")
    if len(set(data)) != len(data):
        raise ValueError("subset lists a label twice")
    return poset.subset(data)


def nucleus_from_jsonable(poset: Poset, data) -> Nucleus:
    """Parse and validate a nucleus table given as [downset, image] pairs."""
    if not isinstance(data, list):
        raise ValueError("nucleus must be a JSON array of [downset, image] pairs")
    table: list[tuple[Subset, Subset]] = []
    for entry in data:
        if not isinstance(entry, list) or len(entry) != 2:
            raise ValueError("nucleus entries must be [downset, image] pairs")
        key, image = (subset_from_jsonable(poset, x) for x in entry)
        table.append((key, image))
    return validate_nucleus(poset, table)


def topology_from_jsonable(poset: Poset, data) -> GrothendieckTopology:
    """Parse and validate covering families given as a label-keyed object."""
    if not isinstance(data, dict):
        raise ValueError("topology must be a JSON object keyed by element labels")
    families: dict[str, list[Subset]] = {}
    for label, sieves in data.items():
        if not isinstance(sieves, list):
            raise ValueError(f"families for {label!r} must be an array of sieves")
        families[label] = [subset_from_jsonable(poset, s) for s in sieves]
    return validate_topology(poset, families)


# -- DOT export -------------------------------------------------------------


def _dot_quote(label: str) -> str:
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_hasse_dot(poset: Poset) -> str:
    """DOT digraph of the covering relation, edges pointing upward."""
    lines = ["digraph hasse {", "  rankdir=BT;"]
    lines.extend(f"  {_dot_quote(lab)};" for lab in poset.labels)
    lines.extend(
        f"  {_dot_quote(poset.labels[p])} -> {_dot_quote(poset.labels[q])};"
        for p, q in poset.covers()
    )
    lines.append("}")
    return "\n".join(lines) + "\n"

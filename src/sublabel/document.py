"""JSON interchange for digraphs with optional labelings, plus DOT export.

One schema serves both labeled and graph-only payloads, so the same file
can feed the verifier (labels required) or the search runner (labels
ignored).  All numbers are plain integers; weights may be negative.
"""

from __future__ import annotations

import json
from itertools import chain

from .digraph import Digraph, ParameterError, Record, build_family, set_fields
from .labeling import TotalLabeling, weight_profile

FORMAT_VERSION = 1

# the keys to_dict writes, and those of the family block; any other key is
# refused, so a misspelt one is not silently dropped
DOCUMENT_KEYS = ("format_version", "family", "vertex_count", "arcs",
                 "vertex_labels", "arc_labels", "classification", "notes")
FAMILY_KEYS = ("name", "n", "t", "orientation")


class DocumentError(ValueError):
    """The document is malformed or inconsistent."""


# one [tail, head] pair as json.dumps(indent=2) writes it inside the arcs list
_ARC = "[\n      %d,\n      %d\n    ]"

# the lists of weights that `sublabel verify` adds to the classification block
_WEIGHT_KEYS = ("arc_weights", "vertex_weights")


def _json_array(item: str, count: int, values: tuple, depth: int = 1) -> str:
    """A non-empty array of count items, the value of a key `depth` objects
    deep, as json.dumps(indent=2) writes it, from one template of count
    copies of item filled by values."""
    inner, outer = "\n" + "  " * (depth + 1), "\n" + "  " * depth
    return ("[" + inner + (item + "," + inner) * (count - 1) + item + outer + "]") % values


def _json_classification(block: dict) -> str:
    """A non-empty classification block as json.dumps(indent=2) writes it as
    the value of a top-level key.  Lists of ints under _WEIGHT_KEYS go
    through _json_array; every other value goes through json.dumps."""
    parts = []
    for key, value in block.items():
        if key in _WEIGHT_KEYS and type(value) is list and value and set(map(type, value)) <= {int}:
            text = f"{json.dumps(key)}: {_json_array('%d', len(value), tuple(value), 2)}"
        else:  # the one-key object {key: value} with its braces cut off
            text = json.dumps({key: value}, indent=2)[4:-2].replace("\n", "\n  ")
        parts.append("    " + text)
    return "{\n" + ",\n".join(parts) + "\n  }"


class LabelingDocument(Record):
    _fields = ("graph", "labeling", "classification", "notes")

    def __init__(self, graph: Digraph, labeling: TotalLabeling | None = None,
                 classification: dict | None = None, notes: tuple[str, ...] = ()):
        self.__dict__.update(graph=graph, labeling=labeling,
                             classification=classification, notes=notes)

    def _items(self):
        """The document's (key, value) pairs in the order it is written;
        the arcs, labels and notes are the stored tuples."""
        yield "format_version", FORMAT_VERSION
        if self.graph.family is not None:
            yield "family", set_fields(self.graph.family)
        yield "vertex_count", self.graph.vertex_count
        yield "arcs", self.graph.arcs
        if self.labeling is not None:
            yield "vertex_labels", self.labeling.vertex_labels
            yield "arc_labels", self.labeling.arc_labels
        if self.classification is not None:
            yield "classification", self.classification
        if self.notes:
            yield "notes", self.notes

    def to_dict(self) -> dict:
        d = {}
        for key, value in self._items():
            if key == "arcs":
                value = [list(a) for a in value]
            elif key in ("vertex_labels", "arc_labels", "notes"):
                value = list(value)
            d[key] = value
        return d

    def to_json(self) -> str:
        """Exactly json.dumps(self.to_dict(), indent=2) + "\n".

        json.dumps hands any indent to its pure-Python encoder, so the
        large arrays are written here, each with one %-template: the arcs,
        both label lists and the classification block's weight lists.
        The small values still go through json.dumps, one level deeper."""
        parts = []
        for key, value in self._items():
            if key == "arcs" and value:
                text = _json_array(_ARC, len(value), tuple(chain.from_iterable(value)))
            elif key in ("vertex_labels", "arc_labels") and value:
                text = _json_array("%d", len(value), value)
            elif key == "classification" and isinstance(value, dict) and value:
                text = _json_classification(value)
            else:  # json.dumps escapes a newline in a string, so each \n starts a line
                text = json.dumps(value, indent=2).replace("\n", "\n  ")
            parts.append(f'  "{key}": {text}')
        return "{\n" + ",\n".join(parts) + "\n}\n"


# JSON integers are checked with `type(x) is int`: a bool is an int
# subclass, so isinstance would let true and false through as 1 and 0
def _expect_int_list(value, name: str) -> list[int]:
    if not isinstance(value, list) or not all(type(x) is int for x in value):
        raise DocumentError(f"{name} must be a list of integers")
    return value


def _refuse_unknown_keys(d: dict, known: tuple[str, ...], where: str):
    for key in d:
        if key not in known:
            raise DocumentError(f"unknown key {key!r} in {where}; "
                                f"expected one of {', '.join(known)}")


def from_dict(d: dict) -> LabelingDocument:
    if not isinstance(d, dict):
        raise DocumentError("document must be a JSON object")
    _refuse_unknown_keys(d, DOCUMENT_KEYS, "the document")
    version = d.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise DocumentError(f"unsupported format_version {version!r}; expected {FORMAT_VERSION}")
    if "vertex_count" not in d or "arcs" not in d:
        raise DocumentError("document needs vertex_count and arcs")
    if type(d["vertex_count"]) is not int:
        raise DocumentError("vertex_count must be an integer")
    arcs = d["arcs"]
    if not isinstance(arcs, list):
        raise DocumentError("arcs must be a list of [tail, head] pairs")
    for a in arcs:
        if not (isinstance(a, list) and len(a) == 2 and type(a[0]) is int and type(a[1]) is int):
            raise DocumentError(f"bad arc entry {a!r}; expected [tail, head]")

    fd = d.get("family")
    if fd is not None:
        if not isinstance(fd, dict) or "name" not in fd or "n" not in fd:
            raise DocumentError("family block needs at least name and n")
        _refuse_unknown_keys(fd, FAMILY_KEYS, "the family block")
        try:
            graph = build_family(fd["name"], fd["n"], t=fd.get("t"),
                                 orientation=fd.get("orientation"))
        except ParameterError as exc:
            raise DocumentError(f"bad family block: {exc}") from exc
        # once it matches them, the graph build_family checked stands for
        # the stored arcs, and they are not checked a second time
        if (graph.vertex_count != d["vertex_count"] or len(graph.arcs) != len(arcs)
                or any(a[0] != t or a[1] != h for a, (t, h) in zip(arcs, graph.arcs))):
            raise DocumentError("family block does not match the stored arcs")
    else:
        try:
            graph = Digraph(d["vertex_count"], tuple(map(tuple, arcs)))
        except ValueError as exc:
            raise DocumentError(str(exc)) from exc

    has_v = "vertex_labels" in d and d["vertex_labels"] is not None
    has_a = "arc_labels" in d and d["arc_labels"] is not None
    if has_v != has_a:
        raise DocumentError("vertex_labels and arc_labels must be given together")
    labeling = None
    if has_v:
        labeling = TotalLabeling(
            tuple(_expect_int_list(d["vertex_labels"], "vertex_labels")),
            tuple(_expect_int_list(d["arc_labels"], "arc_labels")))
        if len(labeling.vertex_labels) != graph.vertex_count:
            raise DocumentError("vertex_labels length does not match vertex_count")
        if len(labeling.arc_labels) != graph.arc_count:
            raise DocumentError("arc_labels length does not match the arc list")

    classification = d.get("classification")
    if classification is not None and not isinstance(classification, dict):
        raise DocumentError("classification must be an object")
    notes = d.get("notes", [])
    if not isinstance(notes, list) or not all(isinstance(x, str) for x in notes):
        raise DocumentError("notes must be a list of strings")
    return LabelingDocument(graph, labeling, classification, tuple(notes))


def from_json(text: str) -> LabelingDocument:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"not valid JSON: {exc}") from exc
    return from_dict(data)


def to_dot(doc: LabelingDocument) -> str:
    """Render the document as a DOT digraph.

    Every vertex becomes a node labeled "v<i>:<label>" and every arc an
    edge labeled "<label> (w=<weight>)"; without a labeling the plain
    structure is emitted.  The output is byte-deterministic.
    """
    g = doc.graph
    lines = ["digraph G {"]
    if doc.labeling is None:
        for i in range(g.vertex_count):
            lines.append(f'  v{i} [label="v{i}"];')
        for t, h in g.arcs:
            lines.append(f"  v{t} -> v{h};")
    else:
        profile = weight_profile(g, doc.labeling)
        for i in range(g.vertex_count):
            lines.append(f'  v{i} [label="v{i}:{doc.labeling.vertex_labels[i]}"];')
        for i, (t, h) in enumerate(g.arcs):
            lines.append(f'  v{t} -> v{h} [label="{doc.labeling.arc_labels[i]} '
                         f'(w={profile.arc_weights[i]})"];')
    lines.append("}")
    return "\n".join(lines) + "\n"

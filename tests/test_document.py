"""Document serialization round trips and DOT rendering."""

import json

import pytest

from sublabel import (Digraph, DocumentError, LabelingDocument, ParameterError,
                      TotalLabeling, build_family, classify, construct,
                      from_dict, from_json, to_dot)


def docs():
    g, l = construct("cycle", 3, "sa-sv-al")
    yield LabelingDocument(g, l)
    g, l = construct("tadpole", 3, "saal", t=2)
    yield LabelingDocument(g, l, notes=("example",))
    yield LabelingDocument(build_family("star", 3, orientation="in"))  # graph only
    yield LabelingDocument(Digraph(2, ((0, 1),)), TotalLabeling((3, 1), (2,)),
                           classification={"arc": {"kind": "magic", "mu": 0}})


@pytest.mark.parametrize("doc", list(docs()), ids=lambda d: d.graph.family.name if d.graph.family else "raw")
def test_json_round_trip(doc):
    assert from_json(doc.to_json()) == doc


def test_round_trip_is_byte_stable():
    g, l = construct("cycle", 4, "sa-sv-al")
    doc = LabelingDocument(g, l)
    assert from_json(doc.to_json()).to_json() == doc.to_json()


def test_dot_output_frozen():
    g, l = construct("cycle", 3, "sa-sv-al")
    dot = to_dot(LabelingDocument(g, l))
    assert dot == (
        "digraph G {\n"
        '  v0 [label="v0:1"];\n'
        '  v1 [label="v1:2"];\n'
        '  v2 [label="v2:3"];\n'
        '  v0 -> v1 [label="5 (w=6)"];\n'
        '  v1 -> v2 [label="4 (w=5)"];\n'
        '  v2 -> v0 [label="6 (w=4)"];\n'
        "}\n")
    assert dot == to_dot(LabelingDocument(g, l))  # deterministic bytes


def test_dot_single_vertex_no_edges():
    doc = LabelingDocument(Digraph(1, ()), TotalLabeling((1,), ()))
    dot = to_dot(doc)
    assert dot.count("label=") == 1
    assert "->" not in dot


def test_dot_graph_only():
    dot = to_dot(LabelingDocument(build_family("path", 3)))
    assert "v0 -> v1;" in dot and "(w=" not in dot


def test_negative_weights_render():
    # dual labelings push weights to zero and below; the schema carries them
    doc = LabelingDocument(Digraph(2, ((0, 1),)), TotalLabeling((3, 1), (2,)))
    assert "(w=0)" in to_dot(doc)


def _tadpole_document(arcs) -> str:
    """tadpole(3, 2), whose arcs are [[0, 1], [1, 2], [2, 0], [3, 4], [4, 0]],
    stored with the given arcs."""
    return json.dumps({"format_version": 1, "family": {"name": "tadpole", "n": 3, "t": 2},
                       "vertex_count": 5, "arcs": arcs})


@pytest.mark.parametrize("text,hint", [
    ("{", "JSON"),
    ('{"format_version": 2, "vertex_count": 1, "arcs": []}', "format_version"),
    ('{"format_version": 1, "arcs": []}', "vertex_count"),
    ('{"format_version": 1, "vertex_count": 2, "arcs": [[0, 0]]}', "self-loop"),
    ('{"format_version": 1, "vertex_count": 2, "arcs": [0]}', "arc"),
    ('{"format_version": 1, "vertex_count": 2, "arcs": [[0, 1]], '
     '"vertex_labels": [1, 2]}', "together"),
    ('{"format_version": 1, "vertex_count": 2, "arcs": [[0, 1]], '
     '"vertex_labels": [1], "arc_labels": [2, 3]}', "length"),
    ('{"format_version": 1, "vertex_count": 3, "arcs": [[0, 1]], '
     '"family": {"name": "cycle", "n": 3}}', "match"),
    ('{"format_version": 1, "vertex_count": 3, "arcs": [[0, 1]], '
     '"family": {"name": "blob", "n": 3}}', "family"),
    ("[]", "JSON object"),
    ('{"format_version": 1, "vertex_count": 2, "arcs": {}}', "arcs must be a list"),
    ('{"format_version": 1, "vertex_count": 3, "arcs": [[0, 1], [1, 2], [2, 0]], '
     '"family": {"name": "cycle"}}', "family block needs"),
    ('{"format_version": 1, "vertex_count": 2, "arcs": [[0, 1]], '
     '"vertex_labels": [1, 2], "arc_labels": [3, 4]}', "arc_labels length"),
    ('{"format_version": 1, "vertex_count": 1, "arcs": [], '
     '"classification": []}', "classification must be an object"),
    ('{"format_version": 1, "vertex_count": 1, "arcs": [], '
     '"notes": [1]}', "notes must be a list of strings"),
    # a misspelt key was dropped: both labels misspelt loaded a graph-only
    # document, and a stray key beside orientation loaded the graph
    ('{"format_version": 1, "vertex_count": 2, "arcs": [[0, 1]], '
     '"vertex_lables": [1, 2], "arc_lables": [3]}', "unknown key 'vertex_lables' in the document"),
    ('{"format_version": 1, "vertex_count": 2, "arcs": [[0, 1]], '
     '"family": {"name": "star", "n": 1, "orientation": "out", "orientaton": "in"}}',
     "unknown key 'orientaton' in the family block"),
    # the stored arcs of tadpole(3, 2) against its family block, compared
    # pair by pair after the lengths
    *(pytest.param(_tadpole_document(arcs), "does not match", id=name) for name, arcs in [
        ("arcs-one-longer", [[0, 1], [1, 2], [2, 0], [3, 4], [4, 0], [1, 0]]),
        ("arcs-one-shorter", [[0, 1], [1, 2], [2, 0], [3, 4]]),
        ("arcs-middle-changed", [[0, 1], [1, 2], [2, 1], [3, 4], [4, 0]]),
        ("arcs-tail-head-swapped", [[0, 1], [1, 2], [0, 2], [3, 4], [4, 0]]),
    ]),
])
def test_malformed_documents_rejected(text, hint):
    with pytest.raises(DocumentError, match=hint):
        from_json(text)


VALID = {"format_version": 1, "family": {"name": "tadpole", "n": 3, "t": 1},
         "vertex_count": 4, "arcs": [[0, 1], [1, 2], [2, 0], [3, 0]],
         "vertex_labels": [1, 2, 3, 4], "arc_labels": [5, 6, 7, 8]}
STAR1 = {"name": "star", "n": 1}  # one arc 0 -> 1, so n = true would rebuild it


def test_valid_integer_document_is_accepted():
    assert from_dict(VALID).graph.family.t == 1
    assert from_dict({**VALID, "family": STAR1, "vertex_count": 2, "arcs": [[0, 1]],
                      "vertex_labels": [1, 2], "arc_labels": [3]}).graph.family.n == 1


# JSON true is a Python bool, an int subclass; none of these may pass as 1
@pytest.mark.parametrize("changes", [
    pytest.param({"format_version": True}, id="format_version-true"),
    pytest.param({"format_version": 1.0}, id="format_version-float"),
    pytest.param({"family": None, "vertex_count": True, "arcs": [],
                  "vertex_labels": [1], "arc_labels": []}, id="vertex_count-true"),
    pytest.param({"arcs": [[0, 1], [1, 2], [2, 0], [3, False]]}, id="arc-head-false"),
    pytest.param({"arcs": [[0, 1], [1, 2], [2, 0], [3.0, 0]]}, id="arc-tail-float"),
    pytest.param({"vertex_labels": [True, 2, 3, 4]}, id="vertex_labels-true"),
    pytest.param({"arc_labels": [5, 6, 7, 8.0]}, id="arc_labels-float"),
    pytest.param({"family": {**VALID["family"], "t": True}}, id="family-t-true"),
    pytest.param({"family": {**VALID["family"], "t": "1"}}, id="family-t-string"),
    pytest.param({"family": {**STAR1, "n": True}, "vertex_count": 2, "arcs": [[0, 1]],
                  "vertex_labels": [1, 2], "arc_labels": [3]}, id="family-n-true"),
    pytest.param({"family": {**VALID["family"], "n": 2.5}}, id="family-n-float"),
    pytest.param({"family": {**VALID["family"], "n": "3"}}, id="family-n-string"),
])
def test_non_integers_are_rejected(changes):
    with pytest.raises(DocumentError, match="integer|format_version|arc entry"):
        from_dict({**VALID, **changes})


# build_family owns the n and t checks: a bool is not read as 0 or 1 and a
# float or a string is not compared with the least n
@pytest.mark.parametrize("family,kind,n,t", [
    ("star", "saml", True, None),
    ("path", "sa-al", 2.5, None),
    ("cycle", "sa-sv-al", "3", None),
    ("tadpole", "saal", 3, True),
    ("tadpole", "saal", 3, 1.0),
    ("tadpole", "saal", 3.0, 1),
    ("tadpole", "sv-al", 3, "1"),
])
def test_non_integer_family_parameters_are_refused(family, kind, n, t):
    with pytest.raises(ParameterError, match="integers"):
        build_family(family, n, t=t)
    with pytest.raises(ParameterError, match="integers"):
        construct(family, n, kind, t=t)
    g = build_family(family, 3, t=None if t is None else 1)
    block = {"name": family, "n": n, **({} if t is None else {"t": t})}
    with pytest.raises(DocumentError, match="integer"):
        from_dict({**LabelingDocument(g).to_dict(), "family": block})


def test_family_document_builds_one_digraph(monkeypatch):
    built = []
    check = Digraph._checked_arcs

    def counted(n, arcs):
        built.append(n)
        return check(n, arcs)

    monkeypatch.setattr(Digraph, "_checked_arcs", staticmethod(counted))
    text = LabelingDocument(*construct("tadpole", 3, "saal", t=2)).to_json()
    built.clear()
    assert from_json(text).graph.family.t == 2 and len(built) == 1


def test_family_block_restores_names():
    g, l = construct("cycle", 3, "sa-sv-al")
    doc = from_json(LabelingDocument(g, l).to_json())
    assert doc.graph.family is not None
    assert doc.graph.family.vertex_names == ("v_1", "v_2", "v_3")


@pytest.mark.parametrize("family,kind,t,last_arc", [("tadpole", "saal", 2, "c"),
                                                  ("friendship", "sa-al", None, "a_32")])
def test_document_pipeline_leaves_names_underived(family, kind, t, last_arc):
    # the layers never read a tag's names: each tag holds its four fields
    # only, until a name lookup derives them
    built = build_family(family, 3, t=t)
    g, l = construct(family, 3, kind, t=t)
    doc = LabelingDocument(g, l, classification=classify(g, l).to_dict())
    loaded = from_json(doc.to_json())
    to_dot(loaded)
    for tag in (built.family, g.family, loaded.graph.family):
        assert vars(tag).keys() == {"name", "n", "t", "orientation"}
    assert g.arc_name(g.arc_count - 1) == last_arc
    assert "_names" in vars(g.family)
    # equal tags stay equal, hash alike and print alike once one has names
    assert built == g == loaded.graph
    assert hash(built) == hash(g) and repr(built) == repr(g)
    assert repr(g.family) == f"FamilyTag(name={family!r}, n=3, t={t!r}, orientation=None)"

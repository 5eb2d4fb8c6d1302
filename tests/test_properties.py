"""Property tests of the weight identities, the dual and the JSON documents.

The arc-weight identity is the one the search kernel rests on: once the
vertex labels are placed, it fixes the sum of the arc weights, and with it
the arc-magic constant and the candidate progressions of an arithmetic
target.  The vertex-weight identity does the same for the vertex side.  The
dual's weights are the reflection that the kernel's dual cut rests on: it
keeps the arc-side classes, and the vertex-side ones where every vertex has
in-degree equal to out-degree."""

from hypothesis import given, settings
from hypothesis import strategies as st

from sublabel import (Digraph, LabelingDocument, TotalLabeling, build_family,
                      classify, dual, from_json, weight_profile)


@st.composite
def digraphs(draw):
    """Random simple digraphs with up to 6 vertices, or a family member."""
    if draw(st.booleans()):
        family = draw(st.sampled_from(
            ("path", "cycle", "star", "wheel", "tadpole", "friendship", "butterfly")))
        n = draw(st.integers(3, 6))
        t = draw(st.integers(1, 3)) if family == "tadpole" else None
        orientation = None
        if family == "path":
            orientation = draw(st.sampled_from(("forward", "alternating")))
        elif family == "star":
            orientation = draw(st.sampled_from(("out", "in")))
        return build_family(family, n, t=t, orientation=orientation)
    v = draw(st.integers(0, 6))
    pairs = [(a, b) for a in range(v) for b in range(v) if a != b]
    arcs = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Digraph(v, tuple(arcs))


@st.composite
def labeled(draw):
    """A digraph with a random total labeling."""
    g = draw(digraphs())
    labels = draw(st.permutations(range(1, g.label_count + 1)))
    return g, TotalLabeling(tuple(labels[:g.vertex_count]), tuple(labels[g.vertex_count:]))


@settings(max_examples=200, deadline=None)
@given(labeled())
def test_vertex_weights_sum_to_the_vertex_labels(case):
    # every arc adds its label to its head and takes it from its tail
    g, l = case
    assert sum(weight_profile(g, l).vertex_weights) == sum(l.vertex_labels)


@settings(max_examples=200, deadline=None)
@given(labeled())
def test_arc_weights_sum_follows_from_the_vertex_labels(case):
    g, l = case
    n = g.label_count
    indeg, outdeg = g.in_degrees(), g.out_degrees()
    expected = n * (n + 1) // 2 - sum((1 - indeg[v] + outdeg[v]) * l.vertex_labels[v]
                                      for v in range(g.vertex_count))
    assert sum(weight_profile(g, l).arc_weights) == expected


@settings(max_examples=200, deadline=None)
@given(labeled())
def test_dual_is_an_involution(case):
    g, l = case
    assert dual(g, dual(g, l)) == l


@settings(max_examples=200, deadline=None)
@given(labeled())
def test_dual_reflects_every_weight(case):
    g, l = case
    n1 = g.label_count + 1
    indeg, outdeg = g.in_degrees(), g.out_degrees()
    weights, dual_weights = weight_profile(g, l), weight_profile(g, dual(g, l))
    assert dual_weights.arc_weights == tuple(n1 - w for w in weights.arc_weights)
    assert dual_weights.vertex_weights == tuple(
        n1 * (1 + indeg[v] - outdeg[v]) - w for v, w in enumerate(weights.vertex_weights))


@st.composite
def documents(draw):
    g, l = draw(labeled())
    labeling = l if draw(st.booleans()) else None
    classification = None
    if labeling is not None and draw(st.booleans()):
        classification = classify(g, labeling).to_dict()
    notes = tuple(draw(st.lists(st.text(max_size=12), max_size=3)))
    return LabelingDocument(g, labeling, classification, notes)


@settings(max_examples=200, deadline=None)
@given(documents())
def test_json_round_trip_restores_the_document(doc):
    assert from_json(doc.to_json()) == doc

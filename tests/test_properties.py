"""Property tests of the weight identities, the dual and the JSON documents.

The arc-weight identity is the one the search kernel rests on: once the
vertex labels are placed, it fixes the sum of the arc weights, and with it
the arc-magic constant and the candidate progressions of an arithmetic
target.  The vertex-weight identity does the same for the vertex side.  The
dual's weights are the reflection that the kernel's dual cut rests on: it
keeps the arc-side classes, and the vertex-side ones where every vertex has
in-degree equal to out-degree.  The documents' to_json is pinned to
json.dumps(indent=2) byte for byte, and the sort-free bijection and strong
checks to their sorted definitions."""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sublabel import (CONSTRUCTION_KINDS, BijectionError, Digraph, LabelingDocument,
                      TotalLabeling, build_family, classify, construct, dual,
                      from_json, validate_labeling, weight_profile)


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


# notes that json.dumps must escape: a quote, a backslash, a newline and
# non-ASCII text
AWKWARD_NOTES = ('say "magic"', "back\\slash", "two\nlines", "μ ≤ 2N — café")


@st.composite
def documents(draw):
    g, l = draw(labeled())
    labeling = l if draw(st.booleans()) else None
    classification = None
    if labeling is not None and draw(st.booleans()):
        classification = classify(g, labeling).to_dict()
    notes = tuple(draw(st.lists(st.text(max_size=12) | st.sampled_from(AWKWARD_NOTES),
                                max_size=3)))
    return LabelingDocument(g, labeling, classification, notes)


def assert_byte_contract(doc):
    text = doc.to_json()
    assert text == json.dumps(doc.to_dict(), indent=2) + "\n"
    assert from_json(text) == doc


@settings(max_examples=200, deadline=None)
@given(documents())
@example(LabelingDocument(Digraph(0, ()), TotalLabeling((), ())))
@example(LabelingDocument(Digraph(3, ())))
def test_to_json_is_json_dumps_and_round_trips(doc):
    assert_byte_contract(doc)


@pytest.mark.parametrize("family,kind", [
    (family, kind) for family, kinds in CONSTRUCTION_KINDS.items() for kind in kinds])
def test_constructed_documents_keep_the_byte_contract(family, kind):
    g, l = construct(family, 4, kind, t=3 if family == "tadpole" else None)
    assert_byte_contract(LabelingDocument(g, l, classify(g, l).to_dict(), AWKWARD_NOTES))


@st.composite
def label_tuples(draw):
    """A digraph with a permutation of 1..N in which up to two labels are
    replaced by 0, a negative, N + 1 or another label (a duplicate)."""
    g = draw(digraphs())
    n = g.label_count
    labels = list(draw(st.permutations(range(1, n + 1))))
    for _ in range(draw(st.integers(0, 2)) if n else 0):
        labels[draw(st.integers(0, n - 1))] = draw(st.sampled_from((0, -1, -n, n + 1, *labels)))
    return g, TotalLabeling(tuple(labels[:g.vertex_count]), tuple(labels[g.vertex_count:]))


@settings(max_examples=200, deadline=None)
@given(label_tuples())
def test_sort_free_checks_match_their_sorted_definitions(case):
    g, l = case
    bijection = sorted(l.vertex_labels + l.arc_labels) == list(range(1, g.label_count + 1))
    try:
        validate_labeling(g, l)
    except BijectionError:
        assert not bijection
        return
    assert bijection
    c = classify(g, l)
    assert c.strong == (sorted(l.vertex_labels) == list(range(1, g.vertex_count + 1)))
    assert c.strong_star == (sorted(l.arc_labels) == list(range(1, g.arc_count + 1)))

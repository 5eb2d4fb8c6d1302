"""Property tests of the weight identities, the dual and the JSON documents.

The arc-weight identity is the one the search kernel rests on: once the
vertex labels are placed, it fixes the sum of the arc weights, and with it
the arc-magic constant and the candidate progressions of an arithmetic
target.  The vertex-weight identity does the same for the vertex side.  The
dual's weights are the reflection that the kernel's dual cut rests on: it
keeps the arc-side classes, and the vertex-side ones where every vertex has
in-degree equal to out-degree.  The search kernel's reach windows, how
far the arcs still open can move a vertex weight, must hold every
labeling, also one drawn to meet a strong flag.  The documents' to_json is pinned to
json.dumps(indent=2) byte for byte, and the sort-free bijection and strong
checks to their sorted definitions.  On a cactus every arc outside a
spanning forest closes one cycle of its own, so a count-all vertex-magic
search counts the completions of each vertex labeling from per-cycle
label masks; that count must be what collect-all walks in the arc phase
and what the reference enumerator finds."""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sublabel import (CONSTRUCTION_KINDS, BijectionError, Digraph, LabelingDocument,
                      SearchQuery, Target, TotalLabeling, build_family, classify,
                      construct, dual, from_json, search, validate_labeling,
                      weight_profile)
from sublabel.search import _Kernel


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


@st.composite
def flagged(draw):
    """A digraph with a random total labeling and the strong flag it is
    drawn to meet: none, --strong (the vertices take 1..V) or --strong-star
    (the arcs take 1..A)."""
    g = draw(digraphs())
    v, a, n = g.vertex_count, g.arc_count, g.label_count
    flag = draw(st.sampled_from((None, "require_strong", "require_strong_star")))
    if flag == "require_strong":
        vl, al = draw(st.permutations(range(1, v + 1))), draw(st.permutations(range(v + 1, n + 1)))
    elif flag == "require_strong_star":
        vl, al = draw(st.permutations(range(a + 1, n + 1))), draw(st.permutations(range(1, a + 1)))
    else:
        labels = draw(st.permutations(range(1, n + 1)))
        vl, al = labels[:v], labels[v:]
    return g, TotalLabeling(tuple(vl), tuple(al)), {flag: True} if flag else {}


@settings(max_examples=200, deadline=None)
@given(flagged())
def test_vertex_weights_lie_in_the_kernel_reach_windows(case):
    # the search bounds what the arcs of a vertex still to be labelled add
    # to its weight; every labeling that meets the flags lies inside
    g, l, flags = case
    kernel = _Kernel(SearchQuery(g, Target("vertex", "antimagic"), mode="first-witness", **flags))
    arcs = list(enumerate(g.arcs))

    def moved(v, rest):
        return sum(l.arc_labels[k] * ((h == v) - (t == v)) for k, (t, h) in rest)

    for v in range(g.vertex_count):
        lo, hi = kernel.v_reach[v]
        assert lo <= moved(v, arcs) <= hi
    for k, (tail, head) in arcs:
        t_lo, t_hi, h_lo, h_hi = kernel.reach[k]
        assert t_lo <= moved(tail, arcs[k + 1:]) <= t_hi
        assert h_lo <= moved(head, arcs[k + 1:]) <= h_hi
    # bit w + w_off of the seen and term masks stands for vertex weight w
    assert all(w + kernel.w_off >= 0 for w in weight_profile(g, l).vertex_weights)


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


# weight lists as a classification block may hold them: negative, zero,
# one-element and empty lists of ints, and lists with a bool, which JSON
# writes as true or false, not as 1 or 0
WEIGHT_LISTS = (st.lists(st.integers(-40, 40), max_size=4)
                | st.lists(st.integers() | st.booleans(), max_size=3))


@st.composite
def documents(draw):
    g, l = draw(labeled())
    labeling = l if draw(st.booleans()) else None
    classification = None
    if labeling is not None and draw(st.booleans()):
        classification = classify(g, labeling).to_dict()
        if draw(st.booleans()):  # the weight lists `sublabel verify` adds, or drawn ones
            profile = weight_profile(g, labeling)
            for key, weights in (("arc_weights", profile.arc_weights),
                                 ("vertex_weights", profile.vertex_weights)):
                classification[key] = draw(st.just(list(weights)) | WEIGHT_LISTS)
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
@example(LabelingDocument(Digraph(2, ((0, 1),)), TotalLabeling((3, 1), (2,)),
                          {"arc_weights": [], "vertex_weights": [0]}))
@example(LabelingDocument(Digraph(2, ((0, 1),)), TotalLabeling((3, 1), (2,)),
                          {"strong": True, "arc_weights": [-3, 0, 5],
                           "vertex_weights": [True, -1]}))
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


@st.composite
def cacti(draw):
    """Cacti with at most 9 labels: 2-cycles, longer cycles and pendant
    arcs glued at vertices, each arc of a longer cycle or a pendant arc
    oriented at random, and the vertices and arcs in random order."""
    budget, v, arcs = draw(st.integers(3, 9)), 1, []
    while budget - v - len(arcs) >= 2:
        # 1: a pendant arc, 2 labels; a cycle of length L takes 2L - 1
        length = draw(st.integers(1, min(4, (budget - v - len(arcs) + 1) // 2)))
        ring = [draw(st.integers(0, v - 1))] + list(range(v, v + max(length - 1, 1)))
        v += len(ring) - 1
        if length == 2:
            arcs += [(ring[0], ring[1]), (ring[1], ring[0])]
            continue
        for i in range(len(ring) if length > 1 else 1):
            a, b = ring[i], ring[(i + 1) % len(ring)]
            arcs.append((a, b) if draw(st.booleans()) else (b, a))
    order = draw(st.permutations(range(v)))
    return Digraph(v, tuple(draw(st.permutations([(order[a], order[b]) for a, b in arcs]))))


@settings(max_examples=200, deadline=None)
@given(graph=cacti(), strong=st.booleans(), strong_star=st.booleans())
# 10 labels: two tree arcs of the 4-cycle get k + c and k - c, which meet
# at one c; unless a k - c label is kept off the k + c labels, the count
# reads 2 where there is none
@example(graph=Digraph(5, ((0, 1), (1, 2), (3, 2), (0, 3), (2, 4))), strong=False,
         strong_star=False)
# two triangles at one vertex: the first triangle's labels leave the second
@example(graph=build_family("friendship", 2), strong=False, strong_star=False)
# not a cactus: a tree arc with two free arcs, so the arc phase counts
@example(graph=build_family("wheel", 3), strong=False, strong_star=False)
# two general digraphs pin the k - c arcs, which no family graph of up to
# 16 labels has and a random draw reaches only by chance.
# 0 solutions: the part of free arc (2, 3) has two k - c arcs, and with
# their labels not kept distinct from each other the count reads 10
@example(graph=Digraph(4, ((2, 0), (1, 3), (0, 3), (2, 3), (3, 1))), strong=False,
         strong_star=False)
# 5 solutions: the part of free arc (0, 1) has a k + c and a k - c arc, and
# a count that leaves the k - c label free for the next part reads 6
@example(graph=Digraph(5, ((1, 2), (0, 4), (4, 0), (0, 2), (0, 1))), strong=False,
         strong_star=False)
def test_vertex_magic_count_all_matches_collect_all(graph, strong, strong_star):
    q = SearchQuery(graph, Target("vertex", "magic"), require_strong=strong,
                    require_strong_star=strong_star)
    every = search(SearchQuery(graph, Target("vertex", "magic"), require_strong=strong,
                               require_strong_star=strong_star, mode="collect-up-to",
                               limit=10 ** 9))
    one, two = search(q), search(q, workers=2)
    assert one.solutions_found == two.solutions_found == every.solutions_found
    assert one.nodes_visited == two.nodes_visited
    # a cactus with 8 labels has 4 vertices and 4 arcs, which
    # test_magic_rules_match_reference draws too; the oracle takes about
    # 0.8 s there, so it runs here on the smaller ones
    if graph.label_count <= 7:
        assert search(q, pruned=False).solutions_found == every.solutions_found

from itertools import permutations
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sublabel import Digraph, FamilyTag, ParameterError, build_family
from sublabel.digraph import NotIntegerError

ARC_COUNTS = {
    "path": lambda n, t: n - 1,
    "cycle": lambda n, t: n,
    "star": lambda n, t: n,
    "wheel": lambda n, t: 2 * n,
    "tadpole": lambda n, t: n + t,
    "friendship": lambda n, t: 3 * n,
    "butterfly": lambda n, t: 2 * n,
}

VERTEX_COUNTS = {
    "path": lambda n, t: n,
    "cycle": lambda n, t: n,
    "star": lambda n, t: n + 1,
    "wheel": lambda n, t: n + 1,
    "tadpole": lambda n, t: n + t,
    "friendship": lambda n, t: 2 * n + 1,
    "butterfly": lambda n, t: 2 * n - 1,
}


def all_instances():
    for n in range(2, 9):
        yield "path", n, None, "forward"
        yield "path", n, None, "alternating"
    for n in range(3, 9):
        yield "cycle", n, None, None
        yield "wheel", n, None, None
        yield "butterfly", n, None, None
    for n in range(1, 9):
        yield "star", n, None, "out"
        yield "star", n, None, "in"
        yield "friendship", n, None, None
    for n in range(3, 7):
        for t in range(1, 5):
            yield "tadpole", n, t, None


@pytest.mark.parametrize("family,n,t,orientation", list(all_instances()))
def test_family_counts_and_invariants(family, n, t, orientation):
    g = build_family(family, n, t=t, orientation=orientation)
    assert g.vertex_count == VERTEX_COUNTS[family](n, t)
    assert g.arc_count == ARC_COUNTS[family](n, t)
    seen = set()
    for tail, head in g.arcs:
        assert 0 <= tail < g.vertex_count
        assert 0 <= head < g.vertex_count
        assert tail != head
        assert (tail, head) not in seen
        seen.add((tail, head))
    assert len(g.family.vertex_names) == g.vertex_count
    assert len(g.family.arc_names) == g.arc_count


def test_smallest_cycle_arcs():
    g = build_family("cycle", 3)
    assert g.arcs == ((0, 1), (1, 2), (2, 0))


def test_alternating_path_orientation():
    # odd-indexed arcs point backward, even-indexed forward
    g = build_family("path", 4, orientation="alternating")
    assert g.arcs == ((1, 0), (1, 2), (3, 2))


def test_tadpole_arcs():
    g = build_family("tadpole", 3, t=2)
    assert g.vertex_count == 5
    assert g.arcs == ((0, 1), (1, 2), (2, 0), (3, 4), (4, 0))
    assert g.family.arc_names == ("a_1", "a_2", "a_3", "b_1", "c")


def test_tadpole_t1_has_no_inner_path_arcs():
    g = build_family("tadpole", 3, t=1)
    assert g.arcs == ((0, 1), (1, 2), (2, 0), (3, 0))


def test_star_orientations():
    assert build_family("star", 2, orientation="out").arcs == ((0, 1), (0, 2))
    assert build_family("star", 2, orientation="in").arcs == ((1, 0), (2, 0))


def test_wheel_spokes_then_rim():
    g = build_family("wheel", 3)
    assert g.arcs == ((1, 0), (2, 0), (3, 0), (1, 2), (2, 3), (3, 1))


def test_butterfly_isomorphic_to_two_triangle_friendship():
    b = build_family("butterfly", 3)
    f = build_family("friendship", 2)
    assert b.vertex_count == f.vertex_count == 5
    assert b.arc_count == f.arc_count == 6
    # explicit mapping: v_1,v_2,u_1,u_2,x -> v_11,v_12,v_21,v_22,x
    m = {0: 1, 1: 2, 2: 3, 3: 4, 4: 0}
    assert {(m[t], m[h]) for t, h in b.arcs} == set(f.arcs)


@pytest.mark.parametrize("family,n,t", [
    ("path", 1, None), ("cycle", 2, None), ("star", 0, None),
    ("wheel", 2, None), ("tadpole", 2, 1), ("tadpole", 3, 0),
    ("friendship", 0, None), ("butterfly", 2, None),
])
def test_out_of_range_parameters_rejected(family, n, t):
    with pytest.raises(ParameterError):
        build_family(family, n, t=t)


def test_tadpole_requires_t():
    with pytest.raises(ParameterError, match="t"):
        build_family("tadpole", 3)


def test_t_rejected_for_other_families():
    with pytest.raises(ParameterError, match="t"):
        build_family("cycle", 3, t=2)


def test_single_orientation_families_reject_orientation():
    with pytest.raises(ParameterError, match="orientation"):
        build_family("cycle", 3, orientation="forward")


def test_bad_orientation_named():
    with pytest.raises(ParameterError, match="orientation"):
        build_family("path", 3, orientation="sideways")


@pytest.mark.parametrize("family", ["path", "star"])
def test_empty_orientation_is_not_the_default(family):
    # only a missing orientation selects the default
    with pytest.raises(ParameterError, match="got ''"):
        build_family(family, 3, orientation="")


def test_unknown_family():
    with pytest.raises(ParameterError, match="family"):
        build_family("torus", 3)


def test_digraph_rejects_self_loop_and_duplicates():
    with pytest.raises(ValueError, match="self-loop"):
        Digraph(2, ((0, 0),))
    with pytest.raises(ValueError, match="duplicate"):
        Digraph(2, ((0, 1), (0, 1)))
    with pytest.raises(ValueError, match="outside"):
        Digraph(2, ((0, 2),))


@pytest.mark.parametrize("vertex_count,arcs", [
    (3, ((0, 1.9), (1, 2))),
    (3, ((0, True), (1, 2))),
    (3, (("0", 1),)),
    (True, ()),
    (3.0, ()),
])
def test_digraph_rejects_non_integers(vertex_count, arcs):
    # a float is not truncated and a bool is not read as 0 or 1
    with pytest.raises(NotIntegerError, match="integer"):
        Digraph(vertex_count, arcs)


@pytest.mark.parametrize("vertex_count,arcs,hint", [
    (3, ((0, 1, 2),), r"arc \(0, 1, 2\) must be a \(tail, head\) pair"),
    (3, ((0,),), r"arc \(0,\) must be a \(tail, head\) pair"),
    (3, (5,), r"arc 5 must be a \(tail, head\) pair"),
    (-1, (), "nonnegative"),
])
def test_digraph_rejects_malformed_arcs_and_counts(vertex_count, arcs, hint):
    with pytest.raises(ValueError, match=hint):
        Digraph(vertex_count, arcs)


def group_order(graph):
    return prod(len(orbit) for _, orbit in graph.automorphism_base())


@pytest.mark.parametrize("family,n,kw,order", [
    ("cycle", 3, {}, 3),
    ("cycle", 7, {}, 7),
    ("star", 1, {}, 1),
    ("star", 5, {}, factorial(5)),
    ("star", 4, {"orientation": "in"}, factorial(4)),
    ("wheel", 3, {}, 3),
    ("wheel", 6, {}, 6),
    ("friendship", 1, {}, 3),  # one triangle: the 3-cycle
    ("friendship", 4, {}, factorial(4)),
    ("butterfly", 3, {}, 2),
    ("butterfly", 5, {}, 2),
    ("path", 6, {"orientation": "forward"}, 1),
    ("path", 2, {"orientation": "alternating"}, 1),
    ("path", 3, {"orientation": "alternating"}, 2),
    ("path", 6, {"orientation": "alternating"}, 1),
    ("path", 7, {"orientation": "alternating"}, 2),
    ("tadpole", 3, {"t": 3}, 1),
    ("tadpole", 4, {"t": 1}, 1),
])
def test_automorphism_group_order_per_family(family, n, kw, order):
    assert group_order(build_family(family, n, **kw)) == order


def test_automorphism_base_is_a_stabiliser_chain():
    # the base point is the least vertex its stabiliser moves; the orbits
    # shrink along the chain and hold later vertices only
    assert build_family("star", 4).automorphism_base() == \
        ((1, (1, 2, 3, 4)), (2, (2, 3, 4)), (3, (3, 4)))
    assert build_family("friendship", 3).automorphism_base() == ((1, (1, 3, 5)), (3, (3, 5)))
    assert build_family("cycle", 5).automorphism_base() == ((0, (0, 1, 2, 3, 4)),)
    assert build_family("wheel", 4).automorphism_base() == ((1, (1, 2, 3, 4)),)
    assert build_family("butterfly", 4).automorphism_base() == ((0, (0, 3)),)
    assert Digraph(0, ()).automorphism_base() == ()


@st.composite
def digraphs_up_to_5_vertices(draw):
    v = draw(st.integers(0, 5))
    pairs = [(a, b) for a in range(v) for b in range(v) if a != b]
    return Digraph(v, tuple(draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else ()))


@settings(max_examples=200, deadline=None)
@given(graph=digraphs_up_to_5_vertices())
def test_automorphism_group_order_matches_brute_force(graph):
    arcs = set(graph.arcs)
    brute = sum(1 for p in permutations(range(graph.vertex_count))
                if {(p[t], p[h]) for t, h in arcs} == arcs)
    assert group_order(graph) == brute


# the conventional names of each family and orientation at a small n
CONVENTIONAL_NAMES = [
    ("path", 3, None, "forward", ("v_1", "v_2", "v_3"), ("a_1", "a_2")),
    ("path", 3, None, "alternating", ("v_1", "v_2", "v_3"), ("a_1", "a_2")),
    ("cycle", 3, None, None, ("v_1", "v_2", "v_3"), ("a_1", "a_2", "a_3")),
    ("star", 2, None, "out", ("v_0", "v_1", "v_2"), ("a_1", "a_2")),
    ("star", 2, None, "in", ("v_0", "v_1", "v_2"), ("a_1", "a_2")),
    ("wheel", 3, None, None, ("v_0", "v_1", "v_2", "v_3"),
     ("a_1", "a_2", "a_3", "b_1", "b_2", "b_3")),
    ("tadpole", 3, 1, None, ("v_1", "v_2", "v_3", "u_1"), ("a_1", "a_2", "a_3", "c")),
    ("tadpole", 3, 3, None, ("v_1", "v_2", "v_3", "u_1", "u_2", "u_3"),
     ("a_1", "a_2", "a_3", "b_1", "b_2", "c")),
    ("friendship", 2, None, None, ("x", "v_11", "v_12", "v_21", "v_22"),
     ("a_10", "a_11", "a_12", "a_20", "a_21", "a_22")),
    ("butterfly", 3, None, None, ("v_1", "v_2", "u_1", "u_2", "x"),
     ("a_1", "a_2", "a_3", "b_1", "b_2", "b_3")),
]


@pytest.mark.parametrize("family,n,t,orientation,vertex_names,arc_names", CONVENTIONAL_NAMES)
def test_conventional_names(family, n, t, orientation, vertex_names, arc_names):
    g = build_family(family, n, t=t, orientation=orientation)
    assert g.family.vertex_names == vertex_names
    assert g.family.arc_names == arc_names
    assert tuple(map(g.vertex_name, range(g.vertex_count))) == vertex_names
    assert tuple(map(g.arc_name, range(g.arc_count))) == arc_names


@pytest.mark.parametrize("family", ["mystery", "tadpole"])
def test_tags_without_names_fall_back_to_indices(family):
    # an unknown family, and a known one with parameters build_family
    # refuses (a tadpole needs t), have no conventional names
    tag = FamilyTag(family, 3)
    assert tag.vertex_names == tag.arc_names == ()
    for g in (Digraph(3, ((0, 1), (2, 1))), Digraph(3, ((0, 1), (2, 1)), tag)):
        assert [g.vertex_name(i) for i in range(3)] == ["v0", "v1", "v2"]
        assert [g.arc_name(i) for i in range(2)] == ["(0->1)", "(2->1)"]


@pytest.mark.parametrize("graph", [build_family("path", 3), Digraph(3, ((0, 1), (2, 1)))],
                         ids=["family", "plain"])
@pytest.mark.parametrize("index", [-1, -3, 3])
def test_vertex_name_rejects_out_of_range_index(graph, index):
    with pytest.raises(IndexError, match=f"vertex index {index} out of range for 3 vertices"):
        graph.vertex_name(index)


@pytest.mark.parametrize("graph", [build_family("path", 3), Digraph(3, ((0, 1), (2, 1)))],
                         ids=["family", "plain"])
@pytest.mark.parametrize("index", [-1, -2, 2])
def test_arc_name_rejects_out_of_range_index(graph, index):
    with pytest.raises(IndexError, match=f"arc index {index} out of range for 2 arcs"):
        graph.arc_name(index)


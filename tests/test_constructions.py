"""Constructor outputs against frozen values and the classifier.

The per-family tests parametrized on n (and t) check, one family member a
case, the rows of tests/claims.txt that cover it, through
claims.failures; acceptance criterion 1 sweeps every row.
"""

import re
from pathlib import Path

import pytest

import claims
from sublabel import (CONSTRUCTION_KINDS, GracefulInputError, ParameterError,
                      TotalLabeling, Verdict, build_family, classify, construct,
                      dual, graceful_to_strong_saml, validate_labeling,
                      weight_profile)
from sublabel.digraph import FAMILIES, NotIntegerError
from sublabel.labeling import BijectionError


def test_path_saml_frozen():
    g, l = construct("path", 4, "saml")
    assert g.arcs == ((1, 0), (1, 2), (3, 2))
    assert l == TotalLabeling((1, 4, 2, 3), (7, 6, 5))
    assert weight_profile(g, l).arc_weights == (4, 4, 4)


def test_path_sa_al_frozen():
    g, l = construct("path", 3, "sa-al")
    assert l == TotalLabeling((1, 2, 3), (5, 4))
    c = classify(g, l)
    assert c.arc_verdict == Verdict.arithmetic(5, 1)
    assert c.strong


def test_path_sv_al_frozen():
    g, l = construct("path", 3, "sv-al")
    assert l == TotalLabeling((5, 4, 3), (1, 2))
    assert sorted(weight_profile(g, l).vertex_weights) == [3, 4, 5]
    assert classify(g, l).strong_star


@pytest.mark.parametrize("n", range(2, 30))
def test_path_classifications(n):
    assert claims.failures("path", n) == []


def test_cycle_frozen():
    g, l = construct("cycle", 3, "sa-sv-al")
    assert l == TotalLabeling((1, 2, 3), (5, 4, 6))
    p = weight_profile(g, l)
    assert p.arc_weights == (6, 5, 4)
    assert p.vertex_weights == (2, 3, 1)


@pytest.mark.parametrize("n", range(3, 30))
def test_cycle_both_sides_arithmetic(n):
    assert claims.failures("cycle", n) == []


def test_star_saml_frozen():
    g, l = construct("star", 2, "saml")
    assert l == TotalLabeling((1, 2, 3), (5, 4))
    assert weight_profile(g, l).arc_weights == (6, 6)


def test_star_sa_al_frozen():
    g, l = construct("star", 2, "sa-al")
    assert l == TotalLabeling((5, 1, 2), (4, 3))
    assert classify(g, l).arc_verdict == Verdict.arithmetic(6, 2)


def test_star_sval_frozen():
    g, l = construct("star", 2, "sval")
    assert l == TotalLabeling((1, 4, 5), (3, 2))
    assert set(weight_profile(g, l).vertex_weights) == {6, 1, 3}


@pytest.mark.parametrize("n", range(1, 30))
def test_star_classifications(n):
    assert claims.failures("star", n) == []


# tests/claims.txt gives each construction's weight set; these say which
# vertex takes the weight that stands apart from the rest


def test_star_center_weight_exceeds_leaf_weights():
    for n in range(1, 51):
        g, l = construct("star", n, "sval")
        vw = weight_profile(g, l).vertex_weights
        assert vw[0] > max(vw[1:])


def test_wheel_center_weight_exceeds_rim_weights():
    for n in range(3, 41):
        g, l = construct("wheel", n, "sval")
        vw = weight_profile(g, l).vertex_weights
        assert vw[0] > max(vw[1:])


def test_butterfly_shared_vertex_weight_comes_last():
    for n in range(3, 31):
        g, l = construct("butterfly", n, "sval")
        assert weight_profile(g, l).vertex_weights[-1] == 3


def test_star_sval_arc_labels_are_not_a_minimal_prefix():
    # the leaf arcs carry 2..n+1, so the strong* flag must come out false
    for n in (1, 2, 5):
        g, l = construct("star", n, "sval")
        assert sorted(l.arc_labels) == list(range(2, n + 2))
        assert not classify(g, l).strong_star


def test_wheel_frozen_n3():
    g, l = construct("wheel", 3, "sval")
    assert l.vertex_labels == (1, 9, 8, 10)
    assert l.arc_labels == (2, 3, 4, 6, 7, 5)
    assert set(weight_profile(g, l).vertex_weights) == {10, 6, 4, 8}
    assert classify(g, l).vertex_verdict == Verdict.arithmetic(4, 2)


@pytest.mark.parametrize("n", range(3, 25))
def test_wheel_vertex_weight_set(n):
    assert claims.failures("wheel", n) == []


def test_wheel_n4_weights():
    g, l = construct("wheel", 4, "sval")
    vw = weight_profile(g, l).vertex_weights
    assert sorted(vw[1:]) == [5, 7, 9, 11]
    assert vw[0] == 15
    assert classify(g, l).vertex_verdict == Verdict.antimagic()


def test_tadpole_saal_frozen():
    g, l = construct("tadpole", 3, "saal", t=2)
    assert l.vertex_labels == (3, 5, 4, 1, 2)
    assert l.arc_labels == (6, 7, 8, 10, 9)
    assert set(weight_profile(g, l).arc_weights) == {8, 6, 7, 11, 10}


def test_tadpole_saal_t1_frozen():
    g, l = construct("tadpole", 3, "saal", t=1)
    assert l.vertex_labels == (2, 4, 3, 1)
    assert l.arc_labels == (5, 6, 7, 8)
    validate_labeling(g, l)


def test_tadpole_sv_al_frozen():
    g, l = construct("tadpole", 3, "sv-al", t=2)
    assert l.vertex_labels == (6, 8, 7, 10, 9)
    assert l.arc_labels == (3, 4, 5, 1, 2)
    assert sorted(weight_profile(g, l).vertex_weights) == [6, 7, 8, 9, 10]


@pytest.mark.parametrize("n", range(3, 10))
@pytest.mark.parametrize("t", range(1, 8))
def test_tadpole_classifications(n, t):
    assert claims.failures("tadpole", n, t) == []


def test_friendship_frozen_n2():
    g, l = construct("friendship", 2, "sa-al")
    assert l.vertex_labels == (1, 2, 4, 3, 5)
    assert l.arc_labels == (6, 8, 11, 7, 9, 10)
    assert sorted(weight_profile(g, l).arc_weights) == [6, 7, 8, 9, 10, 11]


@pytest.mark.parametrize("n", range(1, 20))
def test_friendship_classifications(n):
    assert claims.failures("friendship", n) == []


def test_butterfly_sa_al_frozen():
    g, l = construct("butterfly", 3, "sa-al")
    assert l.vertex_labels == (3, 1, 4, 2, 5)
    assert l.arc_labels == (9, 7, 10, 8, 6, 11)
    assert sorted(weight_profile(g, l).arc_weights) == [6, 7, 8, 9, 10, 11]


def test_butterfly_sval_frozen():
    g, l = construct("butterfly", 3, "sval")
    assert l.vertex_labels == (7, 9, 8, 10, 11)
    assert l.arc_labels == (3, 1, 5, 4, 2, 6)
    assert set(weight_profile(g, l).vertex_weights) == {3, 9, 11, 10, 12}


@pytest.mark.parametrize("n", range(3, 20))
def test_butterfly_classifications(n):
    assert claims.failures("butterfly", n) == []


def test_friendship_and_butterfly_agree_on_the_shared_shape():
    _, lf = construct("friendship", 2, "sa-al")
    gf = build_family("friendship", 2)
    gb, lb = construct("butterfly", 3, "sa-al")
    assert classify(gf, lf).arc_verdict == Verdict.arithmetic(6, 1)
    assert classify(gb, lb).arc_verdict == Verdict.arithmetic(6, 1)


def test_path_arc_labels_2n_plus_1_variant_is_not_a_bijection():
    # the 2n+1-i arc labels overshoot the range and are rejected outright
    for n in (3, 4):
        g = build_family("path", n, orientation="forward")
        labels = TotalLabeling(tuple(range(1, n + 1)),
                               tuple(2 * n + 1 - i for i in range(1, n)))
        with pytest.raises(BijectionError):
            validate_labeling(g, labels)


def test_construct_refuses_a_kind_the_family_lacks_and_a_tadpole_without_t():
    with pytest.raises(ParameterError, match="valid kinds"):
        construct("cycle", 4, "saml")
    with pytest.raises(ParameterError):
        construct("tadpole", 3, "saal")  # t missing


def test_every_family_has_constructions():
    # construct() looks up the kinds once build_family has accepted the family
    assert set(CONSTRUCTION_KINDS) == set(FAMILIES)


def test_readme_names_every_construction_kind():
    # "Labeling kinds per family: path `saml`, ..; cycle ..; .." up to its
    # first full stop, the parenthesis on tadpoles' --t left out
    text = " ".join((Path(__file__).resolve().parent.parent / "README.md").read_text().split())
    start = text.index("Labeling kinds per family: ") + len("Labeling kinds per family: ")
    listing = re.sub(r" \(.*?\)", "", text[start:text.index(".", start)])
    named = {}
    for part in listing.split("; "):
        family, kinds = part.split(" ", 1)
        named[family] = tuple(re.findall(r"`([^`]+)`", kinds))
    assert named == CONSTRUCTION_KINDS
    assert list(named) == list(CONSTRUCTION_KINDS)


@pytest.mark.parametrize("family,kind", [("path", "saml"), ("cycle", "sa-sv-al")])
def test_construct_rejects_t_outside_tadpoles(family, kind):
    with pytest.raises(ParameterError, match="only meaningful for tadpoles"):
        construct(family, 4, kind, t=2)


@pytest.mark.parametrize("family,n,t,kind", [
    ("path", 1, None, "saml"), ("cycle", 2, None, "sa-sv-al"),
    ("star", 0, None, "saml"), ("wheel", 2, None, "sval"),
    ("tadpole", 2, 1, "saal"), ("friendship", 0, None, "sa-al"),
    ("butterfly", 2, None, "sval"),
    (["path"], 3, None, "saml"), ("path", 3, None, ["saml"]),
])
def test_constructors_reject_small_parameters(family, n, t, kind):
    with pytest.raises(ParameterError):
        construct(family, n, kind, t=t)


# -- graceful tree conversion -----------------------------------------


def test_graceful_path_conversion_frozen():
    edges = [(0, 1), (1, 2), (2, 3)]
    g, l = graceful_to_strong_saml(edges, (4, 1, 3, 2))
    assert g.arcs == ((0, 1), (2, 1), (2, 3))
    assert l == TotalLabeling((4, 1, 3, 2), (7, 6, 5))
    assert weight_profile(g, l).arc_weights == (4, 4, 4)


def test_graceful_single_edge():
    g, l = graceful_to_strong_saml([(0, 1)], (2, 1))
    assert g.arcs == ((0, 1),)
    assert l.arc_labels == (3,)
    assert weight_profile(g, l).arc_weights == (2,)


def test_graceful_star_conversion():
    g, l = graceful_to_strong_saml([(0, 1), (0, 2)], (1, 2, 3))
    assert g.arcs == ((1, 0), (2, 0))
    assert l.arc_labels == (4, 5)
    c = classify(g, l)
    assert c.arc_verdict == Verdict.magic(3) and c.strong


@pytest.mark.parametrize("edges,phi,hint", [
    ([(0, 1), (1, 2), (2, 0)], (1, 2, 3), "tree"),          # cycle, wrong count
    ([(0, 1), (0, 1)], (1, 2, 3), "tree"),                  # disconnected triple
    ([(0, 1), (1, 2)], (1, 2, 4), "bijection"),             # phi not onto 1..3
    ([(0, 1), (1, 2), (2, 3)], (1, 2, 3, 4), "graceful"),   # diffs 1,1,1
    ([], (), "at least one vertex"),                        # empty tree
    ([(0, 0)], (1, 2), "not a valid tree edge"),            # loop, right count
])
def test_graceful_conversion_rejects_bad_input(edges, phi, hint):
    with pytest.raises(GracefulInputError, match=hint):
        graceful_to_strong_saml(edges, phi)


@pytest.mark.parametrize("edges,phi", [
    ([(0, 1.0), (1, 2)], (1, 3, 2)),
    ([(0, True), (1, 2)], (1, 3, 2)),
    ([(0, 1), (1, 2)], (1, 3, 2.0)),
    ([(0, 1), (1, 2)], (True, 3, 2)),
])
def test_graceful_conversion_rejects_non_integers(edges, phi):
    # phi is checked first, by the conversion itself; an edge endpoint by
    # int_tuple
    if all(type(x) is int for x in phi):
        error, hint = NotIntegerError, "edge endpoints must be integers"
    else:
        error, hint = GracefulInputError, r"^phi must hold integers"
    with pytest.raises(error, match=hint):
        graceful_to_strong_saml(edges, phi)


def zigzag_phi(n):
    """The classic graceful labeling of a path: n, 1, n-1, 2, ..."""
    phi = []
    lo, hi = 1, n
    for i in range(n):
        if i % 2 == 0:
            phi.append(hi)
            hi -= 1
        else:
            phi.append(lo)
            lo += 1
    return tuple(phi)


@pytest.mark.parametrize("n", range(2, 12))
def test_graceful_paths_become_magic(n):
    edges = [(i, i + 1) for i in range(n - 1)]
    g, l = graceful_to_strong_saml(edges, zigzag_phi(n))
    c = classify(g, l)
    assert c.arc_verdict == Verdict.magic(n) and c.strong


def test_dual_of_constructed_magic_labelings():
    for g, l in [construct("path", 6, "saml"), construct("star", 4, "saml"),
                 graceful_to_strong_saml([(0, 1), (0, 2), (0, 3)], (1, 2, 3, 4))]:
        mu = classify(g, l).arc_verdict.mu
        d = dual(g, l)
        assert classify(g, d).arc_verdict == Verdict.magic(g.label_count + 1 - mu)
        assert dual(g, d) == l

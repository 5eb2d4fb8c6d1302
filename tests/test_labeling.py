"""Weights, classification, duality, and the magic-constant bounds."""

import random
from fractions import Fraction

import pytest

from sublabel import (BijectionError, Digraph, TotalLabeling, Verdict,
                      arc_weight, build_family, classify, dual,
                      longest_circuit, mu_bounds, verdict_of, vertex_weight,
                      weight_profile)
from sublabel.digraph import NotIntegerError

CYCLE3 = build_family("cycle", 3)
CYCLE3_L = TotalLabeling((1, 2, 3), (5, 4, 6))


def random_labeling(rng, g):
    labels = list(range(1, g.label_count + 1))
    rng.shuffle(labels)
    return TotalLabeling(tuple(labels[:g.vertex_count]), tuple(labels[g.vertex_count:]))


def sample_graphs():
    return [
        build_family("path", 5, orientation="forward"),
        build_family("path", 6, orientation="alternating"),
        build_family("cycle", 5),
        build_family("star", 4, orientation="in"),
        build_family("star", 4, orientation="out"),
        build_family("wheel", 4),
        build_family("tadpole", 4, t=3),
        build_family("friendship", 3),
        build_family("butterfly", 4),
    ]


@pytest.mark.parametrize("vertex_labels,arc_labels", [
    ((1.5, 2, 3.7), (4, 5)),
    ((1, 2, 3), (4.0, 5)),
    ((True, 2, 3), (4, 5)),
    ((1, 2, 3), (4, "5")),
])
def test_labeling_rejects_non_integers(vertex_labels, arc_labels):
    # a float is not truncated and a bool is not read as 0 or 1
    with pytest.raises(NotIntegerError, match="labels must be integers"):
        TotalLabeling(vertex_labels, arc_labels)


def test_non_integer_label_error_names_the_value_not_the_labels():
    labels = tuple(range(1, 10 ** 5)) + (1.5,)
    with pytest.raises(NotIntegerError) as info:
        TotalLabeling(labels, ())
    assert "1.5 at index 99999" in str(info.value) and len(str(info.value)) < 200


def test_arc_weight_examples():
    assert arc_weight(CYCLE3, CYCLE3_L, 0) == 5 + 2 - 1
    # a single arc can have weight zero: label(tail) = label(head) + label(arc)
    g = Digraph(2, ((0, 1),))
    assert arc_weight(g, TotalLabeling((3, 1), (2,)), 0) == 0
    g = build_family("star", 2, orientation="out")
    assert arc_weight(g, TotalLabeling((1, 2, 3), (5, 4)), 0) == 5 + 2 - 1 == 6


def test_vertex_weight_examples():
    g = Digraph(1, ())
    assert vertex_weight(g, TotalLabeling((1,), ()), 0) == 1
    g = build_family("star", 2, orientation="in")
    assert vertex_weight(g, TotalLabeling((1, 4, 5), (3, 2)), 0) == 1 + 3 + 2 == 6
    g = build_family("path", 3, orientation="forward")
    assert vertex_weight(g, TotalLabeling((5, 4, 3), (1, 2)), 1) == 4 + 1 - 2 == 3


def test_weight_profile_cycle3():
    p = weight_profile(CYCLE3, CYCLE3_L)
    assert p.arc_weights == (6, 5, 4)
    assert p.vertex_weights == (2, 3, 1)


def test_weight_sum_identities_hold_on_random_labelings():
    rng = random.Random(20240811)
    for g in sample_graphs():
        indeg, outdeg = g.in_degrees(), g.out_degrees()
        for _ in range(25):
            l = random_labeling(rng, g)
            p = weight_profile(g, l)
            assert sum(p.vertex_weights) == sum(l.vertex_labels)
            expected = sum(l.arc_labels) + sum(
                l.vertex_labels[v] * (indeg[v] - outdeg[v])
                for v in range(g.vertex_count))
            assert sum(p.arc_weights) == expected


def test_index_out_of_range():
    with pytest.raises(IndexError):
        arc_weight(CYCLE3, CYCLE3_L, 3)
    with pytest.raises(IndexError):
        vertex_weight(CYCLE3, CYCLE3_L, -1)


@pytest.mark.parametrize("vl,al", [
    ((1, 2, 3), (6, 5, 4, 9)),      # wrong arc count
    ((1, 2, 3), (4, 5, 5)),         # repeated label
    ((1, 2, 3), (4, 5, 7)),         # label out of range
    ((0, 2, 3), (4, 5, 6)),         # zero label
    ((1, 2), (3, 4, 5)),            # wrong vertex count
    ((1, 2, 3), (4, 5, -6)),        # negative label
    ((7, 2, 3), (4, 5, 6)),         # N + 1 in place of 1
    ((), ()),                       # no labels at all
])
def test_bijection_violations_rejected(vl, al):
    with pytest.raises(BijectionError):
        weight_profile(CYCLE3, TotalLabeling(vl, al))


def test_classify_cycle3():
    c = classify(CYCLE3, CYCLE3_L)
    assert c.arc_verdict == Verdict.arithmetic(4, 1)
    assert c.vertex_verdict == Verdict.arithmetic(1, 1)
    assert c.strong and not c.strong_star
    # a caller that has the weights already passes them in
    assert classify(CYCLE3, CYCLE3_L, profile=weight_profile(CYCLE3, CYCLE3_L)) == c


def test_classify_repeated_weight_is_none():
    # two equal arc weights, one different
    l = TotalLabeling((1, 4, 2), (3, 6, 5))
    c = classify(CYCLE3, l)
    assert c.arc_verdict == Verdict.none()
    assert c.vertex_verdict == Verdict.none()


def test_all_equal_is_magic_never_arithmetic():
    assert verdict_of([7, 7, 7]) == Verdict.magic(7)
    assert verdict_of([3]) == Verdict.magic(3)
    assert verdict_of([]) == Verdict.magic(None)


def test_two_distinct_weights_form_a_progression():
    assert verdict_of([8, 6]) == Verdict.arithmetic(6, 2)


def test_distinct_but_no_progression_is_antimagic():
    assert verdict_of([1, 2, 5]) == Verdict.antimagic()


def test_classify_stable_under_arc_storage_order():
    rng = random.Random(7)
    for g in sample_graphs():
        l = random_labeling(rng, g)
        base = classify(g, l)
        order = list(range(g.arc_count))
        rng.shuffle(order)
        g2 = Digraph(g.vertex_count, tuple(g.arcs[i] for i in order))
        l2 = TotalLabeling(l.vertex_labels, tuple(l.arc_labels[i] for i in order))
        other = classify(g2, l2)
        assert (base.arc_verdict, base.vertex_verdict) == \
               (other.arc_verdict, other.vertex_verdict)
        assert (base.strong, base.strong_star) == (other.strong, other.strong_star)


def test_dual_of_star_magic_labeling_has_weight_zero():
    g = build_family("star", 2, orientation="out")
    l = TotalLabeling((1, 2, 3), (5, 4))
    d = dual(g, l)
    assert d == TotalLabeling((5, 4, 3), (1, 2))
    assert weight_profile(g, d).arc_weights == (0, 0)
    assert classify(g, d).arc_verdict == Verdict.magic(0)


def test_dual_is_an_involution():
    rng = random.Random(99)
    for g in sample_graphs():
        l = random_labeling(rng, g)
        assert dual(g, dual(g, l)) == l


def test_dual_of_identity_order_is_reversal():
    g = build_family("path", 3, orientation="forward")
    l = TotalLabeling((1, 2, 3), (4, 5))
    assert dual(g, l) == TotalLabeling((5, 4, 3), (2, 1))


def test_dual_vertex_weights_reflect_when_degrees_balance():
    # on a dicycle every vertex has in-degree == out-degree, so dualizing
    # maps each vertex weight w to N+1-w; vertex-magic survives dualizing
    rng = random.Random(5)
    for n in (3, 4, 6):
        g = build_family("cycle", n)
        for _ in range(10):
            l = random_labeling(rng, g)
            w = weight_profile(g, l).vertex_weights
            wd = weight_profile(g, dual(g, l)).vertex_weights
            n1 = g.label_count + 1
            assert wd == tuple(n1 - x for x in w)


def test_longest_circuit():
    assert longest_circuit(build_family("path", 5)) == 0
    for n in (3, 5, 7):
        assert longest_circuit(build_family("cycle", n)) == n
    assert longest_circuit(build_family("tadpole", 4, t=3)) == 4
    assert longest_circuit(build_family("wheel", 4)) == 4
    assert longest_circuit(build_family("friendship", 2)) == 3
    assert longest_circuit(build_family("butterfly", 5)) == 5


def test_mu_bounds_cycle3():
    b = mu_bounds(build_family("cycle", 3))
    assert (b.s, b.lower, b.upper) == (3, Fraction(2), Fraction(5))


def test_mu_bounds_cycle_general():
    for n in (3, 4, 5, 6):
        b = mu_bounds(build_family("cycle", n))
        assert b.lower == Fraction(n + 1, 2)
        assert b.upper == Fraction(3 * n + 1, 2)


def test_mu_bounds_acyclic():
    # path(2) has arc-magic labelings with mu 0, 2 and 4: without a
    # circuit nothing bounds mu
    with pytest.raises(ValueError, match="circuit"):
        mu_bounds(build_family("path", 4))

"""Pruning rules of the search kernel, checked against the reference
enumerator and against the labels placed.  The rules themselves are
stated once, as rules 1-5 of the `sublabel.search` module docstring.

Checked here: the pruned kernel against the reference enumerator on
random digraphs for every target kind, strong flag and mode, at one
worker and split over two, with explicit examples for cases that a rule
once got wrong; at every boundary, the weight sum and the vertex-label
mask that the vertex phase carries down, and the candidate term masks
and the fixed-weight bits that each arc loop starts from; rule 2's
progression table, and that a window ignores a zero coefficient; the
arc-magic mu bounds; the symmetry and dual cuts against plain
enumeration; the node and solution counts of tests/pinned_searches.txt,
so that any change to the rules shows, and that the README quotes no
other count; and the refusal of bad search parameters."""

import hashlib
import json
import os
import re
import subprocess
import sys
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sublabel import (Digraph, SearchCapError, SearchQuery, Target, build_family,
                      classify, longest_circuit, mu_bounds, search)
from sublabel.cli import main
from sublabel.search import _Kernel, _report, _window

MAX_LABELS = 8


@st.composite
def small_digraphs(draw):
    """Digraphs with 1 to 4 vertices and at most MAX_LABELS labels."""
    v = draw(st.integers(1, 4))
    pairs = [(a, b) for a in range(v) for b in range(v) if a != b]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True,
                           max_size=min(len(pairs), MAX_LABELS - v))) if pairs else []
    return Digraph(v, tuple(chosen))


@st.composite
def targets(draw):
    """Every side and kind; arithmetic targets may pin a and/or d."""
    side = draw(st.sampled_from(("arc", "vertex")))
    kind = draw(st.sampled_from(("magic", "antimagic", "arithmetic")))
    if kind != "arithmetic":
        return Target(side, kind)
    return Target(side, kind, a=draw(st.none() | st.integers(-2, 12)),
                  d=draw(st.none() | st.integers(1, 3)))


def split_in_process(q):
    """What search(q, workers=2) returns, with the branches run here: one
    kernel runs the whole tree for a query with a witness bound, else each
    first label in turn, as the caller and its forked workers share it."""
    kernel = _Kernel(q)
    if q.witness_cap or not q.graph.label_count:
        return _report(q, [kernel.run()], kernel, 0.0)
    lo, hi = kernel._slot_labels(0)
    return _report(q, [kernel.run(lab) for lab in range(lo, hi + 1)], kernel, 0.0)


def examples(*cases):
    """@example for each (graph, target): every witness, and the count-all
    form through the forked split."""
    def wrap(test):
        for graph, target in cases:
            test = example(graph=graph, target=target, strong=False, strong_star=False,
                           limit=10 ** 9, forked=True)(test)
        return test
    return wrap


# generated examples compare the split in this process, as forked workers
# per example make a failure slower to shrink; the explicit examples fork
@pytest.mark.filterwarnings("error::DeprecationWarning")  # fork warns if threads run
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(graph=small_digraphs(),
       target=targets(),
       strong=st.booleans(),
       strong_star=st.booleans(),
       limit=st.sampled_from((1, 3, 10 ** 9)),
       forked=st.just(False))
@examples(
    (Digraph(1, ()), Target("vertex", "magic")),
    (Digraph(1, ()), Target("arc", "magic")),
    (Digraph(3, ((0, 1), (0, 2))), Target("arc", "magic")),
    (Digraph(3, ((0, 1), (1, 0), (2, 0))), Target("arc", "magic")),
    (Digraph(4, ((1, 0), (2, 0), (3, 0))), Target("vertex", "magic")),
    # the centre of an in-star has coefficient 3 - 0 - 1 = +2 in the arc
    # weight sum S = N(N+1)/2 + sum((in - out - 1) * label) = A * mu, and
    # each leaf 0 - 1 - 1 = -2, which bounds S from the other side:
    # bounded as positive coefficients, the cut finds none of the 108
    # solutions
    (Digraph(4, ((1, 0), (2, 0), (3, 0))), Target("arc", "magic")),
    # A = 0: no arc weight, no sum to cut by, and every labeling is magic
    (Digraph(3, ()), Target("arc", "magic")),
    # a 2-circuit beside an isolated vertex: 2 * mu is the sum of two arc
    # labels in 1..6, so the seed holds mu = 2..4, and the 6 solutions
    # take mu = 2, 3 and 4, both ends of it
    (Digraph(3, ((0, 1), (1, 0))), Target("arc", "magic")),
    # an isolated vertex beside an arc, and a 2-cycle, whose arcs both
    # close their endpoints
    (Digraph(3, ((0, 1),)), Target("vertex", "magic")),
    (Digraph(2, ((0, 1), (1, 0))), Target("vertex", "magic")),
    # a single weight, or none, is magic: no distinctness target holds
    (Digraph(1, ()), Target("vertex", "antimagic")),
    (Digraph(2, ((0, 1),)), Target("arc", "antimagic")),
    (Digraph(2, ((0, 1),)), Target("arc", "arithmetic")),
    (Digraph(3, ()), Target("arc", "arithmetic", d=1)),
    # A = 0: the vertex weights are the vertex labels
    (Digraph(3, ()), Target("vertex", "arithmetic")),
    (Digraph(3, ()), Target("vertex", "antimagic")),
    (Digraph(3, ((0, 1),)), Target("vertex", "arithmetic", a=1)),
    # the isolated vertex 3 weighs its label before the arc phase: left
    # out of the seen mask, it lets a closed weight repeat it, and the
    # count-all search finds 608 labelings, not 488
    (Digraph(4, ((0, 1), (0, 2))), Target("vertex", "antimagic")),
    # in-degree and out-degree differ, so the dual does not keep the
    # vertex class, and the count-all search must not cut the dual
    (Digraph(3, ((0, 1), (1, 0), (2, 0))), Target("vertex", "arithmetic")),
    # two components and one free arc: without the first component's sum
    # the vertex phase passed vl (4, 1, 6, 7, 2), which with al (8, 5, 3)
    # meets every arc form, though vertices 2 and 4 weigh 3 and 5, not mu = 4
    (Digraph(5, ((2, 1), (1, 2), (3, 4))), Target("vertex", "magic")),
    # the free arc (1, 3) closes the triangle 0, 1, 3; tree arc (0, 1)
    # gets the label k + c and (0, 3) the label k - c, checked c by c
    (Digraph(4, ((0, 1), (0, 3), (1, 3), (2, 0))), Target("vertex", "magic")),
    # a part with two free arcs, as on wheels, is read from its
    # first-written arc and keeps the arc phase; wheel(3) has 10 labels,
    # too many for the oracle
    (Digraph(3, ((0, 1), (1, 2), (2, 0), (2, 1))), Target("vertex", "magic")),
    # a forest with 2 solutions: each full vertex prefix is one labeling
    (Digraph(5, ((0, 1), (1, 2), (2, 3))), Target("vertex", "magic")),
    # 13 solutions; a part with two free arcs whose arcs are not offset
    # from its first-written arc finds 8
    (Digraph(3, ((1, 2), (2, 0), (1, 0), (0, 1))), Target("vertex", "magic")),
    # 6 solutions; the free arc's part has its last arc written at slot 1,
    # and the label of the isolated vertex 3, placed after it, can leave
    # that part no label: the recheck at slot 3 cuts 19 nodes to 13
    (Digraph(4, ((0, 1), (1, 2), (2, 0))), Target("vertex", "magic")),
)
# the in-star's sum cut with the labels narrowed: the vertices take 1..4
# and the arcs 5..7, or the arcs 1..3 and the vertices 4..7; 12 solutions
# each
@example(graph=Digraph(4, ((1, 0), (2, 0), (3, 0))), target=Target("arc", "magic"), strong=True,
         strong_star=False, limit=10 ** 9, forked=True)
@example(graph=Digraph(4, ((1, 0), (2, 0), (3, 0))), target=Target("arc", "magic"), strong=False,
         strong_star=True, limit=10 ** 9, forked=True)
# the arc window is the one label 1, beside an isolated vertex: the forced
# arc's label lies further from 0 than the window is wide; 1 solution
@example(graph=Digraph(3, ((1, 2),)), target=Target("vertex", "magic"), strong=False,
         strong_star=True, limit=10 ** 9, forked=True)
# 4 solutions; without the first-arc offset 2
@example(graph=Digraph(3, ((2, 1), (0, 2), (0, 1), (1, 0))), target=Target("vertex", "magic"),
         strong=False, strong_star=True, limit=10 ** 9, forked=True)
# both strong flags leave the vertices the labels 3..2, none at all
@example(graph=Digraph(2, ((0, 1), (1, 0))), target=Target("vertex", "arithmetic"),
         strong=True, strong_star=True, limit=10 ** 9, forked=True)
# 4 solutions, each with vertex labels summing to 12 or more; the prefix
# (1, 2) and the least label after it sum to 6, below every sum that a
# progression with a = 3 takes
@example(graph=Digraph(3, ((0, 1), (1, 2))), target=Target("vertex", "arithmetic", a=3),
         strong=False, strong_star=False, limit=10 ** 9, forked=True)
# 3,856 solutions; vertex 4 has two in-arcs, so its label counts -1 times
# in the arc weight sum, and the least sum gives it the highest label: given
# the lowest, as to the other vertices, the bound cuts every solution
@example(graph=Digraph(5, ((3, 4), (2, 1), (1, 4))), target=Target("arc", "arithmetic"),
         strong=False, strong_star=False, limit=10 ** 9, forked=True)
# the arc phase's free-label mask is the arc window less the vertex labels:
# under --strong the vertices take 1..3, outside the window 4..6, so none
# is cleared; 36 and 24 solutions
@example(graph=Digraph(3, ((0, 1), (1, 2), (2, 0))), target=Target("arc", "antimagic"),
         strong=True, strong_star=False, limit=10 ** 9, forked=True)
@example(graph=Digraph(3, ((0, 1), (1, 2), (2, 0))), target=Target("arc", "arithmetic"),
         strong=True, strong_star=False, limit=10 ** 9, forked=True)
# under --strong-star the arcs take 1..3 and the vertices 4..7; 72 and 36
@example(graph=Digraph(4, ((0, 1), (0, 2), (0, 3))), target=Target("arc", "antimagic"),
         strong=False, strong_star=True, limit=10 ** 9, forked=True)
@example(graph=Digraph(4, ((0, 1), (0, 2), (0, 3))), target=Target("arc", "arithmetic"),
         strong=False, strong_star=True, limit=10 ** 9, forked=True)
# every base of an in-star is the centre's label less a leaf's, mostly
# negative, and the first witness weighs -4, 0 and 4, two of them below 1:
# the term and seen-weight masks set bit w + N for weight w >= 2 - N;
# 24 solutions
@example(graph=Digraph(4, ((1, 0), (2, 0), (3, 0))), target=Target("arc", "arithmetic", a=-4),
         strong=False, strong_star=False, limit=10 ** 9, forked=True)
# the arc labels are walked low bit first, so the first three witnesses
# are vertex labels 1..5 with arc labels 6, 7, 8 then 7, 6, 8 then 8, 6, 7;
# 6, 8, 7 is skipped, as it gives the first two arcs the weight 7
@example(graph=Digraph(5, ((0, 1), (2, 1), (3, 4))), target=Target("arc", "antimagic"),
         strong=False, strong_star=False, limit=3, forked=True)
# the centre of an out-star with one more arc into a leaf weighs its label
# less two arc labels, -11 in both witnesses, below every vertex label: the
# vertex-side seen and term masks set bit w + w_off for weight w, w_off
# minus the least weight any vertex can reach; 2 solutions
@example(graph=Digraph(4, ((0, 1), (0, 2), (3, 1))), target=Target("vertex", "arithmetic", a=-11),
         strong=False, strong_star=False, limit=10 ** 9, forked=True)
# the isolated vertex 3 weighs its label, set in the seen mask and checked
# against the term masks before the arc phase, beside a centre of negative
# weight; the first three witnesses pin the order, of 488 and 14 solutions
@example(graph=Digraph(4, ((0, 1), (0, 2))), target=Target("vertex", "antimagic"),
         strong=False, strong_star=False, limit=3, forked=True)
@example(graph=Digraph(4, ((0, 1), (0, 2))), target=Target("vertex", "arithmetic"),
         strong=False, strong_star=False, limit=3, forked=True)
def test_magic_rules_match_reference(graph, target, strong, strong_star, limit, forked):
    q = SearchQuery(graph, target, require_strong=strong,
                    require_strong_star=strong_star, mode="collect-up-to", limit=limit)
    reference = search(q, pruned=False)
    two_workers = (lambda query: search(query, workers=2)) if forked else split_in_process
    for pruned in (search(q), two_workers(q)):
        assert pruned.solutions_found == reference.solutions_found
        assert pruned.witnesses == reference.witnesses
        assert pruned.exhaustive == reference.exhaustive
        assert pruned.nodes_visited <= reference.nodes_visited
    # only a count-all search is split over the first labels
    count_all = SearchQuery(graph, target, require_strong=strong,
                            require_strong_star=strong_star)
    one, split = search(count_all), two_workers(count_all)
    assert (split.solutions_found, split.nodes_visited, split.exhaustive) == \
        (one.solutions_found, one.nodes_visited, True)
    if reference.exhaustive:
        assert split.solutions_found == reference.solutions_found
    elif forked:
        # an explicit example below its witness bound: the oracle's own
        # count-all search checks the count
        assert split.solutions_found == search(count_all, pruned=False).solutions_found


class CheckedKernel(_Kernel):
    """A kernel that checks, at every boundary, the state that the vertex
    phase carries down against the vertex labels placed."""

    def _boundary(self, mus, vmask, S):
        g, vl = self.query.graph, self.vl
        if self.target.side == "arc":
            # the arc labels sum to N(N+1)/2 - sum(vl), and each arc adds
            # its base vl[head] - vl[tail] to its label
            n = g.label_count
            weights = n * (n + 1) // 2 - sum(vl) + sum(vl[h] - vl[t] for t, h in g.arcs)
        else:
            weights = sum(vl)  # the arcs add to one vertex what they take from another
        mask = 0
        for x in vl:
            mask |= 1 << x
        assert (S, vmask) == (weights, mask)
        self.boundaries += 1
        super()._boundary(mus, vmask, S)


@settings(max_examples=200, deadline=None)
@given(graph=small_digraphs(),
       target=targets(),
       strong=st.booleans(),
       strong_star=st.booleans(),
       mode=st.sampled_from(("count-all", "first-witness")))
def test_vertex_phase_carries_the_weight_sum_and_the_label_mask(graph, target, strong,
                                                                strong_star, mode):
    kernel = CheckedKernel(SearchQuery(graph, target, require_strong=strong,
                                       require_strong_star=strong_star, mode=mode))
    kernel.boundaries = 0
    count, *_ = kernel.run()
    # every solution lies below a boundary, so the check ran where one exists
    assert kernel.boundaries or not count


def vertex_moves(q):
    """(least, greatest) of what its arcs add to each vertex's weight, its
    in-arc labels less its out-arc labels, by brute force over distinct
    arc labels."""
    graph = q.graph
    v, a, n = graph.vertex_count, graph.arc_count, graph.label_count
    a_labels = range(v + 1 if q.require_strong else 1, (a if q.require_strong_star else n) + 1)
    moves = []
    for u in range(v):
        ins = [k for k, (_, h) in enumerate(graph.arcs) if h == u]
        outs = [k for k, (t, _) in enumerate(graph.arcs) if t == u]
        sums = [sum(p[:len(ins)]) - sum(p[len(ins):])
                for p in permutations(a_labels, len(ins) + len(outs))]
        moves.append((min(sums), max(sums)))
    return moves


def boundary_candidates(q, vl, moves):
    """The term masks that the arc loop of a magic or arithmetic target
    should start from below the vertex labels vl, from g.arcs and vl
    alone: the one bit mu + off of a vertex-magic target; for an
    arithmetic one, by rising d, each k-term progression with the pinned
    a and d whose sum is the weight sum and whose terms lie in the range
    the labels allow, as bit w + off for each term w.  A vertex-side list
    keeps only the masks that hold each isolated vertex's weight, its
    label.  [] where no arc loop starts: an arc-magic target, whose arc
    labels are all forced, a side of fewer than two weights, or no
    candidate left.  off is N on the arc side and minus the least weight
    any vertex can reach on the vertex side; moves is vertex_moves(q)."""
    g, t, n = q.graph, q.target, q.graph.label_count
    arc = t.side == "arc"
    k = g.arc_count if arc else g.vertex_count
    if t.kind == "magic" and arc or t.kind != "magic" and k < 2:
        return []
    if arc:
        a_lo = g.vertex_count + 1 if q.require_strong else 1
        a_hi = g.arc_count if q.require_strong_star else n
        bases = [vl[h] - vl[u] for u, h in g.arcs]
        S = n * (n + 1) // 2 - sum(vl) + sum(bases)
        lo, hi, off = a_lo + min(bases), a_hi + max(bases), n
    else:
        S = sum(vl)
        lo = min(x + m for x, (m, _) in zip(vl, moves))
        hi = max(x + m for x, (_, m) in zip(vl, moves))
        off = -(g.arc_count + 1 if q.require_strong_star else 1) - min(m for m, _ in moves)
    if t.kind == "magic":
        assert S % k == 0
        progressions = [(S // k, 0)]
    else:
        progressions = [((S - d * k * (k - 1) // 2) // k, d) for d in range(1, hi - lo + 1)
                        if (S - d * k * (k - 1) // 2) % k == 0]
        progressions = [(a, d) for a, d in progressions if lo <= a and a + (k - 1) * d <= hi
                        and t.a in (None, a) and t.d in (None, d)]
    masks = [sum({1 << a + i * d + off for i in range(k)}) for a, d in progressions]
    if not arc:
        for u in range(g.vertex_count):
            if all(u not in e for e in g.arcs):
                masks = [m for m in masks if m >> vl[u] + off & 1]
    return masks


class CandidateKernel(_Kernel):
    """A kernel that checks the candidates each arc loop receives at arc 0
    against boundary_candidates, and that an arc loop starts exactly where
    there are candidates."""

    def _boundary(self, mus, vmask, S):
        if self.moves is None:
            self.moves = vertex_moves(self.query)
        self.want = boundary_candidates(self.query, self.vl, self.moves)
        self.started = False
        super()._boundary(mus, vmask, S)
        # a vertex-magic boundary on a digraph of single-free-arc parts
        # counts its completions, and walks them only for a witness
        if not (self.vertex_magic and self.cycles is not None):
            assert self.started == (self.want != [])

    def _start(self, terms):
        assert terms == self.want
        self.started = True
        self.starts += 1

    def _arc_slot_arc(self, k, free, seen, terms):
        if k == 0:
            self._start(terms)
        super()._arc_slot_arc(k, free, seen, terms)

    def _arc_slot_vertex(self, k, terms, seen):
        if k == 0:
            self._start(terms)
        super()._arc_slot_vertex(k, terms, seen)


@settings(max_examples=200, deadline=None)
@given(graph=small_digraphs(),
       target=targets().filter(lambda t: t.kind != "antimagic"),
       strong=st.booleans(),
       strong_star=st.booleans(),
       mode=st.sampled_from(("count-all", "first-witness")))
# without the window filter, and with the window one bit narrower at
# either end or one bit wider, the arc loop starts from other candidates
@example(graph=Digraph(2, ((0, 1),)), target=Target("vertex", "arithmetic"), strong=False,
         strong_star=False, mode="count-all")
@example(graph=Digraph(3, ((0, 1), (0, 2))), target=Target("arc", "arithmetic"), strong=False,
         strong_star=False, mode="count-all")
@example(graph=Digraph(2, ((0, 1), (1, 0))), target=Target("arc", "arithmetic"), strong=False,
         strong_star=False, mode="count-all")
# a part of two free arcs keeps the vertex-magic arc loop, which starts
# from the one bit mu + w_off
@example(graph=Digraph(3, ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0))),
         target=Target("vertex", "magic"), strong=False, strong_star=False, mode="count-all")
def test_each_arc_loop_starts_from_the_candidates_the_labels_allow(graph, target, strong,
                                                                     strong_star, mode):
    kernel = CandidateKernel(SearchQuery(graph, target, require_strong=strong,
                                         require_strong_star=strong_star, mode=mode))
    kernel.moves, kernel.starts = None, 0
    count, *_ = kernel.run()
    # every solution below an arc loop lies below a checked start
    assert kernel.starts or not count or target.kind == "magic"


class FixedWeightKernel(_Kernel):
    """A kernel that checks pw, the bit of each weight's fixed part, where
    each arc loop starts and where the arc-magic labels are forced, against
    the bits computed from g.arcs and vl alone: base + N for each arc, and
    label + off for each vertex, off minus the least weight any vertex can
    reach."""

    def _check(self):
        g, vl, n = self.query.graph, self.vl, self.query.graph.label_count
        if self.target.side == "arc":
            want = [vl[h] - vl[t] + n for t, h in g.arcs]
        else:
            if self.moves is None:
                self.moves = vertex_moves(self.query)
            v_lo = g.arc_count + 1 if self.query.require_strong_star else 1
            off = -v_lo - min(m for m, _ in self.moves)
            want = [x + off for x in vl]
        assert self.pw == want
        self.checks += 1

    def _arc_slot_arc(self, k, free, seen, terms):
        if k == 0:
            self._check()
        super()._arc_slot_arc(k, free, seen, terms)

    def _arc_slot_vertex(self, k, terms, seen):
        if k == 0:
            self._check()
        super()._arc_slot_vertex(k, terms, seen)

    def _leaf(self):
        if self.arc_magic:
            self._check()
        super()._leaf()


@settings(max_examples=200, deadline=None)
@given(graph=small_digraphs(),
       target=targets(),
       strong=st.booleans(),
       strong_star=st.booleans(),
       mode=st.sampled_from(("count-all", "first-witness")))
# each side with each kind
@example(graph=Digraph(3, ((0, 1), (1, 2))), target=Target("vertex", "antimagic"),
         strong=False, strong_star=False, mode="count-all")
@example(graph=Digraph(3, ((0, 1), (0, 2))), target=Target("vertex", "arithmetic"),
         strong=False, strong_star=False, mode="count-all")
@example(graph=Digraph(3, ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0))),
         target=Target("vertex", "magic"), strong=False, strong_star=False, mode="count-all")
@example(graph=Digraph(3, ((0, 1), (1, 2))), target=Target("arc", "antimagic"),
         strong=False, strong_star=False, mode="count-all")
@example(graph=Digraph(3, ((0, 1), (0, 2))), target=Target("arc", "arithmetic"),
         strong=False, strong_star=False, mode="count-all")
@example(graph=Digraph(3, ((0, 1), (1, 2), (2, 0))), target=Target("arc", "magic"),
         strong=False, strong_star=False, mode="first-witness")
def test_each_arc_loop_starts_from_the_fixed_weight_bits(graph, target, strong, strong_star,
                                                         mode):
    kernel = FixedWeightKernel(SearchQuery(graph, target, require_strong=strong,
                                           require_strong_star=strong_star, mode=mode))
    kernel.moves, kernel.checks = None, 0
    count, *_ = kernel.run()
    # every solution lies below a check, but for the vertex-magic
    # completions that a count-all search counts without an arc loop
    assert kernel.checks or not count or kernel.vertex_magic and not kernel.cap


@settings(max_examples=200, deadline=None)
@given(cs=st.lists(st.integers(-4, 4), max_size=6), lo=st.integers(-5, 10),
       width=st.integers(0, 12))
def test_window_ignores_a_zero_coefficient(cs, lo, width):
    # so rest[s] == rest[s + 1] at a vertex of coefficient 0, and the
    # arc-magic slot's mu window needs no check there
    assert _window([0] + cs, lo, lo + width) == _window(cs, lo, lo + width)


@settings(max_examples=200, deadline=None)
@given(graph=small_digraphs())
@example(graph=Digraph(2, ((0, 1),)))
@example(graph=Digraph(3, ((0, 1), (1, 0), (2, 0))))
def test_arc_magic_witnesses_obey_mu_bounds(graph):
    # the bounds come from a circuit: an acyclic digraph has none
    if not longest_circuit(graph):
        with pytest.raises(ValueError, match="circuit"):
            mu_bounds(graph)
        return
    bounds = mu_bounds(graph)
    report = search(SearchQuery(graph, Target("arc", "magic"),
                                mode="collect-up-to", limit=10 ** 9))
    for w in report.witnesses:
        assert bounds.contains(classify(graph, w).arc_verdict.mu)


TABLE = Path(__file__).resolve().parent / "pinned_searches.txt"
ROOT = TABLE.parent.parent


def pinned_searches():
    """(id, nodes, solutions, search arguments) of each row of the table."""
    rows = []
    for line in TABLE.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            name, nodes, solutions, *args = line.split()
            rows.append((name, int(nodes), int(solutions), args))
    return rows


PINNED = pinned_searches()


def witness_bound(args):
    """The witness bound of a row's search: 1 for first-witness, the
    --limit for collect-up-to, 0 for count-all."""
    mode = args[args.index("--mode") + 1] if "--mode" in args else "count-all"
    if mode == "collect-up-to":
        return int(args[args.index("--limit") + 1])
    return int(mode == "first-witness")


@pytest.mark.filterwarnings("error::DeprecationWarning")  # fork warns if threads run
@pytest.mark.parametrize("nodes,solutions,args",
                         [pytest.param(*row[1:], id=row[0]) for row in PINNED])
def test_pinned_node_counts(nodes, solutions, args, capsys, monkeypatch):
    # the table's --input paths are relative to the repository root
    monkeypatch.chdir(ROOT)
    code = main(["search", *args])
    out = capsys.readouterr().out
    report = json.loads(out[out.index("{"):])
    # a search is cut short exactly when it reaches its witness bound
    bound = witness_bound(args)
    assert (code, report["nodes_visited"], report["solutions_found"], report["exhaustive"]) == \
        (0 if solutions else 1, nodes, solutions, not (bound and solutions == bound))


@pytest.mark.parametrize("mode,limit", [("first-witness", None), ("collect-up-to", 3)])
@pytest.mark.parametrize("graph,target", [
    (build_family("tadpole", 3, t=3), Target("arc", "magic")),
    (build_family("tadpole", 3, t=3), Target("vertex", "magic")),
    (build_family("cycle", 4), Target("vertex", "arithmetic")),
], ids=["saml", "svml", "sv-al"])
def test_kernel_runs_again_after_its_witness_bound(graph, target, mode, limit):
    # the bound unwinds the search, leaving the labels it had placed; a
    # second run on the same kernel starts afresh
    kernel = _Kernel(SearchQuery(graph, target, mode=mode, limit=limit))
    first = kernel.run()
    assert first[3] is False and first[0] == len(first[1]) == kernel.cap
    assert kernel.run() == first


def test_readme_quotes_only_pinned_counts():
    # a figure may wrap onto the next line, and carries thousands separators
    readme = (ROOT / "README.md").read_text()
    for column, unit in ((1, "nodes"), (2, "solutions")):
        quoted = {int((count or field).replace(",", "")) for count, field in
                  re.findall(rf"(\d[\d,]*)\s+{unit}\b|{unit}: (\d+)", readme)}
        assert quoted
        assert quoted - {row[column] for row in PINNED} == set(), unit


def every_witness(graph, target, **flags):
    """(solutions, digest of the witness list) of a collect-all search."""
    report = search(SearchQuery(graph, target, mode="collect-up-to", limit=10 ** 9, **flags))
    text = json.dumps([[list(w.vertex_labels), list(w.arc_labels)] for w in report.witnesses],
                      separators=(",", ":"))
    return report.solutions_found, hashlib.sha256(text.encode()).hexdigest()[:16]


def test_unpinned_progressions_are_all_found():
    # cycle(5) vertex-arithmetic with neither a nor d given: every sum of
    # the vertex labels leaves its own candidate progressions
    graph, target = build_family("cycle", 5), Target("vertex", "arithmetic")
    assert every_witness(graph, target) == (9620, "a0bde215a07766cf")
    # count-all counts one labeling per rotation and multiplies by 5
    assert search(SearchQuery(graph, target)).solutions_found == 9620


def widest_range(q):
    """The least and the greatest weight the target side can reach, by brute
    force over the labels of each arc or vertex alone."""
    graph = q.graph
    v, a, n = graph.vertex_count, graph.arc_count, graph.label_count
    v_labels = range(a + 1 if q.require_strong_star else 1, (v if q.require_strong else n) + 1)
    a_labels = range(v + 1 if q.require_strong else 1, (a if q.require_strong_star else n) + 1)
    if q.target.side == "arc":
        bases = [h - t for t in v_labels for h in v_labels if h != t]
        return min(a_labels) + min(bases), max(a_labels) + max(bases)
    moves = vertex_moves(q)
    return min(v_labels) + min(m for m, _ in moves), max(v_labels) + max(m for _, m in moves)


@pytest.mark.parametrize("graph,target,flags", [
    (build_family("cycle", 4), Target("arc", "arithmetic"), {}),
    (build_family("cycle", 4), Target("arc", "arithmetic", a=3), {}),
    (build_family("star", 3, orientation="in"), Target("arc", "arithmetic", d=2),
     {"require_strong": True}),
    (build_family("star", 3, orientation="in"), Target("vertex", "arithmetic"), {}),
    (build_family("tadpole", 3, t=2), Target("vertex", "arithmetic", a=6, d=1), {}),
    (build_family("path", 4), Target("vertex", "arithmetic", a=1),
     {"require_strong_star": True}),
    (Digraph(4, ((0, 1), (0, 2))), Target("vertex", "arithmetic", d=3), {"require_strong": True}),
    # a side of fewer than two weights takes no progression
    (Digraph(2, ((0, 1),)), Target("arc", "arithmetic"), {}),
    (Digraph(1, ()), Target("vertex", "arithmetic"), {}),
], ids=["cycle-4-sa-al", "cycle-4-sa-al-a3", "star-3-in-sa-al-d2-strong", "star-3-in-sv-al",
        "tadpole-3-2-sv-al-a6-d1", "path-4-sv-al-a1-strong-star", "out-star-sv-al-d3-strong",
        "one-arc-sa-al", "one-vertex-sv-al"])
def test_progression_table_lists_every_progression_in_the_widest_range(graph, target, flags):
    # progs maps each weight sum to the term masks of its k-term
    # progressions, with the pinned a and d, inside the widest range, by
    # rising d: bit w + off for term w, off being N on the arc side and
    # minus the least weight on the vertex side
    q = SearchQuery(graph, target, **flags)
    k = graph.arc_count if target.side == "arc" else graph.vertex_count
    expected = {}
    if k >= 2:
        lo, hi = widest_range(q)
        off = graph.label_count if target.side == "arc" else -lo
        for d in range(1, hi - lo + 1):
            for a in range(lo, hi - (k - 1) * d + 1):
                if target.a in (None, a) and target.d in (None, d):
                    expected.setdefault(k * a + d * k * (k - 1) // 2, []).append(
                        sum(1 << a + i * d + off for i in range(k)))
    assert _Kernel(q).progs == expected
    # no case of two or more weights passes on an empty table
    assert bool(expected) == (k >= 2)


def test_vertex_magic_witnesses_are_all_found():
    # the labels forced by the one-term span mu..mu keep every witness,
    # in canonical order
    assert every_witness(build_family("tadpole", 3, t=2), Target("vertex", "magic")) == \
        (13, "33df102b92d9a23b")


@pytest.mark.parametrize("graph,target,flags,solutions", [
    (build_family("star", 4, orientation="in"), Target("vertex", "antimagic"), {}, 203616),
    (build_family("friendship", 2), Target("vertex", "magic"),
     {"require_strong_star": True}, 20),
], ids=["star-4-in-sval", "friendship-2-svml-strong-star"])
def test_count_all_equals_the_plain_enumeration_on_symmetric_graphs(graph, target, flags,
                                                                     solutions):
    # count-all counts one labeling per automorphism orbit and multiplies
    # by the group order; collect-up-to walks every labeling
    count_all = search(SearchQuery(graph, target, **flags))
    assert count_all.automorphisms > 1
    assert count_all.solutions_found == every_witness(graph, target, **flags)[0] == solutions


@pytest.mark.filterwarnings("error::DeprecationWarning")  # fork warns if threads run
@pytest.mark.parametrize("query,automorphisms,dual", [
    (SearchQuery(build_family("cycle", 6), Target("vertex", "magic")), 6, True),
    (SearchQuery(build_family("star", 5, orientation="out"), Target("arc", "magic")), 120, True),
    (SearchQuery(build_family("tadpole", 3, t=3), Target("arc", "magic")), 1, True),
    (SearchQuery(build_family("star", 5, orientation="out"), Target("arc", "magic"),
                 mode="first-witness"), 1, False),
], ids=["cycle-6-svml", "star-5-out-saml", "tadpole-3-3-saml", "star-5-out-saml-first-witness"])
def test_report_shows_the_automorphism_factor(query, automorphisms, dual):
    one, two = search(query), search(query, workers=2)
    assert one.automorphisms == two.automorphisms == automorphisms
    assert one.to_dict()["automorphisms"] == automorphisms
    assert one.dual is two.dual is one.to_dict()["dual"] is dual
    assert one.solutions_found == two.solutions_found


def test_reference_reports_no_automorphism_factor():
    q = SearchQuery(build_family("star", 3), Target("vertex", "antimagic"))
    reference = search(q, pruned=False)
    assert (reference.automorphisms, reference.dual) == (1, False)
    assert reference.solutions_found == search(q).solutions_found


# the dual cut leaves out one orbit of most pairs of dual orbits and counts
# the other twice, with vertex 0 alone in its orbit (path(5)), fixed by a
# non-trivial group (star(4,out)) or moved (the cycles); it must stay off
# where the dual leaves the class: a vertex side whose in- and out-degrees
# differ, a pinned a and the strong flags
@pytest.mark.filterwarnings("error::DeprecationWarning")  # fork warns if threads run
@pytest.mark.parametrize("query,dual,solutions", [
    (SearchQuery(build_family("path", 5, orientation="forward"), Target("arc", "arithmetic")),
     True, 5048),
    (SearchQuery(build_family("star", 4, orientation="out"), Target("arc", "arithmetic")),
     True, 5760),
    (SearchQuery(build_family("cycle", 4), Target("arc", "antimagic")), True, 30912),
    (SearchQuery(build_family("cycle", 6), Target("vertex", "magic")), True, 0),
    (SearchQuery(build_family("path", 3, orientation="forward"), Target("vertex", "arithmetic")),
     False, 24),
    (SearchQuery(build_family("cycle", 5), Target("arc", "arithmetic", a=6, d=1)), False, 720),
    (SearchQuery(build_family("friendship", 2), Target("vertex", "magic"),
                 require_strong_star=True), False, 20),
], ids=["path-5-forward-sa-al", "star-4-out-sa-al", "cycle-4-saal", "cycle-6-svml",
        "path-3-forward-sv-al", "cycle-5-sa-al-a6-d1", "friendship-2-svml-strong-star"])
def test_dual_cut_counts_every_labeling(query, dual, solutions):
    one, two = search(query), search(query, workers=2)
    assert one.dual is two.dual is one.to_dict()["dual"] is dual
    every = search(SearchQuery(query.graph, query.target,
                               require_strong=query.require_strong,
                               require_strong_star=query.require_strong_star,
                               mode="collect-up-to", limit=10 ** 9))
    assert not every.dual
    assert one.solutions_found == two.solutions_found == every.solutions_found == solutions
    if query.graph.label_count <= 8:
        assert search(query, pruned=False).solutions_found == solutions


# rule 2 cuts every first vertex label where no progression fits the
# widest weight range: an arc of star(3) weighs at most 7 + 6, so none
# starts at 100 (checked in the arc phase only, 294 nodes), and two
# isolated vertices weigh their labels 1 and 2, too close for d = 2 (a
# first-witness search, as the dual cut would leave only the label 1); a
# d this wide ends at once, though its term mask would have 3 * 10**7 bits
@pytest.mark.parametrize("query", [
    SearchQuery(build_family("star", 3), Target("arc", "arithmetic", 100, 1)),
    SearchQuery(Digraph(2, ()), Target("vertex", "arithmetic", d=2), mode="first-witness"),
    SearchQuery(build_family("path", 4), Target("arc", "arithmetic", d=10 ** 7)),
], ids=["star-3-sa-al-a100-d1", "two-vertices-sv-al-d2-first-witness", "path-4-sa-al-d10000000"])
def test_a_class_that_no_weight_range_reaches_visits_no_node(query):
    report = search(query)
    assert (report.nodes_visited, report.solutions_found, report.exhaustive) == (0, 0, True)


@pytest.mark.parametrize("family,n,nodes", [
    ("path", 2, 15),
    ("cycle", 4, 109600),
])
def test_reference_count_all_visits_every_prefix(family, n, nodes):
    # N labels have N!/(N-k)! distinct prefixes of length k, for k = 1..N
    report = search(SearchQuery(build_family(family, n), Target("arc", "antimagic")),
                    pruned=False)
    assert report.nodes_visited == nodes
    assert report.exhaustive


@pytest.mark.parametrize("query", [
    SearchQuery(build_family("tadpole", 3, t=3), Target("arc", "magic"), mode="first-witness"),
    SearchQuery(build_family("path", 5, orientation="forward"), Target("arc", "arithmetic"),
                mode="collect-up-to", limit=100),
], ids=["tadpole-3-3-saml-first-witness", "path-5-forward-sa-al-collect-100"])
def test_witness_modes_report_the_same_at_two_workers(query):
    one, two = search(query).to_dict(), search(query, workers=2).to_dict()
    del one["elapsed"], two["elapsed"]
    assert two == one


@pytest.mark.filterwarnings("error::DeprecationWarning")  # fork warns if threads run
def test_count_all_nodes_are_the_same_at_two_workers():
    for q in (SearchQuery(build_family("tadpole", 3, t=2), Target("arc", "magic")),
              SearchQuery(build_family("cycle", 4), Target("vertex", "arithmetic")),
              SearchQuery(build_family("path", 4), Target("arc", "arithmetic")),
              SearchQuery(build_family("tadpole", 3, t=1), Target("vertex", "magic"))):
        one, two = search(q), search(q, workers=2)
        assert (one.solutions_found, one.nodes_visited) == \
            (two.solutions_found, two.nodes_visited)


@pytest.mark.parametrize("kind,kw", [
    ("arithmetic", {"d": 0}),
    ("arithmetic", {"d": -1}),
    ("magic", {"a": 5}),
    ("magic", {"d": 1}),
    ("antimagic", {"a": 1, "d": 1}),
    ("arithmetic", {"d": 1.5}),
    ("arithmetic", {"d": True}),
    ("arithmetic", {"a": 2.5}),
    ("arithmetic", {"a": "1"}),
    ("blob", {}),
])
def test_target_rejects_misplaced_or_invalid_parameters(kind, kw):
    with pytest.raises(ValueError):
        Target("arc", kind, **kw)


@pytest.mark.parametrize("mode", ["count-all", "first-witness"])
def test_query_rejects_a_limit_outside_collect_up_to(mode):
    graph = build_family("path", 2)
    with pytest.raises(ValueError, match="collect-up-to mode only"):
        SearchQuery(graph, Target("arc", "magic"), mode=mode, limit=5)


def test_target_rejects_an_unknown_side():
    with pytest.raises(ValueError, match="target side must be one of"):
        Target("edge", "magic")


@pytest.mark.parametrize("mode,limit,hint", [
    ("sample", None, "unknown search mode 'sample'"),
    ("collect-up-to", None, "needs a positive limit"),
    ("collect-up-to", 0, "needs a positive limit"),
])
def test_query_rejects_an_unknown_mode_or_a_missing_limit(mode, limit, hint):
    with pytest.raises(ValueError, match=hint):
        SearchQuery(build_family("path", 2), Target("arc", "magic"), mode=mode, limit=limit)


def test_search_rejects_fewer_than_one_worker():
    q = SearchQuery(build_family("path", 2), Target("arc", "magic"))
    for workers in (0, -3, 1.5, True):
        with pytest.raises(ValueError, match="workers"):
            search(q, workers=workers)


def test_search_rejects_a_negative_cap():
    # a cap of -1 used to refuse every graph as "over the search cap of -1"
    q = SearchQuery(build_family("path", 2), Target("arc", "magic"))
    with pytest.raises(ValueError, match="cap must be at least 0, got -1") as info:
        search(q, cap=-1)
    assert not isinstance(info.value, SearchCapError)


# on path(3) a float limit collected 3 witnesses and a bool cap passed as 1
@pytest.mark.parametrize("name,call", [
    ("limit", lambda q: SearchQuery(q.graph, q.target, mode="collect-up-to", limit=2.5)),
    ("limit", lambda q: SearchQuery(q.graph, q.target, mode="collect-up-to", limit=True)),
    ("cap", lambda q: search(q, cap=12.0)),
    ("cap", lambda q: search(q, cap=True)),
])
def test_search_parameters_refuse_non_integers(name, call):
    q = SearchQuery(build_family("path", 3), Target("arc", "arithmetic"))
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        call(q)


# require_strong="no" was searched as strong (cycle(3) saal found 36
# solutions, not 648) and echoed in the report; 0 and None passed as false
@pytest.mark.parametrize("name", ["require_strong", "require_strong_star"])
@pytest.mark.parametrize("value", ["no", 0, 1, None])
def test_query_refuses_a_strong_flag_that_is_not_a_bool(name, value):
    with pytest.raises(ValueError, match=f"{name} must be True or False, got {value!r}"):
        SearchQuery(build_family("cycle", 3), Target("arc", "antimagic"), **{name: value})


def test_import_leaves_the_process_pool_out():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = "import sys, sublabel; print('concurrent.futures.process' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "False"

"""Exhaustive search for total labelings in a target weight class.

Labels 1..N are assigned to a fixed slot sequence: vertices in index
order, then arcs in index order.  Witnesses are reported in lexicographic
order over that slot sequence, which makes every result reproducible.

Two enumerators produce the same results:

* the pruned kernel (`_Kernel`) places labels slot by slot and cuts
  branches with rules taken from the definitions.  It bounds a signed sum
  of labels by its window, that of `_window`: the least and the greatest
  sum(c * label) over coefficients c with distinct labels in a range, the
  rearrangement bound, which gives the lowest labels to the largest
  positive coefficients and the highest to the most negative ones, the
  greatest mirroring the least.  The reach window of a vertex
  is that of its arcs still open, +1 for an in-arc and -1 for an out-arc,
  over the arc labels a_lo..a_hi: how far its weight can still move.
  The vertex labels fix the sum S of the target side's k weights, k
  being A on the arc side and V on the vertex side, as
  S = s0 + sum(coef[v] * vl[v]), whatever the arc labels.  Arc i
  weighs its label plus its base b_i = vl[head] - vl[tail], and the arc
  labels sum to N(N+1)/2 - sum(vl), so on the arc side s0 = N(N+1)/2 and
  coef[v] = in(v) - out(v) - 1; on the vertex side the arcs add to one
  vertex weight what they take from another, so s0 = 0 and coef[v] = 1.
  The vertex phase carries S's prefix, s0 plus the terms of the vertices
  placed, and rest[s], the window of coef over the vertices s.. in
  v_lo..v_hi, bounds what the vertices still to place add to it.  Magic
  targets are settled while the vertex labels are placed:

  1. magic constant: the vertex phase keeps the set of mu that the labels
     placed so far allow, as a bitmask, and cuts a prefix with no mu left.
     As k * mu = S, vertex label x at slot s keeps only the mu whose
     k * mu lies in S's prefix plus coef[s] * x plus rest[s + 1], and the
     slot offers only the x that keep some mu between the lowest and the
     highest left.  Once the vertices are placed S is known, and on a
     side with k > 0 it leaves at most one mu.  The seed holds the mu
     whose k * mu lies in s0 plus rest[0], inside the side's own window:
     on the arc side every arc label mu - b in 1..N puts mu in
     2 - N..2N - 1, and around a circuit of c arcs the vertex labels
     cancel, so c * mu is the sum of c distinct labels in a_lo..a_hi; on
     the vertex side vertex v weighs vl[v] plus its in-arc labels minus
     its out-arc labels, so mu lies in its label range plus its reach
     window.
     On the arc side arc i must get the label mu - b_i, its base fixed
     once its second endpoint is placed.  A vertex label drops each mu
     that would give a completed arc that label, and an arc completed at
     a slot drops each mu that puts its label outside the arc label range
     or on a vertex label, or every mu if its base repeats an earlier one
     (the forced labels are distinct).  So the one mu left after the
     vertex phase gives N distinct labels in 1..N, and forces every arc
     label.
     On the vertex side a weakly connected component's arcs add to its
     weight sum what they take from it, so mu is its label sum over its
     size.  A spanning forest grown in arc order writes each tree arc's
     label as +-sum(mu - vl[v]) over the side of the arc that lacks its
     component's last vertex, plus a signed sum of the arcs outside the
     forest, its free part; the form is known once that side is placed.
     So tree arc e gets the label k_e + c, with k_e fixed by mu and c
     shared by a part: c is 0 on the forced part, the arcs with no free
     part; the arcs whose free part is +f or -f for one free arc f, as is
     every arc of a cactus, form f's part, c is f's label, and they get
     k_e + c and k_e - c; the arcs of one larger signed free part form a
     part read from its first-written arc, whose label is c, each other
     arc being offset by k_e - k_ref.  At every vertex slot, each mu keeps,
     for each part with an arc written so far, the c that put those arcs,
     and f on f's part, on distinct labels in a_lo..a_hi off the vertex
     labels placed so far: the mask of unused labels shifted by each k_e
     of a k_e + c arc, ANDed, less each c that puts the k_e - c arcs on
     labels used or taken by another arc of the part, checked c by c, and
     the one c = 0 of the forced part.  A mu that leaves some part no c is
     dropped; as each vertex label takes a label from every part, a part
     is rechecked at each slot after its last arc too.
     On a dicycle the forms are c + P_v, with P_v = sum(vl[j] - mu for
     j <= v).  At the end of the vertex phase on a digraph with no part of
     two or more free arcs, mu is fixed and the parts are disjoint, so the
     completions are counted from the masks: each c of every part but the
     last, with its labels cleared from the later masks, times the
     popcount of the last part's mask.  A count-all search adds that count
     and visits no arc-phase node, so its nodes_visited counts
     vertex-phase nodes only; a witness search walks the arc phase below a
     vertex prefix only if the count there is not 0.

  After the vertex phase S is fixed.  A side with fewer than two weights
  is magic, so a distinctness target there has no solution.  The arc
  phase then keeps the weights inside the candidate progressions:

  2. progression candidates: a magic target's weights form the one-term
     progression mu..mu, with mu = S / k.  An arithmetic target's can only
     be a progression a, a + d, .., a + (k-1)d with
     k * a + d * k(k-1)/2 = S, with the given a and d, inside the range
     the weights can reach.  The widest such range is tabled once: an arc
     weighs a label in a_lo..a_hi plus a base in v_lo - v_hi..v_hi - v_lo,
     and a vertex a label in v_lo..v_hi plus its reach window.  Every
     progression with the given a and d whose k terms lie in it is listed
     once, under its S, by rising d, as its term mask of rule 3, the only
     form a candidate takes.  Once the vertices are placed the range
     narrows to the bases and labels placed, and the candidates are the
     listed masks of the fixed S whose bits all lie in that range's
     window mask.  Each weight of an arithmetic target drops, once it is
     fixed, the candidates it is not a term of, and a branch with none
     left is cut.  The vertex phase
     already cuts a prefix that can reach no listed S: vertex label x is
     placed at slot s only if S's prefix plus coef[s] * x plus
     rest[s + 1] meets a listed S.  Where rest[s + 1] is one value, as
     when only vertices of coefficient 0 are left, the cut is exact;
  3. seen and term masks: on either side a weight is checked as soon as it
     is fixed.  A distinctness target cuts it if it equals a weight fixed
     before it, and a magic or arithmetic target if it is a term of no
     candidate left.  Both are bitmask tests, with bit w + off for weight w,
     off making every weight the side can reach a non-negative bit: N on
     the arc side, as no arc weighs less than 2 - N, and on the vertex side
     minus the least weight of the widest range of rule 2.  A seen-weight
     mask holds the weights fixed so far, and each candidate is the term
     mask of its k terms, a repunit of period d, or the one bit mu for a
     magic target.  A weight that passes keeps the term masks that hold
     it; an antimagic target has no term mask, and only the seen weights
     count.  An arc-side slot keeps a free-label mask of the unused arc
     labels too.  Label l of an arc with base b weighs
     l + b, so the slot offers the bits of the free-label mask under the OR
     of the kept term masks, less the seen weights, shifted down by b + N:
     exactly the labels whose weight is new and a term of a candidate
     left.  A vertex-side slot closes a vertex weight only at the vertex's
     last arc.  All candidates are centred on S / k, so the one with the
     largest d, the last, spans the others, from its lowest bit to its
     highest, and the slot offers only the labels that leave both
     endpoints able to reach that span within their reach windows, then
     checks each weight it closes against the masks.  For a vertex-magic
     target the span is mu..mu, so the last open arc of a vertex has a
     forced label, and the weight it closes is mu, checked by the span
     alone.

  Arc-magic arc labels are all forced by rule 1 and are placed in one
  pass at the boundary.  Every leaf therefore holds k weights that are
  equal, or distinct and for arithmetic targets all terms of one k-term
  progression, and is counted without its weights being rebuilt or
  classified.

  A count-all search also cuts the symmetry of the graph.  An
  automorphism maps vertex labels to vertex labels and arc labels to arc
  labels and keeps the multiset of weights on each side, so it keeps the
  target class, pinned a and d included, and both strong flags.  A
  non-identity automorphism of a simple digraph moves some vertex, and
  vertex labels are distinct, so the group acts freely on labelings and
  each orbit holds |Aut| of them.  With the base b_1, b_2, .. and the
  basic orbits of `Digraph.automorphism_base`, exactly one labeling per
  orbit has vl[b_i] below the label of every other vertex of b_i's basic
  orbit, for every i:

  4. symmetry cut: a vertex slot in the basic orbit of b_i offers only
     labels above vl[b_i], which is placed already, as b_i comes first in
     its orbit.  The count of these canonical labelings is multiplied by
     |Aut|.  First-witness and collect-up-to searches report the
     lex-first witnesses, which need not be canonical, so they walk every
     labeling.

  The dual x -> N+1-x maps an arc weight w to N+1-w, and a vertex weight
  to (N+1)(1 + in(v) - out(v)) - w, which is N+1-w when every vertex has
  in-degree equal to out-degree.  So on the arc side, and on the vertex
  side of such a digraph, it keeps the target class and a pinned d, though
  not a pinned a (it maps a..top to N+1-top..N+1-a) nor the strong flags.
  It commutes with every automorphism, so it maps Aut-orbits of solutions
  to Aut-orbits.  Let P be the orbit of vertex 0 under Aut, the first
  basic orbit if the base starts at 0, else {0}, and F the least plus the
  greatest label on P.  F is the same on a whole orbit, the dual maps it
  to 2(N+1) - F, and on the canonical labeling of rule 4 it is vl[0] plus
  the greatest label on P.  The orbits with F < N+1 thus pair off with
  those with F > N+1, and the count is |Aut| times twice the canonical
  solutions with F < N+1 plus those with F = N+1:

  5. dual cut: in a count-all search with neither a pinned a nor a strong
     flag, on the arc side or on a digraph whose vertices all have
     in-degree equal to out-degree, every vertex of P, 0 included, gets a
     label at most N+1 - vl[0], and a leaf counts 2 if F < N+1 and 1 if
     F = N+1.

  The reach windows, and which vertex weights an arc settles, depend only
  on the arc order, so they are tabled once per kernel.  The vertex phase
  and the arc-side loops count a node only for a placement that passes
  their rules, and the last arc of an arc-side count-all search, which has
  one free label, is counted without a call; the vertex-side arc loop
  counts every placement of an unused label in the slot's narrowed range
  and checks the settled weights after it;
* the reference enumerator (`_reference`) is the oracle: it walks every
  permutation of 1..N in slot order and filters the labelings through
  the classifier.  It shares no code with the kernel.

Pruning never changes the solution count or the witness list, only the
number of visited nodes; the test suite checks both enumerators against
each other.

The search space is N!, so the entry point refuses graphs beyond a cap
(default 12) unless the caller overrides it.  The cost depends on the
target and on the symmetry of the graph far more than on N.  The README
quotes measured node counts and times for magic, arithmetic and
antimagic targets; each count is a row of tests/pinned_searches.txt,
which the tests and CI run.
"""

from __future__ import annotations

import os
import time
from itertools import permutations

from .digraph import Digraph, Record, set_fields
from .labeling import TotalLabeling, Verdict, classify, longest_circuit

DEFAULT_CAP = 12

SEARCH_MODES = ("count-all", "first-witness", "collect-up-to")

TARGET_SIDES = ("arc", "vertex")
TARGET_KINDS = ("magic", "antimagic", "arithmetic")


class SearchCapError(ValueError):
    """The graph is too large for exhaustive search under the current cap."""


def _require_type(value, name: str, kind: type = int):
    """Refuse a search parameter whose type is not exactly kind: an int
    parameter refuses a bool, though Python counts it as an int, and a
    flag refuses 0, 1 and None, though Python counts them as false or true."""
    if type(value) is not kind:
        what = "True or False" if kind is bool else "an integer"
        raise ValueError(f"{name} must be {what}, got {value!r}")


class Target(Record):
    """Weight class to search for on one side of the labeling.

    * magic      -- all weights equal
    * antimagic  -- all weights pairwise distinct (arithmetic ones included)
    * arithmetic -- sorted weights form a progression with difference >= 1;
                    `a` and/or `d` pin the progression down when given
    """

    _fields = ("side", "kind", "a", "d")

    def __init__(self, side: str, kind: str, a: int | None = None, d: int | None = None):
        if side not in TARGET_SIDES:
            raise ValueError(f"target side must be one of {TARGET_SIDES}, got {side!r}")
        if kind not in TARGET_KINDS:
            raise ValueError(f"target kind must be one of {TARGET_KINDS}, got {kind!r}")
        if kind != "arithmetic" and (a is not None or d is not None):
            raise ValueError(f"a and d apply to arithmetic targets only, not to {kind}")
        for name, value in (("a", a), ("d", d)):
            if value is not None:
                _require_type(value, name)
        if d is not None and d < 1:
            raise ValueError(f"the weight difference d must be at least 1, got {d}")
        self.__dict__.update(side=side, kind=kind, a=a, d=d)

    def matches(self, verdict: Verdict) -> bool:
        if self.kind == "magic":
            return verdict.kind == "magic"
        if self.kind == "antimagic":
            return verdict.kind in ("antimagic", "arithmetic")
        if verdict.kind != "arithmetic":
            return False
        return (self.a is None or verdict.a == self.a) and \
               (self.d is None or verdict.d == self.d)


class SearchQuery(Record):
    _fields = ("graph", "target", "require_strong", "require_strong_star", "mode", "limit")

    def __init__(self, graph: Digraph, target: Target, require_strong: bool = False,
                 require_strong_star: bool = False, mode: str = "count-all",
                 limit: int | None = None):
        _require_type(require_strong, "require_strong", bool)
        _require_type(require_strong_star, "require_strong_star", bool)
        if mode not in SEARCH_MODES:
            raise ValueError(f"unknown search mode {mode!r}")
        if limit is not None:
            _require_type(limit, "limit")
        if mode == "collect-up-to" and (limit is None or limit < 1):
            raise ValueError("collect-up-to mode needs a positive limit")
        if mode != "collect-up-to" and limit is not None:
            raise ValueError(f"a limit applies to collect-up-to mode only, not to {mode}")
        self.__dict__.update(graph=graph, target=target, require_strong=require_strong,
                             require_strong_star=require_strong_star, mode=mode, limit=limit)

    @property
    def witness_cap(self) -> int:
        """How many witnesses this mode records (0 = count only)."""
        if self.mode == "count-all":
            return 0
        if self.mode == "first-witness":
            return 1
        return self.limit


class SearchReport(Record):
    """Certificate of a search run.

    `exhaustive` is true iff the whole space was covered; count-all runs
    are always exhaustive, witness-bounded runs stop early once the bound
    is reached.  `automorphisms` is the order of the graph's automorphism
    group, a factor of a pruned count-all search's count, and 1 for every
    other search.  `dual` is true iff such a search also left out the dual
    orbits (rule 5): its count is then `automorphisms` times the canonical
    labelings kept, most of them counted twice.  Every field but `elapsed`
    is the same at any worker count.
    """

    _fields = ("query", "exhaustive", "solutions_found", "witnesses", "nodes_visited",
               "automorphisms", "dual", "elapsed")

    def __init__(self, query: SearchQuery, exhaustive: bool, solutions_found: int,
                 witnesses: list[TotalLabeling], nodes_visited: int, automorphisms: int,
                 dual: bool, elapsed: float):
        self.__dict__.update(query=query, exhaustive=exhaustive,
                             solutions_found=solutions_found, witnesses=witnesses,
                             nodes_visited=nodes_visited, automorphisms=automorphisms,
                             dual=dual, elapsed=elapsed)

    def to_dict(self) -> dict:
        g = self.query.graph
        return {
            "query": {
                "graph": {
                    "vertex_count": g.vertex_count,
                    "arcs": [list(a) for a in g.arcs],
                    "family": set_fields(g.family) if g.family is not None else None,
                },
                "target": set_fields(self.query.target),
                "require_strong": self.query.require_strong,
                "require_strong_star": self.query.require_strong_star,
                "mode": self.query.mode,
                "limit": self.query.limit,
            },
            "exhaustive": self.exhaustive,
            "solutions_found": self.solutions_found,
            "witnesses": [
                {"vertex_labels": list(w.vertex_labels), "arc_labels": list(w.arc_labels)}
                for w in self.witnesses
            ],
            "nodes_visited": self.nodes_visited,
            "automorphisms": self.automorphisms,
            "dual": self.dual,
            "elapsed": self.elapsed,
        }


class _WitnessBound(Exception):
    """Raised by _Kernel._leaf once a witness search holds its bound of
    witnesses; it unwinds the search to run(), which catches it."""


def _window(coef: list, lo: int, hi: int) -> tuple:
    """The window of coef: the least and the greatest sum(c * label) with
    distinct labels in lo..hi, by the rearrangement bound of the module
    docstring; (0, 0) for no coefficient.  x -> lo + hi - x maps labels in
    lo..hi to labels in lo..hi and the least sum to the greatest."""
    cs = sorted(coef, reverse=True)
    m = len(cs)
    least = sum([c * (lo + i if c > 0 else hi - m + 1 + i) for i, c in enumerate(cs)])
    return least, (lo + hi) * sum(cs) - least


class _Kernel:
    """The pruned enumerator; run() explores (a branch of) the tree."""

    # slots keep attribute access in the inner loops fast however many
    # attributes the rules add
    __slots__ = ("query", "target", "V", "A", "N", "tails", "heads", "s0",
                 "v_lo", "v_hi", "a_lo", "a_hi", "arc_magic", "vertex_magic",
                 "completes", "arc_window", "coef", "closes", "reach",
                 "v_reach", "isolated", "above", "automorphisms", "mirror", "mu_seed",
                 "rest", "sums", "off", "progs", "forms", "comps", "fq", "parts", "cycles",
                 "count", "weight", "nodes", "wits", "cap", "used", "vl", "al", "w_off", "pw")

    def __init__(self, query: SearchQuery):
        g = query.graph
        self.query = query
        self.target = query.target
        self.cap = query.witness_cap
        self.V = g.vertex_count
        self.A = g.arc_count
        self.N = g.label_count
        self.tails = [t for t, _ in g.arcs]
        self.heads = [h for _, h in g.arcs]
        in_deg, out_deg = g.in_degrees(), g.out_degrees()
        # label domains, narrowed by the strong flags
        v_lo, v_hi, a_lo, a_hi = 1, self.N, 1, self.N
        if query.require_strong:
            v_hi = min(v_hi, self.V)
            a_lo = max(a_lo, self.V + 1)
        if query.require_strong_star:
            a_hi = min(a_hi, self.A)
            v_lo = max(v_lo, self.A + 1)
        self.v_lo, self.v_hi = v_lo, v_hi
        self.a_lo, self.a_hi = a_lo, a_hi
        t = query.target
        # rule 4, count-all only: above[s] lists the base points whose
        # basic orbit holds vertex s; each must get a smaller label than s.
        # Rule 5: mirror is P, vertex 0's orbit (the first basic orbit if
        # the base starts at 0), when the dual keeps the target class, else ()
        above = [[] for _ in range(self.V)]
        self.automorphisms = 1
        self.mirror = ()
        if not self.cap:
            base = g.automorphism_base()
            for b, orbit in base:
                self.automorphisms *= len(orbit)
                for s in orbit[1:]:
                    above[s].append(b)
            if self.V and t.a is None and not (query.require_strong or query.require_strong_star) \
                    and (t.side == "arc" or in_deg == out_deg):
                self.mirror = base[0][1] if base and base[0][0] == 0 else (0,)
        self.above = [tuple(a) for a in above]
        # the weights of the target side sum to S = s0 + sum(coef[v] *
        # vl[v]); rest[s] is the _window of coef over the vertices s..
        # (rules 1 and 2) for every target but an antimagic one, and
        # _sum_table tables rule 2's progressions and the S they take for
        # an arithmetic target; sums is None for any other
        arc = t.side == "arc"
        self.s0 = self.N * (self.N + 1) // 2 if arc else 0
        self.coef = [in_deg[v] - out_deg[v] - 1 if arc else 1 for v in range(self.V)]
        self.sums = None
        # rule 1 for magic targets.  completes[s] lists, as (other
        # endpoint, sign), the arcs whose second endpoint is vertex s; the
        # base vl[head] - vl[tail] of such an arc is
        # sign * (vl[s] - vl[other]).  arc_window has bit l set for each
        # arc label l in a_lo..a_hi.
        self.arc_magic = t.kind == "magic" and arc
        self.vertex_magic = t.kind == "magic" and not arc
        self.rest = [_window(self.coef[s:], v_lo, v_hi) for s in range(self.V + 1)] \
            if t.kind != "antimagic" else None
        self.arc_window = sum(1 << lab for lab in range(a_lo, a_hi + 1))
        completes = [[] for _ in range(self.V)]
        if self.arc_magic:
            for tail, head in g.arcs:
                if tail < head:
                    completes[head].append((tail, 1))
                else:
                    completes[tail].append((head, -1))
        self.completes = [tuple(c) for c in completes]
        if not arc:
            # vertex-side tables, fixed by the arc order; no arc-side rule
            # reads them.  window(v) is the reach window of v over its arcs
            # still open: v_reach[v] before the first arc, and reach[k] those
            # of the tail, then the head of arc k after it, 0, 0 once k is
            # its last arc.  w_off is minus the least weight any vertex can
            # reach: bit w + w_off of rule 3's masks stands for vertex weight
            # w.  closes[k] lists the endpoints (tail first) whose last arc
            # is k, whose weights rule 3's masks check; a magic weight closed
            # inside rule 3's span is mu, so magic targets check none.
            rin, rout = in_deg[:], out_deg[:]

            def window(v):
                return _window([1] * rin[v] + [-1] * rout[v], a_lo, a_hi)

            self.v_reach = [window(v) for v in range(self.V)]
            self.w_off = -v_lo - min([lo for lo, _ in self.v_reach], default=0)
            self.isolated = [v for v in range(self.V) if in_deg[v] == 0 == out_deg[v]]
            self.closes, self.reach = [], []
            for tail, head in g.arcs:
                rout[tail] -= 1
                rin[head] -= 1
                self.closes.append(() if t.kind == "magic" else
                                   tuple(v for v in (tail, head) if rin[v] == 0 == rout[v]))
                self.reach.append(window(tail) + window(head))
        # rule 1's seed: bit mu + N is set for each mu that both k * mu in
        # s0 + rest[0] and the side's own window allow.  On the arc side a
        # forced label mu - b in 1..N needs mu in 2 - N..2N - 1, and the
        # vertex labels cancel around a circuit of c arcs, so c * mu is the
        # sum of c distinct labels in a_lo..a_hi: mu lies in
        # a_lo + (c - 1) / 2..a_hi - (c - 1) / 2, mu_bounds at 1..N.  On
        # the vertex side mu lies in each vertex's label range plus its
        # reach window.  A target with no magic constant carries the mask
        # unread, nonzero so that run() starts the vertex phase.
        self.mu_seed = 1
        if t.kind == "magic":
            if arc:
                c = longest_circuit(g)
                lo, hi = (a_lo + c // 2, a_hi - c // 2) if c else (2 - self.N, 2 * self.N - 1)
            else:
                lo = max([v_lo + w[0] for w in self.v_reach], default=v_lo)
                hi = min([v_hi + w[1] for w in self.v_reach], default=v_hi)
            k = self.A if arc else self.V
            if k:
                s_lo, s_hi = self.rest[0]
                lo, hi = max(lo, -(-(self.s0 + s_lo) // k)), min(hi, (self.s0 + s_hi) // k)
            self.mu_seed = (2 << hi + self.N) - (1 << lo + self.N) if lo <= hi else 0
        if self.vertex_magic and self.mu_seed:
            self._vertex_magic_tables(g)
        if t.kind == "arithmetic":
            self._sum_table()

    def _sum_table(self):
        """Rule 2's table of an arithmetic target: progs, sums and off.

        lo..hi is the widest range of rule 2, and progs maps each weight sum
        S to the term masks of rule 3 of the progressions with the pinned a
        and d whose k terms lie in lo..hi, by rising d; _boundary keeps
        those inside the range its vertex labels allow.  off is the least S
        for labels in v_lo..v_hi, each vertex taken alone, so it is at most
        S's prefix plus the least of rest after it; sums has bit S - off
        set for each key S of progs from off up.  Those above the greatest
        S are kept, as no window reaches them.
        """
        t, v_lo, v_hi = self.target, self.v_lo, self.v_hi
        arc = t.side == "arc"
        self.off = off = self.s0 + sum([min(c * v_lo, c * v_hi) for c in self.coef])
        k = self.A if arc else self.V
        self.progs = progs = {}
        if k >= 2:  # a side of fewer than two weights is magic
            if arc:
                lo, hi, w_off = self.a_lo + v_lo - v_hi, self.a_hi + v_hi - v_lo, self.N
            else:
                lo, hi, w_off = -self.w_off, v_hi + max([r for _, r in self.v_reach]), self.w_off
            half = k * (k - 1) // 2
            for d in (t.d,) if t.d else range(1, (hi - lo) // (k - 1) + 1):
                a0, a1 = lo, hi - (k - 1) * d
                if t.a is not None:
                    a0, a1 = max(a0, t.a), min(a1, t.a)
                # the term mask of rule 3, bit w + w_off (N on the arc side)
                # for each term w of a, a + d, .., a + (k-1)d: a repunit of
                # period d
                unit = ((1 << k * d) - 1) // ((1 << d) - 1)
                for a in range(a0, a1 + 1):
                    progs.setdefault(k * a + d * half, []).append(unit << a + w_off)
        self.sums = sum([1 << s - off for s in progs if s >= off])  # distinct S, distinct bits

    def _vertex_magic_tables(self, g: Digraph):
        """Rule 1 tables of a vertex-magic target, built only if the mu
        seed is not empty, as else the search visits no node.

        comps[s] holds the weakly connected component whose last vertex is
        s, else (); the one that ends at V - 1 is left out, as V * mu and
        the others' sums fix its sum.

        A spanning forest grown in arc order writes the label of tree arc e
        as sign * sum(mu - vl[v] for v in side) plus a signed sum of the
        free arcs, those outside the forest: side is the part of e's tree
        cut off by e that lacks the component's last vertex, and sign is +1
        if e enters it.  forms[s] lists the (e, sign, side) of the tree arcs
        whose side ends at vertex s, written there; p = sign * |side| is the
        coefficient of mu in k_e = p * mu + fq[e].

        The tree arcs group into the parts of rule 1, each given to
        _part_mask as (ref, plus, minus), every arc as (e, p).  The forced
        part, of the arcs with no free part, has ref None.  The part of a
        free arc f has ref (f, 0), as fq[f] stays 0, with its plus and minus
        arcs, those whose free part is +f and -f.  The arcs of one signed
        free part of two or more free arcs form a part whose ref is its
        first-written arc, and whose other arcs are plus arcs.  parts[s]
        holds each part with an arc written at or before slot s, as written
        up to s, the forced part first; cycles is parts[V - 1], every part
        in full, when no part has two or more free arcs (as on a cactus),
        else None.
        """
        V, arcs = self.V, g.arcs
        root = list(range(V))

        def find(v):
            while root[v] != v:
                v = root[v]
            return v

        free, adj, tree = [], [[] for _ in range(V)], []
        for k, (tail, head) in enumerate(arcs):
            a, b = find(tail), find(head)
            if a == b:
                free.append(k)
                continue
            root[a] = b
            tree.append(k)
            adj[tail].append((head, k))
            adj[head].append((tail, k))
        members = {}
        for v in range(V):
            members.setdefault(find(v), []).append(v)
        self.comps = [()] * V
        for comp in members.values():
            if comp[-1] < V - 1:
                self.comps[comp[-1]] = tuple(comp)
        written = []
        for e in tree:
            tail, head = arcs[e]
            side, stack = {tail}, [tail]
            while stack:
                for w, k in adj[stack.pop()]:
                    if k != e and w not in side:
                        side.add(w)
                        stack.append(w)
            comp = members[find(tail)]
            if comp[-1] in side:
                side = set(comp) - side
            sign = 1 if head in side else -1
            part = tuple((f, -sign if arcs[f][1] in side else sign) for f in free
                         if (arcs[f][0] in side) != (arcs[f][1] in side))
            written.append((max(side), e, sign, tuple(sorted(side)), part))
        # groups[key] is the ref of a part, then its arcs as (slot, e, p,
        # sign): the forced part, key (), first, a single-free-arc part under
        # its free arc, a larger one under its signed free part, with its
        # first-written arc as ref
        groups = {(): [None]}
        self.forms = [[] for _ in range(V)]
        for s, e, sign, side, part in sorted(written):
            p = sign * len(side)
            self.forms[s].append((e, sign, side))
            if len(part) == 1:
                (f, pf), = part
                groups.setdefault(f, [(f, 0)]).append((s, e, p, pf))
            else:
                groups.setdefault(part, [(e, p)]).append((s, e, p, 1))

        def written_up_to(ref, arcs, s):
            # newest first, as they fail most: the older ones passed at their slots
            return (ref,) + tuple(tuple((e, p) for t, e, p, pf in reversed(arcs)
                                        if t <= s and pf == sign and (e, p) != ref)
                                  for sign in (1, -1))

        # each part's arcs are in slot order, so arcs[0][0] is its first slot
        self.parts = [tuple(written_up_to(ref, arcs, s) for ref, *arcs in groups.values()
                            if arcs and arcs[0][0] <= s) for s in range(V)]
        self.cycles = self.parts[-1] if all(len(part) < 2 for *_, part in written) else None

    def first_labels(self) -> list[int]:
        """Slot-0 label choices, in canonical order (for branch splitting):
        those of _slot_labels(0)."""
        if not self.V:
            return []
        lo, hi = self._slot_labels(0)
        return list(range(lo, hi + 1))

    def run(self, first_label: int | None = None):
        """Explore the tree (or the branch under first_label).

        Returns (count, witnesses, nodes, completed) where completed is
        False iff the run ended early at its witness bound, which _leaf
        raises out of the recursion.  count is the number of canonical
        labelings, those of rule 5 with F < N+1 twice, times the
        automorphism group order.  The arrays the search changes in place
        are made afresh, so a kernel may run again after its bound ended it.
        """
        self.count = 0
        self.weight = 1
        self.nodes = 0
        self.wits: list[TotalLabeling] = []
        self.used = [False] * (self.N + 2)
        self.vl = [0] * self.V
        self.al = [0] * self.A
        # rule 1, vertex side: fq[e] is the constant of tree arc e's label
        # once written
        self.fq = [0] * self.A
        completed = True
        try:
            if self.V:
                if self.mu_seed:
                    self._vertex_slot(0, self.mu_seed, 0, 0, self.s0, first_label)
            elif self.target.kind == "magic":
                self._leaf()  # the empty labeling: no weights, vacuously magic
        except _WitnessBound:
            completed = False
        return self.count * self.automorphisms, self.wits, self.nodes, completed

    # -- vertex phase -------------------------------------------------

    def _slot_labels(self, s: int) -> tuple:
        """The least and the greatest label vertex slot s may take, before
        the used check and the rules of the target.

        Rule 4: above the label of each base point whose basic orbit holds
        s.  Rule 5: vl[0] + vl[s] <= N + 1 on P, so vl[0] <= (N + 1) // 2.
        Slot 0 reads no placed label, so first_labels may call this before
        run().
        """
        lo, hi = self.v_lo, self.v_hi
        for b in self.above[s]:
            x = self.vl[b] + 1
            if x > lo:
                lo = x
        if s in self.mirror:
            x = self.N + 1 - self.vl[0] if s else (self.N + 1) // 2
            if x < hi:
                hi = x
        return lo, hi

    def _vertex_slot(self, s: int, mus: int, bases: int, vmask: int, S: int,
                     only: int | None = None):
        """Vertex slot s, or the boundary once every vertex is placed.
        The prefix's state comes as arguments: mus holds rule 1's feasible
        mu, bit mu + N, vmask bit x for each vertex label x placed, and S
        the prefix of the weight sum, s0 plus coef[v] * vl[v] over the
        vertices placed; bases holds bit b + N for each base b placed on
        an arc-magic target, and is 0 on any other."""
        if s == self.V:
            self._boundary(mus, vmask, S)
            return
        lo, hi = self._slot_labels(s)
        if only is not None:
            lo, hi = max(lo, only), min(hi, only)
        if self.arc_magic:
            self._vertex_slot_arc_magic(s, lo, hi, mus, bases, vmask, S)
            return
        if self.vertex_magic:
            self._vertex_slot_vertex_magic(s, lo, hi, mus, vmask, S)
            return
        labels = range(lo, hi + 1)
        if self.sums is not None:
            labels = self._sum_cut(s, S, labels)
        vl, c = self.vl, self.coef[s]
        for lab in labels:
            bit = 1 << lab
            if vmask & bit:
                continue
            vl[s] = lab
            self.nodes += 1
            self._vertex_slot(s + 1, mus, bases, vmask | bit, S + c * lab)

    def _sum_cut(self, s: int, S: int, labels) -> list:
        """Rule 2: the weight sum lies in its prefix S before s, plus
        coef[s] * lab, plus rest[s + 1]; the labels whose window meets a
        bit of sums."""
        lo, hi = self.rest[s + 1]
        if lo > hi:
            return []  # the labels after s do not fit in v_lo..v_hi
        base = S + lo - self.off
        c, width, sums = self.coef[s], (2 << hi - lo) - 1, self.sums
        return [lab for lab in labels if sums >> base + c * lab & width]

    def _vertex_slot_arc_magic(self, s: int, lo: int, hi: int, mus: int, bases: int,
                               vmask: int, S: int):
        """Arc-magic slot (rule 1): an arc completed here gets a label in
        a_lo..a_hi for some mu left only if its base lies within the lowest
        mu left minus a_hi and the highest minus a_lo, and A * mu lies in
        S, the prefix of the weight sum before s, plus coef[s] * x, plus
        rest[s + 1]; both narrow lo..hi.  Label x keeps the mu left that
        meet that sum, that give no completed arc the label x and, for each
        arc completed here with a new base b, an unused label mu - b in
        a_lo..a_hi."""
        vl, n, window, A = self.vl, self.N, self.arc_window, self.A
        mlo = (mus & -mus).bit_length() - 1 - n
        mhi = mus.bit_length() - 1 - n
        completes = self.completes[s]
        if completes:
            blo, bhi = mlo - self.a_hi, mhi - self.a_lo
            for other, sign in completes:
                o = vl[other]
                # sign * (x - o) in blo..bhi
                a, b = (blo + o, bhi + o) if sign > 0 else (o - bhi, o - blo)
                if a > lo:
                    lo = a
                if b < hi:
                    hi = b
        rest_lo, rest_hi = self.rest[s + 1]
        if rest_lo > rest_hi:
            return  # the labels after s do not fit in v_lo..v_hi
        # A * mu lies in s_lo + c * x..s_hi + c * x, which must meet
        # A * mlo..A * mhi: c * x in A * mlo - s_hi..A * mhi - s_lo
        c = self.coef[s]
        s_lo, s_hi = S + rest_lo, S + rest_hi
        least, most = A * mlo - s_hi, A * mhi - s_lo
        if c > 0:
            lo, hi = max(lo, -(-least // c)), min(hi, most // c)
        elif c < 0:
            lo, hi = max(lo, -(-most // c)), min(hi, least // c)
        elif least > 0 or most < 0:
            return
        for x in range(lo, hi + 1):
            bit = 1 << x
            if vmask & bit:
                continue
            m = mus & ~(bases << x)
            if A:  # with no arc the sum holds for every mu
                # mu in ceil((s_lo + c * x) / A)..floor((s_hi + c * x) / A),
                # the lower end raised to mlo; the range above keeps the
                # upper end at mlo or higher, so the mask is not negative
                a = -(-(s_lo + c * x) // A)
                if a < mlo:
                    a = mlo
                m &= (2 << (s_hi + c * x) // A + n) - (1 << a + n)
            free = window & ~(vmask | bit)
            new = bases
            for other, sign in completes:
                b = sign * (x - vl[other]) + n
                if new >> b & 1:
                    m = 0
                    break
                new |= 1 << b
                m &= free << b
            if not m:
                continue
            vl[s] = x
            self.nodes += 1
            self._vertex_slot(s + 1, m, new, vmask | bit, S + c * x)

    def _vertex_slot_vertex_magic(self, s: int, lo: int, hi: int, mus: int, vmask: int,
                                  S: int):
        """Vertex-magic slot (rule 1): label x keeps the mu left inside x
        plus vertex s's weight window and whose V * mu lies in S, the
        prefix of the weight sum before s, plus x, plus rest[s + 1], so
        lo..hi narrows to the labels whose window meets the lowest to
        highest mu left; _settle then rechecks every part with an arc
        written so far, and adds what becomes known at s."""
        vl, n, V = self.vl, self.N, self.V
        off_lo, off_hi = self.v_reach[s]
        rest_lo, rest_hi = self.rest[s + 1]
        s_lo, s_hi = S + rest_lo, S + rest_hi
        mlo = (mus & -mus).bit_length() - 1 - n
        mhi = mus.bit_length() - 1 - n
        lo = max(lo, mlo - off_hi, V * mlo - s_hi)
        hi = min(hi, mhi - off_lo, V * mhi - s_lo)
        settle = self.parts[s] or self.comps[s]
        for x in range(lo, hi + 1):
            bit = 1 << x
            if vmask & bit:
                continue
            # mlo >= 1, as the labels sum to at least 1; unrolled: max() and
            # min() cost more
            mlo, mhi = x + off_lo, x + off_hi
            a = -(-(s_lo + x) // V)
            if a > mlo:
                mlo = a
            a = (s_hi + x) // V
            if a < mhi:
                mhi = a
            if mlo > mhi:
                continue
            m = mus & (2 << mhi + n) - (1 << mlo + n)
            if not m:
                continue
            vl[s] = x
            taken = vmask | bit
            if settle:
                m = self._settle(s, m, taken)
                if not m:
                    continue
            self.nodes += 1
            self._vertex_slot(s + 1, m, 0, taken, S + x)

    def _settle(self, s: int, m: int, vmask: int) -> int:
        """m narrowed by what vertex slot s makes known (rule 1): the sum of
        a component that ends at s, and the tree arcs written at s.  Each
        mu left must leave every part with an arc written at or before s
        some c in its mask (_part_mask), as no arc may take a label of
        vmask, the vertex labels placed up to s; the forced part is such a
        part like any other."""
        vl, n, fq = self.vl, self.N, self.fq
        comp = self.comps[s]
        if comp:
            mu, r = divmod(sum([vl[v] for v in comp]), len(comp))
            if r:
                return 0
            m &= 1 << mu + n
        for e, sign, side in self.forms[s]:
            fq[e] = -sign * sum([vl[v] for v in side])
        parts, free = self.parts[s], self.arc_window & ~vmask
        left = m
        while left:
            bit = left & -left
            left ^= bit
            mu = bit.bit_length() - 1 - n
            for part in parts:
                if not self._part_mask(part, mu, free):
                    m ^= bit
                    break
        return m

    def _part_mask(self, part, mu: int, free: int) -> int:
        """The values c that a part of rule 1 may take with mu, as a bitmask.

        part is (ref, plus, minus), with the (e, p) of its tree arcs written
        so far and k_e = p * mu + fq[e].  With ref None it is the forced
        part: c is 0, and the mask is 1 iff the labels k_e are distinct bits
        of free.  Else c is the label of the arc ref, and the plus and minus
        arcs get the labels c + k_e - k_ref and k_e + k_ref - c, all of them
        distinct bits of free.  ref being a plus arc, the plus labels differ
        iff their k_e do, and free shifted by each k_e - k_ref, ANDed, gives
        the c that put them on free.  Each such c is then kept iff the minus
        labels are distinct bits of free that no plus label takes.
        """
        ref, plus, minus = part
        fq = self.fq
        if ref is None:
            for e, p in plus:
                lab = p * mu + fq[e]
                if lab < 0 or not free >> lab & 1:
                    return 0
                free ^= 1 << lab
            return 1
        e, p = ref
        base, span = p * mu + fq[e], self.a_hi - self.a_lo
        off = span - base
        mask, wide, ks, hi = free, free << span, 1 << span, 2 * span
        for e, p in plus:
            k = p * mu + fq[e] + off  # bit k_e - k_ref + span of ks
            if k < 0 or k > hi or ks >> k & 1:
                return 0
            ks |= 1 << k
            mask &= wide >> k
        if not minus:
            return mask
        cs = mask
        while cs:
            bit = cs & -cs
            cs ^= bit
            c = bit.bit_length() - 1
            left = free & ~(ks << c >> span)  # less the labels of ref and the plus arcs
            for e, p in minus:
                lab = p * mu + fq[e] + base - c
                if lab < 0 or not left >> lab & 1:
                    mask ^= bit
                    break
                left ^= 1 << lab
        return mask

    def _boundary(self, mus: int, vmask: int, S: int):
        """All vertex labels placed, with rule 1's masks mus and vmask and
        the weight sum S; set up the arc phase.

        Rule 1 has left a magic target the one mu = S / k.  On the arc side
        it forces every arc label mu - base, placed here in arc order and
        unchecked: the mask kept them in a_lo..a_hi and distinct from each
        other and from the vertex labels.  Where no part has two or more
        free arcs, the vertex-magic completions are counted from the masks
        of rule 1: a count-all search adds them, and a witness search walks
        the arc phase only where there is one.  For any other S fixes the
        candidates as term masks (rule 3): the one bit mu + w_off of a
        vertex-magic target, for an arithmetic target those of progs[S]
        inside the range of weights that the vertex labels allow, None for
        an antimagic one.
        """
        vl, n = self.vl, self.N
        if self.mirror:
            # rule 5: F is vl[0] plus the greatest label on P, at most N + 1
            f = vl[0] + max([vl[v] for v in self.mirror])
            self.weight = 1 if f == n + 1 else 2
        t = self.target
        arc = t.side == "arc"
        terms = None
        if t.kind == "magic":
            mu = mus.bit_length() - 1 - n  # the one mu rule 1 left
            if arc:
                self.al[:] = [mu - vl[h] + vl[v] for v, h in zip(self.tails, self.heads)]
                self.nodes += self.A
                self._leaf()
                return
            if self.cycles is not None:
                # no part has two or more free arcs: count the completions,
                # and walk them only for the witnesses
                found = self._completions(self.cycles, mu, self.arc_window & ~vmask)
                if not self.cap:
                    self.count += self.weight * found
                    return
                if not found:
                    return
            terms = [1 << mu + self.w_off]
        elif (self.A if arc else self.V) < 2:
            return  # no weight or a single one classifies as magic
        elif t.kind == "arithmetic":
            # bits lo..hi of the window stand for the weights in reach
            if arc:
                bases = [vl[h] - vl[v] for v, h in zip(self.tails, self.heads)]
                lo, hi = self.a_lo + min(bases) + n, self.a_hi + max(bases) + n
            else:
                lo = min(x + lo for x, (lo, _) in zip(vl, self.v_reach)) + self.w_off
                hi = max(x + hi for x, (_, hi) in zip(vl, self.v_reach)) + self.w_off
            window = (2 << hi) - (1 << lo)
            terms = [m for m in self.progs.get(S, ()) if m & window == m]
            if not terms:
                return
        if arc:
            self._arc_slot_arc(0, self.arc_window & ~vmask, 0, terms)
            return
        # vertex-side targets track partial vertex weights through the arc
        # phase; an isolated vertex's weight is its label, final already,
        # and distinct from the others
        off, seen = self.w_off, 0
        self.pw = list(vl)
        for v in self.isolated:
            bit = 1 << vl[v] + off
            if terms is not None:
                terms = [m for m in terms if m & bit]
                if not terms:
                    return
            seen |= bit
        # the arc loop reads the vertex labels from used
        used = self.used
        for x in vl:
            used[x] = True
        self._arc_slot_vertex(0, terms, seen)
        for x in vl:
            used[x] = False

    def _completions(self, parts: tuple, mu: int, free: int) -> int:
        """The number of ways to label the arcs of parts, the forced part and
        single-free-arc parts, whose k_ref is 0, on distinct labels of free:
        each c of the first part takes that part's labels from the rest, and
        the last part's choices are counted, not walked.  With no part, as
        on a digraph without arcs, the one labeling counts."""
        if not parts:
            return 1
        mask = self._part_mask(parts[0], mu, free)
        if len(parts) == 1:
            return mask.bit_count()
        _, plus, minus = parts[0]
        fq, count = self.fq, 0
        while mask:
            bit = mask & -mask
            mask ^= bit
            c = bit.bit_length() - 1
            taken = bit
            for e, p in plus:
                taken |= 1 << p * mu + fq[e] + c
            for e, p in minus:
                taken |= 1 << p * mu + fq[e] - c
            count += self._completions(parts[1:], mu, free & ~taken)
        return count

    # -- arc phase, arc-side targets ------------------------------------

    def _arc_slot_arc(self, k: int, free: int, seen: int, terms):
        """Arc-side antimagic or arithmetic slot k: free has a bit per unused
        arc label, seen a bit w + N per weight w fixed so far, and terms the
        term masks of the candidates that every fixed weight is a term of
        (None for antimagic).  Label l of an arc with base b weighs l + b, so
        the labels allowed are the bits of free whose weight bit is in some
        kept term mask and not in seen.  The last arc has one free label: a
        count-all search counts it without a call."""
        shift = self.vl[self.heads[k]] - self.vl[self.tails[k]] + self.N
        if terms is None:
            labels = free & ~(seen >> shift)
        else:
            union = 0
            for t in terms:
                union |= t
            labels = free & (union & ~seen) >> shift
        last = k + 1 == self.A
        if last and not self.cap:
            if labels:
                self.nodes += 1
                self.count += self.weight
            return
        al = self.al
        while labels:
            bit = labels & -labels
            labels ^= bit
            lab = bit.bit_length() - 1
            wbit = 1 << lab + shift
            al[k] = lab
            self.nodes += 1
            if last:
                self._leaf()
            elif terms is None or len(terms) == 1:
                self._arc_slot_arc(k + 1, free ^ bit, seen | wbit, terms)
            else:
                self._arc_slot_arc(k + 1, free ^ bit, seen | wbit,
                                   [t for t in terms if t & wbit])

    # -- arc phase, vertex-side targets ----------------------------------

    def _arc_slot_vertex(self, k: int, terms, seen: int):
        """Vertex-side slot k: terms holds the term masks of the candidates
        that every closed weight is a term of (None for antimagic), by
        rising d, and seen a bit w + w_off per vertex weight w closed so
        far.  Each unused label in the range that keeps both endpoints able
        to reach the span of the last mask, from its lowest bit to its
        highest, is placed, and the weights it closes are cut where their
        bit is in seen or in no term mask left."""
        if k == self.A:
            self._leaf()
            return
        ti, hi_v = self.tails[k], self.heads[k]
        al, used, pw, off = self.al, self.used, self.pw, self.w_off
        lo, hi = self.a_lo, self.a_hi
        if terms is not None:
            # the final weights of both endpoints must reach the widest
            # candidate; for magic targets this forces the label of an arc
            # that closes an endpoint.  Unrolled: min() and max() cost more.
            top = terms[-1]
            slo, shi = (top & -top).bit_length() - 1 - off, top.bit_length() - 1 - off
            t_lo, t_hi, h_lo, h_hi = self.reach[k]
            x = pw[ti] + t_lo - shi
            if x > lo:
                lo = x
            x = slo - h_hi - pw[hi_v]
            if x > lo:
                lo = x
            x = pw[ti] + t_hi - slo
            if x < hi:
                hi = x
            x = shi - h_lo - pw[hi_v]
            if x < hi:
                hi = x
        closes = self.closes[k]
        for lab in range(lo, hi + 1):
            if used[lab]:
                continue
            used[lab] = True
            al[k] = lab
            self.nodes += 1
            pw[ti] -= lab
            pw[hi_v] += lab
            if not closes:
                self._arc_slot_vertex(k + 1, terms, seen)
            else:
                keep, now = terms, seen
                for v in closes:
                    bit = 1 << pw[v] + off
                    if now & bit:
                        break
                    now |= bit
                    if keep is not None:
                        keep = [m for m in keep if m & bit]
                        if not keep:
                            break
                else:
                    self._arc_slot_vertex(k + 1, keep, now)
            pw[ti] += lab
            pw[hi_v] -= lab
            used[lab] = False

    # -- leaves ----------------------------------------------------------

    def _leaf(self):
        """Every weight was checked on the way down, so the labeling is in
        the target class: count it, with the weight of rule 5 that
        _boundary set, and keep it as a witness; at the witness bound, end
        the search."""
        self.count += self.weight
        if self.cap:
            self.wits.append(TotalLabeling(tuple(self.vl), tuple(self.al)))
            if self.count >= self.cap:
                raise _WitnessBound


def _reference(query: SearchQuery):
    """The oracle: every permutation of 1..N in slot order (vertices, then
    arcs), filtered through classify.  Returns the tuple of _Kernel.run.

    nodes counts the distinct prefixes walked so far, the nodes a plain
    depth-first enumerator visits: each permutation adds the slots from
    the first one where it differs from the previous permutation.
    """
    g, t = query.graph, query.target
    n, v = g.label_count, g.vertex_count
    count, wits, nodes, prev = 0, [], 0, None
    for perm in permutations(range(1, n + 1)):
        first = 0 if prev is None else next(i for i in range(n) if perm[i] != prev[i])
        nodes += n - first
        prev = perm
        labeling = TotalLabeling(perm[:v], perm[v:])
        cls = classify(g, labeling)
        if not t.matches(cls.arc_verdict if t.side == "arc" else cls.vertex_verdict) \
                or (query.require_strong and not cls.strong) \
                or (query.require_strong_star and not cls.strong_star):
            continue
        count += 1
        if query.witness_cap:
            wits.append(labeling)
            if count >= query.witness_cap:
                return count, wits, nodes, False
    return count, wits, nodes, True


def search(query: SearchQuery, *, cap: int = DEFAULT_CAP, workers: int = 1,
           pruned: bool = True) -> SearchReport:
    """Exhaustively enumerate total labelings of query.graph in the target
    class.

    Refuses graphs with more than `cap` labels (default 12); pass a larger
    cap to override.  A pruned count-all search counts one labeling per
    orbit of the graph's automorphism group and reports the group order,
    a factor of its count, as `automorphisms`; where the dual keeps the
    target class it also leaves out the dual orbits, counts the orbits it
    keeps twice where their dual is left out, and reports `dual` true
    (rule 5 of the module docstring).  `workers` > 1 splits the
    first-label branches of a count-all search between this process and
    up to `workers` - 1 children forked from it, which share the kernel
    built here, and merges them in first-label order, so the report, node
    count included, is the single-worker one.  It needs `os.fork` (POSIX);
    elsewhere `workers` > 1 raises ValueError, as does a negative cap.
    A query with a witness bound (first-witness, collect-up-to) runs one
    kernel in this process whatever `workers` is, so it stops at its bound
    exactly where a single worker does.  `pruned=False` runs the reference
    enumerator instead, a permutation filter over `classify`; it too runs
    in this process, whatever `workers` is.
    """
    _require_type(workers, "workers")
    _require_type(cap, "cap")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if cap < 0:
        raise ValueError(f"cap must be at least 0, got {cap}")
    if workers > 1 and not hasattr(os, "fork"):
        raise ValueError(f"workers={workers} needs os.fork, which this platform lacks; "
                         f"use workers=1")
    n = query.graph.label_count
    if n > cap:
        raise SearchCapError(
            f"graph has {n} labels, over the search cap of {cap}; "
            f"raise the cap to force the search")
    started = time.perf_counter()
    if not pruned:
        return _report(query, [_reference(query)], None, started)
    kernel = _Kernel(query)
    if workers == 1 or query.witness_cap or n == 0:
        results = [kernel.run()]
    else:
        results = _split(kernel, workers)
    return _report(query, results, kernel, started)


def _split(kernel: _Kernel, workers: int) -> list:
    """The run() results of a count-all search's first-label branches, in
    first-label order, from the caller and up to workers - 1 forked
    children.  Rank r runs labels[r::workers]; the caller is rank 0.

    Each child inherits the kernel, so nothing is pickled or built again,
    and sends back its (count, nodes) pairs as text on its own pipe.  A
    child that fails, or sends the wrong number of values, makes this raise
    RuntimeError; on any exception, KeyboardInterrupt included, every child
    still running is killed and reaped before it propagates.
    """
    from signal import SIGKILL  # imported here: only the split uses it

    labels = kernel.first_labels()
    shares = [labels[r::workers] for r in range(min(workers, len(labels)))]
    running, reads = {}, []
    try:
        for rank in range(1, len(shares)):
            read, write = os.pipe()
            reads.append(read)
            try:
                pid = os.fork()
                if not pid:
                    _child(kernel, shares[rank], write)
            finally:
                os.close(write)  # before the next fork, so each pipe has one writer
            running[rank] = pid
        results = [[kernel.run(lab) for lab in shares[0]]] if shares else []
        for rank in range(1, len(shares)):
            chunks = []
            while chunk := os.read(reads[rank - 1], 1 << 16):
                chunks.append(chunk)
            text = b"".join(chunks).decode()
            status = os.waitstatus_to_exitcode(os.waitpid(running[rank], 0)[1])
            del running[rank]
            values = text.split()
            if status or len(values) != 2 * len(shares[rank]):
                raise RuntimeError(f"search worker {rank} of {len(shares)} failed "
                                   f"(exit status {status}): {text.strip() or 'no output'}")
            it = map(int, values)
            results.append([(count, [], nodes, True) for count, nodes in zip(it, it)])
    finally:
        for pid in running.values():
            os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)
        for read in reads:
            os.close(read)
    return [results[i % workers][i // workers] for i in range(len(labels))]


def _child(kernel: _Kernel, labels: list, write: int):
    """A forked worker: run the branches under labels, write their
    (count, nodes) pairs, or the exception, to the pipe, and leave through
    os._exit, so that it never returns into the caller's code nor flushes
    the caller's stdio buffers."""
    code = 1
    try:
        try:
            text = "".join(f"{count} {nodes}\n" for count, _, nodes, _ in map(kernel.run, labels))
            code = 0
        except BaseException as exc:  # reported by the caller as this worker's failure
            text = f"{type(exc).__name__}: {exc}"
        with open(write, "w") as pipe:
            pipe.write(text)
    finally:
        os._exit(code)


def _report(query: SearchQuery, results: list, kernel: _Kernel | None,
            started: float) -> SearchReport:
    """Merge the run() results of the whole tree, or of the first-label
    branches in first-label order as _split returns them; each count is
    already multiplied by the kernel's `automorphisms`.  kernel is None for
    the reference enumerator."""
    return SearchReport(
        query=query,
        exhaustive=all(r[3] for r in results),
        solutions_found=sum(r[0] for r in results),
        witnesses=[w for r in results for w in r[1]],
        nodes_visited=sum(r[2] for r in results),
        automorphisms=kernel.automorphisms if kernel else 1,
        dual=bool(kernel and kernel.mirror),
        elapsed=time.perf_counter() - started,
    )

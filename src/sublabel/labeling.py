"""Total labelings and their subtractive weights.

A total labeling assigns the labels 1..N (N = |V| + |A|) bijectively to
the vertices and arcs of a digraph.  The subtractive weight of an arc xy
is label(xy) + label(y) - label(x); the subtractive weight of a vertex x
is label(x) plus the labels of its incoming arcs minus the labels of its
outgoing arcs.  Weights are plain signed integers and may be <= 0.

A weight vector is classified as exactly one of:

* magic(mu)        -- all weights equal mu,
* arithmetic(a,d)  -- at least two weights, all distinct, and sorted they
                      are a, a+d, ..., a+(k-1)d with d >= 1,
* antimagic        -- all distinct but not an arithmetic progression,
* none             -- some repeated weight, not all equal.

An all-equal vector is always reported magic, never arithmetic with d=0.
An empty vector is reported magic with mu=None (vacuously constant).
"""

from __future__ import annotations

from collections.abc import Sequence

from .digraph import Digraph, Record, int_tuple, set_fields


class BijectionError(ValueError):
    """The labels do not form a bijection onto 1..|V|+|A|."""


class TotalLabeling(Record):
    _fields = ("vertex_labels", "arc_labels")

    def __init__(self, vertex_labels: tuple[int, ...], arc_labels: tuple[int, ...]):
        self.__dict__.update(vertex_labels=int_tuple(vertex_labels, "vertex labels"),
                             arc_labels=int_tuple(arc_labels, "arc labels"))


class WeightProfile(Record):
    _fields = ("arc_weights", "vertex_weights")

    def __init__(self, arc_weights: tuple[int, ...], vertex_weights: tuple[int, ...]):
        self.__dict__.update(arc_weights=arc_weights, vertex_weights=vertex_weights)


class Verdict(Record):
    _fields = ("kind", "mu", "a", "d")

    def __init__(self, kind: str, mu: int | None = None, a: int | None = None,
                 d: int | None = None):
        # kind is "magic" | "arithmetic" | "antimagic" | "none"
        self.__dict__.update(kind=kind, mu=mu, a=a, d=d)

    @classmethod
    def magic(cls, mu: int | None) -> "Verdict":
        return cls("magic", mu=mu)

    @classmethod
    def arithmetic(cls, a: int, d: int) -> "Verdict":
        return cls("arithmetic", a=a, d=d)

    @classmethod
    def antimagic(cls) -> "Verdict":
        return cls("antimagic")

    @classmethod
    def none(cls) -> "Verdict":
        return cls("none")

    def __str__(self) -> str:
        if self.kind == "magic":
            return f"magic (mu={self.mu})"
        if self.kind == "arithmetic":
            return f"arithmetic (a={self.a}, d={self.d})"
        return self.kind


class Classification(Record):
    _fields = ("arc_verdict", "vertex_verdict", "strong", "strong_star")

    def __init__(self, arc_verdict: Verdict, vertex_verdict: Verdict, strong: bool,
                 strong_star: bool):
        # strong: the vertex labels are exactly {1..|V|}; strong_star: the
        # arc labels are exactly {1..|A|}
        self.__dict__.update(arc_verdict=arc_verdict, vertex_verdict=vertex_verdict,
                             strong=strong, strong_star=strong_star)

    def to_dict(self) -> dict:
        return {
            "arc": set_fields(self.arc_verdict),
            "vertex": set_fields(self.vertex_verdict),
            "strong": self.strong,
            "strong_star": self.strong_star,
        }


class MuBound(Record):
    """Bounds on the arc-magic constant from the longest directed circuit.

    With s >= 2 the longest circuit length and N the label range size, any
    arc-magic constant mu satisfies (s+1)/2 <= mu <= (2N-s+1)/2: around a
    circuit the vertex labels cancel, so s * mu is the sum of s distinct
    arc labels.  lower and upper are exact rationals, Fractions.
    """

    _fields = ("s", "lower", "upper")

    def __init__(self, s: int, lower, upper):
        self.__dict__.update(s=s, lower=lower, upper=upper)

    def contains(self, mu) -> bool:
        """Whether mu, an int or a Fraction, lies within the bounds."""
        return self.lower <= mu <= self.upper


def validate_labeling(g: Digraph, l: TotalLabeling):
    """Raise BijectionError unless l is a total labeling of g."""
    if len(l.vertex_labels) != g.vertex_count:
        raise BijectionError(
            f"expected {g.vertex_count} vertex labels, got {len(l.vertex_labels)}")
    if len(l.arc_labels) != g.arc_count:
        raise BijectionError(
            f"expected {g.arc_count} arc labels, got {len(l.arc_labels)}")
    # n distinct integers, all within 1..n, are exactly 1..n
    n = g.label_count
    labels = l.vertex_labels + l.arc_labels
    if len(set(labels)) != n or min(labels, default=1) < 1 or max(labels, default=n) > n:
        raise BijectionError(f"labels not a bijection onto 1..{n}")


def arc_weight(g: Digraph, l: TotalLabeling, index: int) -> int:
    """Subtractive weight of one arc: label(arc) + label(head) - label(tail)."""
    profile = weight_profile(g, l)  # validates l before the index check
    if not 0 <= index < g.arc_count:
        raise IndexError(f"arc index {index} out of range for {g.arc_count} arcs")
    return profile.arc_weights[index]


def vertex_weight(g: Digraph, l: TotalLabeling, vertex: int) -> int:
    """Subtractive weight of one vertex: own label + incoming - outgoing arc labels."""
    profile = weight_profile(g, l)  # validates l before the index check
    if not 0 <= vertex < g.vertex_count:
        raise IndexError(f"vertex index {vertex} out of range for {g.vertex_count} vertices")
    return profile.vertex_weights[vertex]


def weight_profile(g: Digraph, l: TotalLabeling) -> WeightProfile:
    """All arc and vertex weights, in storage order."""
    validate_labeling(g, l)
    vl, al = l.vertex_labels, l.arc_labels
    aw = tuple([a + vl[h] - vl[t] for (t, h), a in zip(g.arcs, al)])
    vw = list(vl)
    for (t, h), a in zip(g.arcs, al):
        vw[h] += a
        vw[t] -= a
    return WeightProfile(aw, tuple(vw))


def verdict_of(weights: Sequence[int]) -> Verdict:
    """Classify one weight vector; see the module docstring for the cases."""
    k = len(weights)
    if k == 0:
        return Verdict.magic(None)
    first = weights[0]
    if all(w == first for w in weights):
        return Verdict.magic(first)
    if len(set(weights)) < k:
        return Verdict.none()
    ws = sorted(weights)
    d = ws[1] - ws[0]
    if all(ws[i + 1] - ws[i] == d for i in range(k - 1)):
        return Verdict.arithmetic(ws[0], d)
    return Verdict.antimagic()


def classify(g: Digraph, l: TotalLabeling, *,
             profile: WeightProfile | None = None) -> Classification:
    """Full classification of a labeling: per-side verdicts plus the
    strong (vertex labels = {1..|V|}) and strong* (arc labels = {1..|A|}) flags.

    A caller that has weighed l already passes weight_profile(g, l) as
    profile, and l is neither validated nor weighed again."""
    if profile is None:
        profile = weight_profile(g, l)
    # the labels are a bijection onto 1..N, so a side's labels are exactly
    # 1..k when none of its k labels exceeds k
    return Classification(
        arc_verdict=verdict_of(profile.arc_weights),
        vertex_verdict=verdict_of(profile.vertex_weights),
        strong=max(l.vertex_labels, default=0) <= g.vertex_count,
        strong_star=max(l.arc_labels, default=0) <= g.arc_count,
    )


def dual(g: Digraph, l: TotalLabeling) -> TotalLabeling:
    """Replace every label x by N+1-x.  An involution; it maps an arc-magic
    labeling with constant mu to one with constant N+1-mu."""
    validate_labeling(g, l)
    n1 = g.label_count + 1
    return TotalLabeling(tuple(n1 - x for x in l.vertex_labels),
                         tuple(n1 - x for x in l.arc_labels))


def longest_circuit(g: Digraph) -> int:
    """Length (arc count) of the longest directed circuit; 0 if acyclic.

    Exhaustive path search, exponential in the worst case; meant for the
    same desk-scale graphs the rest of the toolkit handles.
    """
    out = [[] for _ in range(g.vertex_count)]
    for t, h in g.arcs:
        out[t].append(h)
    best = 0

    def extend(start: int, v: int, used_arcs: int, on_path: set):
        nonlocal best
        for w in out[v]:
            if w == start:
                if used_arcs + 1 > best:
                    best = used_arcs + 1
            elif w > start and w not in on_path:
                on_path.add(w)
                extend(start, w, used_arcs + 1, on_path)
                on_path.discard(w)

    for s in range(g.vertex_count):
        extend(s, s, 0, {s})
    return best


def mu_bounds(g: Digraph) -> MuBound:
    """Exact bounds any arc-magic constant of g must satisfy; g needs a circuit."""
    s = longest_circuit(g)
    if not s:
        raise ValueError("the arc-magic bounds need a directed circuit, and the graph has none")
    from fractions import Fraction  # imported here: nothing else needs it
    n = g.label_count
    return MuBound(s, Fraction(s + 1, 2), Fraction(2 * n - s + 1, 2))

"""Explicit labelings for the graph families.  Each result is one row of
_CONSTRUCTIONS, built by construct(family, n, kind) as (digraph, labeling),
where the labeling lands in a known weight class.  The rows of
tests/claims.txt state each construction's class: its orientation, its
verdict in n and t, its strong flag and, where it is antimagic, its
weight set, over the n and t that the tests check.

The path sa-al arc labels are 2n-i.  The 2n+1-i variant sometimes quoted
for this family is not a total labeling at all: it uses the value 2n,
which exceeds the label range 1..2n-1, and skips n+1.  The verifier
rejects it, and a regression test keeps it rejected.
"""

from __future__ import annotations

from .digraph import FAMILIES, Digraph, ParameterError, build_family, int_tuple
from .labeling import TotalLabeling, validate_labeling


class GracefulInputError(ValueError):
    """The tree/labeling pair handed to the graceful conversion is invalid."""


def _path_labels(n: int, t: int | None, kind: str):
    if kind == "saml":
        vl = [(i + 1) // 2 if i % 2 == 1 else n + 1 - i // 2 for i in range(1, n + 1)]
        al = [2 * n - i for i in range(1, n)]
    elif kind == "sa-al":
        vl = list(range(1, n + 1))
        al = [2 * n - i for i in range(1, n)]
    else:  # sv-al
        vl = [2 * n - i for i in range(1, n + 1)]
        al = list(range(1, n))
    return vl, al


def _cycle_labels(n: int, t: int | None, kind: str):
    vl = list(range(1, n + 1))
    al = [2 * n - i for i in range(1, n)] + [2 * n]
    return vl, al


def _star_labels(n: int, t: int | None, kind: str):
    if kind == "saml":
        vl = [1] + [i + 1 for i in range(1, n + 1)]
        al = [2 * (n + 1) - i for i in range(1, n + 1)]
    elif kind == "sa-al":
        vl = [2 * n + 1] + list(range(1, n + 1))
        al = [2 * n + 1 - i for i in range(1, n + 1)]
    else:  # sval
        vl = [1] + [n + 1 + i for i in range(1, n + 1)]
        al = [n + 2 - i for i in range(1, n + 1)]
    return vl, al


def _wheel_labels(n: int, t: int | None, kind: str):
    vl = [1] + [3 * n + 1 - i for i in range(1, n)] + [3 * n + 1]
    spokes = [i + 1 for i in range(1, n + 1)]
    rim = [n + 2 + i for i in range(1, n)] + [n + 2]
    return vl, spokes + rim


def _tadpole_labels(n: int, t: int, kind: str):
    if kind == "saal":
        vl = [t + 1] + [n + t + 2 - i for i in range(2, n + 1)] + list(range(1, t + 1))
        ring = [n + t + i for i in range(1, n + 1)]
        # the path arc entering u_j (j = 2..t) carries 2n+2t+2-j; together
        # with the other blocks this fills 1..2n+2t exactly
        path = [2 * n + 2 * t + 2 - j for j in range(2, t + 1)]
        al = ring + path + [2 * n + t + 1]
    else:  # sv-al
        vl = [n + t + 1] + [2 * n + t + 2 - i for i in range(2, n + 1)]
        vl += [2 * n + 2 * t + 1 - i for i in range(1, t + 1)]
        al = [t + i for i in range(1, n + 1)] + list(range(1, t)) + [t]
    return vl, al


def _friendship_labels(n: int, t: int | None, kind: str):
    vl = [1]
    al = []
    for i in range(1, n + 1):
        vl += [i + 1, n + 1 + i]
        al += [2 * n + 1 + i, 3 * n + 1 + i, 5 * n + 2 - i]
    return vl, al


def _butterfly_labels(n: int, t: int | None, kind: str):
    if kind == "sa-al":
        v = [2 * n - 1 - 2 * i for i in range(1, n)]
        u = [2 * n - 2 * i for i in range(1, n)]
        x = 2 * n - 1
        a = [4 * n - 1 - 2 * i for i in range(1, n - 1)] + [2 * n + 1, 4 * n - 2]
        b = [4 * n - 2 - 2 * i for i in range(1, n - 1)] + [2 * n, 4 * n - 1]
    else:  # sval
        v = [2 * n - 1 + 2 * i for i in range(1, n)]
        u = [2 * n + 2 * i for i in range(1, n)]
        x = 4 * n - 1
        a = [2 * n - 1 - 2 * i for i in range(1, n)] + [2 * n - 1]
        b = [2 * n - 2 * i for i in range(1, n)] + [2 * n]
    return v + u + [x], a + b


# family -> (its label formula, {kind: the orientation the construction is
# defined on}); the formula gives (vertex labels, arc labels) in the storage
# order of build_family, and a family with a single orientation maps every
# kind to None
_CONSTRUCTIONS = {
    "path": (_path_labels, {"saml": "alternating", "sa-al": "forward", "sv-al": "forward"}),
    "cycle": (_cycle_labels, {"sa-sv-al": None}),
    "star": (_star_labels, {"saml": "out", "sa-al": "in", "sval": "in"}),
    "wheel": (_wheel_labels, {"sval": None}),
    "tadpole": (_tadpole_labels, {"saal": None, "sv-al": None}),
    "friendship": (_friendship_labels, {"sa-al": None}),
    "butterfly": (_butterfly_labels, {"sa-al": None, "sval": None}),
}

CONSTRUCTION_KINDS: dict[str, tuple[str, ...]] = {
    family: tuple(kinds) for family, (_, kinds) in _CONSTRUCTIONS.items()}


def construct(family: str, n: int, kind: str, t: int | None = None) -> tuple[Digraph, TotalLabeling]:
    """The known `kind` labeling of a family graph.  build_family checks the
    family, n and t (which tadpoles need and the other families reject);
    this checks that the family has a `kind` construction."""
    # `in` a tuple needs no hash, so a list family or kind is refused as unknown
    labels, kinds = _CONSTRUCTIONS[family] if family in FAMILIES else (None, {})
    known = kind in tuple(kinds)
    g = build_family(family, n, t=t, orientation=kinds[kind] if known else None)
    if not known:
        raise ParameterError(
            f"no {kind!r} construction for {family}; valid kinds: {', '.join(kinds)}")
    vl, al = labels(n, t, kind)
    l = TotalLabeling(tuple(vl), tuple(al))
    validate_labeling(g, l)
    return g, l


def graceful_to_strong_saml(edges, phi) -> tuple[Digraph, TotalLabeling]:
    """Convert a gracefully labeled undirected tree into an arc-magic digraph.

    `edges` lists undirected edges over vertices 0..n-1 and `phi` maps each
    vertex to a distinct value in 1..n with edge differences exactly
    {1..n-1}.  Each edge is oriented from its larger-phi endpoint to its
    smaller-phi endpoint, keeps phi as the vertex labels, and an edge with
    difference d gets arc label n+d.  Every arc weight is then n, and the
    vertex labels occupy 1..n.
    """
    phi = list(phi)
    n = len(phi)
    if n < 1:
        raise GracefulInputError("tree must have at least one vertex")
    if any(type(x) is not int for x in phi):
        raise GracefulInputError(f"phi must hold integers, got {tuple(phi)!r}")
    if sorted(phi) != list(range(1, n + 1)):
        raise GracefulInputError(f"phi is not a bijection onto 1..{n}")
    edges = [int_tuple(e, "tree edge endpoints") for e in edges]
    if len(edges) != n - 1:
        raise GracefulInputError(f"a tree on {n} vertices has {n - 1} edges, got {len(edges)}")
    adjacent = [[] for _ in range(n)]
    for x, y in edges:
        if not (0 <= x < n and 0 <= y < n) or x == y:
            raise GracefulInputError(f"edge ({x},{y}) is not a valid tree edge")
        adjacent[x].append(y)
        adjacent[y].append(x)
    # n-1 edges + connected == tree
    seen = {0} if n else set()
    stack = [0]
    while stack:
        v = stack.pop()
        for w in adjacent[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) != n:
        raise GracefulInputError("edge list is not connected, so not a tree")
    diffs = sorted(abs(phi[x] - phi[y]) for x, y in edges)
    if diffs != list(range(1, n)):
        raise GracefulInputError(
            f"phi is not graceful: edge differences {diffs} != 1..{n - 1}")
    arcs = []
    al = []
    for x, y in edges:
        tail, head = (x, y) if phi[x] > phi[y] else (y, x)
        arcs.append((tail, head))
        al.append(n + abs(phi[x] - phi[y]))
    g = Digraph(n, tuple(arcs))
    l = TotalLabeling(tuple(phi), tuple(al))
    validate_labeling(g, l)
    return g, l

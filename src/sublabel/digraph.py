"""Digraph model and generators for the supported graph families.

Vertices are 0-based indices; arcs are ordered (tail, head) pairs.  Each
generated family keeps a FamilyTag with the conventional 1-based names
(v_1, u_3, a_2, ...) so reports can print them next to raw indices.

Family conventions (all arc lists are stored in the order given here):

* path(n):       v_1..v_n; forward arcs a_i = v_i v_{i+1}, or the
                 alternating orientation a_i = v_{i+1} v_i for odd i and
                 v_i v_{i+1} for even i.
* cycle(n):      forward ring, a_i = v_i v_{i+1}, a_n = v_n v_1.
* star(n):       center v_0 plus leaves v_1..v_n; arcs point out of or
                 into the center.
* wheel(n):      center v_0; spokes a_i = v_i v_0, then forward rim
                 b_i = v_i v_{i+1}, b_n = v_n v_1.
* tadpole(n,t):  forward dicycle v_1..v_n, forward dipath u_1..u_t,
                 arcs a_1..a_n, b_1..b_{t-1}, connector c = u_t v_1.
* friendship(n): n triangles x -> v_i1 -> v_i2 -> x sharing x; arcs
                 grouped per triangle as (a_i0, a_i1, a_i2).
* butterfly(n):  two forward dicycles sharing x = v_n = u_n; arcs
                 a_1..a_n then b_1..b_n.
"""

from __future__ import annotations

from dataclasses import dataclass


class ParameterError(ValueError):
    """A family parameter is outside its supported range."""


class NotIntegerError(ValueError):
    """A vertex count, arc endpoint or label is not an int."""


def int_tuple(values, what: str) -> tuple[int, ...]:
    """values as a tuple, checked to hold ints only; a bool is refused,
    though Python counts it as an int."""
    values = tuple(values)
    for x in values:
        if type(x) is not int:
            raise NotIntegerError(f"{what} must be integers, got {values!r}")
    return values


FAMILIES = ("path", "cycle", "star", "wheel", "tadpole", "friendship", "butterfly")


@dataclass(frozen=True)
class FamilyTag:
    """Provenance of a generated digraph: family name, parameters, and the
    index -> conventional-name maps for vertices and arcs."""

    name: str
    n: int
    t: int | None = None
    orientation: str | None = None
    vertex_names: tuple[str, ...] = ()
    arc_names: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        """The JSON family block: name and n, then t and orientation when set."""
        d: dict = {"name": self.name, "n": self.n}
        if self.t is not None:
            d["t"] = self.t
        if self.orientation is not None:
            d["orientation"] = self.orientation
        return d


@dataclass(frozen=True)
class Digraph:
    """A simple directed graph: no self-loops, no repeated arcs.

    Immutable after construction; safe to share between threads.
    """

    vertex_count: int
    arcs: tuple[tuple[int, int], ...]
    family: FamilyTag | None = None

    def __post_init__(self):
        if type(self.vertex_count) is not int:
            raise NotIntegerError(f"vertex_count must be an integer, got {self.vertex_count!r}")
        object.__setattr__(self, "arcs", tuple(int_tuple(a, "arc endpoints") for a in self.arcs))
        if self.vertex_count < 0:
            raise ValueError("vertex_count must be nonnegative")
        seen = set()
        for t, h in self.arcs:
            if not (0 <= t < self.vertex_count and 0 <= h < self.vertex_count):
                raise ValueError(f"arc ({t},{h}) references a vertex outside 0..{self.vertex_count - 1}")
            if t == h:
                raise ValueError(f"self-loop at vertex {t}")
            if (t, h) in seen:
                raise ValueError(f"duplicate arc ({t},{h})")
            seen.add((t, h))

    @property
    def arc_count(self) -> int:
        return len(self.arcs)

    @property
    def label_count(self) -> int:
        """Size of the label range a total labeling must cover."""
        return self.vertex_count + len(self.arcs)

    def out_degrees(self) -> list[int]:
        deg = [0] * self.vertex_count
        for t, _ in self.arcs:
            deg[t] += 1
        return deg

    def in_degrees(self) -> list[int]:
        deg = [0] * self.vertex_count
        for _, h in self.arcs:
            deg[h] += 1
        return deg

    def vertex_name(self, i: int) -> str:
        if self.family and i < len(self.family.vertex_names):
            return self.family.vertex_names[i]
        return f"v{i}"

    def arc_name(self, i: int) -> str:
        if self.family and i < len(self.family.arc_names):
            return self.family.arc_names[i]
        t, h = self.arcs[i]
        return f"({t}->{h})"

    def automorphism_base(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """The base b_1, b_2, .. of the automorphism group, each with its
        basic orbit, as (b_i, orbit) pairs; the order of the group is the
        product of the orbit lengths.

        b_i is the least vertex that the pointwise stabiliser of
        b_1..b_(i-1) moves.  That stabiliser therefore fixes every vertex
        below b_i, and b_i's orbit under it holds b_i and later vertices
        only.  A vertex w is in the orbit when a backtracking search finds
        one automorphism that fixes 0..b_i - 1 and maps b_i to w; the group
        itself is never listed.
        """
        n = self.vertex_count
        arcs = set(self.arcs)
        degree = list(zip(self.in_degrees(), self.out_degrees()))
        image = list(range(n))
        taken = [False] * n

        def fits(x: int, y: int) -> bool:
            """x -> y keeps x's in/out degrees, and its arcs and non-arcs to
            the vertices 0..x-1 mapped so far."""
            return degree[x] == degree[y] and all(
                ((u, x) in arcs) == ((image[u], y) in arcs)
                and ((x, u) in arcs) == ((y, image[u]) in arcs) for u in range(x))

        def extend(x: int) -> bool:
            """Map x, x+1, .. onto the vertices not taken yet."""
            if x == n:
                return True
            for y in range(n):
                if not taken[y] and fits(x, y):
                    image[x], taken[y] = y, True
                    if extend(x + 1):
                        return True
                    taken[y] = False
            return False

        base = []
        for v in range(n):
            orbit = [v]
            for w in range(v + 1, n):
                if fits(v, w):
                    taken[:] = [u < v or u == w for u in range(n)]
                    image[v] = w
                    if extend(v + 1):
                        orbit.append(w)
            image[v] = v  # the stabilisers further down the chain fix v
            if len(orbit) > 1:
                base.append((v, tuple(orbit)))
        return tuple(base)


def _require(cond: bool, message: str):
    if not cond:
        raise ParameterError(message)


def _path(n: int, orientation: str) -> Digraph:
    _require(n >= 2, f"path requires n >= 2, got n={n}")
    _require(orientation in ("forward", "alternating"),
             f"path orientation must be 'forward' or 'alternating', got {orientation!r}")
    arcs = []
    for i in range(1, n):  # 1-based arc index i joins v_i and v_{i+1}
        if orientation == "alternating" and i % 2 == 1:
            arcs.append((i, i - 1))
        else:
            arcs.append((i - 1, i))
    tag = FamilyTag("path", n, orientation=orientation,
                    vertex_names=tuple(f"v_{i}" for i in range(1, n + 1)),
                    arc_names=tuple(f"a_{i}" for i in range(1, n)))
    return Digraph(n, tuple(arcs), tag)


def _cycle(n: int) -> Digraph:
    _require(n >= 3, f"cycle requires n >= 3, got n={n}")
    arcs = [(i - 1, i) for i in range(1, n)] + [(n - 1, 0)]
    tag = FamilyTag("cycle", n,
                    vertex_names=tuple(f"v_{i}" for i in range(1, n + 1)),
                    arc_names=tuple(f"a_{i}" for i in range(1, n + 1)))
    return Digraph(n, tuple(arcs), tag)


def _star(n: int, orientation: str) -> Digraph:
    _require(n >= 1, f"star requires n >= 1, got n={n}")
    _require(orientation in ("out", "in"),
             f"star orientation must be 'out' or 'in', got {orientation!r}")
    if orientation == "out":
        arcs = [(0, i) for i in range(1, n + 1)]
    else:
        arcs = [(i, 0) for i in range(1, n + 1)]
    tag = FamilyTag("star", n, orientation=orientation,
                    vertex_names=tuple(f"v_{i}" for i in range(n + 1)),
                    arc_names=tuple(f"a_{i}" for i in range(1, n + 1)))
    return Digraph(n + 1, tuple(arcs), tag)


def _wheel(n: int) -> Digraph:
    _require(n >= 3, f"wheel requires n >= 3, got n={n}")
    spokes = [(i, 0) for i in range(1, n + 1)]
    rim = [(i, i + 1) for i in range(1, n)] + [(n, 1)]
    tag = FamilyTag("wheel", n,
                    vertex_names=tuple(f"v_{i}" for i in range(n + 1)),
                    arc_names=tuple(f"a_{i}" for i in range(1, n + 1))
                    + tuple(f"b_{i}" for i in range(1, n + 1)))
    return Digraph(n + 1, tuple(spokes + rim), tag)


def _tadpole(n: int, t: int) -> Digraph:
    _require(n >= 3, f"tadpole requires n >= 3, got n={n}")
    _require(t >= 1, f"tadpole requires t >= 1, got t={t}")
    # cycle vertices 0..n-1 are v_1..v_n, path vertices n..n+t-1 are u_1..u_t
    arcs = [(i - 1, i) for i in range(1, n)] + [(n - 1, 0)]
    arcs += [(n + i - 1, n + i) for i in range(1, t)]
    arcs += [(n + t - 1, 0)]
    tag = FamilyTag("tadpole", n, t=t,
                    vertex_names=tuple(f"v_{i}" for i in range(1, n + 1))
                    + tuple(f"u_{i}" for i in range(1, t + 1)),
                    arc_names=tuple(f"a_{i}" for i in range(1, n + 1))
                    + tuple(f"b_{i}" for i in range(1, t)) + ("c",))
    return Digraph(n + t, tuple(arcs), tag)


def _friendship(n: int) -> Digraph:
    _require(n >= 1, f"friendship requires n >= 1, got n={n}")
    # x is vertex 0; triangle i uses vertices 2i-1 (v_i1) and 2i (v_i2)
    arcs = []
    vnames = ["x"]
    anames = []
    for i in range(1, n + 1):
        a, b = 2 * i - 1, 2 * i
        arcs += [(0, a), (a, b), (b, 0)]
        vnames += [f"v_{i}1", f"v_{i}2"]
        anames += [f"a_{i}0", f"a_{i}1", f"a_{i}2"]
    tag = FamilyTag("friendship", n,
                    vertex_names=tuple(vnames), arc_names=tuple(anames))
    return Digraph(2 * n + 1, tuple(arcs), tag)


def _butterfly(n: int) -> Digraph:
    _require(n >= 3, f"butterfly requires n >= 3, got n={n}")
    # v_1..v_{n-1} -> 0..n-2, u_1..u_{n-1} -> n-1..2n-3, x = v_n = u_n -> 2n-2
    x = 2 * n - 2
    a = [(i - 1, i) for i in range(1, n - 1)] + [(n - 2, x), (x, 0)]
    b = [(n - 2 + i, n - 1 + i) for i in range(1, n - 1)] + [(2 * n - 3, x), (x, n - 1)]
    tag = FamilyTag("butterfly", n,
                    vertex_names=tuple(f"v_{i}" for i in range(1, n))
                    + tuple(f"u_{i}" for i in range(1, n)) + ("x",),
                    arc_names=tuple(f"a_{i}" for i in range(1, n + 1))
                    + tuple(f"b_{i}" for i in range(1, n + 1)))
    return Digraph(2 * n - 1, tuple(a + b), tag)


DEFAULT_ORIENTATION = {"path": "forward", "star": "out"}


def build_family(family: str, n: int, t: int | None = None,
                 orientation: str | None = None) -> Digraph:
    """Build one of the supported families with its canonical arc order.

    `t` is required for (and only for) tadpoles.  `orientation` selects the
    variant for paths (forward/alternating) and stars (out/in); the other
    families have a single canonical orientation and reject the argument.
    """
    _require(family in FAMILIES, f"unknown family {family!r}; expected one of {', '.join(FAMILIES)}")
    if family == "tadpole":
        _require(t is not None, "tadpole requires the path length t")
    else:
        _require(t is None, f"parameter t is only meaningful for tadpoles, not {family}")
    if family in DEFAULT_ORIENTATION:
        orientation = orientation or DEFAULT_ORIENTATION[family]
    else:
        _require(orientation is None,
                 f"{family} has a single canonical orientation; do not pass orientation")
    if family == "path":
        return _path(n, orientation)
    if family == "cycle":
        return _cycle(n)
    if family == "star":
        return _star(n, orientation)
    if family == "wheel":
        return _wheel(n)
    if family == "tadpole":
        return _tadpole(n, t)
    if family == "friendship":
        return _friendship(n)
    return _butterfly(n)

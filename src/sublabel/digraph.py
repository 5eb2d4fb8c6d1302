"""Digraph model and generators for the supported graph families.

Vertices are 0-based indices; arcs are ordered (tail, head) pairs.  Each
generated family keeps a FamilyTag with its name and parameters.  The tag
derives the conventional names (v_1, u_3, a_2, ...) from n and t on first
use, so reports can print them next to raw indices and a build that never
prints them never makes them.

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

from functools import cached_property
from operator import attrgetter


class ParameterError(ValueError):
    """A family parameter is outside its supported range."""


class NotIntegerError(ValueError):
    """A vertex count, arc endpoint or label is not an int."""


def int_tuple(values, what: str) -> tuple[int, ...]:
    """values as a tuple, checked to hold ints only; a bool is refused,
    though Python counts it as an int."""
    values = tuple(values)
    if not set(map(type, values)) <= {int}:  # the index is sought only on failure
        i = next(i for i, x in enumerate(values) if type(x) is not int)
        raise NotIntegerError(f"{what} must be integers, got {values[i]!r} at index {i}")
    return values


class Record:
    """Base of the library's value records.

    Each subclass names its fields, in order, in `_fields` (at least two,
    so that `_values` returns a tuple), and its own __init__ fills them
    through the instance __dict__.  Two records are equal when they are of
    one class and their fields are equal; the hash and the repr are those
    of the same fields, as a frozen dataclass gives them, and assigning or
    deleting an attribute raises AttributeError.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        # the tuple of a record's field values; an attrgetter binds to no
        # instance, so it is called as self._values(self)
        cls._values = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot assign {name!r}")

    def __delattr__(self, name: str):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")


def set_fields(record: Record) -> dict:
    """The fields of record that are not None, by name, in `_fields` order:
    the JSON block of a family tag, a verdict or a search target."""
    return {f: v for f, v in zip(record._fields, record._values(record)) if v is not None}


class FamilyTag(Record):
    """Provenance of a generated digraph: family name and parameters.

    vertex_names and arc_names map indices to the conventional names.
    Both are derived from n and t on the first read of either, and kept;
    a tag that build_family would refuse has none.  Equality, hashing and
    repr see the four fields only.
    """

    _fields = ("name", "n", "t", "orientation")

    def __init__(self, name: str, n: int, t: int | None = None,
                 orientation: str | None = None):
        self.__dict__.update(name=name, n=n, t=t, orientation=orientation)

    @property
    def vertex_names(self) -> tuple[str, ...]:
        return self._names[0]

    @property
    def arc_names(self) -> tuple[str, ...]:
        return self._names[1]

    @cached_property
    def _names(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """(vertex names, arc names), made once for both."""
        try:
            row, _ = _checked(self.name, self.n, self.t, self.orientation)
        except ParameterError:
            return (), ()
        _, names, *_ = row
        return names(self.n, self.t)


class Digraph(Record):
    """A simple directed graph: no self-loops, no repeated arcs.

    Immutable after construction; safe to share between threads.  The
    family tag derives its names on first read, and concurrent first reads
    build equal tuples, so whichever is kept, every reader sees the same.
    """

    _fields = ("vertex_count", "arcs", "family")

    def __init__(self, vertex_count: int, arcs: tuple[tuple[int, int], ...],
                 family: FamilyTag | None = None):
        self.__dict__.update(vertex_count=vertex_count,
                             arcs=self._checked_arcs(vertex_count, arcs), family=family)

    @staticmethod
    def _checked_arcs(n: int, given) -> tuple[tuple[int, int], ...]:
        """The arcs as a tuple of (tail, head) tuples, once n is checked to be
        a vertex count and each arc to join two of its vertices, with no
        self-loop and no arc twice."""
        if type(n) is not int:
            raise NotIntegerError(f"vertex_count must be an integer, got {n!r}")
        if n < 0:
            raise ValueError("vertex_count must be nonnegative")
        arcs = []
        seen = set()
        for arc in given:
            try:
                t, h = arc
            except (TypeError, ValueError):
                raise ValueError(f"arc {arc!r} must be a (tail, head) pair") from None
            if type(arc) is not tuple:  # a tuple is kept, not copied
                arc = (t, h)
            arcs.append(arc)
            if type(t) is not int or type(h) is not int:
                raise NotIntegerError(f"arc endpoints must be integers, got {arc!r}")
            if not (0 <= t < n and 0 <= h < n):
                raise ValueError(f"arc ({t},{h}) references a vertex outside 0..{n - 1}")
            if t == h:
                raise ValueError(f"self-loop at vertex {t}")
            if arc in seen:
                raise ValueError(f"duplicate arc ({t},{h})")
            seen.add(arc)
        return tuple(arcs)

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
        """The conventional name of vertex i, or v{i} without one."""
        if not 0 <= i < self.vertex_count:
            raise IndexError(f"vertex index {i} out of range for {self.vertex_count} vertices")
        names = self.family.vertex_names if self.family else ()
        return names[i] if i < len(names) else f"v{i}"

    def arc_name(self, i: int) -> str:
        """The conventional name of arc i, or (tail->head) without one."""
        if not 0 <= i < len(self.arcs):
            raise IndexError(f"arc index {i} out of range for {len(self.arcs)} arcs")
        names = self.family.arc_names if self.family else ()
        if i < len(names):
            return names[i]
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


# Each generator returns the vertex count and the arcs of one family member,
# and each names function its vertex names and arc names, which depend on n
# and t only; _checked has passed n, t and the orientation before either runs.

def _numbered(prefix: str, first: int, last: int) -> tuple[str, ...]:
    """prefix_first, .., prefix_last."""
    return tuple(f"{prefix}_{i}" for i in range(first, last + 1))


def _path(n: int, t: None, orientation: str):
    arcs = []
    for i in range(1, n):  # 1-based arc index i joins v_i and v_{i+1}
        if orientation == "alternating" and i % 2 == 1:
            arcs.append((i, i - 1))
        else:
            arcs.append((i - 1, i))
    return n, arcs


def _path_names(n: int, t: None):
    return _numbered("v", 1, n), _numbered("a", 1, n - 1)


def _cycle(n: int, t: None, orientation: None):
    arcs = [(i - 1, i) for i in range(1, n)] + [(n - 1, 0)]
    return n, arcs


def _cycle_names(n: int, t: None):
    return _numbered("v", 1, n), _numbered("a", 1, n)


def _star(n: int, t: None, orientation: str):
    if orientation == "out":
        arcs = [(0, i) for i in range(1, n + 1)]
    else:
        arcs = [(i, 0) for i in range(1, n + 1)]
    return n + 1, arcs


def _star_names(n: int, t: None):
    return _numbered("v", 0, n), _numbered("a", 1, n)


def _wheel(n: int, t: None, orientation: None):
    spokes = [(i, 0) for i in range(1, n + 1)]
    rim = [(i, i + 1) for i in range(1, n)] + [(n, 1)]
    return n + 1, spokes + rim


def _wheel_names(n: int, t: None):
    return _numbered("v", 0, n), _numbered("a", 1, n) + _numbered("b", 1, n)


def _tadpole(n: int, t: int, orientation: None):
    # cycle vertices 0..n-1 are v_1..v_n, path vertices n..n+t-1 are u_1..u_t
    arcs = [(i - 1, i) for i in range(1, n)] + [(n - 1, 0)]
    arcs += [(n + i - 1, n + i) for i in range(1, t)]
    arcs += [(n + t - 1, 0)]
    return n + t, arcs


def _tadpole_names(n: int, t: int):
    return (_numbered("v", 1, n) + _numbered("u", 1, t),
            _numbered("a", 1, n) + _numbered("b", 1, t - 1) + ("c",))


def _friendship(n: int, t: None, orientation: None):
    # x is vertex 0; triangle i uses vertices 2i-1 (v_i1) and 2i (v_i2)
    arcs = []
    for i in range(1, n + 1):
        a, b = 2 * i - 1, 2 * i
        arcs += [(0, a), (a, b), (b, 0)]
    return 2 * n + 1, arcs


def _friendship_names(n: int, t: None):
    return (("x",) + tuple(f"v_{i}{j}" for i in range(1, n + 1) for j in (1, 2)),
            tuple(f"a_{i}{j}" for i in range(1, n + 1) for j in (0, 1, 2)))


def _butterfly(n: int, t: None, orientation: None):
    # v_1..v_{n-1} -> 0..n-2, u_1..u_{n-1} -> n-1..2n-3, x = v_n = u_n -> 2n-2
    x = 2 * n - 2
    a = [(i - 1, i) for i in range(1, n - 1)] + [(n - 2, x), (x, 0)]
    b = [(n - 2 + i, n - 1 + i) for i in range(1, n - 1)] + [(2 * n - 3, x), (x, n - 1)]
    return 2 * n - 1, a + b


def _butterfly_names(n: int, t: None):
    return (_numbered("v", 1, n - 1) + _numbered("u", 1, n - 1) + ("x",),
            _numbered("a", 1, n) + _numbered("b", 1, n))


# family -> (generator, names function, least n, whether it takes t, its
# orientations with the default first; none for a family with a single
# orientation)
_FAMILY_TABLE = {
    "path": (_path, _path_names, 2, False, ("forward", "alternating")),
    "cycle": (_cycle, _cycle_names, 3, False, ()),
    "star": (_star, _star_names, 1, False, ("out", "in")),
    "wheel": (_wheel, _wheel_names, 3, False, ()),
    "tadpole": (_tadpole, _tadpole_names, 3, True, ()),
    "friendship": (_friendship, _friendship_names, 1, False, ()),
    "butterfly": (_butterfly, _butterfly_names, 3, False, ()),
}

FAMILIES = tuple(_FAMILY_TABLE)


def _checked(family: str, n: int, t: int | None, orientation: str | None):
    """The _FAMILY_TABLE row of `family` and the orientation to build, once
    n, t and the orientation are checked; ParameterError otherwise."""
    _require(family in FAMILIES, f"unknown family {family!r}; expected one of {', '.join(FAMILIES)}")
    row = _FAMILY_TABLE[family]
    _, _, least_n, takes_t, orientations = row
    if takes_t:
        _require(t is not None, f"{family} requires the path length t")
    else:
        _require(t is None, f"parameter t is only meaningful for tadpoles, not {family}")
    if not orientations:
        _require(orientation is None,
                 f"{family} has a single canonical orientation; do not pass orientation")
    elif orientation is None:
        orientation = orientations[0]
    for name, value in (("n", n), ("t", t)):
        _require(value is None or type(value) is int,
                 f"{family} parameters must be integers, got {name}={value!r}")
    _require(n >= least_n, f"{family} requires n >= {least_n}, got n={n}")
    _require(t is None or t >= 1, f"{family} requires t >= 1, got t={t}")
    _require(not orientations or orientation in orientations,
             f"{family} orientation must be {' or '.join(map(repr, orientations))}, "
             f"got {orientation!r}")
    return row, orientation


def build_family(family: str, n: int, t: int | None = None,
                 orientation: str | None = None) -> Digraph:
    """Build one of the supported families with its canonical arc order.

    `t` is required for (and only for) tadpoles.  `orientation` selects the
    variant for paths (forward/alternating) and stars (out/in); the other
    families have a single canonical orientation and reject the argument.
    `n` and `t` must be ints; a bool is refused.
    """
    (generate, *_), orientation = _checked(family, n, t, orientation)
    vertex_count, arcs = generate(n, t, orientation)
    return Digraph(vertex_count, arcs, FamilyTag(family, n, t, orientation))

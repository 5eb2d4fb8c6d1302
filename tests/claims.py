"""Reader for tests/claims.txt, the paper's claims one row each.

`failures(family, n, t)` checks every construction row that covers one
family member; tests/test_constructions.py runs it per member and
acceptance criterion 1 over every member of every row.  Criterion 2
searches the `none` rows, `ABSENT`.
"""

from pathlib import Path

from sublabel import Verdict, classify, construct, weight_profile

TABLE = Path(__file__).resolve().parent / "claims.txt"
COLUMNS = ("id", "family", "orientation", "n", "t", "side", "construction",
           "flag", "weights", "verdict")


def read_rows():
    """Each row of the table as a dict of its columns; the verdict is the
    rest of the line."""
    rows = []
    for line in TABLE.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            rows.append(dict(zip(COLUMNS, line.split(None, len(COLUMNS) - 1))))
    return rows


def span(field):
    """The values of a range column: lo..hi inclusive, one value, or None
    for `-`."""
    if field == "-":
        return [None]
    lo, _, hi = field.partition("..")
    return range(int(lo), int(hi or lo) + 1)


def members(row):
    """The (family, n, t) a row claims something of."""
    return [(row["family"], n, t) for n in span(row["n"]) for t in span(row["t"])]


def evaluate(expr, n, t):
    return eval(expr, {"__builtins__": {}, "n": n, "t": t, "range": range, "set": set})


def verdict(row, n, t):
    kind, *params = row["verdict"].split()
    return Verdict(kind, **{key: evaluate(value, n, t)
                            for key, value in (p.split("=", 1) for p in params)})


CLAIMED = read_rows()
# the construction rows, each with the members it covers
BUILT = [(row, members(row)) for row in CLAIMED if row["construction"] != "-"]
ABSENT = [row for row in CLAIMED if row["construction"] == "-"]
SWEEP = list(dict.fromkeys(m for _, covered in BUILT for m in covered))


def failures(family, n, t=None):
    """What the construction rows covering (family, n, t) claim and the
    built labeling does not hold: the orientation `construct` picked, the
    side's verdict, both strong flags and the weight set.  A member no
    row covers is a failure too."""
    bad = []
    rows = [row for row, covered in BUILT if (family, n, t) in covered]
    if not rows:
        bad.append(f"no construction row covers {family} n={n} t={t}")
    for row in rows:
        g, l = construct(family, n, row["construction"], t=t)
        c = classify(g, l)
        arc = row["side"] == "arc"
        got = (g.family.orientation or "-", c.arc_verdict if arc else c.vertex_verdict,
               c.strong, c.strong_star)
        want = (row["orientation"], verdict(row, n, t),
                row["flag"] == "strong", row["flag"] == "strong*")
        if got != want:
            bad.append(f"{row['id']}: {got} != {want}")
        if row["weights"] != "-":
            p = weight_profile(g, l)
            weights = set(p.arc_weights if arc else p.vertex_weights)
            if weights != evaluate(row["weights"], n, t):
                bad.append(f"{row['id']}: weights {sorted(weights)}")
    return bad

"""Acceptance suite: one test per criterion, each prints a PASS/FAIL line.

Criteria 1 and 2 check the paper's claims, the rows of tests/claims.txt.
Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete.  Everything asserts exact integer equality; the only
tolerances are the per-criterion runtime budgets, which these runs sit
far below.
"""

import json
import re
import time

import claims
from sublabel import (CONSTRUCTION_KINDS, DEFAULT_CAP, SearchQuery, Target,
                      TotalLabeling, Verdict, build_family, classify, construct,
                      dual, graceful_to_strong_saml, mu_bounds, search,
                      validate_labeling, weight_profile)
from sublabel.labeling import BijectionError
from sublabel.search import _Kernel


def report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance: {criterion}: {status}{suffix}")
    assert ok, f"{criterion} failed{suffix}"


def zigzag_phi(n):
    phi, lo, hi = [], 1, n
    for i in range(n):
        if i % 2 == 0:
            phi.append(hi)
            hi -= 1
        else:
            phi.append(lo)
            lo += 1
    return tuple(phi)


def test_criterion_1_construction_sweep():
    started = time.perf_counter()
    bad = [f for family, n, t in claims.SWEEP for f in claims.failures(family, n, t)]
    elapsed = time.perf_counter() - started
    report("criterion 1 (construction sweep)",
           not bad and elapsed < 10.0,
           f"{len(claims.SWEEP)} family members, {elapsed:.2f}s"
           + (f"; first failure {bad[0]}" if bad else ""))


def test_criterion_2_nonexistence_certificates():
    started = time.perf_counter()
    bad = []
    searched = past_cap = 0
    for row in claims.ABSENT:
        assert (row["flag"], row["weights"], row["verdict"]) == ("-", "-", "none"), row["id"]
        orientation = None if row["orientation"] == "-" else row["orientation"]
        for family, n, t in claims.members(row):
            g = build_family(family, n, t=t, orientation=orientation)
            q = SearchQuery(g, Target(row["side"], "magic"))
            if g.label_count > DEFAULT_CAP:
                # a kernel that lost the empty seed would start a search
                # of up to 61 labels
                assert _Kernel(q).mu_seed == 0, f"{row['id']} n={n}: mu seed not empty"
                past_cap += 1
            rep = search(q, cap=g.label_count)
            assert rep.exhaustive
            searched += 1
            if rep.solutions_found:
                bad.append(f"{row['id']} n={n}: {rep.solutions_found}")
    elapsed = time.perf_counter() - started
    report("criterion 2 (non-existence certificates)",
           not bad and elapsed < 300.0,
           f"{searched} searches, {past_cap} past the cap, {elapsed:.2f}s"
           + (f"; {bad[0]}" if bad else ""))


def test_every_construction_has_a_claim():
    assert {(row["family"], row["construction"]) for row, _ in claims.BUILT} == \
        {(family, kind) for family, kinds in CONSTRUCTION_KINDS.items() for kind in kinds}


def test_readme_quotes_only_claims():
    # the README quotes rows in code blocks whose first line names the table
    readme = (claims.TABLE.parent.parent / "README.md").read_text()
    quoted = [line.split() for block in
              re.findall(r"```text\n# tests/claims.txt\n(.*?)```", readme, re.S)
              for line in block.splitlines() if line.strip()]
    rows = [line.split() for line in claims.TABLE.read_text().splitlines()]
    assert quoted
    assert [q for q in quoted if q not in rows] == []


def test_criterion_3_magic_iff_on_dicycles():
    started = time.perf_counter()
    ok = True
    for n in (3, 4):
        g = build_family("cycle", n)
        arc = search(SearchQuery(g, Target("arc", "magic"))).solutions_found
        vertex = search(SearchQuery(g, Target("vertex", "magic"))).solutions_found
        ok = ok and (arc > 0) == (vertex > 0)
    report("criterion 3 (arc-magic iff vertex-magic on dicycles)", ok,
           f"{time.perf_counter() - started:.2f}s")


def test_criterion_4_duality():
    started = time.perf_counter()
    bad = []
    produced = []
    for n in range(2, 51):
        produced.append(construct("path", n, "saml"))
    for n in range(1, 51):
        produced.append(construct("star", n, "saml"))
    for n in range(2, 13):
        edges = [(i, i + 1) for i in range(n - 1)]
        produced.append(graceful_to_strong_saml(edges, zigzag_phi(n)))
    produced.append(graceful_to_strong_saml([(0, 1), (0, 2), (0, 3)], (1, 2, 3, 4)))
    for g, l in produced:
        mu = classify(g, l).arc_verdict.mu
        d = dual(g, l)
        if classify(g, d).arc_verdict != Verdict.magic(g.label_count + 1 - mu):
            bad.append(f"dual verdict on {g.family.name if g.family else 'tree'}")
        if dual(g, d) != l:
            bad.append("dual not an involution")
    elapsed = time.perf_counter() - started
    report("criterion 4 (duality of magic labelings)",
           not bad and elapsed < 5.0,
           f"{len(produced)} labelings, {elapsed:.2f}s" + (f"; {bad[0]}" if bad else ""))


def test_criterion_5_bounds_consistency():
    started = time.perf_counter()
    bad = []
    # every arc-magic labeling found on a graph with a circuit obeys the
    # bounds; the two-cycle with a pendant in-arc makes the check bite
    # (it has 4 such labelings), the family instances contribute none
    from sublabel import Digraph
    graphs = [build_family("cycle", 3), build_family("cycle", 4),
              build_family("tadpole", 3, t=1),
              Digraph(3, ((0, 1), (1, 0), (2, 0)))]
    checked = 0
    for g in graphs:
        rep = search(SearchQuery(g, Target("arc", "magic"),
                                 mode="collect-up-to", limit=10 ** 9))
        bounds = mu_bounds(g)
        for w in rep.witnesses:
            mu = classify(g, w).arc_verdict.mu
            checked += 1
            if not bounds.contains(mu):
                bad.append(f"mu={mu} outside bounds")
    if checked == 0:
        bad.append("no arc-magic witnesses found anywhere; check is vacuous")
    # on a ring every label 1..2n is used and a magic constant can be the
    # label of neither an arc (its endpoints would coincide) nor a vertex
    # (the incoming arc would repeat the tail label); combined with the
    # circuit bounds no integer survives
    for n in (3, 4):
        g = build_family("cycle", n)
        bounds = mu_bounds(g)
        lo = int(bounds.lower) + (0 if bounds.lower.denominator == 1 else 1)
        survivors = [mu for mu in range(lo, int(bounds.upper) + 1)
                     if bounds.contains(mu) and mu not in range(1, 2 * n + 1)]
        if survivors:
            bad.append(f"cycle {n}: surviving mu {survivors}")
    elapsed = time.perf_counter() - started
    report("criterion 5 (magic-constant bounds)",
           not bad and elapsed < 1.0,
           f"{checked} witnesses checked, {elapsed:.2f}s" + (f"; {bad[0]}" if bad else ""))


def test_criterion_6_formula_regressions():
    started = time.perf_counter()
    bad = []
    # (a) the 2n+1-i arc-label variant for forward paths is not a bijection
    for n in (3, 4):
        g = build_family("path", n, orientation="forward")
        labels = TotalLabeling(tuple(range(1, n + 1)),
                               tuple(2 * n + 1 - i for i in range(1, n)))
        try:
            validate_labeling(g, labels)
            bad.append(f"path {n}: overshooting labels accepted")
        except BijectionError:
            pass
    # (b) the closed form 3n+1-2i overstates every inner wheel weight by 2;
    # the weight set is the row wheel-sval of tests/claims.txt
    n = 4
    g, l = construct("wheel", n, "sval")
    vw = weight_profile(g, l).vertex_weights
    for i in range(1, n):
        if vw[i] == 3 * n + 1 - 2 * i:
            bad.append(f"wheel inner weight {i} matches the misstated form")
        if vw[i] != 3 * n - 1 - 2 * i:
            bad.append(f"wheel inner weight {i} is {vw[i]}")
    elapsed = time.perf_counter() - started
    report("criterion 6 (formula regressions)",
           not bad and elapsed < 1.0,
           f"{elapsed:.2f}s" + (f"; {bad[0]}" if bad else ""))


def test_criterion_7_pruned_equals_reference():
    started = time.perf_counter()
    instances = []
    for n in (2, 3, 4):
        for orientation in ("forward", "alternating"):
            instances.append(build_family("path", n, orientation=orientation))
    instances += [build_family("cycle", 3), build_family("cycle", 4)]
    for n in (1, 2, 3):
        for orientation in ("out", "in"):
            instances.append(build_family("star", n, orientation=orientation))
    instances += [build_family("tadpole", 3, t=1), build_family("friendship", 1)]
    assert all(g.label_count <= 8 for g in instances)
    targets = [Target(side, kind) for side in ("arc", "vertex")
               for kind in ("magic", "antimagic", "arithmetic")]
    bad = []
    for g in instances:
        for target in targets:
            q = SearchQuery(g, target, mode="collect-up-to", limit=10 ** 9)
            pruned = search(q)
            reference = search(q, pruned=False)
            if pruned.solutions_found != reference.solutions_found or \
                    pruned.witnesses != reference.witnesses:
                bad.append(f"{g.family.name}({g.family.n}) {target.side}-{target.kind}")
            if pruned.nodes_visited > reference.nodes_visited:
                bad.append(f"node count on {g.family.name}({g.family.n})")
    elapsed = time.perf_counter() - started
    report("criterion 7 (pruned search equals reference)",
           not bad and elapsed < 120.0,
           f"{len(instances)} graphs x {len(targets)} targets, {elapsed:.1f}s"
           + (f"; {bad[0]}" if bad else ""))


def test_criterion_8_worker_determinism():
    started = time.perf_counter()
    queries = [
        SearchQuery(build_family("cycle", 3), Target("arc", "antimagic")),
        SearchQuery(build_family("path", 4, orientation="forward"),
                    Target("vertex", "arithmetic")),
        SearchQuery(build_family("star", 2, orientation="in"),
                    Target("vertex", "magic")),
    ]
    bad = []
    for q in queries:
        one = search(q, workers=1).to_dict()
        many = search(q, workers=2).to_dict()
        one.pop("elapsed")
        many.pop("elapsed")
        if json.dumps(one) != json.dumps(many):
            bad.append(q.graph.family.name)
    elapsed = time.perf_counter() - started
    report("criterion 8 (worker-count determinism)",
           not bad and elapsed < 60.0,
           f"{elapsed:.2f}s" + (f"; {bad[0]}" if bad else ""))

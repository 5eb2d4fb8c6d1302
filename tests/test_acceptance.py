"""Acceptance suite: one test per criterion, each prints a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete.  Everything asserts exact integer equality; the only
tolerances are the per-criterion runtime budgets, which these runs sit
far below.
"""

import json
import time

from sublabel import (SearchQuery, Target, TotalLabeling, Verdict,
                      build_family, classify, construct, dual,
                      graceful_to_strong_saml, mu_bounds, search,
                      validate_labeling, weight_profile)
from sublabel.labeling import BijectionError


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
    bad = []

    def expect(cond, what):
        if not cond:
            bad.append(what)

    for n in range(2, 51):
        g, l = construct("path", n, "saml")
        c = classify(g, l)
        expect(c.arc_verdict == Verdict.magic(n) and c.strong, f"path saml {n}")
        g, l = construct("path", n, "sa-al")
        c = classify(g, l)
        want = Verdict.magic(n + 2) if n == 2 else Verdict.arithmetic(n + 2, 1)
        expect(c.arc_verdict == want and c.strong, f"path sa-al {n}")
        g, l = construct("path", n, "sv-al")
        c = classify(g, l)
        expect(c.vertex_verdict == Verdict.arithmetic(n, 1) and c.strong_star,
               f"path sv-al {n}")
    for n in range(3, 51):
        g, l = construct("cycle", n, "sa-sv-al")
        c = classify(g, l)
        expect(c.arc_verdict == Verdict.arithmetic(n + 1, 1)
               and c.vertex_verdict == Verdict.arithmetic(1, 1) and c.strong,
               f"cycle {n}")
    for n in range(1, 51):
        g, l = construct("star", n, "saml")
        c = classify(g, l)
        expect(c.arc_verdict == Verdict.magic(2 * n + 2) and c.strong,
               f"star saml {n}")
        g, l = construct("star", n, "sa-al")
        c = classify(g, l)
        want = Verdict.magic(4) if n == 1 else Verdict.arithmetic(2 * n + 2, 2)
        expect(c.arc_verdict == want, f"star sa-al {n}")
        g, l = construct("star", n, "sval")
        c = classify(g, l)
        vw = weight_profile(g, l).vertex_weights
        expect(set(vw) == set(range(1, 2 * n, 2)) | {(n + 1) * (n + 2) // 2},
               f"star sval weights {n}")
        want = Verdict.arithmetic(1, 2) if n == 1 else Verdict.antimagic()
        expect(c.vertex_verdict == want, f"star sval verdict {n}")
    for n in range(3, 41):
        g, l = construct("wheel", n, "sval")
        c = classify(g, l)
        vw = weight_profile(g, l).vertex_weights
        expect(set(vw) == set(range(n + 1, 3 * n, 2)) | {(n + 1) * (n + 2) // 2},
               f"wheel weights {n}")
        want = Verdict.arithmetic(4, 2) if n == 3 else Verdict.antimagic()
        expect(c.vertex_verdict == want, f"wheel verdict {n}")
    for n in range(3, 16):
        for t in range(1, 16):
            g, l = construct("tadpole", n, "saal", t=t)
            c = classify(g, l)
            aw = set(weight_profile(g, l).arc_weights)
            expect(aw == set(range(n + t + 1, 2 * n + 2 * t + 2)) - {2 * n + t + 1},
                   f"tadpole saal {n},{t}")
            expect(c.arc_verdict == Verdict.antimagic() and c.strong,
                   f"tadpole saal verdict {n},{t}")
            g, l = construct("tadpole", n, "sv-al", t=t)
            c = classify(g, l)
            expect(c.vertex_verdict == Verdict.arithmetic(n + t + 1, 1)
                   and c.strong_star, f"tadpole sv-al {n},{t}")
    for n in range(1, 31):
        g, l = construct("friendship", n, "sa-al")
        c = classify(g, l)
        expect(c.arc_verdict == Verdict.arithmetic(2 * n + 2, 1) and c.strong,
               f"friendship {n}")
    for n in range(3, 31):
        g, l = construct("butterfly", n, "sa-al")
        c = classify(g, l)
        expect(c.arc_verdict == Verdict.arithmetic(2 * n, 1) and c.strong,
               f"butterfly sa-al {n}")
        g, l = construct("butterfly", n, "sval")
        c = classify(g, l)
        vw = weight_profile(g, l).vertex_weights
        expect(set(vw) == {3} | set(range(2 * n + 3, 4 * n + 1)),
               f"butterfly sval weights {n}")
        expect(c.vertex_verdict == Verdict.antimagic() and c.strong_star,
               f"butterfly sval verdict {n}")
    elapsed = time.perf_counter() - started
    report("criterion 1 (construction sweep)",
           not bad and elapsed < 10.0,
           f"{elapsed:.2f}s" + (f"; first failure {bad[0]}" if bad else ""))


def test_criterion_2_nonexistence_certificates():
    started = time.perf_counter()
    bad = []

    def count(graph, side):
        rep = search(SearchQuery(graph, Target(side, "magic")), cap=13)
        assert rep.exhaustive
        return rep.solutions_found

    for n in (2, 3, 4):
        for orientation in ("forward", "alternating"):
            c = count(build_family("path", n, orientation=orientation), "vertex")
            if c != 0:
                bad.append(f"path {n} {orientation}: {c}")
    for n in (3, 4):
        g = build_family("cycle", n)
        for side in ("arc", "vertex"):
            c = count(g, side)
            if c != 0:
                bad.append(f"cycle {n} {side}: {c}")
    for n in (1, 2, 3, 4):  # n=4 has 9 labels and needs the larger cap
        for orientation in ("out", "in"):
            c = count(build_family("star", n, orientation=orientation), "vertex")
            if c != 0:
                bad.append(f"star {n} {orientation}: {c}")
    elapsed = time.perf_counter() - started
    report("criterion 2 (non-existence certificates)",
           not bad and elapsed < 300.0,
           f"{elapsed:.2f}s" + (f"; {bad[0]}" if bad else ""))


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
    # (b) the closed form 3n+1-2i overstates every inner wheel weight by 2,
    # while the weight set itself is the predicted one
    n = 4
    g, l = construct("wheel", n, "sval")
    vw = weight_profile(g, l).vertex_weights
    for i in range(1, n):
        if vw[i] == 3 * n + 1 - 2 * i:
            bad.append(f"wheel inner weight {i} matches the misstated form")
        if vw[i] != 3 * n - 1 - 2 * i:
            bad.append(f"wheel inner weight {i} is {vw[i]}")
    if set(vw) != set(range(n + 1, 3 * n, 2)) | {(n + 1) * (n + 2) // 2}:
        bad.append("wheel weight set")
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

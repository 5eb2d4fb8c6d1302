"""Exhaustive-search kernel: exact counts, pruning soundness, determinism."""

import json
import os

import pytest

from sublabel import (SearchCapError, SearchQuery, Target, TotalLabeling,
                      build_family, classify, construct, search)
from sublabel.search import _Kernel

def count(graph, side, kind, **kw):
    return search(SearchQuery(graph, Target(side, kind)), **kw).solutions_found


# counts below were frozen from an independent permutation-and-filter run
@pytest.mark.parametrize("family,n,orientation,side,expected", [
    ("path", 2, "forward", "vertex", 0),
    ("path", 3, "forward", "vertex", 0),
    ("path", 3, "alternating", "vertex", 0),
    ("star", 1, "out", "vertex", 0),
    ("star", 2, "out", "vertex", 0),
    ("star", 2, "in", "vertex", 0),
    ("cycle", 3, None, "vertex", 0),
    ("cycle", 3, None, "arc", 0),
])
def test_magic_counts_on_small_instances(family, n, orientation, side, expected):
    g = build_family(family, n, orientation=orientation)
    assert count(g, side, "magic") == expected


def test_single_arc_graph_is_always_arc_magic():
    g = build_family("path", 2)
    report = search(SearchQuery(g, Target("arc", "magic")))
    assert report.solutions_found == 6  # every bijection of {1,2,3}
    assert report.exhaustive


def test_every_witness_reclassifies_to_its_target():
    g = build_family("cycle", 3)
    for target in (Target("arc", "antimagic"), Target("arc", "arithmetic", a=4, d=1),
                   Target("vertex", "arithmetic", d=1)):
        report = search(SearchQuery(g, target, mode="collect-up-to", limit=50))
        assert report.witnesses
        for w in report.witnesses:
            cls = classify(g, w)
            verdict = cls.arc_verdict if target.side == "arc" else cls.vertex_verdict
            assert target.matches(verdict)


def test_pruned_and_reference_agree_on_random_digraphs():
    import random

    from sublabel import Digraph
    rng = random.Random(424242)
    for _ in range(25):
        v = rng.randint(1, 4)
        pairs = [(a, b) for a in range(v) for b in range(v) if a != b]
        rng.shuffle(pairs)
        g = Digraph(v, tuple(pairs[:rng.randint(0, min(len(pairs), 7 - v))]))
        target = Target(rng.choice(("arc", "vertex")),
                        rng.choice(("magic", "antimagic", "arithmetic")))
        q = SearchQuery(g, target,
                        require_strong=rng.random() < 0.3,
                        require_strong_star=rng.random() < 0.3,
                        mode="collect-up-to", limit=10 ** 9)
        pruned, reference = search(q), search(q, pruned=False)
        assert pruned.solutions_found == reference.solutions_found
        assert pruned.witnesses == reference.witnesses
        assert pruned.nodes_visited <= reference.nodes_visited


def test_strong_flags_restrict_the_count():
    g, l = construct("path", 3, "saml")
    free = search(SearchQuery(g, Target("arc", "magic"), mode="collect-up-to",
                              limit=10 ** 9))
    strong = search(SearchQuery(g, Target("arc", "magic"), require_strong=True,
                                mode="collect-up-to", limit=10 ** 9))
    assert strong.solutions_found <= free.solutions_found
    assert l in strong.witnesses
    assert all(w in free.witnesses for w in strong.witnesses)
    # reference agrees on the strong-restricted query too
    ref = search(SearchQuery(g, Target("arc", "magic"), require_strong=True,
                             mode="collect-up-to", limit=10 ** 9), pruned=False)
    assert ref.witnesses == strong.witnesses


def test_witness_inclusion_for_constructions_within_reach():
    # every family/kind pair, pinned down enough to keep the bigger
    # instances (N up to 11) tractable and the witness lists small
    cases = [
        (construct("path", 3, "saml"), Target("arc", "magic"), {}),
        (construct("path", 4, "sa-al"), Target("arc", "arithmetic", a=6, d=1), {}),
        (construct("path", 3, "sv-al"), Target("vertex", "arithmetic", a=3, d=1), {}),
        (construct("cycle", 3, "sa-sv-al"), Target("arc", "arithmetic", a=4, d=1), {}),
        (construct("cycle", 4, "sa-sv-al"), Target("arc", "arithmetic", a=5, d=1), {}),
        (construct("star", 2, "saml"), Target("arc", "magic"), {}),
        (construct("star", 2, "sa-al"), Target("arc", "arithmetic", a=6, d=2), {}),
        (construct("star", 2, "sval"), Target("vertex", "antimagic"), {}),
        (construct("star", 1, "sval"), Target("vertex", "antimagic"), {}),
        (construct("star", 3, "sval"), Target("vertex", "antimagic"), {}),
        (construct("wheel", 3, "sval"), Target("vertex", "arithmetic", a=4, d=2), {}),
        (construct("tadpole", 3, "saal", t=1), Target("arc", "antimagic"), {}),
        (construct("tadpole", 3, "sv-al", t=1),
         Target("vertex", "arithmetic", a=5, d=1), {}),
        (construct("friendship", 1, "sa-al"), Target("arc", "arithmetic", a=4, d=1), {}),
        (construct("butterfly", 3, "sa-al"), Target("arc", "arithmetic", a=6, d=1), {}),
        (construct("butterfly", 3, "sval"), Target("vertex", "antimagic"),
         {"require_strong_star": True}),
    ]
    for (g, l), target, restrict in cases:
        report = search(SearchQuery(g, target, mode="collect-up-to",
                                    limit=10 ** 9, **restrict))
        assert report.exhaustive
        assert l in report.witnesses


def test_witnesses_arrive_in_canonical_order():
    g = build_family("cycle", 3)
    report = search(SearchQuery(g, Target("arc", "antimagic"),
                                mode="collect-up-to", limit=10 ** 9))
    slots = [w.vertex_labels + w.arc_labels for w in report.witnesses]
    assert slots == sorted(slots)


def test_first_witness_mode_stops_early():
    g = build_family("cycle", 3)
    full = search(SearchQuery(g, Target("arc", "antimagic")))
    first = search(SearchQuery(g, Target("arc", "antimagic"), mode="first-witness"))
    assert first.solutions_found == 1
    assert len(first.witnesses) == 1
    assert not first.exhaustive
    assert first.nodes_visited < full.nodes_visited
    assert full.solutions_found > 1
    assert full.witnesses == []  # count-all records no witnesses


def test_collect_up_to_truncates_deterministically():
    g = build_family("cycle", 3)
    all_wits = search(SearchQuery(g, Target("arc", "antimagic"),
                                  mode="collect-up-to", limit=10 ** 9)).witnesses
    some = search(SearchQuery(g, Target("arc", "antimagic"),
                              mode="collect-up-to", limit=7))
    assert some.solutions_found == 7
    assert some.witnesses == all_wits[:7]
    assert not some.exhaustive


def test_worker_counts_do_not_change_results():
    g = build_family("cycle", 3)
    for target in (Target("arc", "antimagic"), Target("vertex", "magic")):
        one = search(SearchQuery(g, target), workers=1)
        many = search(SearchQuery(g, target), workers=3)
        d1, d2 = one.to_dict(), many.to_dict()
        d1.pop("elapsed")
        d2.pop("elapsed")
        assert json.dumps(d1) == json.dumps(d2)


def test_workers_preserve_witness_order():
    g = build_family("cycle", 3)
    q = SearchQuery(g, Target("arc", "antimagic"), mode="collect-up-to", limit=9)
    assert search(q, workers=1).witnesses == search(q, workers=2).witnesses


def assert_no_child_left():
    """Every forked worker has exited and been reaped: no child, no zombie."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("family,n,target,first_labels", [
    ("cycle", 4, Target("arc", "antimagic"), 4),
    ("star", 3, Target("vertex", "magic"), 7),
    # fewer first labels than workers: one child, not two
    ("path", 2, Target("arc", "magic"), 2),
])
def test_split_leaves_no_child(family, n, target, first_labels, workers, monkeypatch):
    q = SearchQuery(build_family(family, n), target)
    assert len(_Kernel(q).first_labels()) == first_labels
    forks, fork = [], os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    one = search(q).to_dict()
    monkeypatch.setattr(os, "fork", counted_fork)
    many = search(q, workers=workers).to_dict()
    del one["elapsed"], many["elapsed"]
    assert many == one
    assert len(forks) == min(workers, first_labels) - 1
    assert_no_child_left()


def test_split_caller_interrupt_kills_its_children(monkeypatch):
    caller, run = os.getpid(), _Kernel.run

    def interrupted_here(self, first_label=None):
        if os.getpid() == caller:
            raise KeyboardInterrupt
        return run(self, first_label)

    monkeypatch.setattr(_Kernel, "run", interrupted_here)
    q = SearchQuery(build_family("cycle", 5), Target("arc", "antimagic"))
    with pytest.raises(KeyboardInterrupt):
        search(q, workers=3)
    assert_no_child_left()


def test_split_child_failure_raises_and_never_returns_a_short_count(monkeypatch):
    caller, run = os.getpid(), _Kernel.run

    def fails_in_a_child(self, first_label=None):
        if os.getpid() != caller:
            raise ZeroDivisionError("branch failed")
        return run(self, first_label)

    monkeypatch.setattr(_Kernel, "run", fails_in_a_child)
    q = SearchQuery(build_family("cycle", 4), Target("arc", "antimagic"))
    with pytest.raises(RuntimeError, match="worker 1 of 2 failed.*ZeroDivisionError: branch failed"):
        search(q, workers=2)
    assert_no_child_left()


def test_workers_need_fork(monkeypatch):
    q = SearchQuery(build_family("cycle", 3), Target("arc", "antimagic"))
    want = search(q).solutions_found
    monkeypatch.delattr(os, "fork")
    with pytest.raises(ValueError, match="needs os.fork"):
        search(q, workers=2)
    assert search(q, workers=1).solutions_found == want


def test_cap_refusal_names_the_cap():
    g = build_family("cycle", 7)
    with pytest.raises(SearchCapError, match="cap of 12"):
        search(SearchQuery(g, Target("arc", "magic")))
    report = search(SearchQuery(g, Target("arc", "magic")), cap=14)
    assert report.solutions_found == 0


def test_empty_graph_trivial_report():
    from sublabel import Digraph
    g = Digraph(0, ())
    report = search(SearchQuery(g, Target("arc", "magic")))
    assert report.exhaustive
    assert report.solutions_found == 1  # the empty labeling is vacuously magic
    assert report.nodes_visited == 0


def test_verify_iff_cycles():
    # a dicycle has arc-magic and vertex-magic labelings together or not at all
    for n in (3, 4):
        g = build_family("cycle", n)
        assert (count(g, "arc", "magic") > 0) == (count(g, "vertex", "magic") > 0)


def test_found_magic_constants_respect_the_circuit_bounds():
    # a two-cycle with a pendant in-arc is the smallest graph here that
    # actually admits arc-magic labelings (frozen count: 4, mu in {3, 4})
    from sublabel import Digraph, mu_bounds
    g = Digraph(3, ((0, 1), (1, 0), (2, 0)))
    report = search(SearchQuery(g, Target("arc", "magic"),
                                mode="collect-up-to", limit=10 ** 9))
    assert report.solutions_found == 4
    bounds = mu_bounds(g)
    mus = {classify(g, w).arc_verdict.mu for w in report.witnesses}
    assert mus == {3, 4}
    assert all(bounds.contains(mu) for mu in mus)


def test_magic_constant_times_size_equals_label_sum_on_dicycles():
    # any arc-magic witness on a ring would satisfy n*mu = sum of arc labels;
    # the exhaustive count of such witnesses is zero, which the sum identity
    # also forces for n = 3: no integer mu fits
    g = build_family("cycle", 3)
    report = search(SearchQuery(g, Target("arc", "magic"),
                                mode="collect-up-to", limit=10))
    assert report.solutions_found == 0
    assert report.exhaustive

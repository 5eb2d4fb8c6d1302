"""Pruning rules of the search kernel against the reference enumerator.

The magic rules are the magic constant from the label-sum identity,
distinct arc-magic bases within the label spread, and the last-slot
residue cut; distinctness and pinned arithmetic targets cut on fully
determined weights.  The pruned kernel must agree with the reference
enumerator on random digraphs for every target kind, and the node counts
of a few instances are pinned so that any change to the rules shows."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sublabel import Digraph, SearchQuery, Target, build_family, search

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


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(graph=small_digraphs(),
       target=targets(),
       strong=st.booleans(),
       strong_star=st.booleans(),
       limit=st.sampled_from((1, 3, 10 ** 9)))
@example(graph=Digraph(1, ()), target=Target("vertex", "magic"), strong=False,
         strong_star=False, limit=10 ** 9)
@example(graph=Digraph(1, ()), target=Target("arc", "magic"), strong=False,
         strong_star=False, limit=10 ** 9)
@example(graph=Digraph(3, ((0, 1), (0, 2))), target=Target("arc", "magic"), strong=False,
         strong_star=False, limit=10 ** 9)
@example(graph=Digraph(3, ((0, 1), (1, 0), (2, 0))), target=Target("arc", "magic"),
         strong=False, strong_star=False, limit=10 ** 9)
@example(graph=Digraph(4, ((1, 0), (2, 0), (3, 0))), target=Target("vertex", "magic"),
         strong=False, strong_star=False, limit=10 ** 9)
def test_magic_rules_match_reference(graph, target, strong, strong_star, limit):
    q = SearchQuery(graph, target, require_strong=strong,
                    require_strong_star=strong_star, mode="collect-up-to", limit=limit)
    reference = search(q, pruned=False)
    for workers in (1, 2):
        pruned = search(q, workers=workers)
        assert pruned.solutions_found == reference.solutions_found
        assert pruned.witnesses == reference.witnesses
        assert pruned.exhaustive == reference.exhaustive
        # branches run to their own witness bound, so only a single worker
        # or an exhaustive run is bounded by the reference's node count
        if workers == 1 or reference.exhaustive:
            assert pruned.nodes_visited <= reference.nodes_visited


@pytest.mark.parametrize("family,n,kw,side,kind,nodes,solutions", [
    ("tadpole", 3, {"t": 3}, "arc", "magic", 42176, 4),
    ("star", 5, {"orientation": "out"}, "arc", "magic", 274711, 11520),
    ("star", 3, {}, "vertex", "magic", 517, 0),
    ("cycle", 4, {}, "vertex", "arithmetic", 107944, 816),
    ("cycle", 4, {}, "arc", "antimagic", 94428, 30912),
])
def test_pinned_node_counts(family, n, kw, side, kind, nodes, solutions):
    report = search(SearchQuery(build_family(family, n, **kw), Target(side, kind)))
    assert (report.nodes_visited, report.solutions_found) == (nodes, solutions)


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


def test_count_all_nodes_are_the_same_at_two_workers():
    q = SearchQuery(build_family("tadpole", 3, t=2), Target("arc", "magic"))
    one, two = search(q), search(q, workers=2)
    assert (one.solutions_found, one.nodes_visited) == (two.solutions_found, two.nodes_visited)


@pytest.mark.parametrize("kind,kw", [
    ("arithmetic", {"d": 0}),
    ("arithmetic", {"d": -1}),
    ("magic", {"a": 5}),
    ("magic", {"d": 1}),
    ("antimagic", {"a": 1, "d": 1}),
])
def test_target_rejects_misplaced_or_invalid_parameters(kind, kw):
    with pytest.raises(ValueError):
        Target("arc", kind, **kw)


def test_search_rejects_fewer_than_one_worker():
    q = SearchQuery(build_family("path", 2), Target("arc", "magic"))
    for workers in (0, -3):
        with pytest.raises(ValueError, match="workers"):
            search(q, workers=workers)


def test_import_leaves_the_process_pool_out():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = "import sys, sublabel; print('concurrent.futures.process' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "False"

"""Inputs, operations and output checks of the benchmark workloads.

Each workload is a function ``(seed, workdir) -> list[Op]``.  Calling it is
the set-up: it builds every input (graphs, queries, random labelings,
documents, CLI argument lists) from the seed.  The returned ops are one
*pass*; the runner times each op's ``call`` and afterwards, untimed, runs
its ``check`` on the output.

* search-magic     count-all searches for magic targets, one worker
* search-distinct  antimagic and arithmetic targets, two workers (pool)
* documents        construct -> classify -> to_json -> from_json -> to_dot
                   on one large instance of every family, no search
* cli              sequential ``sublabel`` subprocess calls on small inputs

The search instances are fixed, so ``nodes_visited`` repeats exactly on
every seed; the seed only orders them.  Counts and witness digests are
pinned in PINS and cross-checked against the reference enumerator by
``check_pins.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from sublabel import (CONSTRUCTION_KINDS, LabelingDocument, SearchQuery, Target,
                      TotalLabeling, build_family, classify, construct,
                      from_json, search, to_dot, weight_profile)
from sublabel.cli import main as cli_main

SEARCH_TIMEOUT = 60.0
DOCUMENT_TIMEOUT = 60.0
CLI_TIMEOUT = 30.0


@dataclass
class Op:
    """One timed call into a layer.

    ``call(state)`` performs the call and returns its output; ``state`` is a
    dict shared by the ops of one pass, so a pipeline can hand results on.
    ``check(output, state)`` returns ``(error or None, counters)``.
    ``control`` names the control (see control.py) its time is scaled by.
    """

    name: str
    span: str
    call: Callable[[dict], object]
    check: Callable[[object, dict], tuple]
    timeout: float
    control: str = "python"


# -- search ---------------------------------------------------------------

@dataclass(frozen=True)
class Instance:
    name: str
    family: str
    n: int
    side: str
    kind: str
    t: int | None = None
    orientation: str | None = None
    a: int | None = None
    d: int | None = None
    mode: str = "count-all"
    limit: int | None = None

    def query(self) -> SearchQuery:
        graph = build_family(self.family, self.n, t=self.t, orientation=self.orientation)
        return SearchQuery(graph, Target(self.side, self.kind, a=self.a, d=self.d),
                           mode=self.mode, limit=self.limit)


MAGIC = (
    Instance("cycle6-svml", "cycle", 6, "vertex", "magic"),
    Instance("tadpole33-saml", "tadpole", 3, "arc", "magic", t=3),
    Instance("star5out-saml", "star", 5, "arc", "magic", orientation="out"),
    Instance("cycle6-saml", "cycle", 6, "arc", "magic"),
    Instance("star5in-svml", "star", 5, "vertex", "magic", orientation="in"),
    Instance("path6-svml", "path", 6, "vertex", "magic"),
    Instance("friendship2-saml", "friendship", 2, "arc", "magic"),
    Instance("tadpole33-saml-first", "tadpole", 3, "arc", "magic", t=3, mode="first-witness"),
)

DISTINCT = (
    Instance("cycle4-saal", "cycle", 4, "arc", "antimagic"),
    Instance("cycle4-sv-al", "cycle", 4, "vertex", "arithmetic"),
    Instance("path5fwd-sa-al", "path", 5, "arc", "arithmetic", orientation="forward"),
    Instance("star4in-sval", "star", 4, "vertex", "antimagic", orientation="in"),
    Instance("star4out-sa-al", "star", 4, "arc", "arithmetic", orientation="out"),
    Instance("cycle5-sa-al-a6d1", "cycle", 5, "arc", "arithmetic", a=6, d=1),
    Instance("cycle5-sv-al-a1d1", "cycle", 5, "vertex", "arithmetic", a=1, d=1),
    Instance("path5fwd-sa-al-collect100", "path", 5, "arc", "arithmetic",
             orientation="forward", mode="collect-up-to", limit=100),
)

DISTINCT_WORKERS = 2

# A workers=2 search of this graph does almost no work: its time is the
# pool's start and shutdown.
POOL_PROBE = Instance("path2-saml", "path", 2, "arc", "magic")

# name -> (solutions_found, witness_digest); see check_pins.py
PINS = {
    "cycle6-svml": (0, "4f53cda18c2baa0c"),
    "tadpole33-saml": (4, "4f53cda18c2baa0c"),
    "star5out-saml": (11520, "4f53cda18c2baa0c"),
    "cycle6-saml": (0, "4f53cda18c2baa0c"),
    "star5in-svml": (0, "4f53cda18c2baa0c"),
    "path6-svml": (0, "4f53cda18c2baa0c"),
    "friendship2-saml": (0, "4f53cda18c2baa0c"),
    "tadpole33-saml-first": (1, "f92ab5ffc1e4e35d"),
    "cycle4-saal": (30912, "4f53cda18c2baa0c"),
    "cycle4-sv-al": (816, "4f53cda18c2baa0c"),
    "path5fwd-sa-al": (5048, "4f53cda18c2baa0c"),
    "star4in-sval": (203616, "4f53cda18c2baa0c"),
    "star4out-sa-al": (5760, "4f53cda18c2baa0c"),
    "cycle5-sa-al-a6d1": (720, "4f53cda18c2baa0c"),
    "cycle5-sv-al-a1d1": (720, "4f53cda18c2baa0c"),
    "path5fwd-sa-al-collect100": (100, "ce1ab4ea06ea6512"),
    "path2-saml": (6, "4f53cda18c2baa0c"),
}


def witness_digest(witnesses) -> str:
    text = json.dumps([[list(w.vertex_labels), list(w.arc_labels)] for w in witnesses],
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check_report(inst: Instance, query: SearchQuery, report) -> tuple:
    counters = {"nodes": report.nodes_visited, "solutions": report.solutions_found}
    solutions, digest = PINS[inst.name]
    if report.solutions_found != solutions:
        return f"{inst.name}: {report.solutions_found} solutions, pinned {solutions}", counters
    if witness_digest(report.witnesses) != digest:
        return f"{inst.name}: witness digest {witness_digest(report.witnesses)}, pinned {digest}", counters
    for w in report.witnesses:
        cls = classify(query.graph, w)
        verdict = cls.arc_verdict if query.target.side == "arc" else cls.vertex_verdict
        if not query.target.matches(verdict):
            return f"{inst.name}: witness {w} classifies as {verdict}", counters
    return None, counters


def search_op(inst: Instance, workers: int, name: str | None = None) -> Op:
    query = inst.query()
    return Op(name or inst.name, "search.search",
              lambda state: search(query, workers=workers),
              lambda report, state: check_report(inst, query, report),
              SEARCH_TIMEOUT, "pool" if workers > 1 else "python")


def _ordered(instances, seed: int) -> list:
    ordered = list(instances)
    random.Random(seed).shuffle(ordered)
    return ordered


def search_magic(seed: int, workdir: Path) -> list[Op]:
    return [search_op(inst, 1) for inst in _ordered(MAGIC, seed)]


def search_distinct(seed: int, workdir: Path) -> list[Op]:
    return [search_op(inst, DISTINCT_WORKERS) for inst in _ordered(DISTINCT, seed)]


# -- documents --------------------------------------------------------------

# family -> (n, t): about 1.2e5 labels each (friendship: 1.5e5)
DOCUMENT_SIZES = {
    "path": (60000, None),
    "cycle": (60000, None),
    "star": (60000, None),
    "wheel": (40000, None),
    "tadpole": (30000, 30000),
    "friendship": (30000, None),
    "butterfly": (30000, None),
}

# the orientation a construction is defined on, where the family has two
CONSTRUCTION_ORIENTATION = {
    ("path", "saml"): "alternating",
    ("path", "sa-al"): "forward",
    ("path", "sv-al"): "forward",
    ("star", "saml"): "out",
    ("star", "sa-al"): "in",
    ("star", "sval"): "in",
}


def documented_class(family: str, kind: str, n: int, t: int | None) -> list:
    """The verdicts each construction is documented to produce, as
    (side, kind, fields); kind "distinct" accepts antimagic or arithmetic."""
    t = t or 0  # only tadpoles have one
    return {
        ("path", "saml"): [("arc", "magic", {"mu": n})],
        ("path", "sa-al"): [("arc", "arithmetic", {"a": n + 2, "d": 1})],
        ("path", "sv-al"): [("vertex", "arithmetic", {"a": n, "d": 1})],
        ("cycle", "sa-sv-al"): [("arc", "arithmetic", {"a": n + 1, "d": 1}),
                                ("vertex", "arithmetic", {"a": 1, "d": 1})],
        ("star", "saml"): [("arc", "magic", {"mu": 2 * (n + 1)})],
        ("star", "sa-al"): [("arc", "arithmetic", {"a": 2 * n + 2, "d": 2})],
        ("star", "sval"): [("vertex", "distinct", {})],
        ("wheel", "sval"): [("vertex", "distinct", {})],
        ("tadpole", "saal"): [("arc", "distinct", {})],
        ("tadpole", "sv-al"): [("vertex", "arithmetic", {"a": n + t + 1, "d": 1})],
        ("friendship", "sa-al"): [("arc", "arithmetic", {"a": 2 * n + 2, "d": 1})],
        ("butterfly", "sa-al"): [("arc", "arithmetic", {"a": 2 * n, "d": 1})],
        ("butterfly", "sval"): [("vertex", "distinct", {})],
    }[(family, kind)]


def class_error(cls, expected) -> str | None:
    for side, kind, fields in expected:
        verdict = cls.arc_verdict if side == "arc" else cls.vertex_verdict
        kinds = ("antimagic", "arithmetic") if kind == "distinct" else (kind,)
        if verdict.kind not in kinds or any(getattr(verdict, k) != v for k, v in fields.items()):
            return f"{side} side is {verdict}, documented {kind} {fields}"
    return None


def _family_ops(family: str, kind: str, n: int, t: int | None,
                random_labels: TotalLabeling) -> list[Op]:
    orientation = CONSTRUCTION_ORIENTATION.get((family, kind))
    key = f"{family}-{kind}"
    expected = documented_class(family, kind, n, t)

    def build(state):
        state["built"] = build_family(family, n, t=t, orientation=orientation)
        return state["built"]

    def check_build(graph, state):
        return (None if graph.family.name == family else f"{key}: family tag {graph.family.name}"), {}

    def make(state):
        state["graph"], state["labels"] = construct(family, n, kind, t=t)
        return state["labels"]

    def check_make(labels, state):
        if state["graph"] != state.pop("built"):
            return f"{key}: construct returned another graph than build_family", {}
        return None, {}

    def classify_constructed(state):
        state["cls"] = classify(state["graph"], state["labels"])
        return state["cls"]

    def check_classified(cls, state):
        error = class_error(cls, expected)
        return (f"{key}: {error}" if error else None), {}

    def dump(state):
        state["doc"] = LabelingDocument(state["graph"], state["labels"],
                                        classification=state["cls"].to_dict())
        state["text"] = state["doc"].to_json()
        return state["text"]

    def check_dump(text, state):
        return None, {"json_bytes": len(text)}

    def load(state):
        return from_json(state["text"])

    def check_load(doc, state):
        return (None if doc == state["doc"] else f"{key}: from_json(to_json(doc)) != doc"), {}

    def render(state):
        return to_dot(state["doc"])

    def check_render(dot, state):
        g = state["graph"]
        lines = dot.count("\n")
        if not dot.startswith("digraph G {") or lines != g.vertex_count + g.arc_count + 2:
            return f"{key}: DOT output has {lines} lines", {}
        return None, {}

    def classify_random(state):
        return classify(state["graph"], random_labels)

    def check_random(cls, state):
        # free the pipeline's large objects before the next family starts
        graph = state.pop("graph")
        state.clear()
        profile = weight_profile(graph, random_labels)
        if sum(profile.vertex_weights) != sum(random_labels.vertex_labels):
            return f"{key}: random labeling breaks vertex-weight sum = vertex-label sum", {}
        return None, {}

    return [
        Op(f"{key}/build_family", "digraph.build_family", build, check_build, DOCUMENT_TIMEOUT),
        Op(f"{key}/construct", "constructions.construct", make, check_make, DOCUMENT_TIMEOUT),
        Op(f"{key}/classify", "labeling.classify", classify_constructed, check_classified,
           DOCUMENT_TIMEOUT),
        Op(f"{key}/to_json", "document.to_json", dump, check_dump, DOCUMENT_TIMEOUT),
        Op(f"{key}/from_json", "document.from_json", load, check_load, DOCUMENT_TIMEOUT),
        Op(f"{key}/to_dot", "document.to_dot", render, check_render, DOCUMENT_TIMEOUT),
        Op(f"{key}/classify_random", "labeling.classify", classify_random, check_random,
           DOCUMENT_TIMEOUT),
    ]


def random_labeling(rng: random.Random, vertex_count: int, arc_count: int) -> TotalLabeling:
    labels = list(range(1, vertex_count + arc_count + 1))
    rng.shuffle(labels)
    return TotalLabeling(tuple(labels[:vertex_count]), tuple(labels[vertex_count:]))


# family -> (vertex count, arc count) at parameters n, t
SHAPE = {
    "path": lambda n, t: (n, n - 1),
    "cycle": lambda n, t: (n, n),
    "star": lambda n, t: (n + 1, n),
    "wheel": lambda n, t: (n + 1, 2 * n),
    "tadpole": lambda n, t: (n + t, n + t),
    "friendship": lambda n, t: (2 * n + 1, 3 * n),
    "butterfly": lambda n, t: (2 * n - 1, 2 * n),
}


def documents(seed: int, workdir: Path) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for family, (n0, t) in DOCUMENT_SIZES.items():
        kind = rng.choice(CONSTRUCTION_KINDS[family])
        n = n0 + rng.randrange(n0 // 100)
        labels = random_labeling(rng, *SHAPE[family](n, t))
        ops += _family_ops(family, kind, n, t, labels)
    return ops


# -- cli --------------------------------------------------------------------

CLI_CALLS_PER_SUBCOMMAND = 25
CLI_SUBCOMMANDS = ("construct", "verify", "export", "search")
CLI_ENTRY = "from sublabel.cli import entry; entry()"

# tiny searches: at most 8 labels, a few milliseconds each
CLI_SEARCHES = (
    ["--family", "star", "--n", "3", "--class", "svml"],
    ["--family", "star", "--n", "3", "--orientation", "in", "--class", "sval"],
    ["--family", "cycle", "--n", "3", "--class", "saml"],
    ["--family", "cycle", "--n", "3", "--class", "sv-al"],
    ["--family", "path", "--n", "4", "--class", "sa-al"],
    ["--family", "path", "--n", "4", "--orientation", "alternating", "--class", "saml"],
    ["--family", "friendship", "--n", "1", "--class", "saml"],
    ["--family", "tadpole", "--n", "3", "--t", "1", "--class", "saal", "--mode", "first-witness"],
)

_CLASS_TOKENS = {"saml": ("arc", "magic"), "svml": ("vertex", "magic"),
                 "saal": ("arc", "antimagic"), "sval": ("vertex", "antimagic"),
                 "sa-al": ("arc", "arithmetic"), "sv-al": ("vertex", "arithmetic")}


def cli_env() -> dict:
    src = str(Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, PYTHONPATH=src)


def run_cli_subprocess(argv: list[str]) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, "-c", CLI_ENTRY, *argv], env=cli_env(),
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout


def run_cli_in_process(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(argv)
    return code, out.getvalue()


def _random_construct_args(rng: random.Random) -> tuple[list[str], tuple]:
    family = rng.choice(sorted(CONSTRUCTION_KINDS))
    kind = rng.choice(CONSTRUCTION_KINDS[family])
    n = rng.randint(3, 12)  # at n < 3 some sides carry one weight, which is magic
    t = rng.randint(1, 4) if family == "tadpole" else None
    argv = ["construct", "--family", family, "--n", str(n), "--labeling", kind]
    if t is not None:
        argv += ["--t", str(t)]
    return argv, (family, kind, n, t)


def _check_construct(spec):
    def check(output, state):
        code, stdout = output
        if code != 0:
            return f"construct {spec}: exit {code}", {}
        doc = from_json(stdout)
        cls = classify(doc.graph, doc.labeling)
        error = class_error(cls, documented_class(*spec))
        if error or doc.classification != cls.to_dict():
            return f"construct {spec}: {error or 'embedded classification differs'}", {}
        return None, {}
    return check


def _check_verify(text: str):
    def check(output, state):
        code, stdout = output
        doc = from_json(text)
        cls = classify(doc.graph, doc.labeling)
        want = 1 if cls.arc_verdict.kind == cls.vertex_verdict.kind == "none" else 0
        lines = stdout.splitlines()
        if code != want:
            return f"verify: exit {code}, expected {want}", {}
        if lines[1:3] != [f"arc side: {cls.arc_verdict}", f"vertex side: {cls.vertex_verdict}"]:
            return f"verify: verdict lines {lines[1:3]}", {}
        return None, {}
    return check


def _check_export(text: str, fmt: str):
    def check(output, state):
        code, stdout = output
        doc = from_json(text)
        want = to_dot(doc) if fmt == "dot" else doc.to_json()
        if code != 0 or stdout != want:
            return f"export --format {fmt}: exit {code} or output differs", {}
        return None, {}
    return check


def _check_search(args: list[str]):
    def check(output, state):
        code, stdout = output
        opts = dict(zip(args[::2], args[1::2]))
        graph = build_family(opts["--family"], int(opts["--n"]),
                             t=int(opts["--t"]) if "--t" in opts else None,
                             orientation=opts.get("--orientation"))
        query = SearchQuery(graph, Target(*_CLASS_TOKENS[opts["--class"]]),
                            mode=opts.get("--mode", "count-all"))
        report = search(query)
        fields = stdout.splitlines()[1].split()
        # "exhaustive: yes   solutions: S   nodes: N   elapsed: ..."
        solutions, nodes = int(fields[3]), int(fields[5])
        want = 0 if report.solutions_found else 1
        if code != want or solutions != report.solutions_found:
            return f"search {args}: exit {code}, {solutions} solutions", {}
        return None, {"nodes": nodes}
    return check


def _small_documents(rng: random.Random, workdir: Path, count: int = 12) -> list[tuple[Path, str]]:
    """Small labeled documents: half constructed, half random labelings."""
    docs = []
    for i in range(count):
        _, (family, kind, n, t) = _random_construct_args(rng)
        graph, labels = construct(family, n, kind, t=t)
        if i % 2:
            labels = random_labeling(rng, graph.vertex_count, graph.arc_count)
        text = LabelingDocument(graph, labels).to_json()
        path = workdir / f"doc{i:02d}.json"
        path.write_text(text, encoding="utf-8")
        docs.append((path, text))
    return docs


def cli_calls(seed: int, workdir: Path) -> list[tuple[str, list[str], Callable]]:
    """(subcommand, argv, check) for every call, in the seeded order."""
    rng = random.Random(seed)
    docs = _small_documents(rng, workdir)
    calls = []
    for sub in CLI_SUBCOMMANDS:
        for _ in range(CLI_CALLS_PER_SUBCOMMAND):
            if sub == "construct":
                argv, spec = _random_construct_args(rng)
                calls.append((sub, argv, _check_construct(spec)))
            elif sub == "verify":
                path, text = rng.choice(docs)
                calls.append((sub, ["verify", str(path)], _check_verify(text)))
            elif sub == "export":
                path, text = rng.choice(docs)
                fmt = rng.choice(("dot", "json"))
                calls.append((sub, ["export", str(path), "--format", fmt], _check_export(text, fmt)))
            else:
                args = list(rng.choice(CLI_SEARCHES))
                calls.append((sub, ["search", *args], _check_search(args)))
    rng.shuffle(calls)
    return calls


def cli_ops(calls, in_process: bool = False) -> list[Op]:
    runner = run_cli_in_process if in_process else run_cli_subprocess
    prefix = "cli.main." if in_process else "cli."
    control = "python" if in_process else "interp"
    return [Op(f"{i:03d}-{sub}", prefix + sub, lambda state, argv=argv: runner(argv), check,
               CLI_TIMEOUT, control)
            for i, (sub, argv, check) in enumerate(calls)]


def cli(seed: int, workdir: Path) -> list[Op]:
    return cli_ops(cli_calls(seed, workdir))


WORKLOADS = {
    "search-magic": search_magic,
    "search-distinct": search_distinct,
    "documents": documents,
    "cli": cli,
}


# -- probes of the traced run ------------------------------------------------

CLI_IN_PROCESS_CALLS = 10  # per subcommand
INTERP_PROBES = 10
IMPORTTIME_PROBES = 5


def pool_twins() -> list[Instance]:
    """The search-distinct instances whose time at one worker gives the
    pool's efficiency (count-all only: early-stopping modes do other work)."""
    return [inst for inst in DISTINCT if inst.mode == "count-all"]


def _exit_ok(output, state):
    return (None if output[0] == 0 else f"exit {output[0]}"), {}


def _importtime(state):
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import sublabel"],
                          env=cli_env(), capture_output=True, text=True)
    return proc.returncode, proc.stderr


def _check_importtime(output, state):
    code, stderr = output
    # "import time: <self us> | <cumulative us> | <module>"
    cumulative = {}
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            cumulative[parts[2].strip()] = int(parts[1])
    if code != 0 or not {"sublabel", "sublabel.search"} <= cumulative.keys():
        return f"importtime: exit {code}, modules missing", {}
    return None, {"sublabel": cumulative["sublabel"],
                  "sublabel.search": cumulative["sublabel.search"]}


def probe_ops(seed: int, workdir: Path) -> list[Op]:
    """Twin searches at two workers and one, pool start-up, interpreter and
    import cost, and the CLI subcommands called in-process through
    sublabel.cli.main."""
    ops = []
    for inst in pool_twins():  # back to back, so that both see the same machine speed
        ops += [search_op(inst, DISTINCT_WORKERS, name=f"{inst.name}@{DISTINCT_WORKERS}"),
                search_op(inst, 1, name=f"{inst.name}@1")]
    ops += [search_op(POOL_PROBE, DISTINCT_WORKERS, name=f"{POOL_PROBE.name}#{i}") for i in range(3)]
    ops += [Op(f"interp#{i}", "python.interp",
               lambda state: (subprocess.run([sys.executable, "-c", "pass"], env=cli_env()).returncode, ""),
               _exit_ok, CLI_TIMEOUT)
            for i in range(INTERP_PROBES)]
    ops += [Op(f"importtime#{i}", "python.importtime", _importtime, _check_importtime, CLI_TIMEOUT)
            for i in range(IMPORTTIME_PROBES)]
    calls = cli_calls(seed, workdir)
    picked = []
    for sub in CLI_SUBCOMMANDS:
        picked += [c for c in calls if c[0] == sub][:CLI_IN_PROCESS_CALLS]
    return ops + cli_ops(picked, in_process=True)

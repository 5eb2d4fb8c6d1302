"""Command-line surface: construct / verify / search / export.

Exit codes are uniform across subcommands: 0 means found/ok, 1 means an
exhaustive negative (no solutions, or no side classified), 2 means a
usage or validation problem (graph options given with --input included)
or an input or output file that cannot be read or written, 141 means
stdout was closed before the output was written (for example by `| head`).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .constructions import CONSTRUCTION_KINDS, construct
from .digraph import build_family
from .document import LabelingDocument, from_json, to_dot
from .labeling import classify, validate_labeling, weight_profile
from .search import DEFAULT_CAP, SEARCH_MODES, SearchQuery, Target, search

EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, the status a shell reports for `yes | head`

_CLASS_TOKENS = {
    "saml": ("arc", "magic"),
    "svml": ("vertex", "magic"),
    "saal": ("arc", "antimagic"),
    "sval": ("vertex", "antimagic"),
    "sa-al": ("arc", "arithmetic"),
    "sv-al": ("vertex", "arithmetic"),
}

_PATH_CORRECTION_NOTE = (
    "arc labels follow 2n-i; the 2n+1-i variant is not a total labeling "
    "(it uses 2n, beyond the range 1..2n-1, and skips n+1) and the "
    "verifier rejects it; weights run n+2..2n"
)


def _read_input(path: str | None) -> str:
    stdin = path is None or path == "-"
    try:
        if stdin:
            return sys.stdin.read()
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{'<stdin>' if stdin else path} is not valid utf-8: "
                         f"{exc.reason} at byte {exc.start}") from None


def _write_output(text: str, path: str | None):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _fail(message: str) -> int:
    print(f"sublabel: {message}", file=sys.stderr)
    return 2


def _cmd_construct(args) -> int:
    family = args.family
    kind = args.labeling
    g, l = construct(family, args.n, kind, t=args.t)
    notes = (_PATH_CORRECTION_NOTE,) if (family, kind) == ("path", "sa-al") else ()
    doc = LabelingDocument(g, l, classification=classify(g, l).to_dict(), notes=notes)
    _write_output(doc.to_json(), args.out)
    return 0


def _cmd_verify(args) -> int:
    doc = from_json(_read_input(args.input))
    if doc.labeling is None:
        return _fail("document carries no labeling to verify")
    g, l = doc.graph, doc.labeling
    profile = weight_profile(g, l)
    cls = classify(g, l, profile=profile)
    if g.family is not None:
        tag = g.family
        params = f" n={tag.n}" + (f" t={tag.t}" if tag.t is not None else "")
        params += f" ({tag.orientation})" if tag.orientation else ""
        print(f"graph: {tag.name}{params}, {g.vertex_count} vertices, {g.arc_count} arcs")
    else:
        print(f"graph: {g.vertex_count} vertices, {g.arc_count} arcs")
    print(f"arc side: {cls.arc_verdict}")
    print(f"vertex side: {cls.vertex_verdict}")
    print(f"strong: {'yes' if cls.strong else 'no'}   strong*: {'yes' if cls.strong_star else 'no'}")
    print("arc weights: " + " ".join(
        f"{g.arc_name(i)}={w}" for i, w in enumerate(profile.arc_weights)))
    print("vertex weights: " + " ".join(
        f"{g.vertex_name(i)}={w}" for i, w in enumerate(profile.vertex_weights)))
    enriched = LabelingDocument(
        g, l,
        classification={
            **cls.to_dict(),
            "arc_weights": list(profile.arc_weights),
            "vertex_weights": list(profile.vertex_weights),
        },
        notes=doc.notes)
    print(enriched.to_json(), end="")
    return 1 if cls.arc_verdict.kind == cls.vertex_verdict.kind == "none" else 0


def _cmd_search(args) -> int:
    if (args.family is None) == (args.input is None):
        return _fail("give exactly one of --family or --input")
    if args.family is not None:
        if args.n is None:
            return _fail("--n is required with --family")
        graph = build_family(args.family, args.n, t=args.t, orientation=args.orientation)
    else:
        graph_options = [f"--{name}" for name in ("n", "t", "orientation")
                         if getattr(args, name) is not None]
        if graph_options:
            return _fail(f"{', '.join(graph_options)} cannot be combined with --input, "
                         "whose document fixes the graph")
        graph = from_json(_read_input(args.input)).graph
    side, kind = _CLASS_TOKENS[args.klass]
    target = Target(side, kind, a=args.a, d=args.d)
    query = SearchQuery(graph, target,
                        require_strong=args.strong,
                        require_strong_star=args.strong_star,
                        mode=args.mode, limit=args.limit)
    report = search(query, cap=args.cap, workers=args.workers)
    name = graph.family.name if graph.family else f"{graph.vertex_count}-vertex graph"
    print(f"search: {name}, target {side} {kind}, mode {args.mode}")
    print(f"exhaustive: {'yes' if report.exhaustive else 'no'}   "
          f"solutions: {report.solutions_found}   "
          f"nodes: {report.nodes_visited}   elapsed: {report.elapsed:.3f}s")
    print(json.dumps(report.to_dict(), indent=2))
    return 0 if report.solutions_found > 0 else 1


def _cmd_export(args) -> int:
    doc = from_json(_read_input(args.input))
    if doc.labeling is not None:
        validate_labeling(doc.graph, doc.labeling)
    rendered = to_dot(doc) if args.format == "dot" else doc.to_json()
    _write_output(rendered, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sublabel",
        description="Construct, verify, search, and export subtractive "
                    "magic/antimagic total labelings of directed graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="emit a known labeling for a graph family")
    c.add_argument("--family", required=True)
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--t", type=int, default=None)
    c.add_argument("--labeling", required=True,
                   help="one of: " + "; ".join(
                       f"{f}: {', '.join(ks)}" for f, ks in CONSTRUCTION_KINDS.items()))
    c.add_argument("--out", default=None)
    c.set_defaults(func=_cmd_construct)

    v = sub.add_parser("verify", help="classify a labeling document")
    v.add_argument("input", nargs="?", default=None, help="document path (default: stdin)")
    v.set_defaults(func=_cmd_verify)

    s = sub.add_parser("search", help="exhaustively search a graph for a labeling class")
    s.add_argument("--family", default=None)
    s.add_argument("--n", type=int, default=None)
    s.add_argument("--t", type=int, default=None)
    s.add_argument("--orientation", default=None)
    s.add_argument("--input", default=None, help="search the graph of this document instead")
    s.add_argument("--class", dest="klass", required=True, choices=sorted(_CLASS_TOKENS))
    s.add_argument("--a", type=int, default=None, help="first weight, for sa-al/sv-al")
    s.add_argument("--d", type=int, default=None, help="weight difference, for sa-al/sv-al")
    s.add_argument("--strong", action="store_true")
    s.add_argument("--strong-star", action="store_true")
    s.add_argument("--mode", default="count-all", choices=SEARCH_MODES)
    s.add_argument("--limit", type=int, default=None, help="witness bound for collect-up-to")
    s.add_argument("--cap", type=int, default=DEFAULT_CAP,
                   help=f"most labels a graph may have to be searched (default {DEFAULT_CAP})")
    s.add_argument("--workers", type=int, default=1,
                   help="processes to split the first-label branches of a count-all search "
                        "over (at least 1): this one and K-1 forked from it, POSIX only; "
                        "the witness modes run in one process")
    s.set_defaults(func=_cmd_search)

    e = sub.add_parser("export", help="render a document as DOT or JSON")
    e.add_argument("input", nargs="?", default=None, help="document path (default: stdin)")
    e.add_argument("--format", required=True, choices=("dot", "json"))
    e.add_argument("--out", default=None)
    e.set_defaults(func=_cmd_export)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        raise  # entry() turns a closed stdout into exit 141
    except (ValueError, OSError) as exc:
        # every library input error is a ValueError; OSError is an input or
        # output file that cannot be opened
        return _fail(str(exc))


def entry():
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (`sublabel ... | head`); point
        # stdout at devnull so the interpreter's final flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    sys.exit(code)


if __name__ == "__main__":
    entry()

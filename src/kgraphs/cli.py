"""Command surface over the graph format.

Exit codes: 0 success, 1 property or validation failure, 2 usage or parse
error.  All output is deterministic.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path as FilePath
from typing import Sequence

from . import fileformat, kp, splitting
from .fileformat import GraphDocument, ParseError
from .skeleton import KGraph, KGraphInvalid, StructureError, validate
from .splitting import SplitError, SplitSpec, UnpairedError

USAGE_ERROR = 2
CHECK_FAILED = 1


class CommandError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _load_document(path: str) -> GraphDocument:
    try:
        text = FilePath(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CommandError(f"{path}: {exc.strerror or exc}", USAGE_ERROR) from exc
    try:
        return fileformat.parse(text)
    except ParseError as exc:
        raise CommandError(f"{path}: {exc}", USAGE_ERROR) from exc
    except StructureError as exc:
        raise CommandError(f"{path}: {exc}", USAGE_ERROR) from exc


def _build(doc: GraphDocument, path: str) -> KGraph:
    try:
        return doc.build()
    except KGraphInvalid as exc:
        lines = "\n".join(exc.report.lines())
        raise CommandError(f"{path}: not a valid k-graph\n{lines}", CHECK_FAILED) from exc


def _cmd_validate(args: argparse.Namespace) -> int:
    doc = _load_document(args.file)
    report = validate(doc.skeleton, doc.squares)
    for line in report.lines():
        print(line)
    print(report.summary() if report.ok else "invalid")
    return 0 if report.ok else CHECK_FAILED


def _cmd_props(args: argparse.Namespace) -> int:
    doc = _load_document(args.file)
    graph = _build(doc, args.file)
    free = graph.is_source_free()
    if free.ok:
        print("source-free: yes")
    else:
        misses = " ".join(f"({v},{doc.color_name(c)})" for v, c in free.witnesses)
        print(f"source-free: no {misses}")
    colors = range(1, graph.k + 1)
    if args.color is not None:
        try:
            colors = [doc.color_index(args.color)]
        except KeyError as exc:
            raise CommandError(str(exc), USAGE_ERROR) from exc
    for c in range(1, graph.k + 1):
        sinks = graph.degree_sinks(c)
        print(f"sinks {doc.color_name(c)}: {', '.join(sinks) if sinks else '-'}")
    for c in colors:
        report = splitting.pairing_report(graph, c)
        outcome = "yes" if report.ok else f"no ({report.describe()})"
        print(f"paired {doc.color_name(c)}: {outcome}")
    return 0


def _resolve_spec(args: argparse.Namespace, doc: GraphDocument, graph: KGraph) -> SplitSpec:
    directive = doc.split
    if args.partition_file:
        try:
            text = FilePath(args.partition_file).read_text(encoding="utf-8")
        except OSError as exc:
            raise CommandError(f"{args.partition_file}: {exc.strerror or exc}", USAGE_ERROR) from exc
        try:
            directive = fileformat.parse_partition_file(text, doc)
        except ParseError as exc:
            raise CommandError(f"{args.partition_file}: {exc}", USAGE_ERROR) from exc
    color_name = args.color or (directive.color if directive else None)
    base = args.base or (directive.base if directive else None)
    if color_name is None or base is None:
        raise CommandError(
            "no split requested: give a split block, --partition-file, or --color/--base",
            USAGE_ERROR,
        )
    try:
        color = doc.color_index(color_name)
    except KeyError as exc:
        raise CommandError(str(exc), USAGE_ERROR) from exc
    if args.default_partition or directive is None or not directive.partitions:
        return splitting.default_spec(graph, color, base)
    return SplitSpec(color, base, {v: blocks for v, blocks in directive.partitions})


def _cmd_split(args: argparse.Namespace) -> int:
    doc = _load_document(args.file)
    graph = _build(doc, args.file)
    try:
        spec = _resolve_spec(args, doc, graph)
        result = splitting.outsplit(graph, spec)
    except SplitError as exc:
        raise CommandError(str(exc), CHECK_FAILED) from exc
    out_doc = fileformat.document_for_graph(result.graph, doc.colors, doc.version)
    out_path = FilePath(args.output)
    out_path.write_text(fileformat.serialize(out_doc), encoding="utf-8")
    sidecar = out_path.with_name(out_path.name + ".parents")
    sidecar.write_text(fileformat.sidecar_text(result, doc.colors), encoding="utf-8")
    print(f"wrote {out_path} ({len(result.graph.vertices)} vertices, "
          f"{len(result.graph.edges)} edges, {len(result.graph.squares.pairs)} squares)")
    print(f"wrote {sidecar}")
    return 0


def _cmd_paired(args: argparse.Namespace) -> int:
    doc = _load_document(args.file)
    graph = _build(doc, args.file)
    try:
        color = doc.color_index(args.color)
    except KeyError as exc:
        raise CommandError(str(exc), USAGE_ERROR) from exc
    report = splitting.pairing_report(graph, color)
    print(report.describe())
    return 0 if report.ok else CHECK_FAILED


def _cmd_saturate(args: argparse.Namespace) -> int:
    doc = _load_document(args.file)
    graph = _build(doc, args.file)
    seeds = [v for v in args.set.split(",") if v]
    try:
        closure = kp.saturation(graph, seeds)
    except ValueError as exc:
        raise CommandError(str(exc), USAGE_ERROR) from exc
    for v in sorted(closure):
        print(v)
    return 0


def _cmd_kp_verify(args: argparse.Namespace) -> int:
    doc = _load_document(args.file)
    graph = _build(doc, args.file)
    split_doc = _load_document(args.split_output)
    split_graph = _build(split_doc, args.split_output)
    try:
        text = FilePath(args.parents).read_text(encoding="utf-8")
        color_name, _, parents = fileformat.parse_sidecar(text)
    except OSError as exc:
        raise CommandError(f"{args.parents}: {exc.strerror or exc}", USAGE_ERROR) from exc
    except ParseError as exc:
        raise CommandError(f"{args.parents}: {exc}", USAGE_ERROR) from exc
    try:
        color = doc.color_index(color_name)
    except KeyError as exc:
        raise CommandError(str(exc), USAGE_ERROR) from exc
    vertex_names = set(split_graph.vertices)
    parent_vertex = {c: p for c, p in parents.items() if c in vertex_names}
    parent_edge = {c: p for c, p in parents.items() if c not in vertex_names}
    try:
        result = splitting.reconstruct_split(graph, split_graph, color, parent_vertex, parent_edge)
    except SplitError as exc:
        raise CommandError(f"inconsistent split data: {exc}", CHECK_FAILED) from exc
    if not result.paired:
        witness = splitting.pairing_report(graph, color).describe()
        raise CommandError(f"input graph is not paired in {color_name}: {witness}", CHECK_FAILED)
    emb = kp.SplitEmbedding(result)
    reports = [
        kp.verify_universal_family(emb.algebra),
        kp.verify_family(emb, max_paths=args.max_len),
        kp.verify_swap_identities(emb),
        kp.verify_diagonal(emb, max_len=args.max_len),
        kp.verify_corner(emb, max_len=min(args.max_len, 2)),
        kp.verify_grading(emb, max_len=args.max_len),
    ]
    ok = True
    for report in reports:
        print(report.summary())
        for failure in report.failures:
            print(f"  {failure}")
        ok = ok and report.ok
    return 0 if ok else CHECK_FAILED


def _cmd_dot(args: argparse.Namespace) -> int:
    doc = _load_document(args.file)
    text = fileformat.dot_export(doc)
    if args.output:
        FilePath(args.output).write_text(text, encoding="utf-8")
        print(f"wrote {args.output}")
    else:
        print(text, end="")
    return 0


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kgraphs",
        description="Validate, split, and verify finite higher-rank graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the k-graph axioms")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("props", help="source-freeness, sinks, pairing")
    p.add_argument("file")
    p.add_argument("--color")
    p.set_defaults(func=_cmd_props)

    p = sub.add_parser("split", help="outsplit the graph")
    p.add_argument("file")
    p.add_argument("--partition-file")
    p.add_argument("--default-partition", action="store_true")
    p.add_argument("--color")
    p.add_argument("--base")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("paired", help="pairing in one color, with witness")
    p.add_argument("file")
    p.add_argument("--color", required=True)
    p.set_defaults(func=_cmd_paired)

    p = sub.add_parser("saturate", help="hereditary saturated closure of a vertex set")
    p.add_argument("file")
    p.add_argument("--set", required=True)
    p.set_defaults(func=_cmd_saturate)

    p = sub.add_parser("kp-verify", help="verify the split's algebra identities")
    p.add_argument("file")
    p.add_argument("--split-output", required=True)
    p.add_argument("--parents", required=True)
    p.add_argument("--max-len", type=_positive_int, default=3)
    p.set_defaults(func=_cmd_kp_verify)

    p = sub.add_parser("dot", help="Graphviz export")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_dot)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except CommandError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except UnpairedError as exc:
        print(str(exc), file=sys.stderr)
        return CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())

"""Command surface over the graph format.

Exit codes: 0 success, 1 property or validation failure, 2 usage or parse
error.  Every error that bad input can raise derives from ``KGraphError``
(exit code 1: well-formed input fails a check, e.g. ``KGraphInvalid`` or
``SplitError``); its subclass ``UsageError`` (exit code 2) covers malformed
input and unknown names, e.g. ``StructureError`` or ``ParseError``.
``main`` maps them in one place: it prints the message to stderr and
returns ``exit_code``.  A closed stdout (``kgraphs props g.kg | head -1``)
also ends in exit code 1 and no traceback: ``main`` flushes stdout inside
its guard, and on ``BrokenPipeError`` points the stdout descriptor at the
null device so the interpreter's final flush cannot fail.  All output is
deterministic.

``main`` runs each command with the cyclic garbage collector paused and
gives the caller back the collector state it found; it forces no
collection.  Arguments are parsed before the pause, so argparse's cyclic
garbage from earlier commands can still be collected then.  What a
command builds (parsed edges, square pairs, swap maps, split copies,
``KPElement`` term maps) is acyclic tuples, dicts and strings, which
reference counting frees, so collections during a command only rescan
live tables: without the pause, one ``structural-product`` benchmark
iteration (1,296 vertices) ran 517 generation-0, 46 generation-1 and 4
full collections inside its commands, and with it that iteration takes
12-14% less time.  The only cyclic garbage a command leaves is
argparse's, the same count for every command and input size; a test
pins that, so a back-pointer that made command data cyclic fails a test
instead of growing memory while the collector is paused.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from pathlib import Path as FilePath
from typing import Callable, Sequence, TypeVar

from . import fileformat, kp, splitting
from .fileformat import GraphDocument
from .skeleton import KGraph, KGraphError, KGraphInvalid, StructureError, UsageError, validate
from .splitting import SplitError, SplitSpec

T = TypeVar("T")


def _file(path: FilePath | str) -> FilePath:
    """``path`` as a file path; an empty name, which ``Path`` reads as the
    working directory, is refused."""
    if not path:
        raise UsageError("empty file name")
    return FilePath(path)


def _read(path: str, parse: Callable[[str], T]) -> T:
    """``parse`` applied to the file's text; a read or parse error names the file."""
    file = _file(path)
    try:
        return parse(file.read_text(encoding="utf-8"))
    except OSError as exc:
        raise UsageError(f"{path}: {exc.strerror or exc}") from exc
    except (UnicodeDecodeError, UsageError) as exc:
        raise UsageError(f"{path}: {exc}") from exc


def _write(path: FilePath | str, text: str) -> None:
    file = _file(path)
    try:
        file.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"{path}: {exc.strerror or exc}") from exc


def _load(path: str) -> tuple[GraphDocument, KGraph]:
    """The document at ``path`` and its validated k-graph."""
    doc = _read(path, fileformat.parse)
    try:
        return doc, doc.build()
    except KGraphInvalid as exc:
        lines = "\n".join(exc.report.lines())
        raise KGraphError(f"{path}: not a valid k-graph\n{lines}") from exc


def _cmd_validate(args: argparse.Namespace) -> int:
    doc = _read(args.file, fileformat.parse)
    report = validate(doc.skeleton, doc.squares)
    for line in report.lines():
        print(line)
    print(report.summary() if report.ok else "invalid")
    return 0 if report.ok else 1


def _cmd_props(args: argparse.Namespace) -> int:
    doc, graph = _load(args.file)
    colors = range(1, graph.k + 1) if args.color is None else [doc.color_index(args.color)]
    free = graph.is_source_free()
    if free.ok:
        print("source-free: yes")
    else:
        misses = " ".join(f"({v},{doc.color_name(c)})" for v, c in free.witnesses)
        print(f"source-free: no {misses}")
    for c in range(1, graph.k + 1):
        sinks = graph.degree_sinks(c)
        print(f"sinks {doc.color_name(c)}: {', '.join(sinks) if sinks else '-'}")
    for c in colors:
        report = splitting.pairing_report(graph, c)
        outcome = "yes" if report.ok else f"no ({report.describe()})"
        print(f"paired {doc.color_name(c)}: {outcome}")
    return 0


def _resolve_spec(args: argparse.Namespace, doc: GraphDocument, graph: KGraph) -> SplitSpec:
    """The split request: a partition file or ``--color``/``--base``, never
    both.  Without ``partition`` lines the default partition is used."""
    if args.partition_file is not None:
        if args.color is not None or args.base is not None:
            raise UsageError("give --partition-file or --color/--base, not both")
        spec = _read(args.partition_file, lambda text: fileformat.parse_partition_file(text, doc))
        return spec if spec.partitions else splitting.default_spec(graph, spec.color, spec.base)
    if args.color is None or args.base is None:
        raise UsageError("no split requested: give --partition-file, or --color and --base")
    return splitting.default_spec(graph, doc.color_index(args.color), args.base)


def _cmd_split(args: argparse.Namespace) -> int:
    doc, graph = _load(args.file)
    result = splitting.outsplit(graph, _resolve_spec(args, doc, graph))
    split_text, parents_text = fileformat.split_texts(doc, result)
    out_path = _file(args.output)
    _write(out_path, split_text)
    sidecar = out_path.with_name(out_path.name + ".parents")
    try:
        _write(sidecar, parents_text)
    except UsageError:
        out_path.unlink()  # no split document without its sidecar
        raise
    print(f"wrote {out_path} ({len(result.graph.vertices)} vertices, "
          f"{len(result.graph.edges)} edges, {len(result.graph.squares.pairs)} squares)")
    print(f"wrote {sidecar}")
    return 0


def _cmd_paired(args: argparse.Namespace) -> int:
    doc, graph = _load(args.file)
    report = splitting.pairing_report(graph, doc.color_index(args.color))
    print(report.describe())
    return 0 if report.ok else 1


def _cmd_saturate(args: argparse.Namespace) -> int:
    _, graph = _load(args.file)
    seeds = [v for v in args.set.split(",") if v]
    for v in sorted(kp.saturation(graph, seeds)):
        print(v)
    return 0


def _cmd_kp_verify(args: argparse.Namespace) -> int:
    doc, graph = _load(args.file)
    split = _read(args.split_output, fileformat.parse)  # checked only against the replay
    sidecar = _read(args.parents, fileformat.parse_sidecar)
    color_name, base, _ = sidecar
    try:
        result = splitting.reconstruct_split(graph, split.skeleton, doc.color_index(color_name), base)
        fileformat.check_split(doc, result, split, sidecar)
    except (SplitError, StructureError) as exc:
        raise SplitError(f"inconsistent split data: {exc}") from exc
    pairing = splitting.pairing_report(graph, result.color)
    if not pairing.ok:
        raise SplitError(f"input graph is not paired in {color_name}: {pairing.describe()}")
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
    return 0 if ok else 1


def _cmd_dot(args: argparse.Namespace) -> int:
    text = fileformat.dot_export(_read(args.file, fileformat.parse))
    if args.output is not None:
        _write(args.output, text)
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


def _run(argv: Sequence[str] | None) -> int:
    """Parse ``argv`` and run its command with the cyclic garbage collector
    paused; a ``KGraphError`` is printed to stderr and becomes its
    ``exit_code``."""
    try:
        args = _make_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    collecting = gc.isenabled()
    gc.disable()  # command data is acyclic: see the module docstring
    try:
        return args.func(args)
    except KGraphError as exc:
        print(exc, file=sys.stderr)
        return exc.exit_code
    finally:
        if collecting:
            gc.enable()


def _stdout_to_devnull() -> None:
    """Point the stdout file descriptor, if there is one, at the null device,
    so the interpreter's final flush of what is still buffered cannot fail."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, ValueError):  # no stdout, or an in-memory one
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        code = _run(argv)
        if sys.stdout is not None:  # None when the process started without a stdout
            sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        _stdout_to_devnull()
        return 1


if __name__ == "__main__":
    sys.exit(main())

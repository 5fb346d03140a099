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

Files are written line by line: ``split`` writes its ``.kg`` document and
``.parents`` sidecar from the line generators of ``fileformat``, and
``dot -o`` writes its one text, so no file is held whole or encoded
whole.  On the seed-1 ``structural-product`` benchmark input (1,296
vertices, 9,108 squares), ``tools/command_peaks.py`` reads a traced peak of
10.3 MB for ``split``, 13.6 MB before the files and the lifted squares
streamed, against 5.3 and 6.3 MB for ``validate`` of its input and output.
A write that fails once its file is open removes the file, and ``split``
then removes the other one too, so neither split file is left.  One rule,
``_discard``, says what a failed write removes: a regular file, never a
device or a pipe, so an output symlinked to the null device survives.

The argument parser is built on the first ``main`` call and reused by
every later call in the process, since parsing leaves no state in it;
each command function is looked up by name when it runs.  A caller that
runs many commands in one process, such as a test suite or a benchmark,
builds the seven subcommands once.

``main`` runs each command with the cyclic garbage collector paused and
gives the caller back the collector state it found; it forces no
collection.  Arguments are parsed before the pause.  What a command
builds (parsed edges, square pairs, swap maps, split copies,
``KPElement`` term maps) is acyclic tuples, dicts and strings, which
reference counting frees, so collections during a command only rescan
live tables: without the pause, one ``structural-product`` benchmark
iteration (1,296 vertices) ran 517 generation-0, 46 generation-1 and 4
full collections inside its commands, and with it that iteration takes
12-14% less time.  A command leaves no cyclic garbage of its own: what
``gc.collect()`` finds after one comes from argparse (building the
parser on the first call, or an error or ``--help`` exit), the same
count for every input size; a test pins that, so a back-pointer that
made command data cyclic fails a test instead of growing memory while
the collector is paused.
"""

from __future__ import annotations

import argparse
import functools
import gc
import os
import sys
from pathlib import Path as FilePath
from typing import Callable, Iterable, Sequence, TypeVar

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


def _discard(file: FilePath) -> None:
    """Remove a file a failed write leaves, if it is a regular file: never a
    device or a pipe, nor a symlink to one."""
    if file.is_file():
        file.unlink()


def _write(path: FilePath | str, lines: Iterable[str]) -> None:
    """Write ``lines`` to the file as they come; an error names the file and,
    once the file is open, discards it, so no part-written file is left."""
    file = _file(path)
    out = None
    try:
        out = file.open("w", encoding="utf-8")
        with out:
            out.writelines(lines)
    except OSError as exc:
        if out is not None:
            _discard(file)
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
    document, parents = fileformat.split_lines(doc, result)
    out_path = _file(args.output)
    _write(out_path, document)
    sidecar = out_path.with_name(out_path.name + ".parents")
    try:
        _write(sidecar, parents)
    except UsageError:
        _discard(out_path)  # no split document without its sidecar
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
        kp.verify_family(emb, max_len=args.max_len),
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
        _write(args.output, [text])
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


@functools.cache
def _make_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and then reused:
    parsing leaves no state in it."""
    parser = argparse.ArgumentParser(
        prog="kgraphs",
        description="Validate, split, and verify finite higher-rank graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the k-graph axioms")
    p.add_argument("file")

    p = sub.add_parser("props", help="source-freeness, sinks, pairing")
    p.add_argument("file")
    p.add_argument("--color")

    p = sub.add_parser("split", help="outsplit the graph")
    p.add_argument("file")
    p.add_argument("--partition-file")
    p.add_argument("--color")
    p.add_argument("--base")
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("paired", help="pairing in one color, with witness")
    p.add_argument("file")
    p.add_argument("--color", required=True)

    p = sub.add_parser("saturate", help="hereditary saturated closure of a vertex set")
    p.add_argument("file")
    p.add_argument("--set", required=True)

    p = sub.add_parser("kp-verify", help="verify the split's algebra identities")
    p.add_argument("file")
    p.add_argument("--split-output", required=True)
    p.add_argument("--parents", required=True)
    p.add_argument("--max-len", type=_positive_int, default=3)

    p = sub.add_parser("dot", help="Graphviz export")
    p.add_argument("file")
    p.add_argument("-o", "--output")

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
        # looked up per call, so a replaced command function is the one that runs
        return globals()["_cmd_" + args.command.replace("-", "_")](args)
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

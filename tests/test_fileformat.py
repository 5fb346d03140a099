"""Parsing, canonical serialization, sidecars, DOT export."""

from __future__ import annotations

import random

import pytest

from kgraphs import Edge, Skeleton, SplitSpec, SquareSet, StructureError, default_spec, outsplit
from kgraphs.fileformat import (
    GraphDocument,
    ParseError,
    document_for_graph,
    dot_export,
    parse,
    parse_partition_file,
    parse_sidecar,
    serialize,
    sidecar_text,
    split_lines,
)

from conftest import DATA, paper_spec, product_graph, random_one_skeleton


@pytest.fixture(scope="module")
def lambda_one_doc() -> GraphDocument:
    return parse((DATA / "lambda1.kg").read_text(encoding="utf-8"))


MINIMAL = """\
kgraph 1 k=2 colors=blue,red
vertex p
edge a : blue p -> p
edge r : red p -> p
square r a = a r
"""


def _assert_shared_ids(skeleton: Skeleton, squares: SquareSet) -> None:
    """Every endpoint is its vertex's string and every side holds its edges' ``Edge.name``."""
    vertices = {v: v for v in skeleton.vertices}
    assert all(vertices[e.source] is e.source and vertices[e.range] is e.range
               for e in skeleton.edges)
    edges = skeleton.edge_map
    assert all(edges[name].name is name for pair in squares.pairs for side in pair for name in side)


class TestParse:
    def test_worked_example(self, lambda_one_doc):
        doc = lambda_one_doc
        assert doc.k == 2 and doc.colors == ("blue", "red")
        assert len(doc.skeleton.vertices) == 4
        assert len(doc.skeleton.edges) == 12
        assert len(doc.squares.pairs) == 8
        graph = doc.build()
        assert graph.is_source_free().ok

    @pytest.mark.parametrize(
        "source", sorted(p.name for p in DATA.glob("*.kg"))
        + ["product", "split", "repeated-square", "swapped-square"])
    def test_skeleton_equals_the_checked_constructor(self, source, lambda_one):
        # parse builds the skeleton and squares from declarations it checked
        # itself; Skeleton.create and SquareSet.create, which check again, are the reference
        lambda_text = (DATA / "lambda1.kg").read_text(encoding="utf-8")
        if source == "product":
            graph = product_graph([random_one_skeleton(random.Random(5), "f"),
                                   random_one_skeleton(random.Random(6), "g")])
            text = serialize(document_for_graph(graph, ["blue", "red"]))
        elif source == "split":
            text = serialize(document_for_graph(outsplit(lambda_one, paper_spec()).graph,
                                                ["blue", "red"]))
        elif source == "repeated-square":
            text = lambda_text + "square e h = k b\n"
        elif source == "swapped-square":
            text = lambda_text.replace("square e h = k b", "square k b = e h")
        else:
            text = (DATA / source).read_text(encoding="utf-8")
        doc = parse(text)
        assert doc.skeleton == Skeleton.create(doc.k, doc.skeleton.vertices, doc.skeleton.edges)
        lines = [t for t in map(str.split, text.splitlines()) if t and t[0] == "square"]
        squares = SquareSet.create(doc.skeleton, [((t[1], t[2]), (t[4], t[5])) for t in lines])
        assert doc.squares == squares and doc.squares.swap_map == squares.swap_map

    @pytest.mark.parametrize(
        "extra,column",
        [("vertex p\n", 8), ("edge a : red p -> p\n", 6), ("vertex a\n", 8),
         ("edge p : blue p -> p\n", 6), ("edge z : blue p -> q\n", 20),
         ("edge a : green p -> p\n", 6), ("edge z : blue q -> w\n", 15)],
        ids=["duplicate-vertex", "duplicate-edge", "vertex-named-as-an-edge",
             "edge-named-as-a-vertex", "undeclared-endpoint", "duplicate-id-before-unknown-color",
             "unknown-source-before-unknown-range"])
    def test_rejects_what_the_checked_constructor_rejects(self, extra, column):
        # the rejecting half of the parity above: each Skeleton.create rule
        # that a document can break fails in both, on the same declaration and
        # in the same words; where a line breaks two rules, the first in the
        # order id, color, source, range wins, at the column of its token
        text = MINIMAL + extra
        with pytest.raises(ParseError) as parsed:
            parse(text)
        assert (parsed.value.line, parsed.value.column) == (6, column)
        vertices, edges = [], []
        for tokens in map(str.split, text.splitlines()):
            if tokens[0] == "vertex":
                vertices.append(tokens[1])
            elif tokens[0] == "edge":
                color = {"blue": 1, "red": 2}.get(tokens[3], 3)  # 3 is out of range
                edges.append(Edge(tokens[1], color, tokens[4], tokens[6]))
        with pytest.raises(StructureError) as created:
            Skeleton.create(2, vertices, edges)
        assert parsed.value.message == str(created.value)

    @pytest.mark.parametrize("source", sorted(p.name for p in DATA.glob("*.kg")) + ["product"])
    def test_ids_are_shared_strings(self, source):
        # parse and outsplit store one string per id: square sides hold the
        # Edge.name objects, endpoints the vertex objects, parent keys the copies'
        if source == "product":
            graph = product_graph([random_one_skeleton(random.Random(7), "f"),
                                   random_one_skeleton(random.Random(8), "g")])
            text = serialize(document_for_graph(graph, ["blue", "red"]))
        else:
            text = (DATA / source).read_text(encoding="utf-8")
        graph = parse(text).build()
        _assert_shared_ids(graph.skeleton, graph.squares)
        color, base = next((c, v) for c in range(1, graph.k + 1) for v in graph.vertices
                           if len(graph.skeleton.edges_from(v, c)) >= 2)
        result = outsplit(graph, default_spec(graph, color, base))
        _assert_shared_ids(result.graph.skeleton, result.graph.squares)
        own = {v: v for v in result.graph.vertices} | {e.name: e.name for e in result.graph.edges}
        assert len(own) == len(result.parent)
        assert all(own[key] is key for key in result.parent)

    def test_color_indexing(self, lambda_one_doc):
        assert lambda_one_doc.color_index("blue") == 1
        assert lambda_one_doc.color_name(2) == "red"
        with pytest.raises(StructureError, match="unknown color"):
            lambda_one_doc.color_index("green")

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("vertex v\n", "missing header"),
            ("kgraph 1 k=2 colors=blue\n", "distinct color names"),
            ("kgraph 1 k=2 colors=blue,red\nvertex v\nvertex v\n", "duplicate vertex"),
            (MINIMAL + "edge a : blue p -> p\n", "duplicate id"),
            (MINIMAL + "edge z : green p -> p\n", "unknown color"),
            (MINIMAL + "edge z : blue p -> q\n", "unknown vertex"),
            (MINIMAL + "vertex {x}\n", "invalid vertex identifier"),
            (MINIMAL + "widget w\n", "unknown declaration"),
            (MINIMAL + "square r a = a q\n", "unknown edge"),
        ],
    )
    def test_diagnostics(self, text, fragment):
        with pytest.raises(ParseError, match=fragment):
            parse(text)

    def test_degree_violation_square(self):
        text = MINIMAL.replace("square r a = a r", "square r a = r r")
        with pytest.raises(ParseError, match="bicolored"):
            parse(text)

    def test_non_composable_square(self):
        text = (
            "kgraph 1 k=2 colors=blue,red\nvertex p\nvertex q\n"
            "edge a : blue p -> q\nedge r : red p -> p\n"
            "square r a = a r\n"
        )
        with pytest.raises(ParseError, match="not composable"):
            parse(text)

    def test_self_paired_square(self):
        # colors that do not swap are what a self-pair would otherwise report
        text = (
            "kgraph 1 k=2 colors=blue,red\nvertex v\n"
            "edge a : blue v -> v\nedge b : red v -> v\n"
            "square a b = a b\n"
        )
        with pytest.raises(ParseError, match="a side cannot pair with itself") as err:
            parse(text)
        assert (err.value.line, err.value.column) == (5, 1)

    @pytest.mark.parametrize(
        "extra,line,column,message",
        [
            ("square r a = r r\nwidget w\n", 6, 1, "square r a = r r: sides must be bicolored"),
            ("square r a = r r\nsquare r a = a a\n", 6, 1, "square r a = r r: sides must be bicolored"),
        ],
        ids=["bad-square-then-unknown-declaration", "two-bad-squares"],
    )
    def test_error_precedence(self, extra, line, column, message):
        # a square that fails its structural check is raised at its line, as
        # every other error is, so the first failing line of the file wins
        with pytest.raises(ParseError) as err:
            parse(MINIMAL + extra)
        assert (err.value.line, err.value.column, err.value.message) == (line, column, message)

    def test_line_numbers_reported(self):
        bad = MINIMAL + "edge z : green p -> p\n"
        with pytest.raises(ParseError) as err:
            parse(bad)
        assert err.value.line == 6

    @pytest.mark.parametrize(
        "reader,text,line,column,message",
        [
            ("document", "kgraph 1 k=1 colors=c1\nvertex v\nvertex e\nvertex e\n",
             4, 8, "duplicate vertex id 'e'"),
            ("document", "kgraph 1 k=1 colors=c1\nvertex v\nedge e : c1 v -> e\n",
             3, 18, "unknown vertex 'e'"),
            ("document", "kgraph 1 k=1 colors=d\nvertex v\nedge ed : e v -> v\n",
             3, 11, "unknown color 'e'"),
            ("document", "kgraph 1 k=2 colors=a,k=\n", 1, 23, "invalid color identifier 'k='"),
            ("document", MINIMAL + "vertex -\n", 6, 8, "invalid vertex identifier '-'"),
            ("document", "kgraph 1 k=x colors=a\n", 1, 10, "bad rank 'x'"),
            ("document", "kgraph 1 k=+2 colors=a,b\n", 1, 10, "bad rank '+2'"),
            ("document", "kgraph 1 k=0_2 colors=a,b\n", 1, 10, "bad rank '0_2'"),
            ("document", "kgraph 1 k=\uff12 colors=a,b\n", 1, 10, "bad rank '\uff12'"),
            ("document", "kgraph 1 k=-2 colors=a,b\n", 1, 10, "bad rank '-2'"),
            ("document", "kgraph 1 k=0 colors=\n", 1, 10, "bad rank '0'"),
            ("document", "kgraph 1 k=2 colors=blue\n", 1, 1, "need 2 distinct color names, got blue"),
            ("document", "kgraph 1 k=2 colors=a,\n", 1, 23, "invalid color identifier ''"),
            ("document", MINIMAL + "square r a = a rr\n", 6, 16, "unknown edge 'rr'"),
            ("partition", "split color=blue base=s\n", 1, 23, "unknown vertex 's'"),
            ("partition", "split color=red,x base=p\n", 1, 13, "unknown color 'red,x'"),
            ("partition", "split color=blue base=p\npartition p : {a} {a,t}\n", 2, 22, "unknown edge 't'"),
            ("partition", "split color=blue base=p\npartition p : {a} a\n", 2, 19, "malformed block 'a'"),
            ("document", MINIMAL + "  widget w\n", 6, 3, "unknown declaration 'widget'"),
            ("document", "kgraph 1 k=2\n", 1, 1, "expected: kgraph <version> k=<int> colors=<name,...>"),
            ("document", MINIMAL + "vertex q r\n", 6, 1, "expected: vertex <id>"),
            ("partition", "split color=blue base=p\nsplit color=blue base=p\n", 2, 1, "duplicate split line"),
            ("partition", "split color=blue\n", 1, 1, "expected: split color=<color> base=<vertex>"),
            ("partition", "split color=blue base=p\npartition p {a}\n",
             2, 1, "expected: partition <vertex> : {<e>,...} ..."),
            ("partition", "split color=blue base=p\npartition q : {a}\n", 2, 11, "unknown vertex 'q'"),
            ("partition", "split color=blue base=p\npartition p : {a}\npartition p : {a}\n",
             3, 11, "duplicate partition for 'p'"),
            ("partition", "split color=blue base=p\npartition p : {a} {,}\n", 2, 19, "empty partition block"),
            ("partition", "split color=blue base=p\npartition p : {a,}\n", 2, 18, "empty edge id"),
            ("partition", "split color=blue base=p\npartition p : {,a}\n", 2, 16, "empty edge id"),
            ("partition", "split color=blue base=p\npartition p : {a,,}\n", 2, 18, "empty edge id"),
            ("document", MINIMAL + "split color=blue base=p\n", 6, 1, "unknown declaration 'split'"),
            ("document", MINIMAL + "# blocks\n  partition p : {a}\n", 7, 3, "unknown declaration 'partition'"),
        ],
        ids=["duplicate-vertex", "unknown-vertex", "unknown-color", "invalid-color",
             "reserved-vertex", "bad-rank", "signed-rank", "underscored-rank",
             "full-width-rank", "negative-rank", "zero-rank", "too-few-colors", "empty-color",
             "unknown-square-edge", "unknown-base", "unknown-split-color", "unknown-block-edge",
             "malformed-block", "indented-keyword", "malformed-header", "vertex-arity",
             "duplicate-split", "malformed-split", "malformed-partition",
             "partition-unknown-vertex", "duplicate-partition", "empty-block",
             "empty-id-last", "empty-id-first", "empty-id-middle",
             "split-in-document", "partition-in-document"],
    )
    def test_error_columns_point_at_the_token(self, reader, text, line, column, message):
        # split and partition lines are read only from a partition file, here against MINIMAL
        with pytest.raises(ParseError) as err:
            if reader == "document":
                parse(text)
            else:
                parse_partition_file(text, parse(MINIMAL))
        assert (err.value.line, err.value.column, err.value.message) == (line, column, message)

    def test_split_block(self):
        text = MINIMAL.replace(
            "edge a : blue p -> p",
            "edge a : blue p -> p\nedge a2 : blue p -> p\nedge r2 : red p -> p",
        )
        text += "square r a2 = a2 r\nsquare r2 a = a r2\nsquare r2 a2 = a2 r2\n"
        block = "split color=blue base=p\npartition p : {a2} {a}\n"
        assert parse_partition_file(block, parse(text)) == SplitSpec(1, "p", {"p": (("a2",), ("a",))})
        with pytest.raises(ParseError, match="unknown declaration 'split'"):
            parse(text + block)

    def test_partition_coverage_checked(self):
        doc = parse(MINIMAL)
        with pytest.raises(ParseError) as err:
            parse_partition_file("split color=blue base=p\npartition p : {a} {a}\n", doc)
        assert (err.value.line, err.value.column, err.value.message) == (
            2, 1, "edge 'a' appears in two blocks at 'p'")
        with pytest.raises(ParseError) as err:
            parse_partition_file("split color=blue base=p\npartition p : {r}\n", doc)
        assert (err.value.line, err.value.column, err.value.message) == (
            2, 1, "partition at 'p' does not cover its outgoing split-color edges "
                  "(missing a; not outgoing in the split color: r)")

    def test_comments_and_blanks_ignored(self):
        text = "# leading\n\n" + MINIMAL.replace("vertex p", "vertex p  # the vertex")
        doc = parse(text)
        assert doc.skeleton.vertices == ("p",)

    # str.splitlines breaks at each of these; a line of the format does not
    OTHER_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]

    @pytest.mark.parametrize("char", OTHER_BREAKS, ids=[f"U+{ord(c):04X}" for c in OTHER_BREAKS])
    def test_a_comment_ends_only_at_a_line_break(self, char):
        text = MINIMAL.replace("vertex p", f"# note{char} see below\nvertex p")
        assert parse(text) == parse(MINIMAL)
        with pytest.raises(ParseError) as err:
            parse(text + "vertex -\n")
        assert (err.value.line, err.value.column) == (7, 8)

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["CRLF", "CR"])
    def test_crlf_and_cr_end_lines(self, newline):
        assert parse(MINIMAL.replace("\n", newline)) == parse(MINIMAL)
        with pytest.raises(ParseError) as err:
            parse((MINIMAL + "# note\x85 see\nedge z : green p -> p\n").replace("\n", newline))
        assert (err.value.line, err.value.column, err.value.message) == (7, 10, "unknown color 'green'")

    def test_fragments_break_lines_alike(self, lambda_one_doc):
        text = "# one\x85 two\n" + (DATA / "paper.part").read_text(encoding="utf-8")
        assert parse_partition_file(text.replace("\n", "\r\n"), lambda_one_doc) == paper_spec()
        with pytest.raises(ParseError) as err:
            parse_sidecar("# a\u2028b\r\nsplit color=blue base=v\rparent a.1 a\n")
        assert (err.value.line, err.value.column) == (3, 1)


class TestRoundTrip:
    def test_worked_example(self, lambda_one_doc):
        assert parse(serialize(lambda_one_doc)) == lambda_one_doc

    def test_product_graph(self):
        rng = random.Random(3)
        graph = product_graph([random_one_skeleton(rng, "f"), random_one_skeleton(rng, "g")])
        doc = document_for_graph(graph, ["blue", "red"])
        again = parse(serialize(doc))
        assert again == doc
        assert serialize(again) == serialize(doc)
        with pytest.raises(ValueError, match=r"^need 2 color names, got 1$"):
            document_for_graph(graph, ["blue"])

    def test_serialization_is_canonical(self, lambda_one_doc):
        text = serialize(lambda_one_doc)
        lines = text.splitlines()
        vertex_lines = [l for l in lines if l.startswith("vertex ")]
        assert vertex_lines == sorted(vertex_lines)
        edge_lines = [l for l in lines if l.startswith("edge ")]
        assert edge_lines == sorted(edge_lines)


class TestPartitionFile:
    def test_partition_file(self, lambda_one_doc):
        text = (DATA / "paper.part").read_text(encoding="utf-8")
        assert parse_partition_file(text, lambda_one_doc) == paper_spec()

    def test_missing_split_line(self, lambda_one_doc):
        with pytest.raises(ParseError, match="missing split"):
            parse_partition_file("partition v : {α} {h} {i}\n", lambda_one_doc)

    def test_unknown_edge(self, lambda_one_doc):
        with pytest.raises(ParseError, match="unknown edge"):
            parse_partition_file(
                "split color=blue base=v\npartition v : {zz}\n", lambda_one_doc
            )

    def test_error_columns_point_at_the_token(self, lambda_one_doc):
        with pytest.raises(ParseError) as err:
            parse_partition_file("split color=blue base=v\npartition v : {α} {h} {i,t}\n",
                                 lambda_one_doc)
        assert (err.value.line, err.value.column) == (2, 26)
        with pytest.raises(ParseError) as err:
            parse_partition_file("split color=blue base=s\n", lambda_one_doc)
        assert (err.value.line, err.value.column) == (1, 23)


@pytest.mark.parametrize(
    "reader,text,line,column,message",
    [
        ("partition", "split color=blue base=v\nsplit color=blue base=v\n",
         2, 1, "duplicate split line"),
        ("partition", "split color=blue base=v\n  widget w\n", 2, 3, "unknown declaration 'widget'"),
        ("partition", "split color=blue base=v\npartition v : {α,α} {h} {i}\n",
         2, 1, "edge 'α' appears twice in one block at 'v'"),
        ("sidecar", "split color=blue base=v\nparent a.1 a\n", 2, 1, "expected: parent <item> = <item>"),
        ("sidecar", "split color=blue base=v\n  widget w\n", 2, 3, "unknown declaration 'widget'"),
    ],
    ids=["partition-duplicate-split", "partition-unknown-declaration", "partition-repeat-in-one-block",
         "sidecar-malformed-parent", "sidecar-unknown-declaration"],
)
def test_fragment_error_positions(lambda_one_doc, reader, text, line, column, message):
    with pytest.raises(ParseError) as err:
        if reader == "partition":
            parse_partition_file(text, lambda_one_doc)
        else:
            parse_sidecar(text)
    assert (err.value.line, err.value.column, err.value.message) == (line, column, message)


class TestSidecar:
    def test_round_trip(self, lambda_one, lambda_one_doc):
        result = outsplit(lambda_one, paper_spec())
        text = "".join(split_lines(lambda_one_doc, result)[1])
        assert text == sidecar_text("blue", "v", result.parent)
        color, base, parents = parse_sidecar(text)
        assert color == "blue" and base == "v"
        assert parents == result.parent

    def test_parse_errors(self):
        with pytest.raises(ParseError, match="missing split"):
            parse_sidecar("parent a.1 = a\n")
        with pytest.raises(ParseError, match="duplicate parent"):
            parse_sidecar(
                "split color=blue base=v\nparent a.1 = a\nparent a.1 = b\n"
            )
        with pytest.raises(ParseError, match="duplicate split line"):
            parse_sidecar("split color=red base=v\nsplit color=blue base=v\nparent a.1 = a\n")

    def test_duplicate_parent_column(self):
        with pytest.raises(ParseError) as err:
            parse_sidecar("split color=blue base=v\nparent a.1 = a\nparent a.1 = b\n")
        assert (err.value.line, err.value.column) == (3, 8)


class TestDot:
    def test_export_shape(self, lambda_one_doc):
        text = dot_export(lambda_one_doc)
        assert text.startswith("digraph")
        assert '"v" -> "x" [label="b", style=dashed];' in text
        assert '"v" -> "x" [label="h", style=solid];' in text
        assert "//   e h = k b" in text
        assert text == dot_export(lambda_one_doc)

    def test_style_cycling(self):
        text = (
            "kgraph 1 k=4 colors=c1,c2,c3,c4\nvertex p\n"
            + "".join(f"edge a{i} : c{i} p -> p\n" for i in (1, 2, 3, 4))
        )
        doc = parse(text)
        out = dot_export(doc)
        assert 'label="a4", style=solid' in out
        assert 'label="a3", style=dotted' in out

    def test_quotes_and_backslashes_are_escaped(self):
        doc = parse("\n".join([
            "kgraph 1 k=1 colors=c",
            'vertex a"b',
            "vertex a\\",
            'edge e"\\ : c a"b -> a\\',
        ]))
        lines = dot_export(doc).splitlines()
        assert r'  "a\"b";' in lines
        assert r'  "a\\";' in lines
        assert r'  "a\"b" -> "a\\" [label="e\"\\", style=solid];' in lines

"""Partition files: the `index label` format and its error messages."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestbound import ParseError, UnknownVertex, parse_edge_list
from forestbound import partition as partition_module
from forestbound.partition import Partition, format_partition, parse_partition_file
from test_graph import (
    assert_line_test_is_flat, assert_same_outcome, line_reader, pair_texts, plain_variants,
)


LINE_READER = line_reader(partition_module, parse_partition_file)


def labels_key(p: Partition):
    return p.mode, list(p.labels.items())


class TestPartitionFormat:
    def test_round_trip(self):
        p = Partition({0: "A", 1: "C", 2: "B"}, "ABC")
        assert parse_partition_file(format_partition(p)) == p

    def test_comments_blanks_and_case(self):
        p = parse_partition_file("# labels\n\n2 b  # inline\n  0\ta\n", "AB")
        assert p == Partition({2: "B", 0: "A"}, "AB")
        assert list(p.labels) == [2, 0]

    # each malformed input, its mode and the message it must raise
    PARTITION_ERRORS = {
        ("0 A B\n", "ABC"): "line 1: expected `index label`, got '0 A B'",
        ("0\n", "ABC"): "line 1: expected `index label`, got '0'",
        ("x A\n", "ABC"): "line 1: bad vertex index 'x'",
        ("1.0 A\n", "ABC"): "line 1: bad vertex index '1.0'",
        ("0 A\n1 B\n0 C\n", "ABC"): "line 3: vertex 0 labeled twice",
        ("0 A\n+0 B\n", "ABC"): "line 2: vertex 0 labeled twice",
        ("0 C\n1 A\n", "AB"): "label 'C' on vertex 0 not allowed in AB mode",
        ("0 a\n1 d\n", "ABC"): "label 'D' on vertex 1 not allowed in ABC mode",
        ("# c\n\n0 A B\n", "ABC"): "line 3: expected `index label`, got '0 A B'",
        ("0 A # c\n\n  \n0 B\n", "ABC"): "line 4: vertex 0 labeled twice",
        ("# 0 A\n0 A\n# 0 B\n0 x # y\n", "AB"): "line 4: vertex 0 labeled twice",
        # labels that upper-case to longer ones
        ("0 A\n1 \u00df\n", "ABC"): "label 'SS' on vertex 1 not allowed in ABC mode",
        ("0 \ufb01\n", "AB"): "label 'FI' on vertex 0 not allowed in AB mode",
    }

    @pytest.mark.parametrize("text, mode", list(PARTITION_ERRORS))
    def test_partition_errors(self, text, mode):
        message = self.PARTITION_ERRORS[text, mode]
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            parse_partition_file(text, mode)

    # texts of the shapes both readers must treat alike, one feature each
    SAME_OUTCOME = [
        "0 A\r\n1 b\r\n",
        "0\tA\n\t1  B \n",
        "0 A\x1c1 B\x0b2 C",
        "0\x1fA\n",
        "+3 A\n1_0 B\n٣ C\n",
        "-1 A\n-0 B\n",
        "0 A\n+0 B\n",
        "3 A\n03 B\n",
        "x A\n",
        "0 A\n\n1 B\n",
        "0 A\n \t\n1 B\n",
        "0 A # c\n",
        "0 D\n",
        "0 A\n1\n",
        # at the edges of the token reader's line pattern
        "0 A \t\n1 B\t\n",
        "0 A\r\r\n1 B\r\r\n",
        "0 A\n1 B",
        "0 A\n1 B\n\n",
        "007 A\n1 B\n",
        "0 A#c\n",
        "0\x0cA\n1 B\n",
        "0 A\n1 B\n2 C\n3 A B\n",
        "0 \u00df\n1 \ufb01\n2 b\n",
        "0 a\u00df\n1 \ufb01\n1 B\n",
        pytest.param("0 A\n" + "1" * 5000 + " B\n", id="5000-digit-index"),  # past int's limit
        # past the blank test: an empty token (which split drops), a letter index, a label
        # of letters and digits; and one it turns down, a label outside ASCII
        "0 \n A\n",
        "A 0\n",
        "0 A1\n",
        "0 \u00c4\n",
    ]

    @pytest.mark.parametrize("mode", ["ABC", "AB"])
    @pytest.mark.parametrize("text", SAME_OUTCOME)
    def test_readers_agree_on_cases(self, text, mode):
        assert_same_outcome(parse_partition_file, LINE_READER, text, mode, key=labels_key)

    @settings(max_examples=300, deadline=None)
    @given(pair_texts(st.integers(0, 6).map(str), st.sampled_from("ABCabcD")),
           st.sampled_from(["ABC", "AB"]))
    def test_readers_agree(self, text, mode):
        assert_same_outcome(parse_partition_file, LINE_READER, text, mode, key=labels_key)

    def test_plain_file_skips_line_reader(self, monkeypatch):
        p = Partition({v: "AB"[v % 3 == 0] for v in range(30)}, "AB")
        text = format_partition(p)

        def fail(text):
            raise AssertionError("line loop reached")

        monkeypatch.setattr(partition_module, "content_lines", fail)
        lf, crlf, tab = plain_variants(text)
        for plain in (lf, crlf.lower(), tab):
            assert labels_key(parse_partition_file(plain, "AB")) == labels_key(p)

    def test_line_test_allocates_no_line_list(self):
        text = "".join(f"{v} {'ABC'[v % 3]}\n" for v in range(100000))
        assert_line_test_is_flat(partition_module.pairs_per_line, text)

    def test_extra_label_leaves_parsed_sets_unbuilt(self):
        # naming a label outside the graph needs only the vertex range
        g = parse_edge_list("3 1\n0 1\n")
        p = Partition({0: "A", 1: "B", 2: "C", 3: "A"}, "ABC")
        with pytest.raises(UnknownVertex, match=re.escape("not in graph: [3]")):
            p.validate_for(g.vertices)


@pytest.mark.parametrize(
    "build",
    [lambda: Partition({0: "A"}, "XY"), lambda: parse_partition_file("0 A\n", "XY")],
    ids=["constructor", "reader"],
)
def test_unknown_mode_is_refused(build):
    with pytest.raises(ValueError, match=r"^mode must be ABC or AB, got 'XY'$"):
        build()

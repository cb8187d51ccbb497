"""File formats: parsing, serialization, source loading."""

import numpy as np
import pytest

from blackburn import core
from blackburn.catalog import CATALOG, builtin, cyclic, symmetric
from blackburn.cli import main
from blackburn.core import Group
from blackburn.errors import BadParams, NotPermutation, OrderCap, ParseError
from blackburn.formats import (
    dump_cayley,
    load_source,
    parse_cayley,
    parse_permgen,
)


def test_parse_cayley_c2():
    g = parse_cayley("cayley 1\norder 2\n0 1\n1 0\n")
    assert g.order == 2
    assert g.mul(1, 1) == 0


def test_parse_cayley_comments_and_names():
    text = """# a comment
cayley 1
order 2   # trailing comment
names e t
0 1
1 0
"""
    g = parse_cayley(text)
    assert g.names == ("e", "t")


def test_parse_cayley_row_count_mismatch():
    with pytest.raises(ParseError) as err:
        parse_cayley("cayley 1\norder 3\n0 1 2\n1 2 0\n")
    assert err.value.line == 4


def test_parse_cayley_bad_header():
    with pytest.raises(ParseError) as err:
        parse_cayley("order 2\n0 1\n1 0\n")
    assert err.value.line == 1


def test_parse_cayley_entry_errors():
    with pytest.raises(ParseError):
        parse_cayley("cayley 1\norder 2\n0 x\n1 0\n")
    with pytest.raises(ParseError):
        parse_cayley("cayley 1\norder 2\n0 7\n1 0\n")


def test_s3_file_roundtrip():
    s3 = symmetric(3)
    text = dump_cayley(s3)
    back = parse_cayley(text)
    assert np.array_equal(back.table, s3.table)
    assert back.names == s3.names
    assert sorted(len(c) for c in back.conjugacy_classes()) == [1, 2, 3]


@pytest.mark.parametrize("names", [("e", "a#1", "a#2"), ("e", "a 1", "a2"), ("e", "", "a2"),
                                   ("e", "a\n1", "a2")])
def test_dump_refuses_names_that_do_not_read_back(names):
    # '#' would start a comment, and whitespace would split the name
    with pytest.raises(BadParams):
        dump_cayley(Group(cyclic(3).table, names))


def test_parse_refuses_tables_over_the_byte_limit(monkeypatch, tmp_path):
    # nothing is allocated: the order line is refused before any row is read
    with pytest.raises(OrderCap, match="over the limit"):
        parse_cayley("cayley 1\norder 100000\n")
    big = tmp_path / "big.cayley"
    big.write_text("cayley 1\norder 100000\n")
    assert main(["classify", str(big)]) == 2
    s4_perm = "permgen 1\ndegree 4\ngen 1 2 3 0\ngen 1 0 2 3\n"
    s5_perm = "permgen 1\ndegree 5\ngen 1 2 3 4 0\ngen 1 0 2 3 4\n"
    # a limit that S4's table meets and S5's passes
    monkeypatch.setattr(core, "TABLE_BYTE_LIMIT", 4 * 24 * 24)
    assert parse_permgen(s4_perm).order == 24
    assert parse_cayley(dump_cayley(symmetric(4))).order == 24
    with pytest.raises(OrderCap, match="permutation closure exceeds cap 24"):
        parse_permgen(s5_perm)
    with pytest.raises(OrderCap, match="order-120 table"):
        parse_cayley(dump_cayley(symmetric(5)))


def test_roundtrip_all_catalog():
    for entry in CATALOG:
        if entry.order > 64:
            continue
        g = entry.build()
        back = parse_cayley(dump_cayley(g))
        assert np.array_equal(back.table, g.table), entry.name
        assert back.names == g.names, entry.name


def test_parse_permgen_s3():
    g = parse_permgen("permgen 1\ndegree 3\ngen 1 2 0\ngen 1 0 2\n")
    assert g.order == 6
    assert sorted(len(c) for c in g.conjugacy_classes()) == [1, 2, 3]


def test_parse_permgen_c4():
    g = parse_permgen("permgen 1\ndegree 4\ngen 1 2 3 0\n")
    assert g.order == 4
    assert g.order_of(1) == 4


def test_parse_permgen_not_permutation():
    with pytest.raises(NotPermutation):
        parse_permgen("permgen 1\ndegree 3\ngen 0 0 1\n")


def test_parse_permgen_cap():
    with pytest.raises(OrderCap):
        parse_permgen("permgen 1\ndegree 5\ngen 1 2 3 4 0\ngen 1 0 2 3 4\n", cap=100)


def test_parse_permgen_identity_is_index_zero():
    g = parse_permgen("permgen 1\ndegree 3\ngen 1 2 0\n")
    assert g.order == 3
    assert g.names[0] == "012"


def test_load_source(tmp_path):
    path = tmp_path / "c2.cayley"
    path.write_text("cayley 1\norder 2\n0 1\n1 0\n")
    assert load_source(str(path)).order == 2

    perm = tmp_path / "c3.perm"
    perm.write_text("permgen 1\ndegree 3\ngen 1 2 0\n")
    assert load_source(str(perm)).order == 3

    assert load_source("q16").order == 16
    with pytest.raises(OrderCap):  # a file above the cap, in either format
        load_source(str(path), cap=1)
    with pytest.raises(OrderCap):
        load_source(str(perm), cap=2)
    with pytest.raises(OrderCap, match="order 32 exceeds cap 16"):  # and a builtin
        load_source("q32", cap=16)
    assert load_source("q32", cap=32).order == 32

    bad = tmp_path / "junk.txt"
    bad.write_text("hello\n")
    with pytest.raises(ParseError, match="neither cayley nor permgen"):
        load_source(str(bad))


HEADERS = {"cayley": ("order", "n", "0\n"), "permgen": ("degree", "d", "gen 0\n")}


@pytest.mark.parametrize("kind", ["cayley", "permgen"])
@pytest.mark.parametrize("text, message, line", [
    pytest.param("", "expected header '{kind} 1'", 1, id="empty"),
    pytest.param("# c\n{key} 1\n{body}", "expected header '{kind} 1'", 2, id="no-kind"),
    pytest.param("{kind} 2\n{key} 1\n{body}", "expected header '{kind} 1'", 1, id="kind-2"),
    pytest.param("{kind} 1\n", "expected '{key} {symbol}'", 1, id="no-size-at-end"),
    pytest.param("{kind} 1\n\n{body}", "expected '{key} {symbol}'", 3, id="no-size"),
    pytest.param("{kind} 1\n{key}\n{body}", "expected '{key} {symbol}'", 2, id="bare-key"),
    pytest.param("{kind} 1\n# c\n{key} x\n{body}", "malformed {key} line", 3, id="malformed"),
    pytest.param("{kind} 1\n{key} 0\n", "{key} must be positive", 2, id="zero"),
    pytest.param("{kind} 1\n{key} -3\n{body}", "{key} must be positive", 2, id="negative"),
])
def test_header_errors(kind, text, message, line):
    """Both parsers report a missing or wrong header line with the same
    message and line number."""
    key, symbol, body = HEADERS[kind]
    parse = {"cayley": parse_cayley, "permgen": parse_permgen}[kind]
    fill = dict(kind=kind, key=key, symbol=symbol, body=body)
    with pytest.raises(ParseError) as err:
        parse(text.format(**fill))
    assert err.value.line == line
    assert str(err.value) == f"line {line}: " + message.format(**fill)


def test_builtin_resolution_matches_catalog():
    for entry in CATALOG:
        assert builtin(entry.name).order == entry.order

"""File formats for groups and the loading of a CLI source.

cayley v1:
    cayley 1
    order n
    names t1 ... tn        (optional; tokens free of whitespace and '#')
    n rows of n whitespace-separated 0-based indices

permgen v1:
    permgen 1
    degree d
    gen i0 i1 ... i_{d-1}  (one line per generator, 0-based image list)

'#' starts a comment in both formats.  Permutation products compose left to
right: (a*b)(x) = b(a(x)).

`load_source(spec, cap)` turns a CLI source argument into a Group: an
existing file is read once, as UTF-8 less one leading byte-order mark, and
parsed in the format its first content line names; any other spec is a
builtin.
"""

from __future__ import annotations

import codecs
import os
from math import isqrt
from typing import Optional

import numpy as np

from .catalog import builtin
from . import core
from .core import SCAN_ELEMENTS, Group, check_table_order, validate_group
from .errors import BadParams, NotPermutation, OrderCap, ParseError

# The bytes of a plain table body other than its newlines (see `_plain_table`).
_PLAIN_BYTES = b"0123456789 \t"
# The bytes "0" and "\n" as 0-d arrays, with which numpy compares a byte
# array faster than with a Python int.
_ZERO = np.array(ord("0"), dtype=np.uint8)
_NEWLINE = np.array(ord("\n"), dtype=np.uint8)


def _content_lines(text: str, limit: Optional[int] = None) -> list:
    """(line_number, stripped content, offset past the line break) for the
    first `limit` (all by default) non-blank, non-comment lines, cut and
    numbered as str.splitlines() cuts them; with a limit, only a prefix of
    the text that holds those lines is cut."""
    size = len(text) if limit is None else 4096  # doubled until it holds them
    while True:
        lines = text[:size].splitlines(keepends=True)
        if size < len(text):
            lines.pop()  # it, or its "\r\n", may run on past the prefix
        out, end = [], 0
        for i, raw in enumerate(lines, start=1):
            end += len(raw)
            line = raw.split("#", 1)[0].strip()
            if line:
                out.append((i, line, end))
                if len(out) == limit:
                    return out
        if size >= len(text):
            return out
        size *= 2


def _header(lines: list, kind: str, key: str, symbol: str) -> int:
    """The size n of a file whose first content lines are `kind 1` and
    `key n`; a ParseError on the first of them that is missing or wrong."""
    if not lines or lines[0][1] != f"{kind} 1":
        raise ParseError(f"expected header '{kind} 1'", lines[0][0] if lines else 1)
    if len(lines) < 2 or not lines[1][1].startswith(f"{key} "):
        raise ParseError(f"expected '{key} {symbol}'", lines[1][0] if len(lines) > 1 else 1)
    try:
        n = int(lines[1][1].split()[1])
    except (IndexError, ValueError):
        raise ParseError(f"malformed {key} line", lines[1][0])
    if n < 1:
        raise ParseError(f"{key} must be positive", lines[1][0])
    return n


def _check_cap(n: int, cap: Optional[int]) -> None:
    if cap is not None and n > cap:
        raise OrderCap(f"order {n} exceeds cap {cap}")


def parse_cayley(text: str, cap: Optional[int] = None) -> Group:
    """Read a cayley file; an order above `cap`, or whose table would pass
    core.TABLE_BYTE_LIMIT, is refused before any row is read.  Only the header
    lines are read as text: a plain body is read from its bytes by
    `_plain_table`, as are its content lines joined when it is not, and
    what is left row by row by `_checked_table`."""
    lines = _content_lines(text, 3)
    n = _header(lines, "cayley", "order", "n")
    _check_cap(n, cap)
    check_table_order(n)
    head = lines[:2]
    names = None
    if len(lines) > 2 and lines[2][1].startswith("names"):
        lineno, content, _ = lines[2]
        names = content.split()[1:]
        if len(names) != n:
            raise ParseError(f"expected {n} names, got {len(names)}", lineno)
        head = lines
    table = _plain_table(text, head[-1][2], n)
    if table is None:
        body = _content_lines(text)[len(head):]
        if len(body) != n:
            raise ParseError(f"expected {n} table rows, got {len(body)}",
                             body[-1][0] if body else lines[1][0])
        # with comments, blank lines and line ends other than "\n" cut away,
        # the rows may still be plain
        table = _plain_table("\n".join(content for _, content, _ in body), 0, n)
        if table is None:
            table = _checked_table(body, n)
    return validate_group(table, names)


def _plain_table(text: str, start: int, n: int) -> Optional[np.ndarray]:
    """The (n x n) table that `text` holds from offset `start` on when that
    body is plain, read from its bytes; None for any other body.  The text
    before `start`, if any, ends with a line break.

    Plain means: ASCII digits, blanks, tabs and newlines ('\\n') only; n
    lines of n tokens each, with no blank line between them and no blank
    after the last token of a line; every token the decimal form of a
    number below n, with no leading zero, so at most len(str(n - 1)) digits.
    `_checked_table` accepts every such body and reads the same numbers
    from it.  The bytes are read in blocks of about SCAN_ELEMENTS, cut after
    a newline, so each temporary is the size of one block, and the table is
    int16 (int32 above 32767) from the start.
    """
    width = len(str(n - 1))
    if start < width or not text.isascii():  # the body alone, after `width` line breaks
        text, start = "\n" * width + text[start:], width
        if not text.isascii():
            return None
    data = text.encode("ascii")
    if not data.endswith(b"\n"):  # so that a newline follows each row
        data += b"\n"
    table = np.empty(n * n, dtype=np.int16 if n < 1 << 15 else np.int32)
    done = 0
    while start < len(data):
        stop = data.find(b"\n", start + SCAN_ELEMENTS) + 1 or len(data)
        newlines = data[start:stop].translate(None, _PLAIN_BYTES)
        if newlines.strip(b"\n"):
            return None
        # positions count from the byte before the block, which ends a line;
        # the byte p places before position i is raw[width - 1 - p + i]
        raw = np.frombuffer(data, np.uint8, stop - start + width, start - width)
        byte = raw[width - 1 :]
        digit = byte >= _ZERO
        ends = (digit[:-1] > digit[1:]).nonzero()[0]  # the last digit of each token
        k = len(ends)
        rows = k // n
        if rows * n != k or len(newlines) != rows or done + k > n * n:
            return None
        # each token read place by place from its end, while the bytes are
        # still its digits
        value = byte[ends] - _ZERO
        if width > 2:  # uint8 holds two digits
            value = value.astype(np.int32)
        inside = None
        for p in range(1, width):
            place = raw[width - 1 - p :][ends]
            inside = place >= _ZERO if inside is None else inside & (place >= _ZERO)
            value += np.multiply((place - _ZERO) * inside, 10**p, dtype=value.dtype)
        # a token longer than `width`, or with a leading zero, has more digits
        # than its number is written with
        written = k
        for p in range(1, width):
            written += np.count_nonzero(value >= 10**p)
        # and the `rows` newlines come right after the last token of each
        # row, so that there is no other newline and each row is one line
        if (written != np.count_nonzero(digit) or np.count_nonzero(value >= n)
                or np.count_nonzero(byte[1:][ends[n - 1 :: n]] == _NEWLINE) != rows):
            return None
        table[done : done + k] = value
        done += k
        start = stop
    return table.reshape(n, n) if done == n * n else None


def _checked_table(body: list, n: int) -> list:
    """Row by row conversion that names the first malformed row."""
    table = []
    for lineno, content, _ in body:
        try:
            row = [int(x) for x in content.split()]
        except ValueError:
            raise ParseError("table row has a non-integer entry", lineno)
        if len(row) != n:
            raise ParseError(f"expected {n} entries, got {len(row)}", lineno)
        if any(x < 0 or x >= n for x in row):
            raise ParseError("table entry out of range", lineno)
        table.append(row)
    return table


def dump_cayley(g: Group) -> str:
    out = ["cayley 1", f"order {g.order}"]
    if g.names is not None:
        # a name must read back as one token, and '#' would start a comment
        if any(nm.split() != [nm] or "#" in nm for nm in g.names):
            raise BadParams("names must be non-empty, whitespace-free and without '#'")
        out.append("names " + " ".join(g.names))
    for row in g.table.tolist():
        out.append(" ".join(str(x) for x in row))
    return "\n".join(out) + "\n"


def parse_permgen(text: str, cap: Optional[int] = None) -> Group:
    """Close the generators of a permgen file; a closure over `cap`
    elements, or over the largest order whose table core.TABLE_BYTE_LIMIT
    admits, is refused before the table is allocated."""
    lines = _content_lines(text)
    degree = _header(lines, "permgen", "degree", "d")
    gens = []
    for lineno, content, _ in lines[2:]:
        if not content.startswith("gen"):
            raise ParseError("expected a 'gen ...' line", lineno)
        try:
            imgs = tuple(int(x) for x in content.split()[1:])
        except ValueError:
            raise ParseError("gen line has a non-integer entry", lineno)
        if len(imgs) != degree:
            raise ParseError(f"expected {degree} images, got {len(imgs)}", lineno)
        if sorted(imgs) != list(range(degree)):
            raise NotPermutation(f"line {lineno}: image list is not a permutation")
        gens.append(imgs)
    limit = isqrt(core.TABLE_BYTE_LIMIT // 4)
    elements, parent, via, right = _closure(gens, degree, limit if cap is None
                                            else min(cap, limit))
    n = len(elements)
    # Element j was first reached as parent[j] * via[j], so column j is the
    # right multiplication by that generator applied to column parent[j].
    table = np.empty((n, n), dtype=np.int32)
    table[:, 0] = np.arange(n)
    for j in range(1, n):
        table[:, j] = right[via[j]][table[:, parent[j]]]
    sep = "" if degree <= 10 else ","
    names = [sep.join(map(str, e)) for e in elements.tolist()]
    return Group(table, names)


def _closure(gens: list, degree: int, cap: int) -> tuple:
    """Breadth-first closure of the generators, one frontier block at a time.

    Returns the elements as an (n x degree) array in order of discovery,
    and for each element j > 0 the element `parent[j]` and generator
    `via[j]` it was first reached from, with e_j = e_parent * gen_via.
    `right[s, x]` is the index of e_x * gen_s.  Products of a frontier are
    numbered in (element, generator) order, as a loop over both would.
    """
    k = len(gens)
    gen_arr = np.asarray(gens, dtype=np.intp).reshape(k, degree)
    pick = np.arange(k)[None, :, None]
    row_key = np.dtype((np.void, degree * gen_arr.itemsize))
    frontier = np.arange(degree, dtype=np.intp)[None, :]
    index = {frontier.tobytes(): 0}
    blocks, parents, vias, rights = [frontier], [np.zeros(1, np.intp)], [np.zeros(1, np.intp)], []
    base = 0  # index of the frontier's first element
    while len(frontier):
        prods = gen_arr[pick, frontier[:, None, :]]  # e then gen, as (f, k, degree)
        found = np.empty(prods.shape[0] * k, dtype=np.intp)
        fresh = []
        for pos, key in enumerate(prods.view(row_key).ravel().tolist()):
            j = index.get(key)
            if j is None:
                j = len(index)
                if j >= cap:
                    raise OrderCap(f"permutation closure exceeds cap {cap}")
                index[key] = j
                fresh.append(pos)
            found[pos] = j
        rights.append(found.reshape(len(frontier), k))
        fresh = np.asarray(fresh, dtype=np.intp)
        parents.append(base + fresh // k)
        vias.append(fresh % k)
        base += len(frontier)
        frontier = prods.reshape(-1, degree)[fresh]
        blocks.append(frontier)
    right = np.ascontiguousarray(np.concatenate(rights).T)
    return np.concatenate(blocks), np.concatenate(parents), np.concatenate(vias), right


def _decode(data: bytes) -> str:
    """The bytes of a file as UTF-8 text, less one leading byte-order mark;
    a byte that does not decode is a ParseError on its line."""
    if data.startswith(codecs.BOM_UTF8):
        data = data[len(codecs.BOM_UTF8):]
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"byte 0x{data[exc.start]:02x} is not UTF-8 text",
                         1 + data.count(b"\n", 0, exc.start)) from None


def load_source(spec: str, cap: Optional[int] = None) -> Group:
    """The group a CLI source argument names: an existing file, read once
    and parsed in the format its first content line names, or else a
    builtin spec.  A group of order above `cap` is refused: a file's before
    its table is built, a builtin's once it is built."""
    if not os.path.exists(spec):
        g = builtin(spec)
        _check_cap(g.order, cap)
        return g
    with open(spec, "rb") as fh:
        text = _decode(fh.read())
    lines = _content_lines(text, 1)
    head = lines[0][1] if lines else ""
    if head.startswith("cayley"):
        return parse_cayley(text, cap)
    if head.startswith("permgen"):
        return parse_permgen(text, cap)
    raise ParseError("file is neither cayley nor permgen format", 1)

"""File formats for groups and source resolution.

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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .catalog import builtin
from .core import Group, validate_group
from .errors import BadParams, NotPermutation, OrderCap, ParseError

PERMGEN_CLOSURE_CAP = 65536
# Bytes of the largest int32 (n x n) table a file may ask for: n <= 11585.
# Loading one makes whole-table temporaries a few times this size.
TABLE_BYTE_LIMIT = 1 << 29
_DIGIT_TABLE_BYTES = b"0123456789 \t\n"


def _content_lines(text: str) -> list:
    """(line_number, stripped content) for non-blank, non-comment lines."""
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((i, line))
    return out


def _check_table_bytes(n: int) -> None:
    """Refuse, before it is allocated, an int32 table of order n over
    TABLE_BYTE_LIMIT."""
    if 4 * n * n > TABLE_BYTE_LIMIT:
        raise OrderCap(f"an order-{n} table takes {4 * n * n} bytes, over the limit "
                       f"of {TABLE_BYTE_LIMIT}")


def parse_cayley(text: str, cap: Optional[int] = None) -> Group:
    """Read a cayley file; an order above `cap`, or whose table would pass
    TABLE_BYTE_LIMIT, is refused before any row is read."""
    lines = _content_lines(text)
    if not lines or lines[0][1] != "cayley 1":
        raise ParseError("expected header 'cayley 1'", lines[0][0] if lines else 1)
    if len(lines) < 2 or not lines[1][1].startswith("order "):
        raise ParseError("expected 'order n'", lines[1][0] if len(lines) > 1 else 1)
    try:
        n = int(lines[1][1].split()[1])
    except (IndexError, ValueError):
        raise ParseError("malformed order line", lines[1][0])
    if n < 1:
        raise ParseError("order must be positive", lines[1][0])
    if cap is not None and n > cap:
        raise OrderCap(f"order {n} exceeds cap {cap}")
    _check_table_bytes(n)
    body = lines[2:]
    names = None
    if body and body[0][1].startswith("names"):
        lineno, content = body[0]
        names = content.split()[1:]
        if len(names) != n:
            raise ParseError(f"expected {n} names, got {len(names)}", lineno)
        body = body[1:]
    if len(body) != n:
        raise ParseError(f"expected {n} table rows, got {len(body)}",
                         body[-1][0] if body else lines[1][0])
    table = _digit_table([content for _, content in body], n)
    if table is None:
        table = _checked_table(body, n)
    return validate_group(table, names)


def _digit_table(rows: list, n: int) -> Optional[np.ndarray]:
    """The rows as one (n x n) array when they hold only ASCII digits and
    blanks, n entries each, all below n; None otherwise."""
    text = "\n".join(rows)
    # deleting every allowed byte leaves nothing exactly when all are allowed
    if not text.isascii() or text.encode("ascii").translate(None, _DIGIT_TABLE_BYTES):
        return None
    try:
        table = np.loadtxt(rows, dtype=np.int64, ndmin=2)
    except ValueError:  # ragged rows, or an entry beyond int64
        return None
    if table.shape != (n, n) or table.max() >= n:
        return None
    return table


def _checked_table(body: list, n: int) -> list:
    """Row by row conversion that names the first malformed row."""
    table = []
    for lineno, content in body:
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


def parse_permgen(text: str, cap: int = PERMGEN_CLOSURE_CAP) -> Group:
    """Close the generators of a permgen file; a closure over `cap`
    elements, or whose table would pass TABLE_BYTE_LIMIT, is refused before
    the table is allocated."""
    lines = _content_lines(text)
    if not lines or lines[0][1] != "permgen 1":
        raise ParseError("expected header 'permgen 1'", lines[0][0] if lines else 1)
    if len(lines) < 2 or not lines[1][1].startswith("degree "):
        raise ParseError("expected 'degree d'", lines[1][0] if len(lines) > 1 else 1)
    try:
        degree = int(lines[1][1].split()[1])
    except (IndexError, ValueError):
        raise ParseError("malformed degree line", lines[1][0])
    if degree < 1:
        raise ParseError("degree must be positive", lines[1][0])
    gens = []
    for lineno, content in lines[2:]:
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
    elements, parent, via, right = _closure(gens, degree, cap)
    n = len(elements)
    _check_table_bytes(n)
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


@dataclass(frozen=True)
class GroupSource:
    """Where a group came from: a builtin spec or a file in either format."""

    kind: str  # "builtin" | "cayley" | "permgen"
    locator: str

    def load(self, cap: Optional[int] = None) -> Group:
        """The group; a file group of order above `cap` is refused before
        its table is built."""
        if self.kind == "builtin":
            return builtin(self.locator)
        with open(self.locator, "r", encoding="utf-8") as fh:
            text = fh.read()
        if self.kind == "cayley":
            return parse_cayley(text, cap)
        return parse_permgen(text, PERMGEN_CLOSURE_CAP if cap is None
                             else min(cap, PERMGEN_CLOSURE_CAP))


def resolve_source(spec: str) -> GroupSource:
    """Interpret a CLI source argument: existing file (sniffed by header) or
    builtin spec."""
    import os

    if os.path.exists(spec):
        head = ""
        with open(spec, "r", encoding="utf-8") as fh:
            for raw in fh:  # read up to the first content line only
                lines = _content_lines(raw)
                if lines:
                    head = lines[0][1]
                    break
        if head.startswith("cayley"):
            return GroupSource("cayley", spec)
        if head.startswith("permgen"):
            return GroupSource("permgen", spec)
        raise ParseError("file is neither cayley nor permgen format", 1)
    return GroupSource("builtin", spec)

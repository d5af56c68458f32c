r"""Line-oriented text formats for categories and expansion functors.

Category format:

    objects: n
    obj <id> <label>
    mor <id> <dom> <cod> <label>
    cmp <g> <f> <gf>

Identities are not stored; they are inferred on load.  A functor file holds
two category blocks introduced by `upstairs:` and `downstairs:` headers,
followed by `umap obj <up> <down>` and `umap mor <up> <down>` lines.  Lines
may come in any order; blank lines and lines starting with `#` are skipped.

A cmp line is `cmp` and three ASCII decimal integers (a minus sign allowed),
separated by spaces or tabs, and nothing else.  Two readers keep that
grammar.  The compiled one, in the C kernel's library, decodes only the
header lines and checks each cmp line as it fills its cell; it accepts no
file that the pure one refuses, and declines a text with a line break other
than `\n` that str.splitlines splits at (`\r`, `\v`, `\f`, `\x1c`-`\x1e`,
U+0085, U+2028, U+2029).  A file opened by path has its line ends turned
into `\n` as it is read, so a CRLF file takes the compiled path.

The pure reader reads a file that the compiled one declines or refuses, and
every file where the library is not built, and alone decides a refusal: it
reads the header lines, then the cmp lines a block at a time, and runs each
check once, at the line.  A refusal is a ParseError naming the first line
that no category file may hold (no directive, a field that is no integer, a
repeated id or header, a cmp line outside its grammar), or else the first
whose reference is at fault (an object id out of range, a gap in the
morphism ids, a morphism past MAX_MORPHISMS, a dangling or repeated
reference, a cmp line on a pair that is not composable).  A fault that no
line carries, such as a missing header or an object without an identity,
is a CategoryError.
"""

from __future__ import annotations

import io as _io
import re
from array import array
from bisect import bisect_left
from collections.abc import Callable, Iterable, Sequence
from functools import partial
from itertools import chain, compress, count, islice, repeat
from operator import not_
from typing import TextIO

from . import kernel
from .core import MAX_MORPHISMS, CategoryError, FiniteCategory


class ParseError(CategoryError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


# the fields each directive needs, its own name included; labels are optional
_FIELDS = {"objects:": 2, "obj": 2, "mor": 4, "cmp": 4}
# one cmp line, whole
_CMP_LINE = re.compile(r"[ \t]*cmp(?:[ \t]+-?[0-9]+){3}[ \t]*")
# the characters a block of cmp lines may hold
_CMP_CHARS = re.compile(r"[cmp0-9 \t\n-]*")
# cmp lines are read in blocks of this many: the fields of one are in memory at a time
_BLOCK_LINES = 1024


def _records(numbered: Iterable[tuple[int, str]]):
    """The objects count and the obj and mor records, each with its line, of
    the (line number, line) pairs, read in file order; a cmp line is only
    checked.  Raise a ParseError on the first line that no category file may
    hold: no directive, too few fields, a field that is not an integer, a
    repeated id or header, or a cmp line outside its grammar."""
    n_objects = None
    labels: dict[int, tuple[int, str]] = {}  # id -> (line, label)
    mors: dict[int, tuple[int, int, int, str]] = {}  # id -> (line, dom, cod, label)
    ln = 0
    try:
        for ln, line in numbered:
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            if parts[0] not in _FIELDS:
                raise ParseError(ln, f"unknown directive {parts[0]!r}")
            if len(parts) < _FIELDS[parts[0]]:
                raise ParseError(ln, f"{parts[0]} needs {_FIELDS[parts[0]] - 1} fields, got {len(parts) - 1}")
            if parts[0] == "objects:":
                if n_objects is not None:
                    raise ParseError(ln, "duplicate objects header")
                n_objects = int(parts[1])
                # each object needs its own identity morphism, within the morphism cap
                if not 0 <= n_objects <= MAX_MORPHISMS:
                    raise ParseError(ln, f"object count {n_objects} is outside 0..{MAX_MORPHISMS}")
            elif parts[0] == "obj":
                oid = int(parts[1])
                if oid in labels:
                    raise ParseError(ln, f"duplicate object id {oid}")
                labels[oid] = (ln, parts[2] if len(parts) > 2 else str(oid))
            elif parts[0] == "mor":
                mid = int(parts[1])
                if mid in mors:
                    raise ParseError(ln, f"duplicate morphism id {mid}")
                mors[mid] = (ln, int(parts[2]), int(parts[3]), parts[4] if len(parts) > 4 else str(mid))
            elif len(parts) > 4:
                raise ParseError(ln, f"cmp takes 3 fields, got {len(parts) - 1}")
            elif not _CMP_LINE.fullmatch(line):
                # a field that int() refuses is named as such; int() and
                # split() also take `+1`, `1_0`, non-ASCII digits and blanks
                list(map(int, parts[1:]))
                raise ParseError(ln, "cmp fields must be ASCII decimal integers separated by spaces or tabs")
    except CategoryError:
        raise
    except ValueError as exc:  # int() of a field that is not an integer, on line ln
        raise ParseError(ln, f"expected an integer field: {exc}") from None
    return n_objects, labels, mors


def _fill_table(lines: list[str], line_nos: Sequence[int], is_cmp: list[bool], n_mor, mors, fault) -> array | None:
    """The table that the cmp lines, lines[i] where is_cmp[i], fill, given
    the header's n_mor morphisms, `mors`, and first fault; None when the
    header is unread (n_mor None) or at fault before every cmp line.  Raises
    the first cmp line's fault named before `fault`.  A line starts with
    `cmp` once blanks are stripped, so a block with only the grammar's
    characters, four fields a line, `cmp` every fourth, and fields int()
    takes keeps the grammar; one that fails is parsed line by line.  Lines
    before `fault`'s are checked against the header: ids per block, and each
    line, as it fills its cell, for an empty cell and a composable pair."""
    cmp_lines = list(compress(lines, is_cmp))
    # lines from stop on follow the fault's: only their grammar counts, and not even that past an unread header's
    limit = getattr(fault, "line_no", None)
    stop = len(cmp_lines) if limit is None else is_cmp[: bisect_left(line_nos, limit)].count(True)
    end = stop if n_mor is None else len(cmp_lines)
    # no table past the cap (its fault is named), nor for a fault that comes before every cmp line
    table = None
    if n_mor is not None and n_mor <= MAX_MORPHISMS and (fault is None or stop > 0):
        table = array("i", [-1]) * (n_mor * n_mor)
        dom, cod = ([mors[i][k] if i in mors else None for i in range(n_mor)] for k in (1, 2))
    ids: dict[str, int] = {}  # each distinct field, converted once
    found = None  # the fault of the cmp line at stop, if one is
    for start in range(0, end, _BLOCK_LINES):
        block = cmp_lines[start : min(start + _BLOCK_LINES, end)]
        text = "\n".join(block)
        fields = text.split()
        columns = fields[1::4], fields[2::4], fields[3::4]
        new = ()  # the fields that no earlier block held
        try:
            if not _CMP_CHARS.fullmatch(text) or len(fields) != 4 * len(block) or fields[::4].count("cmp") != len(block):
                raise ValueError
            try:
                refs = [list(map(ids.__getitem__, column)) for column in columns]
            except KeyError:
                new = set(chain(*columns)).difference(ids)
                ids.update(zip(new, map(int, new)))
                refs = [list(map(ids.__getitem__, column)) for column in columns]
        except ValueError:
            # the line by line parse raises, naming the line
            _records(islice(compress(zip(line_nos, lines), is_cmp), start, start + len(block)))
        if table is None or start >= stop:
            continue
        if not all(0 <= ids[x] < n_mor for x in new):
            # the block's first line with an id out of range
            i, x = next((i, x) for i, *line_refs in zip(count(start), *refs) for x in line_refs if not 0 <= x < n_mor)
            if i < stop:
                stop, found = i, f"dangling morphism reference {x}"
        for i, g, f, gf in zip(range(start, stop), *refs):
            cell = g * n_mor + f
            if table[cell] != -1:
                stop, found = i, f"duplicate composition entry ({g},{f})"
            elif cod[f] != dom[g] and g in mors and f in mors:
                stop, found = i, f"{g}*{f} is defined, but {g} and {f} are not composable"
            else:
                table[cell] = gf
                continue
            break
    if found is not None:
        raise ParseError(next(islice(compress(line_nos, is_cmp), stop, None)), found)
    return table


def _category(header: Iterable[tuple[int, str]], fill: Callable[..., array | None]) -> FiniteCategory:
    """The category of the header lines, (line number, line) pairs in file
    order, and of the table that fill(n_mor, mors, fault) makes from the cmp
    lines, given the header's first fault (n_mor None: the header is unread);
    fill raises a cmp line's fault that is named before that one, and
    _category then raises that one."""
    try:
        n_objects, labels, mors = _records(header)
        if n_objects is None:
            raise CategoryError("missing objects header")  # no line is at fault
    except CategoryError as exc:
        fill(None, None, exc)
        raise
    n_mor = len(mors)
    faults = [(ln, f"object id {oid} out of range") for oid, (ln, _) in labels.items() if not 0 <= oid < n_objects]
    for mid, (ln, dom, cod, _) in mors.items():
        if not 0 <= mid < n_mor:
            faults.append((ln, f"morphism id {mid} leaves a gap: ids must be 0..{n_mor - 1}"))
        elif mid >= MAX_MORPHISMS:
            faults.append((ln, f"morphism {mid} would exceed the cap of {MAX_MORPHISMS} morphisms"))
        elif not (0 <= dom < n_objects and 0 <= cod < n_objects):
            faults.append((ln, "dangling object reference"))
    fault = ParseError(*min(faults)) if faults else None
    table = fill(n_mor, mors, fault)
    if fault is not None:
        raise fault
    object_labels = [labels[i][1] if i in labels else str(i) for i in range(n_objects)]
    return FiniteCategory(object_labels, [mors[i][1:] for i in range(n_mor)], table)


def _read_category(lines: list[str], line_nos: Sequence[int]) -> FiniteCategory:
    """The category that `lines` describe, read by the pure reader;
    line_nos[i] is the file line of lines[i]."""
    is_cmp = list(map(str.startswith, map(str.lstrip, lines), repeat("cmp")))
    header = compress(zip(line_nos, lines), map(not_, is_cmp))
    return _category(header, partial(_fill_table, lines, line_nos, is_cmp))


def _read_compiled(text: str, reader) -> FiniteCategory:
    """The category that `text` describes, read by the compiled reader: C
    finds the header lines, which alone are decoded, and fills the table.
    Raises ValueError, CategoryError included, when it makes none."""
    data = text.encode()
    header = ((ln, data[start:end].decode()) for start, end, ln in reader.scan_lines(data))
    # nothing is filled for a header at fault: the pure reader names the line
    return _category(header, lambda n_mor, mors, fault: None if fault else reader.fill_table(data, n_mor))


def _read(text: str, lines: list[str] | None = None, line_nos: Sequence[int] | None = None) -> FiniteCategory:
    """The category that `text` describes.  The compiled reader, where the
    library is built, reads it first; when it declines or refuses the text,
    the pure reader reads `lines` (text.splitlines() unless given, line_nos
    their file lines), and decides, naming the line at fault."""
    if kernel.READER is not None:
        try:
            return _read_compiled(text, kernel.READER)
        except ValueError:  # CategoryError included
            pass
    if lines is None:
        lines = text.splitlines()
        line_nos = range(1, len(lines) + 1)
    return _read_category(lines, line_nos)


def load_category(stream: TextIO) -> FiniteCategory:
    return _read(stream.read())


def loads_category(text: str) -> FiniteCategory:
    return load_category(_io.StringIO(text))


def load_category_file(path: str) -> FiniteCategory:
    with open(path, encoding="utf-8") as fh:
        return load_category(fh)


def dump_category(cat: FiniteCategory, stream: TextIO) -> None:
    stream.write(f"objects: {cat.n_objects}\n")
    for o in range(cat.n_objects):
        stream.write(f"obj {o} {cat.object_labels[o]}\n")
    for m in range(cat.n_morphisms):
        stream.write(f"mor {m} {cat.mor_dom[m]} {cat.mor_cod[m]} {cat.mor_labels[m]}\n")
    # the cmp block in one write, built a row at a time: row g's lines are
    # the pieces "cmp g", " f " and "gf\n" for each f composable with g,
    # each piece built once per id, laid out by slice and joined once; a row
    # with an undefined composite writes its defined entries one by one
    ids = list(map(str, range(cat.n_morphisms)))
    tails = [i + "\n" for i in ids]
    mids = [[f" {ids[f]} " for f in fs] for fs in cat._into]
    rows = []
    for g, _, cells in cat._composable_cells():
        head, row_mids = "cmp " + ids[g], mids[cat.mor_dom[g]]
        if -1 in cells:
            rows.extend(head + mid + tails[gf] for mid, gf in zip(row_mids, cells) if gf >= 0)
        else:
            pieces = [head] * (3 * len(cells))
            pieces[1::3] = row_mids
            pieces[2::3] = map(tails.__getitem__, cells)
            rows.append("".join(pieces))
    stream.write("".join(rows))


def dumps_category(cat: FiniteCategory) -> str:
    buf = _io.StringIO()
    dump_category(cat, buf)
    return buf.getvalue()


def dump_category_file(cat: FiniteCategory, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        dump_category(cat, fh)


def load_functor(stream: TextIO):
    from .expansions import ExpansionFunctor

    # each block keeps its lines and their line numbers, for _read
    blocks: dict[str, tuple[list[str], list[int]]] = {"upstairs:": ([], []), "downstairs:": ([], [])}
    umaps: list[tuple[int, str]] = []
    block = None
    for ln, raw in enumerate(stream.read().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line in blocks:
            block = blocks[line]
        elif line.startswith(("umap ", "umap\t")):
            umaps.append((ln, line))
        elif block is None:
            raise ParseError(ln, "content before upstairs:/downstairs: header")
        else:
            block[0].append(raw)
            block[1].append(ln)
    if not blocks["upstairs:"][0] or not blocks["downstairs:"][0]:
        raise CategoryError("functor file needs both category blocks")
    # a block's lines hold no line break, so the compiled reader takes them
    # joined by \n; the pure reader still names the file's line at fault
    upstairs, downstairs = (_read("\n".join(lines), lines, line_nos) for lines, line_nos in blocks.values())
    maps: dict[str, dict[int, int]] = {"obj": {}, "mor": {}}
    sizes = {
        "obj": (upstairs.n_objects, downstairs.n_objects),
        "mor": (upstairs.n_morphisms, downstairs.n_morphisms),
    }
    for ln, line in umaps:
        parts = line.split()
        if len(parts) != 4 or parts[1] not in ("obj", "mor"):
            raise ParseError(ln, "expected `umap obj|mor <up> <down>`")
        try:
            kind, up, down = parts[1], int(parts[2]), int(parts[3])
        except ValueError as exc:
            raise ParseError(ln, f"expected an integer field: {exc}") from None
        n_up, n_down = sizes[kind]
        if not (0 <= up < n_up):
            raise ParseError(ln, f"unknown upstairs {kind} {up}")
        if not (0 <= down < n_down):
            raise ParseError(ln, f"unknown downstairs {kind} {down}")
        if up in maps[kind]:
            raise ParseError(ln, f"duplicate umap entry for {kind} {up}")
        maps[kind][up] = down
    # ExpansionFunctor refuses a map that misses an upstairs id
    return ExpansionFunctor(upstairs=upstairs, downstairs=downstairs, object_map=maps["obj"], morphism_map=maps["mor"])


def load_functor_file(path: str):
    with open(path, encoding="utf-8") as fh:
        return load_functor(fh)


def dump_functor(functor, stream: TextIO) -> None:
    stream.write("upstairs:\n")
    dump_category(functor.upstairs, stream)
    stream.write("downstairs:\n")
    dump_category(functor.downstairs, stream)
    for up in sorted(functor.object_map):
        stream.write(f"umap obj {up} {functor.object_map[up]}\n")
    for up in sorted(functor.morphism_map):
        stream.write(f"umap mor {up} {functor.morphism_map[up]}\n")


def dumps_functor(functor) -> str:
    buf = _io.StringIO()
    dump_functor(functor, buf)
    return buf.getvalue()


def dump_functor_file(functor, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        dump_functor(functor, fh)

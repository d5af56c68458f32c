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
grammar.  The compiled one, in the C kernel's library, makes one pass over
the text's UTF-8 bytes to find the few header lines (`objects:`, `obj`,
`mor`, comments, blank lines), which alone are decoded and read here, and a
second to check each cmp line and fill its cell of the composition table;
no string is made per cmp line.  It declines a text with a line break other
than `\n` that str.splitlines splits at (`\r`, `\v`, `\f`, `\x1c` to `\x1e`,
U+0085, U+2028, U+2029), and it accepts no file that the grammar refuses.

The pure reader reads every file that the compiled one declines or refuses,
and every file where the compiled library is not built.  It splits the
lines once, reads the header lines one by one, and checks and converts the
cmp lines together, a block of lines at a time at C speed.  A file opened by
path has its line ends turned into `\n` as it is read, so a CRLF file takes
the compiled path; CRLF text handed to loads_category takes the pure one.

A malformed file is refused with a ParseError that names the first bad line
in file order: a line that is no directive, a cmp line outside its grammar,
an object id out of range, a gap in the morphism ids, a morphism past
MAX_MORPHISMS, a dangling or repeated reference, or a cmp line on a pair
that is not composable.  The pure reader decides every refusal, and only a
file that it refuses is scanned line by line to find that line.  A fault
that no single line carries, such as a missing header, an object without an
identity, or a umap that leaves out an upstairs id (ExpansionFunctor
refuses that), is a CategoryError.
"""

from __future__ import annotations

import io as _io
import re
from array import array
from collections.abc import Callable, Iterable, Sequence
from functools import partial
from itertools import chain, compress, repeat
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
# cmp lines are read in blocks of this many, which keeps the fields of one
# block, and not of the whole file, in memory at a time
_BLOCK_LINES = 1024


def _records(numbered: Iterable[tuple[int, str]]):
    """Split and convert each (line number, line) once, in file order, into
    the objects count and the obj, mor and cmp records, each with its line.
    Raise a ParseError on the first line that no category file may hold: no
    directive, too few fields, a field that is not an integer, a repeated id
    or header, or a cmp line outside its grammar."""
    n_objects = None
    labels: dict[int, tuple[int, str]] = {}  # id -> (line, label)
    mors: dict[int, tuple[int, int, int, str]] = {}  # id -> (line, dom, cod, label)
    cmps: list[tuple[int, int, int, int]] = []  # (line, g, f, gf)
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
            else:
                if len(parts) > 4:
                    raise ParseError(ln, f"cmp takes 3 fields, got {len(parts) - 1}")
                record = (ln, int(parts[1]), int(parts[2]), int(parts[3]))
                # int() and split() also take `+1`, `1_0`, non-ASCII digits and blanks
                if not _CMP_LINE.fullmatch(line):
                    raise ParseError(ln, "cmp fields must be ASCII decimal integers separated by spaces or tabs")
                cmps.append(record)
    except ValueError as exc:
        if isinstance(exc, CategoryError):
            raise
        # int() of a field that is not an integer, on line ln
        raise ParseError(ln, f"expected an integer field: {exc}") from None
    return n_objects, labels, mors, cmps


def _fill_table(cmp_lines: list[str], n_mor: int) -> array:
    """The composition table that the cmp lines fill, one cell a line.  The
    lines are checked and converted together, a block of them at a time, at
    C speed.  Each line starts with `cmp` once blanks are stripped; when a
    block holds only the characters of the grammar, and four fields a line
    with `cmp` every fourth, each line is `cmp` and three fields of digits
    and minus signs, which int() takes exactly when the grammar does.  A line
    outside the grammar raises ValueError; an id outside range(n_mor), or a
    second line on one (g, f), raises CategoryError."""
    table = array("i", [-1]) * (n_mor * n_mor)
    ids: dict[str, int] = {}  # each distinct field, converted once
    for start in range(0, len(cmp_lines), _BLOCK_LINES):
        lines = cmp_lines[start : start + _BLOCK_LINES]
        block = "\n".join(lines)
        fields = block.split()
        if not _CMP_CHARS.fullmatch(block) or len(fields) != 4 * len(lines) or fields[::4].count("cmp") != len(lines):
            raise ValueError("a cmp line outside its grammar")
        columns = fields[1::4], fields[2::4], fields[3::4]
        for field in set(chain(*columns)).difference(ids):
            ids[field] = int(field)
            if not 0 <= ids[field] < n_mor:
                raise CategoryError(f"dangling morphism reference {field}")
        for g, f, gf in zip(*(map(ids.__getitem__, column) for column in columns)):
            table[g * n_mor + f] = gf
    if table.count(-1) != len(table) - len(cmp_lines):
        raise CategoryError("duplicate composition entry")
    return table


def _category(header: Iterable[tuple[int, str]], fill: Callable[[int], array]) -> FiniteCategory:
    """The category of the header lines, (line number, line) pairs in file
    order, and of the composition table that fill(n_mor) makes from the cmp
    lines.  Raises ValueError, CategoryError included, when they make none."""
    n_objects, labels, mors, _ = _records(header)
    if n_objects is None:
        # no line is at fault: the header is what is missing
        raise CategoryError("missing objects header")
    n_mor = len(mors)
    if any(not 0 <= oid < n_objects for oid in labels) or set(mors) != set(range(n_mor)) or n_mor > MAX_MORPHISMS:
        raise CategoryError("malformed ids")
    table = fill(n_mor)
    object_labels = [labels[i][1] if i in labels else str(i) for i in range(n_objects)]
    return FiniteCategory(object_labels, [mors[i][1:] for i in range(n_mor)], table)


def _read_category(lines: list[str], line_nos: Sequence[int]) -> FiniteCategory:
    """The category that `lines` describe, read by the pure reader;
    line_nos[i] is the file line of lines[i].  The header lines are read one
    by one and the cmp lines together, by _fill_table.  Only when the file
    is refused are all its lines read again, one by one, to name the first
    bad line."""
    is_cmp = list(map(str.startswith, map(str.lstrip, lines), repeat("cmp")))
    try:
        header = compress(zip(line_nos, lines), map(not_, is_cmp))
        return _category(header, lambda n_mor: _fill_table(list(compress(lines, is_cmp)), n_mor))
    except ValueError as exc:  # CategoryError included
        # the scan names the line at fault, if one is
        raise (_first_bad_line(lines, line_nos) or exc) from None


def _read_compiled(text: str, reader) -> FiniteCategory:
    """The category that `text` describes, read by the compiled reader: C
    finds the header lines, which alone are decoded, and fills the table
    from the cmp lines.  Raises ValueError, CategoryError included, when the
    reader declines the text or the text makes no category."""
    data = text.encode()
    header = ((ln, data[start:end].decode()) for start, end, ln in reader.scan_lines(data))
    return _category(header, partial(reader.fill_table, data))


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


def _first_bad_line(lines: list[str], line_nos: Sequence[int]) -> ParseError | None:
    """The fault on the first line, in file order, that makes the lines no
    category; None if no single line is at fault.  A line that no category
    file may hold is named before a bad reference on an earlier line."""
    try:
        n_objects, labels, mors, cmps = _records(zip(line_nos, lines))
    except ParseError as exc:
        return exc
    if n_objects is None:
        return None
    n_mor = len(mors)
    faults = [(ln, f"object id {oid} out of range") for oid, (ln, _) in labels.items() if not 0 <= oid < n_objects]
    for mid, (ln, dom, cod, _) in mors.items():
        if not 0 <= mid < n_mor:
            faults.append((ln, f"morphism id {mid} leaves a gap: ids must be 0..{n_mor - 1}"))
        elif mid >= MAX_MORPHISMS:
            faults.append((ln, f"morphism {mid} would exceed the cap of {MAX_MORPHISMS} morphisms"))
        elif not (0 <= dom < n_objects and 0 <= cod < n_objects):
            faults.append((ln, "dangling object reference"))
    filled = set()
    for ln, g, f, gf in cmps:
        dangling = next((x for x in (g, f, gf) if not 0 <= x < n_mor), None)
        if dangling is not None:
            faults.append((ln, f"dangling morphism reference {dangling}"))
        elif (g, f) in filled:
            faults.append((ln, f"duplicate composition entry ({g},{f})"))
        elif g in mors and f in mors and mors[f][2] != mors[g][1]:
            faults.append((ln, f"{g}*{f} is defined, but {g} and {f} are not composable"))
        filled.add((g, f))
    return ParseError(*min(faults)) if faults else None


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
    # the cmp block in one write, each morphism id formatted once
    ids = list(map(str, range(cat.n_morphisms)))
    stream.write("".join([f"cmp {ids[g]} {ids[f]} {ids[gf]}\n" for g, f, gf in cat.compose_entries()]))


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

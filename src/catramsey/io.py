"""Line-oriented text formats for categories and expansion functors.

Category format:

    objects: n
    obj <id> <label>
    mor <id> <dom> <cod> <label>
    cmp <g> <f> <gf>

Identities are not stored; they are inferred on load.  A functor file holds
two category blocks introduced by `upstairs:` and `downstairs:` headers,
followed by `umap obj <up> <down>` and `umap mor <up> <down>` lines.

A malformed file is refused with a ParseError that names the first bad line
in file order: an object id out of range, a gap in the morphism ids, a
morphism past MAX_MORPHISMS, a dangling or repeated reference, or a cmp line
on a pair that is not composable.  A fault that no single line carries, such
as a missing header, an object without an identity, or a umap that leaves
out an upstairs id (ExpansionFunctor refuses that), is a CategoryError.
"""

from __future__ import annotations

import io as _io
from array import array
from typing import TextIO

from .core import MAX_MORPHISMS, CategoryError, FiniteCategory


class ParseError(CategoryError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


# the fields each directive needs, its own name included; labels are optional
_FIELDS = {"objects:": 2, "obj": 2, "mor": 4, "cmp": 4}


def _content_lines(stream: TextIO) -> list[tuple[int, str]]:
    """(line number, stripped text) of each line that is not blank or a comment."""
    return [
        (i, s) for i, raw in enumerate(stream.read().splitlines(), 1) if (s := raw.strip()) and not s.startswith("#")
    ]


def _parse_category_lines(lines: list[tuple[int, str]]) -> FiniteCategory:
    """One pass that splits and converts each line once, keeping the line of
    each record; the cmp lines then fill the composition table, one cell
    each.  References to objects and morphisms are checked by FiniteCategory;
    only when the ids or the category are refused are the records read
    again, to name the first bad line."""
    n_objects = None
    labels: dict[int, tuple[int, str]] = {}  # id -> (line, label)
    mors: dict[int, tuple[int, int, int, str]] = {}  # id -> (line, dom, cod, label)
    cmps: list[tuple[int, int, int, int]] = []  # (line, g, f, gf)

    ln = 0
    try:
        for ln, line in lines:
            parts = line.split()
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
            elif parts[0] == "cmp":
                cmps.append((ln, int(parts[1]), int(parts[2]), int(parts[3])))
    except ValueError as exc:
        if isinstance(exc, CategoryError):
            raise
        # int() of a field that is not an integer, on line ln
        raise ParseError(ln, f"expected an integer field: {exc}") from None

    if n_objects is None:
        # no line is at fault: the header is what is missing
        raise CategoryError("missing objects header")
    n_mor = len(mors)
    try:
        if any(not 0 <= oid < n_objects for oid in labels) or set(mors) != set(range(n_mor)) or n_mor > MAX_MORPHISMS:
            raise CategoryError("malformed ids")  # the scan below names the line
        table = array("i", [-1]) * (n_mor * n_mor)
        for ln, g, f, gf in cmps:
            if not (0 <= g < n_mor and 0 <= f < n_mor and 0 <= gf < n_mor) or table[g * n_mor + f] >= 0:
                raise CategoryError("malformed cmp line")  # the scan below names the line
            table[g * n_mor + f] = gf
        object_labels = [labels[i][1] if i in labels else str(i) for i in range(n_objects)]
        return FiniteCategory(object_labels, [mors[i][1:] for i in range(n_mor)], table)
    except CategoryError as exc:
        raise (_first_bad_line(n_objects, labels, mors, cmps) or exc) from None


def _first_bad_line(n_objects: int, labels: dict, mors: dict, cmps: list) -> ParseError | None:
    """The fault on the first line, in file order, that makes the parsed
    records no category; None if no single line is at fault."""
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
    return _parse_category_lines(_content_lines(stream))


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
    for g, f, gf in cat.compose_entries():
        stream.write(f"cmp {g} {f} {gf}\n")


def dumps_category(cat: FiniteCategory) -> str:
    buf = _io.StringIO()
    dump_category(cat, buf)
    return buf.getvalue()


def dump_category_file(cat: FiniteCategory, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        dump_category(cat, fh)


def load_functor(stream: TextIO):
    from .expansions import ExpansionFunctor

    sections: dict[str, list[tuple[int, str]]] = {"upstairs": [], "downstairs": [], "umap": []}
    current: str | None = None
    for ln, line in _content_lines(stream):
        if line == "upstairs:":
            current = "upstairs"
        elif line == "downstairs:":
            current = "downstairs"
        elif line.startswith("umap "):
            sections["umap"].append((ln, line))
        elif current is None:
            raise ParseError(ln, "content before upstairs:/downstairs: header")
        else:
            sections[current].append((ln, line))
    if not sections["upstairs"] or not sections["downstairs"]:
        raise CategoryError("functor file needs both category blocks")
    upstairs = _parse_category_lines(sections["upstairs"])
    downstairs = _parse_category_lines(sections["downstairs"])
    maps: dict[str, dict[int, int]] = {"obj": {}, "mor": {}}
    sizes = {
        "obj": (upstairs.n_objects, downstairs.n_objects),
        "mor": (upstairs.n_morphisms, downstairs.n_morphisms),
    }
    for ln, line in sections["umap"]:
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

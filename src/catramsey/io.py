"""Line-oriented text formats for categories and expansion functors.

Category format:

    objects: n
    obj <id> <label>
    mor <id> <dom> <cod> <label>
    cmp <g> <f> <gf>

Identities are not stored; they are inferred on load.  A functor file holds
two category blocks introduced by `upstairs:` and `downstairs:` headers,
followed by `umap obj <up> <down>` and `umap mor <up> <down>` lines.
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
    """One pass that splits and converts each line once; the cmp lines then
    fill the composition table, one cell each.  References to objects and
    morphisms are checked by FiniteCategory; only when it refuses the
    category are the lines read again, to name the first bad one."""
    n_objects = None
    labels: dict[int, str] = {}
    mors: dict[int, tuple[int, int, str]] = {}
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
                labels[oid] = parts[2] if len(parts) > 2 else str(oid)
            elif parts[0] == "mor":
                mid = int(parts[1])
                if mid in mors:
                    raise ParseError(ln, f"duplicate morphism id {mid}")
                mors[mid] = (int(parts[2]), int(parts[3]), parts[4] if len(parts) > 4 else str(mid))
            elif parts[0] == "cmp":
                cmps.append((ln, int(parts[1]), int(parts[2]), int(parts[3])))
    except ValueError as exc:
        if isinstance(exc, CategoryError):
            raise
        # int() of a field that is not an integer, on line ln
        raise ParseError(ln, f"expected an integer field: {exc}") from None

    if n_objects is None:
        raise ParseError(lines[0][0] if lines else 0, "missing objects header")
    for oid in labels:
        if not (0 <= oid < n_objects):
            raise ParseError(0, f"object id {oid} out of range")
    object_labels = [labels.get(i, str(i)) for i in range(n_objects)]
    n_mor = len(mors)
    if set(mors) != set(range(n_mor)):
        raise ParseError(0, "morphism ids must be 0..m-1 without gaps")
    if n_mor > MAX_MORPHISMS:
        raise ParseError(0, f"{n_mor} morphisms exceed the cap of {MAX_MORPHISMS}")
    table = array("i", [-1]) * (n_mor * n_mor)
    try:
        for ln, g, f, gf in cmps:
            if not (0 <= g < n_mor and 0 <= f < n_mor and 0 <= gf < n_mor):
                raise CategoryError("dangling morphism reference")  # the re-scan names the line
            if table[g * n_mor + f] >= 0:
                raise ParseError(ln, f"duplicate composition entry ({g},{f})")
            table[g * n_mor + f] = gf
        return FiniteCategory(object_labels, [mors[i] for i in range(n_mor)], table)
    except ParseError:
        raise
    except CategoryError:
        # every field was read as an integer above, so int() cannot fail here
        for ln, line in lines:
            parts = line.split()
            if parts[0] == "mor" and not (0 <= int(parts[2]) < n_objects and 0 <= int(parts[3]) < n_objects):
                raise ParseError(ln, "dangling object reference") from None
            if parts[0] == "cmp":
                for tok in parts[1:4]:
                    if not (0 <= int(tok) < n_mor):
                        raise ParseError(ln, f"dangling morphism reference {tok}") from None
        raise


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
        raise ParseError(0, "functor file needs both category blocks")
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
    for kind, target in maps.items():
        if len(target) != sizes[kind][0]:
            missing = min(set(range(sizes[kind][0])) - set(target))
            raise ParseError(0, f"no umap entry for upstairs {kind} {missing}")
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

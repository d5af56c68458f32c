"""Explicit finite categories.

A category is stored as flat tables: object labels, morphism (dom, cod, label)
records, a hom index and one composition table.  The composition table is a
row-major ``array("i")`` of m*m cells where cell ``g * m + f`` holds g*f, or -1
where the composite is undefined.  Everything downstream (arrow search, degree
computation, expansion checks) reads these tables; after construction a
category is treated as immutable and is safe to share between worker threads.
What it gains later is data derived from the tables and kept for its
readers: its automorphism groups, its opposite, and the arrow layer's
decision contexts, one per (route, A, C, mode), which arrows.py builds on
demand and publishes with dict.setdefault.  Threads that build one at once
build equal ones, and all of it dies with the category.

The table is filled and read in whole rows and columns where it can be.  A
concrete category numbers each hom-set with consecutive ids, so
concrete_category takes each (a, b, c) block, g*f for every g in hom(b, c)
and f in hom(a, b), from one compose call in row-major order, and looks its
ids up in one C call, lookup in the compiled kernel, which writes them
straight into the table; without the library, or for values that are not
ints in [0, 2**64), each id is a dict lookup, and each row, g*f for one g
and every f, goes in with one slice assignment.  opposite() transposes the
table with one strided slice per column, since the opposite's row f is
column f here.  The
finished table is the constructor's only composition input: a file fills one
cell per line, products, expansions and the generated families go through
concrete_category.  The
constructor checks it in one C pass over its cells (check_table in the
compiled kernel), or, without the compiled library, at C speed in Python: it
refuses an unknown id on a composable pair and any entry on a non-composable
pair, so every entry of a category's table lies on a composable pair.
A hom-set whose ids are consecutive is held, and returned by hom(), as a
range, so post(g, fs) and pre(gs, f) read g*f for such a set with one slice
of a row or one strided slice of a column; any other sequence is read cell by
cell.  Both raise, as compose does, on an undefined composite.
"""

from __future__ import annotations

import itertools
from array import array
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Hashable, Iterable, Iterator, Sequence

from . import kernel

# The composition table takes 4*m*m bytes, 256 MB at this many morphisms;
# larger categories are refused before their table is allocated.
MAX_MORPHISMS = 8192
# concrete_category composes a block at most this many rows at a time
_SLAB_ROWS = 64


class CategoryError(ValueError):
    """Malformed category data or an unknown object/morphism id."""


class FiniteCategory:
    def __init__(
        self,
        object_labels: Sequence[str],
        morphisms: Sequence[tuple[int, int, str]],
        table: array,
        identities: Sequence[int] | None = None,
    ):
        """`table` is the finished composition table: an array("i") of m*m
        cells in which cell g*m + f holds g*f, or -1 where it is undefined.
        The category takes it over without copying, and refuses a table of
        another type or size, one naming an unknown morphism, or one with an
        entry on a pair that is not composable."""
        self.object_labels: tuple[str, ...] = tuple(str(s) for s in object_labels)
        self.n_objects = len(self.object_labels)
        self.mor_dom: tuple[int, ...] = tuple(m[0] for m in morphisms)
        self.mor_cod: tuple[int, ...] = tuple(m[1] for m in morphisms)
        self.mor_labels: tuple[str, ...] = tuple(str(m[2]) for m in morphisms)
        self.n_morphisms = len(self.mor_dom)
        if self.n_morphisms > MAX_MORPHISMS:
            raise CategoryError(f"{self.n_morphisms} morphisms exceed the cap of {MAX_MORPHISMS}")
        for i in range(self.n_morphisms):
            if not (0 <= self.mor_dom[i] < self.n_objects and 0 <= self.mor_cod[i] < self.n_objects):
                raise CategoryError(f"morphism {i} has dangling dom/cod")

        # hom index: hom(a, b), and per object the morphisms into and out of
        # it, each in id order
        hom: dict[tuple[int, int], list[int]] = {}
        into: list[list[int]] = [[] for _ in range(self.n_objects)]
        out: list[list[int]] = [[] for _ in range(self.n_objects)]
        for i, (d, c) in enumerate(zip(self.mor_dom, self.mor_cod)):
            hom.setdefault((d, c), []).append(i)
            into[c].append(i)
            out[d].append(i)
        self._hom: dict[tuple[int, int], Sequence[int]] = {k: _as_range(v) for k, v in hom.items()}
        self._into: tuple[tuple[int, ...], ...] = tuple(map(tuple, into))
        self._out: tuple[tuple[int, ...], ...] = tuple(map(tuple, out))

        m = self.n_morphisms
        if not isinstance(table, array) or table.typecode != "i" or len(table) != m * m:
            raise CategoryError(f"a composition table needs {m * m} cells of type 'i'")
        self._table = table
        self._check_table()

        if identities is not None:
            self.identities: tuple[int, ...] = tuple(identities)
            if len(self.identities) != self.n_objects:
                raise CategoryError("one identity morphism required per object")
        else:
            self.identities = self._infer_identities()

        self._aut_cache: dict[int, tuple[int, ...]] = {}
        self._all_mono: bool | None = None
        self._opposite: FiniteCategory | None = None
        # arrows.py's decision contexts, keyed by (route, A, C, mode)
        self._contexts: dict[tuple, object] = {}

    # -- basic structure ---------------------------------------------------

    def _check_table(self) -> None:
        """Refuse a finished table unless every cell on a composable pair is
        -1 or a morphism id and every other cell is -1.  The cell named is
        the first unknown id on a composable pair in row-major order, or,
        when there is none, the first entry off the composable pairs.  The
        compiled kernel's check_table finds it in one pass, and
        _table_fault, its reference, where the library is not built."""
        reader = kernel.READER
        if reader is None:
            fault = self._table_fault()
        else:
            fault = reader.check_table(self._table, self.mor_dom, self.mor_cod)
        if fault is not None:
            unknown, g, f = fault
            gf = self._table[g * self.n_morphisms + f]
            if unknown:
                raise CategoryError(f"cell {g}*{f} holds {gf}, an unknown morphism")
            raise CategoryError(f"cell {g}*{f} holds {gf}, but {g} and {f} are not composable")

    def _table_fault(self) -> tuple[bool, int, int] | None:
        """The fault _check_table reports, as (unknown, g, f), or None.  Each
        row's composable cells are read at once and judged with min, max and
        count, at C speed; one count of the whole table then finds an entry
        off them, and only a row at fault is read entry by entry, to name the
        cell."""
        table, m = self._table, self.n_morphisms
        defined = [0] * m  # per row, the composable cells that hold an entry
        for g, fs, cells in self._composable_cells():
            if cells and (min(cells) < -1 or max(cells) >= m):
                return True, g, next(f for f, gf in zip(fs, cells) if not -1 <= gf < m)
            defined[g] = len(cells) - cells.count(-1)
        if m * m - table.count(-1) != sum(defined):
            g = next(g for g in range(m) if m - table[g * m : g * m + m].count(-1) != defined[g])
            return False, g, next(f for f in range(m) if table[g * m + f] != -1 and not self.composable(g, f))
        return None

    def _composable_cells(self) -> Iterator[tuple[int, tuple[int, ...], tuple[int, ...]]]:
        """(g, fs, cells) for each morphism g in id order: fs the morphisms
        into dom g, which compose with g, in id order, and cells their g*f,
        read from g's row with one itemgetter per object."""
        table, m = self._table, self.n_morphisms
        reads = [_reader(fs) for fs in self._into]
        for g, d in enumerate(self.mor_dom):
            yield g, self._into[d], reads[d](table[g * m : g * m + m])

    def check_object(self, a: int) -> None:
        # bool is an int subclass, but True is no object id
        if type(a) is not int or not 0 <= a < self.n_objects:
            raise CategoryError(f"unknown object id {a!r}")

    def compose(self, g: int, f: int) -> int:
        """Composite g*f (first f, then g); raises if not composable."""
        gf = self._table[g * self.n_morphisms + f]
        if gf < 0:
            raise CategoryError(f"morphisms {g} and {f} are not composable")
        return gf

    def post(self, g: int, fs: Sequence[int]) -> list[int]:
        """The composites g*f for f in fs, read from g's row of the table:
        one slice when fs is a step-1 range within it, such as a hom-set
        with consecutive ids, else cell by cell.  Raises like compose if one
        is undefined."""
        table, row = self._table, g * self.n_morphisms
        if type(fs) is range and fs.step == 1 and 0 <= fs.start <= fs.stop <= self.n_morphisms:
            gfs = table[row + fs.start : row + fs.stop].tolist()
        else:
            # a slice of the whole row would copy m cells to read the few
            # that fs names
            gfs = [table[row + f] for f in fs]
        if -1 in gfs:
            raise CategoryError(f"morphisms {g} and {fs[gfs.index(-1)]} are not composable")
        return gfs

    def _column(self, gs: Sequence[int], f: int) -> list[int]:
        """The cells g*f for g in gs, -1 where undefined: one slice of f's
        column strided by m when gs is a step-1 range within it, such as a
        hom-set with consecutive ids, else cell by cell."""
        table, m = self._table, self.n_morphisms
        if type(gs) is range and gs.step == 1 and 0 <= gs.start <= gs.stop <= m:
            return table[gs.start * m + f : gs.stop * m : m].tolist()
        # a slice of the whole column would copy m cells to read the few that
        # gs names
        return [table[g * m + f] for g in gs]

    def pre(self, gs: Sequence[int], f: int) -> list[int]:
        """The composites g*f for g in gs, read from f's column of the
        table.  Raises like compose if one is undefined."""
        gfs = self._column(gs, f)
        if -1 in gfs:
            raise CategoryError(f"morphisms {gs[gfs.index(-1)]} and {f} are not composable")
        return gfs

    def composable(self, g: int, f: int) -> bool:
        return self.mor_cod[f] == self.mor_dom[g]

    def compose_entries(self) -> Iterable[tuple[int, int, int]]:
        """All defined (g, f, g*f) entries, in (g, f) order."""
        for g, fs, cells in self._composable_cells():
            for f, gf in zip(fs, cells):
                if gf >= 0:
                    yield g, f, gf

    def hom(self, a: int, b: int) -> Sequence[int]:
        """All morphisms a -> b in increasing id order: a range when their
        ids are consecutive, else a tuple."""
        self.check_object(a)
        self.check_object(b)
        return self._hom.get((a, b), ())

    def identity(self, a: int) -> int:
        self.check_object(a)
        return self.identities[a]

    def _infer_identities(self) -> tuple[int, ...]:
        ids = []
        for x in range(self.n_objects):
            found = -1
            for e in self._hom.get((x, x), ()):
                if self._acts_as_identity(e):
                    found = e
                    break
            if found < 0:
                raise CategoryError(f"no identity morphism found for object {x}")
            ids.append(found)
        return tuple(ids)

    def _acts_as_identity(self, e: int) -> bool:
        x = self.mor_dom[e]
        return all(self.compose(e, f) == f for f in self._into[x]) and all(
            self.compose(f, e) == f for f in self._out[x]
        )

    # -- derived structure -------------------------------------------------

    def iso(self, a: int, b: int) -> tuple[int, ...]:
        """Invertible morphisms a -> b: each f with a g in hom(b, a) such that
        g*f = id_a and f*g = id_b.  f's column over hom(b, a) is read at
        once, and f*g only where g*f = id_a.  In a category that is one g at
        most, since a two-sided inverse of f is its only left inverse.  A
        table nobody validated, such as a loaded file, may hold more left
        inverses, each tried, or leave composites undefined, which match no
        identity and never raise here."""
        table, m = self._table, self.n_morphisms
        id_a, id_b = self.identity(a), self.identity(b)
        back = self.hom(b, a)
        out = []
        for f in self.hom(a, b):
            lefts = self._column(back, f)
            if id_a in lefts and any(x == id_a and table[f * m + g] == id_b for g, x in zip(back, lefts)):
                out.append(f)
        return tuple(out)

    def automorphisms(self, a: int) -> tuple[int, ...]:
        self.check_object(a)
        cached = self._aut_cache.get(a)
        if cached is None:
            cached = self.iso(a, a)
            self._aut_cache[a] = cached
        return cached

    def is_mono(self, f: int) -> bool:
        """f is mono iff u -> f*u is injective on hom(x, dom f) for every x."""
        d = self.mor_dom[f]
        for x in range(self.n_objects):
            arrows = self.hom(x, d)
            if len(set(self.post(f, arrows))) != len(arrows):
                return False
        return True

    @property
    def all_mono(self) -> bool:
        if self._all_mono is None:
            self._all_mono = all(self.is_mono(f) for f in range(self.n_morphisms))
        return self._all_mono

    def subobject_classes(self, a: int, b: int) -> tuple["SubobjectClass", ...]:
        """Partition of hom(a, b) into orbits under precomposition with Aut(a).

        Requires an all-mono category; class sizes then all equal |Aut(a)|.
        """
        if not self.all_mono:
            raise CategoryError("subobject classes require an all-mono category")
        auts = self.automorphisms(a)
        seen: set[int] = set()
        classes = []
        for f in self.hom(a, b):
            if f in seen:
                continue
            members = frozenset(self.post(f, auts))
            seen.update(members)
            classes.append(SubobjectClass(representative=f, members=members))
        return tuple(classes)

    # -- constructions -----------------------------------------------------

    def opposite(self) -> "FiniteCategory":
        """Same objects and morphism ids with dom/cod swapped and composition
        reversed.

        Built on the first call and returned after that.  The opposite holds
        no reference back to this category (a cycle would keep both alive), so
        its own opposite() builds a fresh copy.
        """
        if self._opposite is None:
            morphisms = [
                (self.mor_cod[i], self.mor_dom[i], self.mor_labels[i]) for i in range(self.n_morphisms)
            ]
            # the opposite's row f is this table's column f
            m, table = self.n_morphisms, array("i")
            for f in range(m):
                table.extend(self._table[f::m])
            self._opposite = FiniteCategory(self.object_labels, morphisms, table, self.identities)
        return self._opposite

    def __repr__(self) -> str:
        return f"FiniteCategory({self.n_objects} objects, {self.n_morphisms} morphisms)"


@dataclass(frozen=True)
class SubobjectClass:
    representative: int
    members: frozenset[int]


@dataclass
class ValidationReport:
    associativity_violations: list[tuple[int, int, int]] = field(default_factory=list)
    identity_violations: list[int] = field(default_factory=list)
    closure_violations: list[tuple[int, int]] = field(default_factory=list)
    missing_compositions: list[tuple[int, int]] = field(default_factory=list)
    non_mono: list[int] = field(default_factory=list)

    @property
    def all_mono(self) -> bool:
        return not self.non_mono

    @property
    def ok(self) -> bool:
        return not (
            self.associativity_violations
            or self.identity_violations
            or self.closure_violations
            or self.missing_compositions
        )

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "all_mono": self.all_mono,
            "associativity_violations": [list(v) for v in self.associativity_violations],
            "identity_violations": list(self.identity_violations),
            "closure_violations": [list(v) for v in self.closure_violations],
            "missing_compositions": [list(v) for v in self.missing_compositions],
            "non_mono": list(self.non_mono),
        }


def validate(cat: FiniteCategory) -> ValidationReport:
    """Check the category axioms exhaustively.

    Violations are collected in the report rather than raised: associativity
    on every composable triple, both identity laws, dom/cod closure of each
    composite, totality on composable pairs, and the mono property of each
    morphism.  An entry on a non-composable pair never gets this far: the
    constructor refuses it.  The associativity check holds h*x for every
    composable pair (h, x) while it runs, as Python ints in tuples, about 50
    bytes a pair: some 60 MB for Inj_6.
    """
    report = ValidationReport()
    m = cat.n_morphisms

    for g, fs, cells in cat._composable_cells():
        for f, gf in zip(fs, cells):
            if gf < 0:
                report.missing_compositions.append((g, f))
            elif cat.mor_dom[gf] != cat.mor_dom[f] or cat.mor_cod[gf] != cat.mor_cod[g]:
                report.closure_violations.append((g, f))
    if report.closure_violations or report.missing_compositions:
        return report

    for f in range(m):
        e_cod = cat.identity(cat.mor_cod[f])
        e_dom = cat.identity(cat.mor_dom[f])
        if cat.compose(e_cod, f) != f or cat.compose(f, e_dom) != f:
            report.identity_violations.append(f)

    # associativity by columns: after[x] holds h*x for h in out(cod x), read
    # from column x, and for each f and g in out(cod f), h*(g*f) is
    # after[g*f], since cod g*f = cod g, and (h*g)*f is column f gathered at
    # after[g]: two tuples, compared at once, read entry by entry only on a
    # fault, which keeps the (f, g, h) order of the triple loop
    table, out, cod = cat._table, cat._out, cat.mor_cod
    reads = [_reader(hs) for hs in out]
    after = [reads[cod[x]](table[x::m]) for x in range(m)]
    gather = [_reader(hgs) for hgs in after]
    for f in range(m):
        column = table[f::m]
        for g in out[cod[f]]:
            left, right = after[column[g]], gather[g](column)
            if left != right:
                report.associativity_violations.extend(
                    (h, g, f) for h, x, y in zip(out[cod[g]], left, right) if x != y
                )

    for f in range(cat.n_morphisms):
        if not cat.is_mono(f):
            report.non_mono.append(f)

    return report


def concrete_category(
    object_labels: Sequence[str],
    arrows: Callable[[int, int], Iterable[tuple[Hashable, str]]],
    compose: Callable[[Sequence[Hashable], Sequence[Hashable]], Iterable[Hashable]],
    identity: Callable[[int], Hashable],
) -> tuple[FiniteCategory, list]:
    """A category of values: `arrows(a, b)` lists the (value, label) pairs of
    hom(a, b), `compose(gs, fs)` gives the values of g*f for every g in gs and
    f in fs, row-major (g*f for each f in fs, for each g in turn), and
    `identity(a)` the value of a's identity.  Morphisms are numbered hom-set
    by hom-set in (a, b) order; g*f is computed only over hom(b, c) x
    hom(a, b), an (a, b, c) block per compose call, or a slab of it for a
    hom(b, c) of more than _SLAB_ROWS morphisms: fs is always all of
    hom(a, b), and gs a run of hom(b, c), each in id order.  When the
    compiled library is built and every listed value is an int in
    [0, 2**64), as generate's images and lifted_expansion's base ids are, a
    block's ids are found by binary search in hom(a, c)'s sorted values with
    one C call, kernel.READER.lookup, which writes them into the table;
    otherwise, and for a block whose composites are not all such ints, each
    is a dict lookup, written one row slice per g.  Returns the category and
    each morphism's value.  A composite or identity that no hom-set lists, a
    block of the wrong length, or more than MAX_MORPHISMS morphisms, raise
    CategoryError."""
    n = len(object_labels)
    morphisms: list[tuple[int, int, str]] = []
    values: list = []
    # per a, each nonempty hom(a, b) as (b, its ids, its slabs): runs of at
    # most _SLAB_ROWS of its ids with their values, which compose takes as
    # the rows of a block, so that its buffers stay small beside the table
    out: list[list[tuple[int, range, list[tuple[range, list]]]]] = [[] for _ in range(n)]
    index: dict[tuple[int, int], dict] = {}  # (dom, cod) -> {value: id}
    for a in range(n):
        for b in range(n):
            start, ids = len(values), {}
            for value, label in arrows(a, b):
                if len(values) == MAX_MORPHISMS:
                    raise CategoryError(f"more morphisms than the cap of {MAX_MORPHISMS}")
                ids[value] = len(values)
                values.append(value)
                morphisms.append((a, b, label))
            if ids:
                index[(a, b)] = ids
                hom_ab = range(start, len(values))
                cuts = range(0, len(hom_ab), _SLAB_ROWS)
                slabs = [(hom_ab[i : i + _SLAB_ROWS], values[start + i : start + i + _SLAB_ROWS]) for i in cuts]
                out[a].append((b, hom_ab, slabs))

    identities = [index.get((a, a), {}).get(identity(a)) for a in range(n)]
    if None in identities:
        raise CategoryError(f"the identity of object {identities.index(None)} is not a morphism")
    m = len(values)
    table = array("i", [-1]) * (m * m)
    keys = _sorted_homs(values, out)
    for a in range(n):
        # per c, the id of each value of hom(a, c)
        id_of = [index.get((a, c), {}).get for c in range(n)]
        for b, fs, _ in out[a]:
            f_values, w = values[fs.start : fs.stop], len(fs)
            for c, _, slabs in out[b]:
                # the (a, b, c) block, a slab at a time: row g holds g*f for
                # every f in hom(a, b), which lie side by side in table row g
                for gs, g_values in slabs:
                    block, first = compose(g_values, f_values), gs.start * m + fs.start
                    if keys is not None and not isinstance(block, (list, array)):
                        block = list(block)  # the dict reads it again if no array("Q") takes it
                    packed = None if keys is None else _uint64s(block)
                    found = packed if packed is not None else list(map(id_of[c], block))
                    if len(found) != len(gs) * w:
                        raise CategoryError(f"{len(found)} composites for {len(gs)} x {w} cells of {a} -> {b} -> {c}")
                    if packed is not None:
                        missing = kernel.READER.lookup(*keys.get((a, c), _NO_KEYS), packed, table, first, w, m)
                    else:
                        missing = _place(found, table, first, w, m)
                    if missing is not None:
                        g, f = divmod(missing, w)
                        raise CategoryError(f"the composite {gs[g]}*{fs[f]} is not a morphism {a} -> {c}")
    return FiniteCategory(object_labels, morphisms, table, identities), values


# the keys and ids of an empty hom-set, for kernel.READER.lookup
_NO_KEYS = (array("Q"), array("i"))


def _sorted_homs(values: list, out: list) -> dict[tuple[int, int], tuple[array, array]] | None:
    """Per nonempty hom(a, c), the keys and ids that the compiled lookup
    searches: its values sorted as uint64 in an array("Q"), and the id of
    each in an array("i"), equal values in id order.  None when the library
    is not built, or a value is no int in [0, 2**64): the blocks then keep
    the dict."""
    if kernel.READER is None:
        return None
    try:
        array("Q", values)
    except (TypeError, OverflowError):
        return None
    keys = {}
    for a, homs in enumerate(out):
        for c, ids, _ in homs:
            order = sorted(ids, key=values.__getitem__)
            keys[a, c] = array("Q", map(values.__getitem__, order)), array("i", order)
    return keys


def _uint64s(block: Sequence) -> array | None:
    """The composites of a block as an array("Q"), without a copy when they
    are one; None when one is no int in [0, 2**64)."""
    if isinstance(block, array) and block.typecode == "Q":
        return block
    try:
        return array("Q", block)
    except (TypeError, OverflowError):
        return None


def _place(ids: list, table: array, first: int, width: int, stride: int) -> int | None:
    """Write a block's ids, `width` a row, into `table`, row r's from cell
    first + r * stride, one slice assignment a row; or, when a composite has
    no id (None), write nothing and return its index in `ids`."""
    try:
        cells = array("i", ids)
    except TypeError:  # a None: a composite that the hom-set does not list
        return ids.index(None)
    for row, i in zip(range(first, first + len(ids) // width * stride, stride), range(0, len(ids), width)):
        table[row : row + width] = cells[i : i + width]
    return None


def _as_range(ids: list[int]) -> Sequence[int]:
    """Strictly increasing ids as a range when they are consecutive, else a
    tuple; being strictly increasing, they are consecutive exactly when the
    last is len(ids) - 1 past the first."""
    if ids[-1] - ids[0] + 1 == len(ids):
        return range(ids[0], ids[-1] + 1)
    return tuple(ids)


def _reader(ids: Sequence[int]) -> Callable[[Sequence[int]], tuple[int, ...]]:
    """A read of a row's entries at ids, in order, as one tuple: itemgetter,
    save for one id or none, where it would return a bare entry or refuse."""
    return itemgetter(*ids) if len(ids) > 1 else lambda row: tuple(row[i] for i in ids)


def _hom_of(cat: FiniteCategory, f: int) -> Sequence[int]:
    """The hom-set that holds f."""
    return cat.hom(cat.mor_dom[f], cat.mor_cod[f])


def product(cat1: FiniteCategory, cat2: FiniteCategory) -> FiniteCategory:
    """Product category: object (o1, o2) has id o1 * n2 + o2, a morphism is a
    pair (f1, f2), and composition is componentwise."""
    n2 = cat2.n_objects
    objects = [f"({a1}*{a2})" for a1 in cat1.object_labels for a2 in cat2.object_labels]

    def arrows(a: int, b: int):
        (a1, a2), (b1, b2) = divmod(a, n2), divmod(b, n2)
        for f1 in cat1.hom(a1, b1):
            for f2 in cat2.hom(a2, b2):
                yield (f1, f2), f"({cat1.mor_labels[f1]}*{cat2.mor_labels[f2]})"

    def compose(gs, fs):
        # fs is all of hom(a1, b1) x hom(a2, b2), listed first component
        # first, so row (g1, g2) of the block is the product of g1's row over
        # hom(a1, b1) and g2's over hom(a2, b2), each read once
        f1, f2 = fs[0]
        hom1, hom2 = _hom_of(cat1, f1), _hom_of(cat2, f2)
        rows1 = {g: cat1.post(g, hom1) for g in dict.fromkeys(g for g, _ in gs)}
        rows2 = {g: cat2.post(g, hom2) for g in dict.fromkeys(g for _, g in gs)}
        return itertools.chain.from_iterable(itertools.product(rows1[g1], rows2[g2]) for g1, g2 in gs)

    def identity(a: int):
        a1, a2 = divmod(a, n2)
        return cat1.identities[a1], cat2.identities[a2]

    return concrete_category(objects, arrows, compose, identity)[0]

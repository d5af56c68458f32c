"""Explicit finite categories.

A category is stored as flat tables: object labels, morphism (dom, cod, label)
records, a hom index and one composition table.  The composition table is a
row-major ``array("i")`` of m*m cells where cell ``g * m + f`` holds g*f, or -1
where the composite is undefined.  Everything downstream (arrow search, degree
computation, expansion checks) reads these tables; after construction a
category is treated as immutable and is safe to share between worker threads.

The table is filled and read in whole rows where it can be.  A concrete
category numbers each hom-set with consecutive ids, so concrete_category
writes each row of an (a, b, c) block, g*f for g in hom(b, c) and every f in
hom(a, b), with one slice assignment.  opposite() transposes the table with
one strided slice per column, since the opposite's row f is column f here.
The finished table is the constructor's only composition input: a file
fills one cell per line, products and the generated families go through
concrete_category.  The constructor checks it at C speed: min, max and a -1
count over each row's composable runs, and one -1 count of the whole table,
refuse an unknown id and any entry on a non-composable pair, so every entry
of a category's table lies on a composable pair.
post(g, fs) and pre(gs, f) read g*f along a row or a column, and raise, as
compose does, on an undefined composite.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import repeat
from typing import Callable, Hashable, Iterable, Sequence

# The composition table takes 4*m*m bytes, 256 MB at this many morphisms;
# larger categories are refused before their table is allocated.
MAX_MORPHISMS = 8192


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
        self._hom: dict[tuple[int, int], tuple[int, ...]] = {k: tuple(v) for k, v in hom.items()}
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

    # -- basic structure ---------------------------------------------------

    def _check_table(self) -> None:
        """Refuse a finished table unless every cell on a composable pair is
        -1 or a morphism id and every other cell is -1.  The composable cells
        are read one run of consecutive ids at a time with min, max and count,
        at C speed; one count of the whole table then finds an entry off
        them, and only then is a row read entry by entry, to name it."""
        table, m = self._table, self.n_morphisms
        runs = [_runs(fs) for fs in self._into]
        defined = [0] * m  # per row, the composable cells that hold an entry
        for g in range(m):
            for lo, hi in runs[self.mor_dom[g]]:
                cells = table[g * m + lo : g * m + hi]
                if min(cells) < -1 or max(cells) >= m:
                    raise CategoryError(f"row {g} of the composition table names an unknown morphism")
                defined[g] += hi - lo - cells.count(-1)
        if m * m - table.count(-1) != sum(defined):
            g = next(g for g in range(m) if m - table[g * m : g * m + m].count(-1) != defined[g])
            f = next(f for f in range(m) if table[g * m + f] != -1 and not self.composable(g, f))
            raise CategoryError(f"cell {g}*{f} holds {table[g * m + f]}, but {g} and {f} are not composable")

    def check_object(self, a: int) -> None:
        if not (0 <= a < self.n_objects):
            raise CategoryError(f"unknown object id {a}")

    def compose(self, g: int, f: int) -> int:
        """Composite g*f (first f, then g); raises if not composable."""
        gf = self._table[g * self.n_morphisms + f]
        if gf < 0:
            raise CategoryError(f"morphisms {g} and {f} are not composable")
        return gf

    def post(self, g: int, fs: Sequence[int]) -> list[int]:
        """The composites g*f for f in fs, read from g's row of the table;
        raises like compose if one is undefined."""
        m = self.n_morphisms
        gfs = list(map(self._table[g * m : g * m + m].__getitem__, fs))
        if -1 in gfs:
            raise CategoryError(f"morphisms {g} and {fs[gfs.index(-1)]} are not composable")
        return gfs

    def pre(self, gs: Sequence[int], f: int) -> list[int]:
        """The composites g*f for g in gs, read from f's column of the table;
        raises like compose if one is undefined."""
        gfs = list(map(self._table[f :: self.n_morphisms].__getitem__, gs))
        if -1 in gfs:
            raise CategoryError(f"morphisms {gs[gfs.index(-1)]} and {f} are not composable")
        return gfs

    def composable(self, g: int, f: int) -> bool:
        return self.mor_cod[f] == self.mor_dom[g]

    def compose_entries(self) -> Iterable[tuple[int, int, int]]:
        """All defined (g, f, g*f) entries, in (g, f) order."""
        table, m, into = self._table, self.n_morphisms, self._into
        for g in range(m):
            row = g * m
            for f in into[self.mor_dom[g]]:
                gf = table[row + f]
                if gf >= 0:
                    yield g, f, gf

    def hom(self, a: int, b: int) -> tuple[int, ...]:
        """All morphisms a -> b in a deterministic (id) order."""
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
        """Invertible morphisms a -> b."""
        out = []
        id_a, id_b = self.identity(a), self.identity(b)
        for f in self.hom(a, b):
            for g in self.hom(b, a):
                if self.compose(g, f) == id_a and self.compose(f, g) == id_b:
                    out.append(f)
                    break
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
    constructor refuses it.
    """
    report = ValidationReport()
    m = cat.n_morphisms

    for g, f, gf in cat.compose_entries():
        if cat.mor_dom[gf] != cat.mor_dom[f] or cat.mor_cod[gf] != cat.mor_cod[g]:
            report.closure_violations.append((g, f))
    for g in range(m):
        for f in cat._into[cat.mor_dom[g]]:
            if cat._table[g * m + f] < 0:
                report.missing_compositions.append((g, f))
    if report.closure_violations or report.missing_compositions:
        return report

    for f in range(m):
        e_cod = cat.identity(cat.mor_cod[f])
        e_dom = cat.identity(cat.mor_dom[f])
        if cat.compose(e_cod, f) != f or cat.compose(f, e_dom) != f:
            report.identity_violations.append(f)

    for f in range(m):
        for g in cat._out[cat.mor_cod[f]]:
            gf = cat.compose(g, f)
            for h in cat._out[cat.mor_cod[g]]:
                if cat.compose(h, gf) != cat.compose(cat.compose(h, g), f):
                    report.associativity_violations.append((h, g, f))

    for f in range(cat.n_morphisms):
        if not cat.is_mono(f):
            report.non_mono.append(f)

    return report


def concrete_category(
    object_labels: Sequence[str],
    arrows: Callable[[int, int], Iterable[tuple[Hashable, str]]],
    compose: Callable[[Hashable, Hashable], Hashable],
    identity: Callable[[int], Hashable],
) -> tuple[FiniteCategory, list]:
    """A category of values: `arrows(a, b)` lists the (value, label) pairs of
    hom(a, b), `compose(g, f)` gives the value of g*f, `identity(a)` that of
    a's identity.  Morphisms are numbered hom-set by hom-set in (a, b) order;
    g*f is computed only over hom(b, c) x hom(a, b).  Returns the category and
    each morphism's value.  A composite or identity that no hom-set lists, or
    more than MAX_MORPHISMS morphisms, raise CategoryError."""
    n = len(object_labels)
    morphisms: list[tuple[int, int, str]] = []
    values: list = []
    out: list[list[tuple[int, range]]] = [[] for _ in range(n)]  # per a, each nonempty hom(a, b)
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
                out[a].append((b, range(start, len(values))))

    identities = [index.get((a, a), {}).get(identity(a)) for a in range(n)]
    if None in identities:
        raise CategoryError(f"the identity of object {identities.index(None)} is not a morphism")
    m = len(values)
    table = array("i", [-1]) * (m * m)
    for a in range(n):
        for b, fs in out[a]:
            f_values = values[fs.start : fs.stop]
            for c, gs in out[b]:
                ids = index.get((a, c), {})
                for g in gs:
                    # row g of the (a, b, c) block: g*f for every f in hom(a, b)
                    row = list(map(ids.get, map(compose, repeat(values[g]), f_values)))
                    if None in row:
                        f = fs[row.index(None)]
                        raise CategoryError(f"the composite {g}*{f} is not a morphism {a} -> {c}")
                    table[g * m + fs.start : g * m + fs.stop] = array("i", row)
    return FiniteCategory(object_labels, morphisms, table, identities), values


def _runs(ids: Sequence[int]) -> list[tuple[int, int]]:
    """Sorted ids as maximal runs of consecutive ids, each a [lo, hi) pair."""
    runs: list[tuple[int, int]] = []
    for i in ids:
        if runs and runs[-1][1] == i:
            runs[-1] = (runs[-1][0], i + 1)
        else:
            runs.append((i, i + 1))
    return runs


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

    def compose(g, f):
        return cat1.compose(g[0], f[0]), cat2.compose(g[1], f[1])

    def identity(a: int):
        a1, a2 = divmod(a, n2)
        return cat1.identities[a1], cat2.identities[a2]

    return concrete_category(objects, arrows, compose, identity)[0]

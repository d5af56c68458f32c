"""Shared fixtures and independent brute-force oracles.

The oracles re-derive everything from the category tables with plain loops
and exhaustive enumeration, deliberately sharing no code with the search
engine they check.
"""

from __future__ import annotations

import hashlib
import importlib.util
import itertools
import shutil
import subprocess
from array import array
from operator import itemgetter
from pathlib import Path
from struct import Struct

import pytest
from hypothesis import strategies as st

from catramsey import _kernel_py
from catramsey.core import CategoryError, FiniteCategory, concrete_category
from catramsey.expansions import ColoringExpansionSpec, build_coloring_expansion
from catramsey.generators import UniverseSpec, generate, object_of_size
from catramsey.kernel import SearchProblem


def restricted_growth(length: int, k: int):
    """Lazily, in lexicographic order, every restricted-growth string of the
    given length with values < k: each value is at most one more than the
    largest before it, so every set partition of range(length) into at most
    k blocks appears exactly once.  Recursive, and independent of the
    kernel's level-by-level branch prefixes, which the tests check it against."""
    s = [0] * length

    def rec(i: int, used: int):
        if i == length:
            yield list(s)
            return
        for c in range(min(used + 1, k)):
            s[i] = c
            yield from rec(i + 1, used + (c == used))

    yield from rec(0, 0)


def layout_by_sorting(n_items: int, bundles, k: int, t: int, item_perms) -> SearchProblem:
    """kernel.build_problem as it was before the kernels laid problems out:
    every bundle sorted, the search order read off the sorted bundles by
    dict.fromkeys, each row conjugated by two gathers.  It does not check
    that a row is a permutation."""
    bundles = list(dict.fromkeys(bundles))
    order = list(dict.fromkeys(itertools.chain(*map(sorted, sorted(bundles, key=len)), range(n_items))))
    if len(order) != n_items:
        raise ValueError(f"a bundle holds an item outside range({n_items})")
    pos = sorted(range(n_items), key=order.__getitem__)
    point_bundles: list[list[int]] = [[] for _ in range(n_items)]
    for b, items in enumerate(bundles):
        for it in items:
            point_bundles[pos[it]].append(b)
    for p in item_perms:
        if len(p) != n_items or (p and not 0 <= min(p) <= max(p) < n_items):
            raise ValueError(f"an item permutation needs {n_items} entries in range({n_items})")
    take = itemgetter(*order) if n_items > 1 else None
    pack = Struct(f"{n_items}i").pack
    rows = dict.fromkeys(pack(*itemgetter(*take(p))(pos)) for p in item_perms) if take else {}
    rows.pop(pack(*range(n_items)), None)
    return SearchProblem(
        n_points=n_items,
        k=min(k, max(n_items, 1)),
        t=t,
        bundle_sizes=array("i", map(len, bundles)),
        pb_off=array("i", itertools.accumulate(map(len, point_bundles), initial=0)),
        pb=array("i", itertools.chain.from_iterable(point_bundles)),
        perms=array("i", b"".join(rows)),
        order=order,
    )


def composition_table(m: int, entries) -> array:
    """The finished m*m table of a category given by its (g, f) -> g*f
    entries, as a mapping or as an iterable of ((g, f), gf) items."""
    table = array("i", [-1]) * (m * m)
    for (g, f), gf in entries.items() if isinstance(entries, dict) else entries:
        table[g * m + f] = gf
    return table


def same_category(x: FiniteCategory, y: FiniteCategory) -> bool:
    """Whether x and y are the same category under the same numbering: the
    same object labels, morphisms (dom, cod, label), composition table bytes
    and identities.  Compared field by field, not through their dumps, so
    that a label the writer refuses still compares."""
    return (
        x.object_labels == y.object_labels
        and (x.mor_dom, x.mor_cod, x.mor_labels) == (y.mor_dom, y.mor_cod, y.mor_labels)
        and x._table.tobytes() == y._table.tobytes()
        and x.identities == y.identities
    )


def iso_by_double_loop(cat: FiniteCategory, a: int, b: int) -> tuple[int, ...]:
    """The invertible morphisms a -> b: each f with some g in hom(b, a),
    tried in turn, such that g*f = id_a and f*g = id_b."""
    id_a, id_b = cat.identities[a], cat.identities[b]
    return tuple(
        f
        for f in cat.hom(a, b)
        if any(cat.compose(g, f) == id_a and cat.compose(f, g) == id_b for g in cat.hom(b, a))
    )


def oracle_arrow(cat: FiniteCategory, A: int, B: int, C: int, k: int, t: int, mode: str = "morphism"):
    """Exhaustively test every coloring; returns (holds, witness_or_None)."""
    hom_ac = [m for m in range(cat.n_morphisms) if cat.mor_dom[m] == A and cat.mor_cod[m] == C]
    hom_ab = [m for m in range(cat.n_morphisms) if cat.mor_dom[m] == A and cat.mor_cod[m] == B]
    hom_bc = [m for m in range(cat.n_morphisms) if cat.mor_dom[m] == B and cat.mor_cod[m] == C]
    if mode == "morphism":
        items = hom_ac
        item_of = {m: i for i, m in enumerate(items)}
    else:
        auts = cat.automorphisms(A)
        item_of = {}
        items = []
        for f in hom_ac:
            if f in item_of:
                continue
            cls = {cat.compose(f, a) for a in auts}
            for g in cls:
                item_of[g] = len(items)
            items.append(f)
    bundles = [{item_of[cat.compose(w, f)] for f in hom_ab} for w in hom_bc]

    if not hom_bc:
        if min(k, len(items)) <= t:
            return True, None
        return False, [i % k for i in range(len(items))]
    for coloring in itertools.product(range(k), repeat=len(items)):
        if all(len({coloring[i] for i in b}) > t for b in bundles):
            return False, list(coloring)
    return True, None


def oracle_degree_upper(cat, A, mode, k_max, B_pool, C_universe):
    """Least t such that every (B, k) has a witnessing C, by raw enumeration."""
    for t in range(1, k_max + 1):
        if all(
            any(oracle_arrow(cat, A, B, C, k, t, mode)[0] for C in C_universe)
            for B in B_pool
            for k in range(2, k_max + 1)
        ):
            return t
    return None


def oracle_degree_lower(cat, A, mode, k_max, B_pool, C_universe):
    """Greatest t such that some (B, k) defeats every C at t - 1, by raw
    enumeration; 1 when no (B, k) defeats every C at any t < k_max."""
    return max(
        [1]
        + [
            t
            for t in range(2, k_max + 1)
            if any(
                not any(oracle_arrow(cat, A, B, C, k, t - 1, mode)[0] for C in C_universe)
                for B in B_pool
                for k in range(2, k_max + 1)
            )
        ]
    )


@st.composite
def random_categories(draw):
    """A random concrete category: 2-4 objects, each a set of 1-3 points,
    whose morphisms are the identities and 4 random functions, closed under
    composition.  Built through concrete_category, so always a category, with
    mono, epi and neither morphisms, partial automorphism groups and empty
    hom-sets mixed."""
    sizes = draw(st.lists(st.integers(min_value=1, max_value=3), min_size=2, max_size=4))
    objects = range(len(sizes))
    homs = {(a, b): set() for a in objects for b in objects}
    for a in objects:
        homs[a, a].add(tuple(range(sizes[a])))
    for _ in range(4):
        a, b = draw(st.sampled_from(objects)), draw(st.sampled_from(objects))
        image = st.integers(min_value=0, max_value=sizes[b] - 1)
        homs[a, b].add(tuple(draw(st.lists(image, min_size=sizes[a], max_size=sizes[a]))))
    grown = True
    while grown:  # g*f is x -> g[f[x]]
        before = sum(map(len, homs.values()))
        for (a, b), c in itertools.product(list(homs), objects):
            homs[a, c].update(tuple(g[x] for x in f) for f in list(homs[a, b]) for g in list(homs[b, c]))
        grown = sum(map(len, homs.values())) > before
    cat, _ = concrete_category(
        [f"X{a}" for a in objects],
        lambda a, b: ((f, ",".join(map(str, f))) for f in sorted(homs[a, b])),
        lambda gs, fs: (tuple(g[x] for x in f) for g in gs for f in fs),
        lambda a: tuple(range(sizes[a])),
    )
    return cat


class ArrowDefinition:
    """C -> (B)^A_{k,t} as the arrows module's docstring defines it, and
    nothing more: every k-coloring of hom(A, C) admits a w in hom(B, C) whose
    composite copy of hom(A, B) receives at most t colors; subobject mode
    colors the classes of hom(A, C) under f ~ f.alpha, alpha in Aut(A).  No
    restricted growth, no symmetry pruning, no vacuous or trivial shortcut:
    every coloring of the classes is tried."""

    def __init__(self, cat: FiniteCategory, A: int, B: int, C: int, mode: str = "morphism"):
        def hom(a, b):
            return [m for m in range(cat.n_morphisms) if (cat.mor_dom[m], cat.mor_cod[m]) == (a, b)]

        ids = cat.identities
        auts = [f for f in hom(A, A) if any(cat.compose(g, f) == cat.compose(f, g) == ids[A] for g in hom(A, A))]
        self.class_of: dict[int, int] = {}  # morphism of hom(A, C) -> its class
        self.n_classes = 0
        for f in hom(A, C):
            if f not in self.class_of:
                members = [cat.compose(f, a) for a in auts] if mode == "subobject" else [f]
                self.class_of.update(dict.fromkeys(members, self.n_classes))
                self.n_classes += 1
        self.copies = [[self.class_of[cat.compose(w, f)] for f in hom(A, B)] for w in hom(B, C)]

    def defeats(self, colors, t: int) -> bool:
        """Whether `colors`, one per class, gives every w's copy more than t colors."""
        return all(len({colors[c] for c in copy}) > t for copy in self.copies)

    def holds(self, k: int, t: int) -> bool:
        return not any(self.defeats(colors, t) for colors in itertools.product(range(k), repeat=self.n_classes))

    def colors_of(self, domain, witness) -> list[int] | None:
        """A verdict's witness as one color per class, or None unless it
        colors every class exactly once."""
        classes = [self.class_of.get(f) for f in domain]
        if len(witness) != len(domain) or None in classes or sorted(classes) != list(range(self.n_classes)):
            return None
        colors = [0] * self.n_classes
        for c, x in zip(classes, witness):
            colors[c] = x
        return colors


def is_category_by_definition(cat: FiniteCategory) -> bool:
    """The category axioms checked cell by cell: every composable pair has a
    composite from dom f to cod g, identities are two-sided units, and
    composition is associative."""
    m, ids, dom, cod = cat.n_morphisms, cat.identities, cat.mor_dom, cat.mor_cod
    try:
        gf = {(g, f): cat.compose(g, f) for g in range(m) for f in range(m) if dom[g] == cod[f]}
    except CategoryError:  # a composable pair without a composite
        return False
    if any((dom[h], cod[h]) != (dom[f], cod[g]) for (g, f), h in gf.items()):
        return False
    if any(gf[ids[cod[f]], f] != f or gf[f, ids[dom[f]]] != f for f in range(m)):
        return False
    return all(gf[h, gf[g, f]] == gf[gf[h, g], f] for g, f in gf for h in range(m) if dom[h] == cod[g])


# the partition oracle refuses larger hom(A, ambient): Bell(12) kernels
PARTITION_DOMAIN_CAP = 12


def essential_exists_by_partitions(cat: FiniteCategory, q) -> bool:
    """Whether an essential t-coloring of hom(A, B) exists, straight from the
    definition: some lambda such that every kernel of a coloring of
    hom(A, ambient) is met by a w.  Exponential in both hom-set sizes."""
    hom_ab = cat.hom(q.A, q.B)
    hom_af = cat.hom(q.A, q.ambient)
    if len(hom_af) > PARTITION_DOMAIN_CAP:
        raise CategoryError(f"|hom(A, ambient)| = {len(hom_af)} exceeds partition cap {PARTITION_DOMAIN_CAP}")
    hom_bf = cat.hom(q.B, q.ambient)
    kernels = [dict(zip(hom_af, p)) for p in restricted_growth(len(hom_af), len(hom_af))]
    for lam in restricted_growth(len(hom_ab), q.t):
        pairs = [(f1, f2) for (f1, c1), (f2, c2) in itertools.product(zip(hom_ab, lam), repeat=2) if c1 == c2]
        if all(
            any(all(ker[cat.compose(w, f1)] == ker[cat.compose(w, f2)] for f1, f2 in pairs) for w in hom_bf)
            for ker in kernels
        ):
            return True
    return False


def one_object_category() -> FiniteCategory:
    """The terminal category: one object and only its identity."""
    return FiniteCategory(["pt"], [(0, 0, "id")], array("i", [0]), [0])


@pytest.fixture(scope="session")
def lo6():
    return generate(UniverseSpec("LO", 6))


@pytest.fixture(scope="session")
def lo4():
    return generate(UniverseSpec("LO", 4))


@pytest.fixture(scope="session")
def inj3():
    return generate(UniverseSpec("Inj", 3))


@pytest.fixture(scope="session")
def inj4():
    return generate(UniverseSpec("Inj", 4))


@pytest.fixture(scope="session")
def surj3():
    return generate(UniverseSpec("Surj", 3))


def obj(cat, family, size):
    return object_of_size(cat, family, size)


def matrix_coloring_expansion():
    """The matrix's coloring expansion: Inj_2, degree 1 on Inj_1 and 2 on Inj_2."""
    inj = generate(UniverseSpec("Inj", 2))
    a1, a2 = object_of_size(inj, "Inj", 1), object_of_size(inj, "Inj", 2)
    return build_coloring_expansion(ColoringExpansionSpec(inj, ((a1, 1), (a2, 2))))


def surj3_coloring_expansion():
    """The Surj_3 coloring expansion with degree 2 on object 2."""
    surj = generate(UniverseSpec("Surj", 3))
    return build_coloring_expansion(ColoringExpansionSpec(surj, ((2, 2),)))


KERNEL_PY = Path(_kernel_py.__file__).with_name("_kernel.py")
KERNEL_C = KERNEL_PY.with_name("_kernel.c")


def library_name(source: bytes) -> str:
    """The name _kernel.py gives the library built from `source`."""
    return f"libcatramsey_kernel-{hashlib.sha256(source).hexdigest()[:16]}.so"


def load_kernel(directory: Path):
    """Import a copy of catramsey/_kernel.py in `directory`, placed there
    first unless one is, so that it loads, or builds, the library of the
    _kernel.c found there."""
    if not (directory / "_kernel.py").exists():
        shutil.copy(KERNEL_PY, directory / "_kernel.py")
    spec = importlib.util.spec_from_file_location("catramsey._kernel", directory / "_kernel.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def compiled_kernel(tmp_path_factory):
    """The compiled kernel built from the checked-in _kernel.c into a
    temporary directory, loaded through a copy of _kernel.py.  Any compiler
    warning fails the build, and undefined behaviour that the sanitizer
    sees (a signed overflow, a misaligned access) aborts the run.  The import
    runs with no compiler on PATH, so it loads this build or fails; it never
    builds one of its own without the checks.
    Skips, saying why, only when there is no C compiler, so that the parity
    tests, of the search and of the category reader, never pass without
    comparing."""
    compiler = shutil.which("cc")
    if compiler is None:
        pytest.skip("no compiled kernel: no C compiler (cc) on PATH")
    out = tmp_path_factory.mktemp("kernel")
    shutil.copy(KERNEL_C, out / "_kernel.c")
    library = out / library_name(KERNEL_C.read_bytes())
    flags = ["-O2", "-Wall", "-Wextra", "-Werror", "-fsanitize=undefined", "-fno-sanitize-recover=all"]
    subprocess.run([compiler, *flags, "-shared", "-fPIC", str(out / "_kernel.c"), "-o", str(library)], check=True)
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PATH", str(tmp_path_factory.mktemp("no-cc")))
        module = load_kernel(out)
    assert module._LIBRARY == library
    return module

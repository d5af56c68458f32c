"""Compiled kernel: _kernel.c, built on first import and loaded with ctypes.
It holds the problem layout, layout, that kernel.build_problem calls; the
witness search, search_from_prefix; the bulk of the category-file reader,
scan_lines and fill_table, which io reaches through kernel.READER; and the
composition-table check, check_table, which core.FiniteCategory reaches the
same way.  The library speaks ABI 7.  Every array reaches C by its address,
array("i").buffer_info()[0], through a c_void_p argument: no ctypes array
object is built per call.  An input that is not an array("i") is copied
into one, which refuses a value outside the C int range, and each call's
work arrays are cut from one array("i") allocated for it.

The library is named after the source it was built from,
libcatramsey_kernel-<the first 16 hex digits of _kernel.c's sha256>.so, next
to this file.  When that file is missing, the import compiles _kernel.c with
`cc -O2 -shared -fPIC` into a temporary file of its own and renames it into
place, so that processes building at once never see each other's half-written
library; the compiler's output is discarded.  An edited _kernel.c therefore
gets a library of its own on the next import, and a library built from other
source is never opened.  Once its library is in place, the build removes the
libraries of other digests beside it; a process still opening one of those,
from an older _kernel.c, finds it gone and falls back to the pure kernel.
The import raises ImportError, which makes kernel.py select the pure-Python
kernel, when the directory is not writable or there is no `cc` on PATH (both
checked before the compiler runs), when the build fails, or when the library
does not load or speaks another ABI.

ctypes releases the GIL for the duration of each call, so branches searched
on several threads run concurrently, all reading build_problem's arrays in
place; kernel.solve uses threads only for a search that one serial call has
not finished within kernel.PROBE nodes, and otherwise makes it one call.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

IMPL = "compiled"
# ctypes drops the GIL around each call, so branch searches on several
# threads run at once
RELEASES_GIL = True
# the value _kernel.c's catramsey_kernel_abi() returns: the calling
# convention of the functions this module binds
ABI = 7
# seconds the compiler may take on first import; the build takes well under one
BUILD_TIMEOUT_S = 60

_SOURCE = Path(__file__).with_name("_kernel.c")
try:
    _DIGEST = hashlib.sha256(_SOURCE.read_bytes()).hexdigest()[:16]
except OSError as exc:
    raise ImportError(f"compiled kernel source unreadable: {exc}") from None
_LIBRARY = _SOURCE.with_name(f"libcatramsey_kernel-{_DIGEST}.so")


def _build() -> None:
    """Compile _SOURCE into _LIBRARY, or raise ImportError saying why not."""
    if not os.access(_LIBRARY.parent, os.W_OK):
        raise ImportError(f"compiled kernel not built: {_LIBRARY.parent} is not writable")
    # imported here, so that loading a built library does not pay for them
    import contextlib
    import shutil
    import subprocess

    compiler = shutil.which("cc")
    if compiler is None:
        raise ImportError("compiled kernel not built: no C compiler (cc) on PATH")
    tmp = _LIBRARY.with_name(f"{_LIBRARY.name}.{os.getpid()}.tmp")
    try:
        subprocess.run(
            [compiler, "-O2", "-shared", "-fPIC", str(_SOURCE), "-o", str(tmp)],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=BUILD_TIMEOUT_S, check=True,
        )
        os.replace(tmp, _LIBRARY)
    except (OSError, subprocess.SubprocessError) as exc:
        raise ImportError(f"compiled kernel build failed: {exc}") from None
    finally:
        tmp.unlink(missing_ok=True)
    for stale in set(_LIBRARY.parent.glob("libcatramsey_kernel-*.so")) - {_LIBRARY}:
        with contextlib.suppress(OSError):  # one left behind costs only disk
            stale.unlink()


if not _LIBRARY.is_file():
    _build()

import ctypes  # noqa: E402
from array import array  # noqa: E402

try:
    _lib = ctypes.CDLL(str(_LIBRARY))
except OSError as exc:
    raise ImportError(f"compiled kernel does not load: {exc}") from exc
try:
    _abi = _lib.catramsey_kernel_abi
except AttributeError:
    raise ImportError(f"compiled kernel {_LIBRARY} has no catramsey_kernel_abi: {_SOURCE} is not this version's") from None
_abi.restype = ctypes.c_int
_abi.argtypes = []
if (_built := _abi()) != ABI:
    raise ImportError(f"compiled kernel {_LIBRARY} speaks ABI {_built}, not {ABI}: {_SOURCE} is not this version's")

_p = ctypes.c_void_p  # an array's address, buffer_info()[0]: 0, a null pointer, for one of length 0
_layout = _lib.layout
_layout.restype = ctypes.c_int
_layout.argtypes = [
    ctypes.c_int, ctypes.c_int, _p, ctypes.c_int, _p,  # n_items, n_bundles, bundle_sizes, n_total, items
    ctypes.c_int, _p,  # n_rows, rows
    _p, _p, _p, _p, _p,  # order, pb_off, pb, perms, work
]
_search = _lib.search_from_prefix
_search.restype = ctypes.c_int
_search.argtypes = [
    ctypes.c_int, ctypes.c_int, ctypes.c_int, ctypes.c_int, _p,  # n_points, k, t, n_bundles, bundle_sizes
    _p, _p, ctypes.c_int, _p,  # pb_off, pb, n_perms, perms
    ctypes.c_int, _p, ctypes.c_int,  # prefix, count_from
    ctypes.c_longlong, _p, _p, _p,  # budget, nodes, work, stop
]

_scan = _lib.scan_lines
_scan.restype = ctypes.c_int
_scan.argtypes = [ctypes.c_char_p, ctypes.c_int, _p, ctypes.c_int]  # text, n, out, cap
_fill = _lib.fill_table
_fill.restype = ctypes.c_int
_fill.argtypes = [ctypes.c_char_p, ctypes.c_int, ctypes.c_int, _p]  # text, n, n_mor, table
_check = _lib.check_table
_check.restype = ctypes.c_int
_check.argtypes = [ctypes.c_int, _p, _p, _p, _p]  # m, table, mor_dom, mor_cod, bad

# a budget no search can spend; a larger one would overflow long long, and
# any budget below 0 stops at the first node just as 0 does
_BUDGET_CAP = 2**62

# repeated to make zeroed arrays, and the stop flag of a search that passes
# none; never written
_ZERO = array("i", [0])


def _ints(values):
    """`values` as an array("i"): itself when it is one, else a copy;
    array("i") refuses a value outside the C int range, which C would
    silently wrap."""
    if isinstance(values, array) and values.typecode == "i":
        return values
    try:
        return array("i", values)
    except OverflowError as exc:
        raise ValueError(f"value out of C int range: {exc}") from None


def _at(values):
    """The address of an array's buffer, to pass as a C pointer; 0 when it
    is empty, so C must not read it then."""
    return values.buffer_info()[0]


def _flag(stop):
    """The address of stop[0], in the caller's memory, not a copy, so that a
    flag set by another thread reaches the running search."""
    if not (isinstance(stop, array) and stop.typecode == "i" and stop):
        raise ValueError("stop must be an array('i') with at least one element")
    return _at(stop)


# the messages of layout's codes below 0, as _kernel_py.layout words them
_LAYOUT_FAULTS = {
    -1: "a bundle holds an item outside range({n})",
    -2: "an item permutation needs {n} distinct entries in range({n})",
    -3: "bundle sizes must be >= 0 and add up to the number of items",
}


def layout(n_items, bundle_sizes, items, rows):
    """Same contract as _kernel_py.layout, computed in one C pass; the
    arguments are copied into array("i")s unless they are ones."""
    bundle_sizes, items, rows = _ints(bundle_sizes), _ints(items), _ints(rows)
    n_bundles, n_total = len(bundle_sizes), len(items)
    if n_items < 0:
        raise ValueError(f"n_items must be >= 0, got {n_items}")
    n_rows, rest = divmod(len(rows), n_items) if n_items else (0, len(rows))
    if rest:
        raise ValueError(f"rows must hold whole rows of {n_items} entries")
    size = 3 * n_bundles + n_total + 3 * n_items + 2
    if size >= 2**31 or len(rows) >= 2**31:
        raise ValueError("the layout's work and rows must be shorter than 2**31")
    order, pb_off, pb, perms, work = (_ZERO * m for m in (n_items, n_items + 1, n_total, len(rows), size))
    code = _layout(
        n_items, n_bundles, _at(bundle_sizes), n_total, _at(items), n_rows, _at(rows),
        _at(order), _at(pb_off), _at(pb), _at(perms), _at(work),
    )
    if code:
        raise ValueError(_LAYOUT_FAULTS[code].format(n=n_items))
    return order.tolist(), pb_off, pb, perms


def search_from_prefix(n_points, k, t, bundle_sizes, pb_off, pb, perms, prefix, budget, stop=None, count_from=0):
    """Same contract as _kernel_py.search_from_prefix; stop=None is a flag
    that is never set.  An array("i"), as build_problem lays out all but the
    prefix, reaches C by the address of its own buffer; any other sequence
    is copied into one.  C keeps its whole state in one work array.

    Raises ValueError on input that would make the C code index out of
    bounds or overflow an int; the pure kernel would raise IndexError or
    misread it.  The sizes, lengths and the ends of pb_off are checked here,
    because C relies on them before it reads; the entries of pb_off, pb and
    perms are checked in C, in one pass before the search (its code -2).
    """
    n_bundles = len(bundle_sizes)
    if not (1 <= k and n_bundles * k < 2**31 and abs(t) < 2**31):
        raise ValueError("need 1 <= k, with n_bundles * k and t in C int range")
    if len(prefix) > n_points or any(c < 0 for c in prefix):
        raise ValueError("prefix must be at most n_points nonnegative colors")
    if not 0 <= count_from <= n_points:
        raise ValueError(f"count_from must be in 0..n_points, got {count_from}")
    if len(pb_off) != n_points + 1 or pb_off[0] != 0 or pb_off[-1] != len(pb):
        raise ValueError("pb_off must have n_points + 1 offsets from 0 to len(pb)")
    n_perms, rest = divmod(len(perms), n_points) if n_points else (0, len(perms))
    if rest:
        raise ValueError("perms must hold whole rows of n_points entries")
    if not (n_perms * k < 2**31 and 3 * n_perms * n_points < 2**31):
        raise ValueError("need n_perms * k and the trail, 3 * n_perms * n_points, in C int range")

    flag = _at(_ZERO) if stop is None else _flag(stop)
    bundle_sizes, pb_off, pb, perms, prefix = map(_ints, (bundle_sizes, pb_off, pb, perms, prefix))
    nodes = array("q", [0])
    # color, counts, slack, pos, fresh, link, ren, head, trail, used, next, top
    work = _ZERO * (n_points + k * n_bundles + n_bundles + 3 * n_perms + n_perms * k
                    + n_points + 3 * n_perms * n_points + 3 * (n_points + 1))
    r = _search(
        n_points, k, t, n_bundles, _at(bundle_sizes),
        _at(pb_off), _at(pb), n_perms, _at(perms),
        len(prefix), _at(prefix), count_from, max(0, min(budget, _BUDGET_CAP)), _at(nodes),
        _at(work), flag,
    )
    if r == -2:
        raise ValueError("pb_off must be nondecreasing, pb must name bundles in range and perms points in range")
    if r == 1:
        return work[:n_points].tolist(), nodes[0], True
    return None, nodes[0], r == 0


# header lines the first scan makes room for; a text with more is scanned twice
_HEADER_LINES = 4096


def _check_text(data):
    if not isinstance(data, bytes) or len(data) >= 2**31:
        raise ValueError("the compiled reader takes bytes shorter than 2**31")


def scan_lines(data):
    """(start, end, line number) of each line of the UTF-8 text `data` that
    is no cmp line, one that starts with `[ \\t]*cmp`: data[start:end] is the
    line, numbered from 1.  Raises ValueError when `data` holds a line break
    other than \\n at which str.splitlines would split, or is too long."""
    _check_text(data)
    cap = _HEADER_LINES
    while True:
        out = _ZERO * (3 * cap)
        count = _scan(data, len(data), _at(out), cap)
        if count < 0:
            raise ValueError("a line break other than \\n")
        if count <= cap:
            flat = out[: 3 * count]
            return list(zip(flat[0::3], flat[1::3], flat[2::3]))
        cap = count


def fill_table(data, n_mor):
    """The composition table that the cmp lines of the UTF-8 text `data`
    fill, as io._fill_table makes it.  Raises ValueError when a cmp line is
    outside `[ \\t]*cmp([ \\t]+-?[0-9]+){3}[ \\t]*`, names an id outside
    range(n_mor), or fills a cell that an earlier line filled."""
    _check_text(data)
    if n_mor < 0 or n_mor * n_mor >= 2**31:
        raise ValueError(f"n_mor must be in 0..46340, got {n_mor}")
    table = array("i", [-1]) * (n_mor * n_mor)
    if _fill(data, len(data), n_mor, _at(table)) < 0:
        raise ValueError("a cmp line outside its grammar, an id out of range, or a repeated cell")
    return table


def check_table(table, mor_dom, mor_cod):
    """The fault of the composition table `table` that core's pure check
    finds: None when every cell on a composable pair holds -1 or a morphism
    id and every other cell -1; otherwise (unknown, g, f) for the cell g*f
    at fault, with unknown True for the first unknown id on a composable
    pair in row-major order, and False, when there is none, for the first
    entry off the composable pairs.  Raises ValueError unless `table` is an
    array("i") of m * m cells, m = len(mor_dom) = len(mor_cod), in C int
    range."""
    m = len(mor_dom)
    if len(mor_cod) != m or m * m >= 2**31:
        raise ValueError(f"need mor_dom and mor_cod of one length in 0..46340, got {m} and {len(mor_cod)}")
    if not (isinstance(table, array) and table.typecode == "i" and len(table) == m * m):
        raise ValueError(f"the table must be an array('i') of {m * m} cells")
    bad = array("i", [0])
    mor_dom, mor_cod = _ints(mor_dom), _ints(mor_cod)
    code = _check(m, _at(table), _at(mor_dom), _at(mor_cod), _at(bad))
    if code == 0:
        return None
    g, f = divmod(bad[0], m)
    return code == 1, g, f

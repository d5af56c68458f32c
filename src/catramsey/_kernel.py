"""Compiled kernel: _kernel.c, built on first import and loaded with ctypes.
It holds the witness search, search_from_prefix; the bulk of the
category-file reader, scan_lines and fill_table, which io reaches through
kernel.READER; and the composition-table check, check_table, which
core.FiniteCategory reaches the same way.  The library speaks ABI 6.

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
ABI = 6
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

_int_p = ctypes.POINTER(ctypes.c_int)
_search = _lib.search_from_prefix
_search.restype = ctypes.c_int
_search.argtypes = [
    ctypes.c_int, ctypes.c_int, ctypes.c_int, ctypes.c_int, _int_p,  # n_points, k, t, n_bundles, bundle_sizes
    _int_p, _int_p, ctypes.c_int, _int_p,  # pb_off, pb, n_perms, perms
    ctypes.c_int, _int_p, ctypes.c_int,  # prefix, count_from
    ctypes.c_longlong, ctypes.POINTER(ctypes.c_longlong),  # budget, nodes
    _int_p, _int_p, _int_p,  # counts, slack, color
    _int_p, _int_p, _int_p, _int_p, _int_p, _int_p,  # pos, fresh, ren, link, head, trail
    _int_p, _int_p, _int_p, _int_p,  # used, next, top, stop
]

_scan = _lib.scan_lines
_scan.restype = ctypes.c_int
_scan.argtypes = [ctypes.c_char_p, ctypes.c_int, _int_p, ctypes.c_int]  # text, n, out, cap
_fill = _lib.fill_table
_fill.restype = ctypes.c_int
_fill.argtypes = [ctypes.c_char_p, ctypes.c_int, ctypes.c_int, _int_p]  # text, n, n_mor, table
_check = _lib.check_table
_check.restype = ctypes.c_int
_check.argtypes = [ctypes.c_int, _int_p, _int_p, _int_p, _int_p]  # m, table, mor_dom, mor_cod, bad

# a budget no search can spend; a larger one would overflow long long, and
# any budget below 0 stops at the first node just as 0 does
_BUDGET_CAP = 2**62


def _ints(values):
    """`values` as a C int array: an array("i")'s own buffer, anything else
    copied into one; array("i") refuses a value outside the C int range,
    which ctypes would silently wrap."""
    if not (isinstance(values, array) and values.typecode == "i"):
        try:
            values = array("i", values)
        except OverflowError as exc:
            raise ValueError(f"value out of C int range: {exc}") from None
    return (ctypes.c_int * len(values)).from_buffer(values)


def _zeros(size):
    return (ctypes.c_int * size)()


def _flag(stop):
    """stop[0] as a C int over the caller's memory, not a copy, so that a
    flag set by another thread reaches the running search."""
    if not (isinstance(stop, array) and stop.typecode == "i" and stop):
        raise ValueError("stop must be an array('i') with at least one element")
    return ctypes.c_int.from_buffer(stop)


def search_from_prefix(n_points, k, t, bundle_sizes, pb_off, pb, perms, prefix, budget, stop=None, count_from=0):
    """Same contract as _kernel_py.search_from_prefix; stop=None is a flag
    that is never set.  An array("i"), as build_problem lays out all but the
    prefix, reaches C as its own buffer; any other sequence is copied.

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

    nodes = ctypes.c_longlong()
    color = _zeros(n_points)
    r = _search(
        n_points, k, t, n_bundles, _ints(bundle_sizes),
        _ints(pb_off), _ints(pb), n_perms, _ints(perms),
        len(prefix), _ints(prefix), count_from, max(0, min(budget, _BUDGET_CAP)), ctypes.byref(nodes),
        _zeros(k * n_bundles), _zeros(n_bundles), color,
        _zeros(n_perms), _zeros(n_perms), _zeros(n_perms * k), _zeros(n_perms),
        _zeros(n_points), _zeros(3 * n_perms * n_points),
        _zeros(n_points + 1), _zeros(n_points + 1), _zeros(n_points + 1),
        ctypes.byref(ctypes.c_int() if stop is None else _flag(stop)),
    )
    if r == -2:
        raise ValueError("pb_off must be nondecreasing, pb must name bundles in range and perms points in range")
    if r == 1:
        return list(color), nodes.value, True
    return None, nodes.value, r == 0


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
        out = _zeros(3 * cap)
        count = _scan(data, len(data), out, cap)
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
    if _fill(data, len(data), n_mor, (ctypes.c_int * len(table)).from_buffer(table)) < 0:
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
    bad = ctypes.c_int()
    code = _check(m, (ctypes.c_int * len(table)).from_buffer(table), _ints(mor_dom), _ints(mor_cod), ctypes.byref(bad))
    if code == 0:
        return None
    g, f = divmod(bad.value, m)
    return code == 1, g, f

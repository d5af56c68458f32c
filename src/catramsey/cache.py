"""Content-addressed on-disk cache of failing arrow verdicts.

Entries are JSON files named by a sha256 key over (format version, category
digest, query tuple, budget).  Only a failing verdict, the one that carries a
certificate, is stored; a read returns it only when its domain equals the
query's items and its witness replays, and evicts anything else with a
warning.  A holding or inconclusive verdict always comes from a search in
this process.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import sys
import warnings
from array import array

from .core import FiniteCategory
from .arrows import ArrowQuery, ArrowVerdict, check_arrow, _domain, _replay_witness
from .kernel import DEFAULT_BUDGET, check_search_args

# format 3 and earlier stored holding verdicts too, which no read can check
FORMAT_VERSION = 4
CACHE_DIR_ENV = "CATRAMSEY_CACHE_DIR"

# numbers this process's writes, for their temporary file names
_writers = itertools.count()


def category_digest(cat: FiniteCategory) -> str:
    """sha256 over what a category file holds: the object and morphism
    labels as JSON, then each morphism's dom and cod and the composition
    table as little-endian ints.  The labels fix the morphism count, so the
    int runs that follow need no separator."""
    h = hashlib.sha256(json.dumps([cat.object_labels, cat.mor_labels]).encode())
    for ints in (array("i", cat.mor_dom), array("i", cat.mor_cod), cat._table):
        if sys.byteorder == "big":
            ints = array("i", ints)
            ints.byteswap()
        h.update(ints)
    return h.hexdigest()


class ResultCache:
    def __init__(self, directory: str | None = None):
        if directory is None:
            directory = os.environ.get(CACHE_DIR_ENV)
        self.directory = directory
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        if self.directory:
            os.makedirs(self.directory, exist_ok=True)

    @property
    def enabled(self) -> bool:
        return bool(self.directory)

    def key(self, digest: str, query: tuple) -> str:
        blob = json.dumps([FORMAT_VERSION, digest, list(query)], separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, key + ".json")

    def get(self, key: str) -> dict | None:
        if not self.enabled:
            return None
        path = self._path(key)
        try:
            with open(path, encoding="utf-8") as fh:
                value = json.load(fh)
        except FileNotFoundError:
            return None
        # not JSON, not UTF-8 (both ValueErrors), or nested deeper than the
        # decoder can recurse
        except (ValueError, RecursionError, OSError):
            warnings.warn(f"discarding corrupt cache entry {key}")
            self.evict(key)
            return None
        if not (isinstance(value, dict) and _ENTRY_FIELDS <= value.keys() and _values_well_formed(value)):
            warnings.warn(f"discarding malformed cache entry {key}")
            self.evict(key)
            return None
        return value

    def put(self, key: str, value: dict) -> None:
        if not self.enabled:
            return
        path = self._path(key)
        # a temporary file of this writer's own: writers of one key, in this
        # process or another, never write into or rename each other's
        tmp = f"{path}.{os.getpid()}.{next(_writers)}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(value, fh, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.remove(tmp)
            raise

    def evict(self, key: str) -> None:
        if not self.enabled:
            return
        try:
            os.remove(self._path(key))
            self.evictions += 1
        except FileNotFoundError:
            pass

    def stats(self) -> dict:
        return {"hits": self.hits, "misses": self.misses, "evictions": self.evictions}


_ENTRY_FIELDS = {"witness", "domain", "nodes", "note"}


def _values_well_formed(entry: dict) -> bool:
    # a node count is a non-negative integer (True is none) and a note a
    # string; the domain check and the replay cover domain and witness
    nodes = entry["nodes"]
    return type(nodes) is int and nodes >= 0 and type(entry["note"]) is str


def cached_check_arrow(
    cache: ResultCache,
    cat: FiniteCategory,
    q: ArrowQuery,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
) -> ArrowVerdict:
    check_search_args(budget, threads)
    if not cache.enabled:
        return check_arrow(cat, q, budget=budget, threads=threads)
    # the budget is in the key: a failure found in N nodes is inconclusive
    # under a smaller budget, and a hit returns what the search would
    key = cache.key(category_digest(cat), ("arrow", q.A, q.B, q.C, q.k, q.t, q.mode, budget))
    entry = cache.get(key)
    if entry is not None and _entry_replays(cache, cat, q, key, entry):
        cache.hits += 1
        return ArrowVerdict(False, entry["witness"], entry["domain"], entry["nodes"], entry["note"])
    cache.misses += 1
    verdict = check_arrow(cat, q, budget=budget, threads=threads)
    if verdict.holds is False:
        cache.put(key, {field: getattr(verdict, field) for field in _ENTRY_FIELDS})
    return verdict


def _entry_replays(cache, cat, q, key, entry: dict) -> bool:
    # the domain must still match the category (guards against digest
    # collisions in the face of tampering) and the witness must replay on it
    items, index = _domain(cat, q)
    if entry["domain"] != list(items):
        warnings.warn(f"cached domain mismatch; evicting {key}")
    elif not _replay_witness(cat, q, items, index, entry["witness"]):
        warnings.warn(f"cached witness failed replay; evicting {key}")
    else:
        return True
    cache.evict(key)
    return False

"""Content-addressed on-disk cache for arrow verdicts.

Entries are JSON files named by a sha256 key over (format version, category
digest, query tuple).  A cached verdict is never trusted blindly: failing
verdicts replay their witness coloring on every read, and a deterministic
sample of holding verdicts is recomputed outright; anything that does not
check out is evicted with a warning and recomputed.
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
from .kernel import DEFAULT_BUDGET

FORMAT_VERSION = 3
CACHE_DIR_ENV = "CATRAMSEY_CACHE_DIR"

# recompute one in this many holding verdicts on read, chosen by key so the
# sample is stable across runs
VERIFY_SAMPLE_MOD = 16

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


_ENTRY_FIELDS = {"holds", "witness", "domain", "nodes"}


def _values_well_formed(entry: dict) -> bool:
    # a verdict is JSON true, false or null (1 is none), only a failing one
    # carries a witness, and a node count is a non-negative integer
    holds, nodes = entry["holds"], entry["nodes"]
    typed = type(holds) in (bool, type(None)) and type(nodes) is int and nodes >= 0
    return typed and (entry["witness"] is None or holds is False)


def _verdict_to_entry(v: ArrowVerdict) -> dict:
    return {
        "holds": v.holds,
        "witness": v.witness,
        "domain": v.domain,
        "nodes": v.nodes,
        "note": v.note,
    }


def _entry_to_verdict(entry: dict) -> ArrowVerdict:
    return ArrowVerdict(
        holds=entry["holds"],
        witness=entry["witness"],
        domain=entry["domain"],
        nodes=entry["nodes"],
        note=entry.get("note", ""),
    )


def cached_check_arrow(
    cache: ResultCache,
    cat: FiniteCategory,
    q: ArrowQuery,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
) -> ArrowVerdict:
    if not cache.enabled:
        return check_arrow(cat, q, budget=budget, threads=threads)
    key = cache.key(category_digest(cat), ("arrow", q.A, q.B, q.C, q.k, q.t, q.mode, budget))
    entry = cache.get(key)
    if entry is not None:
        verdict = _entry_to_verdict(entry)
        if _entry_checks_out(cache, cat, q, key, verdict, budget):
            cache.hits += 1
            return verdict
    cache.misses += 1
    verdict = check_arrow(cat, q, budget=budget, threads=threads)
    cache.put(key, _verdict_to_entry(verdict))
    return verdict


def _entry_checks_out(cache, cat, q, key, verdict: ArrowVerdict, budget) -> bool:
    # domain must still match the category (guards against digest collisions
    # in the face of tampering)
    items, index = _domain(cat, q)
    if verdict.domain != list(items):
        warnings.warn(f"cached domain mismatch; evicting {key}")
        cache.evict(key)
        return False
    if verdict.holds is False:
        if not _replay_witness(cat, q, items, index, verdict.witness):
            warnings.warn(f"cached witness failed replay; evicting {key}")
            cache.evict(key)
            return False
        return True
    if int(key[:8], 16) % VERIFY_SAMPLE_MOD == 0:
        fresh = check_arrow(cat, q, budget=budget)
        if fresh.holds != verdict.holds:
            warnings.warn(f"cached verdict failed recomputation; evicting {key}")
            cache.evict(key)
            return False
    return True

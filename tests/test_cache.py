import json
import os

import pytest

from catramsey import cache as cache_module
from catramsey.arrows import ArrowQuery, check_arrow
from catramsey.cache import ResultCache, cached_check_arrow, category_digest
from catramsey.io import dumps_category, loads_category
from conftest import obj


def _lo5_failing_query(lo6):
    return ArrowQuery(obj(lo6, "LO", 2), obj(lo6, "LO", 3), obj(lo6, "LO", 5), 2, 1)


def _key_for(cache, cat, q, budget=10**8):
    return cache.key(category_digest(cat), ("arrow", q.A, q.B, q.C, q.k, q.t, q.mode, budget))


def test_round_trip_and_counters(tmp_path, lo6):
    cache = ResultCache(str(tmp_path))
    q = _lo5_failing_query(lo6)
    first = cached_check_arrow(cache, lo6, q)
    assert cache.stats() == {"hits": 0, "misses": 1, "evictions": 0}
    second = cached_check_arrow(cache, lo6, q)
    assert cache.stats()["hits"] == 1
    assert (first.holds, first.witness, first.domain) == (second.holds, second.witness, second.domain)


def test_entry_of_an_older_format_version_is_not_read(tmp_path, lo6, monkeypatch):
    # format 2 split the budget over the branches: LO_6 -> (LO_3)^{LO_2}_{2,1}
    # was stored inconclusive at budget 858, where format 3 finds it holds
    cache = ResultCache(str(tmp_path))
    q = ArrowQuery(obj(lo6, "LO", 2), obj(lo6, "LO", 3), obj(lo6, "LO", 6), 2, 1)
    monkeypatch.setattr(cache_module, "FORMAT_VERSION", 2)
    stale = {"holds": None, "witness": None, "domain": check_arrow(lo6, q).domain, "nodes": 366,
             "note": "node budget exceeded"}
    cache.put(_key_for(cache, lo6, q, budget=858), stale)
    monkeypatch.undo()
    v = cached_check_arrow(cache, lo6, q, budget=858)
    assert (v.holds, v.nodes) == (True, 858)
    assert cache.stats() == {"hits": 0, "misses": 1, "evictions": 0}


def test_persists_across_instances(tmp_path, lo6):
    q = _lo5_failing_query(lo6)
    cached_check_arrow(ResultCache(str(tmp_path)), lo6, q)
    reopened = ResultCache(str(tmp_path))
    cached_check_arrow(reopened, lo6, q)
    assert reopened.stats()["hits"] == 1


def test_cache_never_changes_verdicts(tmp_path, lo6, inj3):
    cache = ResultCache(str(tmp_path))
    cells = [
        (lo6, _lo5_failing_query(lo6)),
        (lo6, ArrowQuery(obj(lo6, "LO", 2), obj(lo6, "LO", 3), obj(lo6, "LO", 6), 2, 1)),
        (inj3, ArrowQuery(obj(inj3, "Inj", 1), obj(inj3, "Inj", 2), obj(inj3, "Inj", 3), 2, 1)),
    ]
    for cat, q in cells:
        plain = check_arrow(cat, q)
        cold = cached_check_arrow(cache, cat, q)
        warm = cached_check_arrow(cache, cat, q)
        assert plain.holds == cold.holds == warm.holds
        assert plain.witness == cold.witness == warm.witness


def test_poisoned_witness_is_evicted(tmp_path, lo6):
    cache = ResultCache(str(tmp_path))
    q = _lo5_failing_query(lo6)
    cached_check_arrow(cache, lo6, q)
    key = _key_for(cache, lo6, q)
    path = os.path.join(str(tmp_path), key + ".json")
    with open(path, encoding="utf-8") as fh:
        entry = json.load(fh)
    # a constant coloring can never defeat the arrow, so replay must reject it
    entry["witness"] = [0] * len(entry["witness"])
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(entry, fh)
    with pytest.warns(UserWarning, match="failed replay"):
        v = cached_check_arrow(cache, lo6, q)
    assert v.holds is False
    assert cache.evictions == 1
    # the recomputed entry is written back and is healthy again
    assert cached_check_arrow(cache, lo6, q).holds is False


def _forge(path, **fields):
    with open(path, encoding="utf-8") as fh:
        entry = json.load(fh)
    entry.update({name: make(entry) for name, make in fields.items()})
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(entry, fh)


@pytest.mark.parametrize(
    "forgery",
    [
        # negative colours are all distinct, so they looked like a valid >t-coloring
        {"witness": lambda e: [-(i + 1) for i in range(len(e["domain"]))]},
        {"witness": lambda e: [0, 1] * (len(e["domain"]) // 2) + [2] * (len(e["domain"]) % 2)},
        {"witness": lambda e: [i % 2 for i in range(len(e["domain"]) - 1)]},
        {"witness": lambda e: [i / len(e["domain"]) for i in range(len(e["domain"]))]},
    ],
    ids=["negative-colours", "colour-out-of-range", "short-witness", "fractional-colours"],
)
def test_forged_failing_verdict_is_evicted(tmp_path, lo6, forgery):
    # LO_6 -> (LO_3)^{LO_2}_{2,1} holds, so nothing is stored for it; an
    # entry claiming a failure is written under its key
    cache = ResultCache(str(tmp_path))
    q = ArrowQuery(obj(lo6, "LO", 2), obj(lo6, "LO", 3), obj(lo6, "LO", 6), 2, 1)
    path = os.path.join(str(tmp_path), _key_for(cache, lo6, q) + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"witness": None, "domain": check_arrow(lo6, q).domain, "nodes": 0, "note": ""}, fh)
    _forge(path, **forgery)
    with pytest.warns(UserWarning, match="evicting"):
        v = cached_check_arrow(cache, lo6, q)
    assert v.holds is True
    assert cache.stats() == {"hits": 0, "misses": 1, "evictions": 1}
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize(
    "sizes",
    [(2, 3, 5, 2), (2, 3, 4, 2), (1, 2, 2, 2), (1, 3, 4, 2)],
    ids=lambda sizes: "LO_{}-LO_{}-LO_{}-k{}".format(*sizes),
)
def test_forged_hold_is_refused(tmp_path, lo6, sizes):
    # each query fails; an entry of the old form claiming that it holds
    # carries no witness to replay, so it is refused and the query searched
    cache = ResultCache(str(tmp_path))
    A, B, C, k = sizes
    q = ArrowQuery(obj(lo6, "LO", A), obj(lo6, "LO", B), obj(lo6, "LO", C), k, 1)
    fresh = check_arrow(lo6, q)
    assert fresh.holds is False
    cache.put(_key_for(cache, lo6, q), {"holds": True, "witness": None, "domain": fresh.domain, "nodes": 0, "note": ""})
    with pytest.warns(UserWarning, match="evicting"):
        v = cached_check_arrow(cache, lo6, q)
    assert (v.holds, v.witness, v.nodes) == (False, fresh.witness, fresh.nodes)
    assert cache.stats() == {"hits": 0, "misses": 1, "evictions": 1}


@pytest.mark.parametrize("budget", [10**8, 1], ids=["holding", "inconclusive"])
def test_only_a_failing_verdict_is_stored(tmp_path, lo6, budget):
    # LO_6 -> (LO_3)^{LO_2}_{2,1} holds after 858 nodes, so a budget of 1
    # leaves it inconclusive; neither verdict has a witness a read could check
    cache = ResultCache(str(tmp_path))
    q = ArrowQuery(obj(lo6, "LO", 2), obj(lo6, "LO", 3), obj(lo6, "LO", 6), 2, 1)
    for _ in range(2):
        assert cached_check_arrow(cache, lo6, q, budget=budget).holds is (True if budget > 1 else None)
    assert os.listdir(tmp_path) == []
    assert cache.stats() == {"hits": 0, "misses": 2, "evictions": 0}


@pytest.mark.parametrize(
    "forgery, warning",
    [
        ({"note": lambda e: 1}, "malformed"),
        ({"note": lambda e: None}, "malformed"),
        ({"witness": lambda e: None}, "failed replay"),
        ({"witness": lambda e: dict(zip(map(str, e["domain"]), e["witness"]))}, "failed replay"),
        ({"nodes": lambda e: "many"}, "malformed"),
        ({"nodes": lambda e: -1}, "malformed"),
        ({"nodes": lambda e: True}, "malformed"),
    ],
    ids=["note-int", "note-null", "witness-null", "witness-by-label", "nodes-string", "nodes-negative", "nodes-bool"],
)
def test_malformed_verdict_values_are_evicted(tmp_path, lo6, forgery, warning):
    cache = ResultCache(str(tmp_path))
    q = _lo5_failing_query(lo6)
    fresh = cached_check_arrow(cache, lo6, q)
    _forge(os.path.join(str(tmp_path), _key_for(cache, lo6, q) + ".json"), **forgery)
    with pytest.warns(UserWarning, match=warning):
        v = cached_check_arrow(cache, lo6, q)
    assert (v.holds, v.witness, v.nodes, v.note) == (False, fresh.witness, fresh.nodes, fresh.note)
    assert cache.stats() == {"hits": 0, "misses": 2, "evictions": 1}


def test_reordered_failing_entry_is_evicted(tmp_path, lo6):
    # the same coloring listed against a reordered domain still replays, but
    # the domain no longer matches what the category gives for the query
    cache = ResultCache(str(tmp_path))
    q = _lo5_failing_query(lo6)
    fresh = cached_check_arrow(cache, lo6, q)
    path = os.path.join(str(tmp_path), _key_for(cache, lo6, q) + ".json")
    _forge(path, domain=lambda e: e["domain"][::-1], witness=lambda e: e["witness"][::-1])
    with pytest.warns(UserWarning, match="domain mismatch"):
        v = cached_check_arrow(cache, lo6, q)
    assert (v.holds, v.domain, v.witness) == (False, fresh.domain, fresh.witness)
    assert cache.evictions == 1


def test_corrupt_json_is_evicted(tmp_path, lo6):
    cache = ResultCache(str(tmp_path))
    q = _lo5_failing_query(lo6)
    fresh = cached_check_arrow(cache, lo6, q)
    key = _key_for(cache, lo6, q)
    path = os.path.join(str(tmp_path), key + ".json")
    # not JSON, not UTF-8, and nested deeper than the JSON decoder recurses
    for evictions, content in enumerate((b"{not json", b"\xff\xfe", b"[" * 200_000), start=1):
        with open(path, "wb") as fh:
            fh.write(content)
        with pytest.warns(UserWarning, match="corrupt"):
            assert cached_check_arrow(cache, lo6, q).holds is False
        assert cache.evictions == evictions
        assert json.load(open(path))["witness"] == fresh.witness


def test_malformed_entry_is_evicted(tmp_path, lo6):
    cache = ResultCache(str(tmp_path))
    q = _lo5_failing_query(lo6)
    cached_check_arrow(cache, lo6, q)
    key = _key_for(cache, lo6, q)
    path = os.path.join(str(tmp_path), key + ".json")
    for entry in ({"unexpected": True}, {"holds": False, "witness": None}):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(entry, fh)
        with pytest.warns(UserWarning, match="malformed"):
            assert cached_check_arrow(cache, lo6, q).holds is False


def test_digest_survives_a_file_round_trip_and_sees_every_label(lo6, inj3):
    # the digest hashes the tables, not the file text, so it must still
    # change with each label and agree with the category read back
    text = dumps_category(lo6)
    assert category_digest(loads_category(text)) == category_digest(lo6)
    lines = text.splitlines(keepends=True)

    def relabelled(prefix):
        i = next(i for i, line in enumerate(lines) if line.startswith(prefix))
        return loads_category("".join(lines[:i] + [lines[i].rstrip("\n") + "x\n"] + lines[i + 1 :]))

    digests = [category_digest(cat) for cat in (lo6, relabelled("obj 0 "), relabelled("mor 0 "), inj3)]
    assert len(set(digests)) == 4


def test_distinct_queries_and_categories_do_not_collide(tmp_path, lo6, inj3):
    cache = ResultCache(str(tmp_path))
    q = _lo5_failing_query(lo6)
    q2 = ArrowQuery(q.A, q.B, q.C, q.k, 2)
    keys = {
        _key_for(cache, lo6, q),
        _key_for(cache, lo6, q2),
        _key_for(cache, inj3, q),
    }
    assert len(keys) == 3


def test_disabled_cache_passes_through(lo6, monkeypatch):
    monkeypatch.delenv("CATRAMSEY_CACHE_DIR", raising=False)
    cache = ResultCache(None)
    assert not cache.enabled
    q = _lo5_failing_query(lo6)
    assert cached_check_arrow(cache, lo6, q).holds is False
    assert cache.stats() == {"hits": 0, "misses": 0, "evictions": 0}


def test_directory_from_environment(tmp_path, lo6, monkeypatch):
    monkeypatch.setenv("CATRAMSEY_CACHE_DIR", str(tmp_path))
    cache = ResultCache()
    assert cache.enabled
    cached_check_arrow(cache, lo6, _lo5_failing_query(lo6))
    assert any(name.endswith(".json") for name in os.listdir(str(tmp_path)))


def test_writers_of_one_key_do_not_share_a_temporary_file(tmp_path, monkeypatch):
    # a second writer of the key puts its entry between the first one's write
    # and rename; with one shared "<key>.json.tmp" the second rename moved the
    # first writer's file, whose own rename then raised FileNotFoundError
    cache = ResultCache(str(tmp_path))
    replace, raced = os.replace, []

    def racing_replace(src, dst):
        if not raced:
            raced.append(src)
            cache.put("k", {"writer": 2})
        replace(src, dst)

    monkeypatch.setattr(os, "replace", racing_replace)
    cache.put("k", {"writer": 1})
    assert json.loads((tmp_path / "k.json").read_text()) == {"writer": 1}  # the last rename wins
    assert os.listdir(tmp_path) == ["k.json"]


def test_a_failed_write_leaves_no_temporary_file(tmp_path):
    cache = ResultCache(str(tmp_path))
    with pytest.raises(TypeError):
        cache.put("k", {"holds": object()})
    assert os.listdir(tmp_path) == []

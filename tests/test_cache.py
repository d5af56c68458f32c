import json
import os

import pytest

from catramsey import cache as cache_module
from catramsey.arrows import ArrowQuery, ArrowVerdict, check_arrow
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
    stale = ArrowVerdict(None, None, check_arrow(lo6, q).domain, 366, note="node budget exceeded")
    cache.put(_key_for(cache, lo6, q, budget=858), cache_module._verdict_to_entry(stale))
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
    # LO_6 -> (LO_3)^{LO_2}_{2,1} holds; its entry is rewritten to claim a failure
    cache = ResultCache(str(tmp_path))
    q = ArrowQuery(obj(lo6, "LO", 2), obj(lo6, "LO", 3), obj(lo6, "LO", 6), 2, 1)
    assert cached_check_arrow(cache, lo6, q).holds is True
    path = os.path.join(str(tmp_path), _key_for(cache, lo6, q) + ".json")
    _forge(path, holds=lambda e: False, **forgery)
    with pytest.warns(UserWarning, match="evicting"):
        v = cached_check_arrow(cache, lo6, q)
    assert v.holds is True
    assert cache.stats() == {"hits": 0, "misses": 2, "evictions": 1}


def test_sampled_holding_verdict_is_recomputed(tmp_path, lo6, monkeypatch):
    # LO_5 -> (LO_3)^{LO_2}_{2,1} fails; an entry claiming that it holds has
    # no witness to replay, so only the sampled recomputation can catch it
    cache = ResultCache(str(tmp_path))
    q = _lo5_failing_query(lo6)
    assert cached_check_arrow(cache, lo6, q).holds is False
    _forge(os.path.join(str(tmp_path), _key_for(cache, lo6, q) + ".json"), holds=lambda e: True, witness=lambda e: None)
    monkeypatch.setattr(cache_module, "VERIFY_SAMPLE_MOD", 1)
    with pytest.warns(UserWarning, match="failed recomputation"):
        v = cached_check_arrow(cache, lo6, q)
    assert v.holds is False
    assert cache.stats() == {"hits": 0, "misses": 2, "evictions": 1}


@pytest.mark.parametrize(
    "forgery",
    [
        {"holds": lambda e: "yes"},
        {"holds": lambda e: 1},
        {"witness": lambda e: [i % 2 for i in range(len(e["domain"]))]},
        {"holds": lambda e: None, "witness": lambda e: [0] * len(e["domain"])},
        {"nodes": lambda e: "many"},
        {"nodes": lambda e: -1},
        {"nodes": lambda e: True},
    ],
    ids=["holds-string", "holds-one", "holding-with-witness", "inconclusive-with-witness", "nodes-string",
         "nodes-negative", "nodes-bool"],
)
def test_malformed_verdict_values_are_evicted(tmp_path, lo6, forgery):
    # LO_6 -> (LO_3)^{LO_2}_{2,1} holds, and its key is outside the recomputed sample
    cache = ResultCache(str(tmp_path))
    q = ArrowQuery(obj(lo6, "LO", 2), obj(lo6, "LO", 3), obj(lo6, "LO", 6), 2, 1)
    fresh = cached_check_arrow(cache, lo6, q)
    key = _key_for(cache, lo6, q)
    assert int(key[:8], 16) % cache_module.VERIFY_SAMPLE_MOD != 0
    _forge(os.path.join(str(tmp_path), key + ".json"), **forgery)
    with pytest.warns(UserWarning, match="malformed"):
        v = cached_check_arrow(cache, lo6, q)
    assert (v.holds, v.witness, v.nodes) == (True, None, fresh.nodes)
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
    cached_check_arrow(cache, lo6, q)
    key = _key_for(cache, lo6, q)
    path = os.path.join(str(tmp_path), key + ".json")
    # not JSON, not UTF-8, and nested deeper than the JSON decoder recurses
    for evictions, content in enumerate((b"{not json", b"\xff\xfe", b"[" * 200_000), start=1):
        with open(path, "wb") as fh:
            fh.write(content)
        with pytest.warns(UserWarning, match="corrupt"):
            assert cached_check_arrow(cache, lo6, q).holds is False
        assert cache.evictions == evictions
        assert json.load(open(path))["holds"] is False


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

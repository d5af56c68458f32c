"""Seeded inputs and independent output checks for the three workloads.

Everything here is a pure function of the seed, so the same seed gives the
same inputs.  Nothing in this file imports catramsey: the checkers share no
code with the program they check.
"""

from __future__ import annotations

import hashlib
import json
import random

# -- matrix -------------------------------------------------------------------

# The largest config within the generator caps that finishes at threads=1.
MATRIX_CONFIG = {"lo_max": 7, "inj_max": 5, "surj_max": 5, "k_max": 3}
# The threads=2 part of a pass drops to Surj_4: at Surj_5 one native-dual
# query runs every branch to its per-branch budget and does not finish.
MATRIX_CONFIG_2T = {"lo_max": 7, "inj_max": 5, "surj_max": 4, "k_max": 3}


# -- search -------------------------------------------------------------------

# Sizes are chosen so that one pass over the suite at both thread counts takes
# a few seconds on the pure kernel, and the suite is large enough that the
# seed moves the total work by only a few percent.
RANDOM_COUNT = 150
RANDOM_POINTS = 28
RANDOM_EDGES_PER_POINT = 3  # well above the 2-colourability threshold: holds
CIRCULANT_COUNT = 150
CIRCULANT_POINTS = 30
CIRCULANT_PATTERNS = 3
SEARCH_K = 2
SEARCH_T = 1


def search_suite(seed: int) -> list[dict]:
    """3-uniform hypergraph colouring instances, k=2 and t=1.

    `random`: plain random edge sets, which mostly hold, so the search is
    exhaustive.  `circulant`: edges {i, i+a, i+b} mod n for a few (a, b)
    patterns, with the n rotations passed as point permutations, as Aut(C) is
    on real categories; the symmetry check dominates their search.
    """
    rng = random.Random(f"search-{seed}")
    suite = []
    for i in range(RANDOM_COUNT):
        n = RANDOM_POINTS
        edges: set[tuple[int, ...]] = set()
        while len(edges) < RANDOM_EDGES_PER_POINT * n:
            edges.add(tuple(sorted(rng.sample(range(n), 3))))
        suite.append({"name": f"random-{i}", "n": n, "edges": sorted(edges), "perms": []})
    for i in range(CIRCULANT_COUNT):
        n = CIRCULANT_POINTS
        patterns: set[tuple[int, int]] = set()
        while len(patterns) < CIRCULANT_PATTERNS:
            a, b = sorted(rng.sample(range(1, n), 2))
            patterns.add((a, b))
        edges = {tuple(sorted((v, (v + a) % n, (v + b) % n))) for v in range(n) for a, b in patterns}
        rotations = [tuple((v + r) % n for v in range(n)) for r in range(n)]
        suite.append({"name": f"circulant-{i}", "n": n, "edges": sorted(edges), "perms": rotations})
    # interleave the families so a pass cut short still sees both
    rng.shuffle(suite)
    return suite


def replay_colouring(n: int, edges, k: int, t: int, colours) -> bool:
    """True when `colours` is a colouring of all n points with colours in
    range(k) under which every edge sees more than t colours."""
    if colours is None or len(colours) != n:
        return False
    if any(type(c) is not int or not 0 <= c < k for c in colours):
        return False
    return all(len({colours[p] for p in e}) > t for e in edges)


# -- cli-stream ----------------------------------------------------------------

# Category files written at set-up: name -> (family, max size).
CLI_CATEGORIES = {"lo7": ("LO", 7), "inj5": ("Inj", 5), "surj5": ("Surj", 5)}

# Each stratum contributes a fixed number of invocations to every pass, drawn
# with replacement from its pool, so the mix of query kinds is the same for
# every seed while repeats (and so cache hits) still vary.  Object ids are
# size - 1 in all three families.  Every entry finishes at both thread counts:
# a failing query whose witness the serial search finds early, such as
# `arrow --cat surj5 --A 4 --B 3 --C 2`, does not finish at threads=2, because
# the parallel driver runs every branch to its per-branch budget.  Such queries
# are left out, as Surj_5 is from the threads=2 matrix.
CLI_STRATA: list[tuple[str, int, list[str]]] = [
    ("arrow-lo7", 2, [
        "arrow --cat lo7 --A 1 --B 2 --C 5 --k 2 --t 1",
        "arrow --cat lo7 --A 1 --B 2 --C 4 --k 2 --t 1",
        "arrow --cat lo7 --A 1 --B 2 --C 6 --k 2 --t 1",
    ]),
    ("arrow-inj5", 2, [
        "arrow --cat inj5 --A 1 --B 2 --C 4 --k 2 --t 1",
        "arrow --cat inj5 --A 0 --B 1 --C 3 --k 2 --t 1",
    ]),
    ("arrow-surj5", 2, [
        "arrow --cat surj5 --A 3 --B 2 --C 1 --k 2 --t 1",
        "arrow --cat surj5 --A 4 --B 3 --C 1 --k 2 --t 1",
    ]),
    ("subobject-inj5", 1, [
        "arrow --cat inj5 --A 1 --B 2 --C 4 --k 2 --t 1 --mode subobject",
        "arrow --cat inj5 --A 0 --B 1 --C 4 --k 2 --t 1 --mode subobject",
    ]),
    ("dual-surj5", 1, [
        "arrow --cat surj5 --A 1 --B 2 --C 3 --k 2 --t 1 --dual",
        "arrow --cat surj5 --A 0 --B 1 --C 3 --k 2 --t 1 --dual",
    ]),
    ("native-dual-surj5", 1, [
        "arrow --cat surj5 --A 1 --B 2 --C 3 --k 2 --t 1 --native-dual",
        "arrow --cat surj5 --A 0 --B 1 --C 3 --k 2 --t 1 --native-dual",
    ]),
    ("degree-inj5", 1, [
        "degree --cat inj5 --A 1 --mode m --kmax 2",
        "degree --cat inj5 --A 0 --mode m --kmax 2",
    ]),
    ("hom-aut", 1, [
        "hom --cat inj5 --A 2 --B 4",
        "hom --cat surj5 --A 4 --B 2",
        "aut --cat surj5 --A 3",
        "aut --cat inj5 --A 4",
    ]),
    ("validate-lo7", 1, ["validate --cat lo7"]),
]


def cli_catalogue() -> list[str]:
    """Every invocation a stream can draw, in a fixed order."""
    return [q for _, _, pool in CLI_STRATA for q in pool]


def cli_stream(seed: int) -> list[str]:
    """One pass: each stratum's draws, shuffled into a seeded order."""
    rng = random.Random(f"cli-{seed}")
    stream = [rng.choice(pool) for _, count, pool in CLI_STRATA for _ in range(count)]
    rng.shuffle(stream)
    return stream


def repeat_share(stream: list[str]) -> float:
    """Share of invocations that repeat an earlier one in the same pass."""
    return 1 - len(set(stream)) / len(stream)


def cli_argv(query: str, files: dict[str, str]) -> list[str]:
    """Command-line arguments for a catalogue entry, category names replaced
    by the paths of the files written at set-up."""
    words = query.split()
    i = words.index("--cat") + 1
    words[i] = files[words[i]]
    return words


def output_digest(stdout: str) -> str | None:
    """Digest of a CLI JSON document without its timing field; None when the
    output is not one JSON object."""
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError:
        return None
    if not isinstance(doc, dict):
        return None
    doc.pop("elapsed_ms", None)
    return hashlib.sha256(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()).hexdigest()

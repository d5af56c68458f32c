import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from catramsey.cli import main
from catramsey.core import MAX_MORPHISMS
from catramsey.degrees import degree_bounds, dual_degree_bounds
from catramsey.essential import EssentialQuery, find_essential_at_B
from catramsey.generators import UniverseSpec, generate
from catramsey.matrix import run_matrix
from catramsey import io as catio
from conftest import obj


@pytest.fixture(scope="module")
def lo6_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cats") / "lo6.txt"
    catio.dump_category_file(generate(UniverseSpec("LO", 6)), str(path))
    return str(path)


@pytest.fixture(scope="module")
def inj3_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cats") / "inj3.txt"
    catio.dump_category_file(generate(UniverseSpec("Inj", 3)), str(path))
    return str(path)


@pytest.fixture(scope="module")
def surj3_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cats") / "surj3.txt"
    catio.dump_category_file(generate(UniverseSpec("Surj", 3)), str(path))
    return str(path)


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, json.loads(out) if out else None


def test_gen_and_validate(tmp_path, capsys):
    out = str(tmp_path / "lo3.txt")
    code, doc = _run(capsys, "gen", "--family", "lo", "--max", "3", "--out", out)
    assert code == 0
    assert doc["objects"] == 3
    code, doc = _run(capsys, "validate", "--cat", out)
    assert code == 0
    assert doc["ok"] is True


def test_hom_and_aut(inj3_file, capsys, inj3):
    a1, a2 = obj(inj3, "Inj", 1), obj(inj3, "Inj", 2)
    code, doc = _run(capsys, "hom", "--cat", inj3_file, "--A", str(a1), "--B", str(a2))
    assert code == 0 and doc["count"] == 2
    code, doc = _run(capsys, "aut", "--cat", inj3_file, "--A", str(a2))
    assert code == 0 and doc["count"] == 2


@pytest.mark.parametrize("inverse, count", [(False, 6), (True, 5)])
def test_aut_on_a_file_missing_one_cmp_line(inverse, count, tmp_path, capsys, inj3):
    # drop one cmp line of Aut(Inj_3) x Aut(Inj_3): a composite that is not
    # the identity leaves all 6 automorphisms, the line t*t = id of a
    # transposition t leaves the other 5; the undefined cell raises nowhere
    a3 = obj(inj3, "Inj", 3)
    auts, e = inj3.automorphisms(a3), inj3.identity(a3)
    if inverse:
        g = f = next(t for t in auts if t != e and inj3.compose(t, t) == e)
    else:
        g, f = next((g, f) for g in auts for f in auts if e not in (g, f, inj3.compose(g, f)))
    lines = catio.dumps_category(inj3).splitlines(keepends=True)
    drop = f"cmp {g} {f} {inj3.compose(g, f)}\n"
    path = tmp_path / "inj3_missing.txt"
    path.write_text("".join(line for line in lines if line != drop))
    code, doc = _run(capsys, "aut", "--cat", str(path), "--A", str(a3))
    assert code == 0
    assert doc["automorphisms"] == [h for h in auts if h != f or not inverse]
    assert doc["count"] == count


def test_arrow_holds_and_fails(lo6_file, capsys, lo6):
    A, B = obj(lo6, "LO", 2), obj(lo6, "LO", 3)
    code, doc = _run(
        capsys, "arrow", "--cat", lo6_file, "--A", str(A), "--B", str(B), "--C", str(obj(lo6, "LO", 6)), "--k", "2", "--t", "1"
    )
    assert code == 0 and doc["holds"] is True
    assert "elapsed_ms" in doc
    code, doc = _run(
        capsys, "arrow", "--cat", lo6_file, "--A", str(A), "--B", str(B), "--C", str(obj(lo6, "LO", 5)), "--k", "2", "--t", "1"
    )
    assert code == 0 and doc["holds"] is False
    assert doc["witness"] is not None


def test_arrow_budget_inconclusive(lo6_file, capsys, lo6):
    A, B, C = obj(lo6, "LO", 2), obj(lo6, "LO", 3), obj(lo6, "LO", 6)
    code, doc = _run(
        capsys, "--budget", "0", "arrow", "--cat", lo6_file, "--A", str(A), "--B", str(B), "--C", str(C)
    )
    assert code == 2
    assert doc["holds"] is None


def test_negative_budget_is_a_usage_error(lo6_file, capsys, lo6):
    A, B, C = obj(lo6, "LO", 2), obj(lo6, "LO", 3), obj(lo6, "LO", 6)
    code = main(["--budget", "-1", "arrow", "--cat", lo6_file, "--A", str(A), "--B", str(B), "--C", str(C)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "budget must be >= 0" in json.loads(captured.err)["error"]


@pytest.mark.parametrize(
    "query",
    [
        # vacuous: no morphism from LO_3 into LO_2, so no search runs
        lambda lo6: ["arrow", "--A", str(obj(lo6, "LO", 2)), "--B", str(obj(lo6, "LO", 3)),
                     "--C", str(obj(lo6, "LO", 2))],
        # LO_1 has degree 1 on every C without a search
        lambda lo6: ["degree", "--A", str(obj(lo6, "LO", 1)), "--mode", "m"],
    ],
    ids=["vacuous-arrow", "degree"],
)
def test_negative_budget_is_a_usage_error_without_a_search(lo6_file, capsys, lo6, query):
    argv = query(lo6)
    code = main(["--budget", "-1", argv[0], "--cat", lo6_file, *argv[1:]])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "budget must be >= 0" in json.loads(captured.err)["error"]


def test_arrow_dual_routes(surj3_file, capsys):
    for flag in ("--dual", "--native-dual"):
        code, doc = _run(capsys, "arrow", "--cat", surj3_file, "--A", "2", "--B", "1", "--C", "0", "--k", "2", "--t", "1", flag)
        assert code == 0
        assert doc["holds"] in (True, False)


def test_arrow_dual_flags_are_exclusive(surj3_file, capsys):
    # --native-dual would win in silence, and it supports morphism mode only
    query = ["arrow", "--cat", surj3_file, "--A", "2", "--B", "1", "--C", "0"]
    assert main([*query, "--dual", "--native-dual"]) == 3
    assert main([*query, "--mode", "subobject", "--dual", "--native-dual"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not allowed with argument" in captured.err


def test_seed_is_echoed(lo6_file, capsys, lo6):
    A = obj(lo6, "LO", 1)
    code, doc = _run(capsys, "--seed", "7", "aut", "--cat", lo6_file, "--A", str(A))
    assert code == 0
    assert doc["seed"] == 7


def test_degree(inj3_file, capsys, inj3):
    a2 = obj(inj3, "Inj", 2)
    code, doc = _run(capsys, "degree", "--cat", inj3_file, "--A", str(a2), "--mode", "m")
    assert code == 0
    assert (doc["lower"], doc["upper"]) == (2, 2)
    assert doc["scope"] == "universe-relative"
    code, doc = _run(capsys, "degree", "--cat", inj3_file, "--A", str(a2), "--mode", "s")
    assert code == 0 and doc["upper"] == 1


def test_empty_bpool_is_the_default_pool_and_a_lone_comma_is_refused(inj3_file, capsys, inj3):
    query = ["degree", "--cat", inj3_file, "--A", str(obj(inj3, "Inj", 1))]
    assert _run(capsys, *query, "--bpool", "") == _run(capsys, *query)
    assert main([*query, "--bpool", ","]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "empty B_pool" in json.loads(captured.err)["error"]


def test_degree_dual(surj3_file, capsys, surj3):
    a2 = obj(surj3, "Surj", 2)
    code = main(["degree", "--cat", surj3_file, "--A", str(a2), "--dual"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == json.dumps(dual_degree_bounds(surj3, a2, route="opposite").as_dict(), sort_keys=True) + "\n"
    assert out != json.dumps(degree_bounds(surj3, a2).as_dict(), sort_keys=True) + "\n"


def test_k_max_above_the_largest_domain_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "unit.txt"
    path.write_text("objects: 1\nobj 0 pt\nmor 0 0 0 id\ncmp 0 0 0\n")
    assert main(["degree", "--cat", str(path), "--A", "0", "--kmax", str(MAX_MORPHISMS + 1)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "k_max" in json.loads(captured.err)["error"]


def test_essential_without_crosscheck(inj3_file, capsys, inj3):
    a1, a2, a3 = obj(inj3, "Inj", 1), obj(inj3, "Inj", 2), obj(inj3, "Inj", 3)
    code, doc = _run(capsys, "essential", "--cat", inj3_file, "--A", str(a1), "--B", str(a2), "--ambient", str(a3), "--t", "2")
    lam = find_essential_at_B(inj3, EssentialQuery(a1, a2, a3, 2))
    assert code == 0
    assert "crosscheck" not in doc
    assert doc["exists"] is (lam is not None)
    if lam is not None:
        assert doc["lambda"] == {str(f): c for f, c in lam.items()}


def test_essential_with_crosscheck(inj3_file, capsys, inj3):
    a1, a2, a3 = obj(inj3, "Inj", 1), obj(inj3, "Inj", 2), obj(inj3, "Inj", 3)
    code, doc = _run(
        capsys, "essential", "--cat", inj3_file, "--A", str(a1), "--B", str(a2), "--ambient", str(a3), "--t", "2", "--crosscheck"
    )
    assert code == 0
    assert doc["crosscheck"]["status"] == "ok"
    assert doc["exists"] == doc["crosscheck"]["essential_exists"]


def test_expansion_check_and_additivity(tmp_path, capsys):
    from catramsey.generators import forgetful_LO_to_Inj

    U = forgetful_LO_to_Inj(3)
    path = str(tmp_path / "forgetful.txt")
    catio.dump_functor_file(U, path)
    code, doc = _run(capsys, "expansion", "check", "--functor", path)
    assert code == 0
    assert doc["status"] == "ok"
    down = U.downstairs
    a2, a3 = obj(down, "Inj", 2), obj(down, "Inj", 3)
    code, doc = _run(
        capsys,
        "expansion", "verify-additivity", "--functor", path,
        "--A", str(a2), "--bpool", str(a2), "--universe", f"{a2},{a3}",
    )
    assert code == 0
    assert doc["downstairs_degree"] == doc["sum"] == 2


def test_expansion_build_coloring(tmp_path, capsys):
    base_path = str(tmp_path / "inj2.txt")
    base = generate(UniverseSpec("Inj", 2))
    catio.dump_category_file(base, base_path)
    a1 = obj(base, "Inj", 1)
    out = str(tmp_path / "coloring.txt")
    code, doc = _run(
        capsys, "expansion", "build-coloring", "--base", base_path, "--degrees", f"{a1}=2", "--out", out
    )
    assert code == 0
    assert doc["written"] == out
    U = catio.load_functor_file(out)
    assert U.validate_functor()["status"] == "ok"


def test_build_coloring_with_a_repeated_object_is_a_usage_error(inj3_file, capsys):
    code = main(["expansion", "build-coloring", "--base", inj3_file, "--degrees", "0=1,0=2"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "small object 0 twice" in json.loads(captured.err)["error"]


@pytest.mark.parametrize("degrees, pair", [("1=2,2", "'2'"), ("1=2=3", "'1=2=3'"), ("1=x", "'1=x'")])
def test_build_coloring_names_a_malformed_degrees_pair(inj3_file, capsys, degrees, pair):
    code = main(["expansion", "build-coloring", "--base", inj3_file, "--degrees", degrees])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == f"--degrees pair {pair} is not <object>=<degree>"


def test_build_coloring_on_a_tampered_base_is_a_usage_error(tmp_path, capsys):
    # Inj_2 with 4*1 rewritten: it loads, validate reports associativity
    # violation [4, 4, 2], and a lifted composite then has no upstairs morphism
    text = catio.dumps_category(generate(UniverseSpec("Inj", 2)))
    assert "\ncmp 4 1 2\n" in text
    base_path = tmp_path / "inj2_tampered.txt"
    base_path.write_text(text.replace("\ncmp 4 1 2\n", "\ncmp 4 1 1\n"))
    code, doc = _run(capsys, "validate", "--cat", str(base_path))
    assert code == 1 and doc["associativity_violations"] == [[4, 4, 2]]
    code = main(["expansion", "build-coloring", "--base", str(base_path), "--degrees", "0=2"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "is not a morphism" in json.loads(captured.err)["error"]
    # 4*1 rewritten to a morphism of another hom-set: the colour lookup of
    # the composite must fail as a usage error, not with a KeyError
    base_path.write_text(text.replace("\ncmp 4 1 2\n", "\ncmp 4 1 0\n"))
    code = main(["expansion", "build-coloring", "--base", str(base_path), "--degrees", "0=2"])
    assert code == 3
    assert "does not end at object" in json.loads(capsys.readouterr().err)["error"]


def test_expansion_check_on_a_malformed_functor_is_a_usage_error(tmp_path, capsys):
    from catramsey.generators import forgetful_LO_to_Inj

    text = catio.dumps_functor(forgetful_LO_to_Inj(2))
    cases = [
        ("\numap mor 0 0\n", "\n", "morphism_map has no entry for upstairs morphism 0"),
        ("\numap mor 1 1\n", "\numap mor 1 999\n", "unknown downstairs mor 999"),
    ]
    for old, new, message in cases:
        assert old in text
        path = tmp_path / "functor.txt"
        path.write_text(text.replace(old, new))
        assert main(["expansion", "check", "--functor", str(path)]) == 3
        assert message in json.loads(capsys.readouterr().err)["error"]


def test_expansion_check_reports_a_map_that_breaks_composition(tmp_path, capsys):
    # upstairs mor 1 sent to a downstairs morphism that does not compose
    # with the image of its partner: a violation, not a usage error
    from catramsey.generators import forgetful_LO_to_Inj

    text = catio.dumps_functor(forgetful_LO_to_Inj(2))
    assert "\numap mor 1 1\n" in text
    path = tmp_path / "functor.txt"
    path.write_text(text.replace("\numap mor 1 1\n", "\numap mor 1 3\n"))
    code, doc = _run(capsys, "expansion", "check", "--functor", str(path))
    assert code == 1 and doc["status"] == "violation"
    assert any(p.startswith("composition not preserved at") for p in doc["checks"]["functor"]["problems"])


def test_verify_aut_bridge_and_dual(inj3_file, surj3_file, capsys, inj3):
    a2 = obj(inj3, "Inj", 2)
    code, doc = _run(capsys, "verify", "aut-bridge", "--cat", inj3_file, "--A", str(a2))
    assert code == 0
    assert doc["morphism_degree"] == doc["aut"] * doc["subobject_degree"]
    code, doc = _run(capsys, "verify", "dual", "--cat", surj3_file, "--A", "0")
    assert code == 0
    assert doc["status"] == "ok"


def test_verify_product(inj3_file, tmp_path, capsys, inj3):
    lo2_path = str(tmp_path / "lo2.txt")
    lo2 = generate(UniverseSpec("LO", 2))
    catio.dump_category_file(lo2, lo2_path)
    code, doc = _run(
        capsys, "verify", "product", "--cat1", inj3_file, "--cat2", lo2_path,
        "--A1", str(obj(inj3, "Inj", 2)), "--A2", str(obj(lo2, "LO", 1)),
    )
    assert code == 0
    assert doc["product_degree_upper"] <= doc["bound"]


def test_matrix_default(capsys, monkeypatch):
    monkeypatch.delenv("CATRAMSEY_CACHE_DIR", raising=False)
    code, doc = _run(capsys, "matrix")
    assert code == 0
    assert doc["status"] == "ok"
    assert doc["report"]["config"] == {"lo_max": 6, "inj_max": 4, "surj_max": 3, "k_max": 2}


def test_matrix_takes_the_global_budget(capsys, monkeypatch):
    monkeypatch.delenv("CATRAMSEY_CACHE_DIR", raising=False)
    code, doc = _run(capsys, "--budget", "0", "matrix")
    assert code == 2
    assert doc["stats"]["budget"] == 0
    cell = doc["report"]["cells"]["arrow_lo_6"]
    assert (cell["status"], cell["holds"], cell["expected"]) == ("inconclusive", None, True)


def test_usage_errors(capsys, tmp_path):
    assert main([]) == 3
    assert main(["arrow", "--cat", "/nonexistent", "--A", "0", "--B", "0", "--C", "0"]) == 3
    bad = tmp_path / "bad.txt"
    bad.write_text("objects: x\n")
    assert main(["validate", "--cat", str(bad)]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("line_no, line", [(1, "objects:"), (2, "obj"), (3, "mor 0 0"), (4, "cmp 0 0")])
def test_truncated_directive_is_a_usage_error(tmp_path, capsys, line_no, line):
    lines = ["objects: 1", "obj 0 x", "mor 0 0 0 id", "cmp 0 0 0"]
    lines[line_no - 1] = line
    path = tmp_path / "truncated.txt"
    path.write_text("\n".join(lines) + "\n")
    assert main(["validate", "--cat", str(path)]) == 3
    assert f"line {line_no}:" in json.loads(capsys.readouterr().err)["error"]


@pytest.mark.parametrize("line_no, line", [(1, "objects: x"), (2, "obj z x"), (3, "mor 0 0 z id"), (4, "cmp 0 z 0")])
def test_non_integer_field_is_a_usage_error_naming_its_line(tmp_path, capsys, line_no, line):
    lines = ["objects: 1", "obj 0 x", "mor 0 0 0 id", "cmp 0 0 0"]
    lines[line_no - 1] = line
    path = tmp_path / "non_integer.txt"
    path.write_text("\n".join(lines) + "\n")
    assert main(["validate", "--cat", str(path)]) == 3
    assert f"line {line_no}:" in json.loads(capsys.readouterr().err)["error"]


@pytest.mark.parametrize(
    "config, field",
    [
        ([1], "config"),
        ({"lo_max": "7"}, "lo_max"),
        ({"inj_max": 4.0}, "inj_max"),
        ({"surj_max": None}, "surj_max"),
        ({"lo_max": True}, "lo_max"),
        ({"k_max": 2.5}, "k_max"),
        ({"budget": "x"}, "budget"),
        ({"expectations": [1]}, "expectations"),
        ({"lo_mx": 7}, "lo_mx"),
        ({"expectations": {"arrow_lo6": False}}, "expectations"),
        ({"expectations": {"arrow_lo_6": "yes"}}, "expectations"),
        ({"expectations": {"arrow_lo_6": 1}}, "expectations"),
        ({"budget": -1, "lo_max": 5, "inj_max": 2, "surj_max": 1}, "budget"),
        ({"k_max": 1}, "k_max"),
        # a family size runs from 0 (no cells) up to its generation cap
        ({"lo_max": -1}, "lo_max"),
        ({"inj_max": -1}, "inj_max"),
        ({"surj_max": -3}, "surj_max"),
        ({"lo_max": 8}, "lo_max"),
        ({"inj_max": 7}, "inj_max"),
        ({"surj_max": 6}, "surj_max"),
        # no domain has more than MAX_MORPHISMS items to colour
        ({"k_max": MAX_MORPHISMS + 1, "lo_max": 0, "inj_max": 0, "surj_max": 0}, "k_max"),
        # the node budget is the global --budget, and the LO verdicts are fixed
        ({"budget": 100, "lo_max": 0, "inj_max": 0, "surj_max": 0}, "budget"),
        ({"expectations": {}, "lo_max": 0, "inj_max": 0, "surj_max": 0}, "expectations"),
        # file text, not a value: nested deeper than the JSON decoder recurses
        pytest.param("[" * 200_000, "config", id="config23-deep-nesting"),
    ],
)
def test_malformed_matrix_config_is_a_usage_error(tmp_path, capsys, config, field):
    path = tmp_path / "config.json"
    path.write_text(config if isinstance(config, str) else json.dumps(config))
    assert main(["matrix", "--config", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert field in json.loads(captured.err)["error"]


@pytest.mark.parametrize(
    "case", ["cat_is_a_directory", "out_under_a_file", "cache_dir_under_a_file", "zero_threads", "negative_threads"]
)
def test_os_errors_and_thread_counts_below_one_are_usage_errors(tmp_path, monkeypatch, capsys, lo6_file, case):
    regular = tmp_path / "regular.txt"
    regular.write_text("")
    query = ["arrow", "--cat", lo6_file, "--A", "0", "--B", "1", "--C", "2"]
    argv = {
        "cat_is_a_directory": ["validate", "--cat", str(tmp_path)],
        "out_under_a_file": ["gen", "--family", "lo", "--max", "2", "--out", str(regular / "x.txt")],
        "cache_dir_under_a_file": query,
        "zero_threads": ["--threads", "0", *query],
        "negative_threads": ["--threads", "-4", *query],
    }[case]
    monkeypatch.setenv("CATRAMSEY_CACHE_DIR", str(regular / "cache") if case == "cache_dir_under_a_file" else "")
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert "threads must be >= 1" in error if case.endswith("threads") else error


def test_empty_matrix_config_runs_the_default_cells():
    # every missing field takes its default, so {} is the default config
    assert run_matrix({}).report["cells"] == run_matrix().report["cells"]


def test_cli_import_does_not_load_numpy():
    # the package has no numpy dependency; keep it from creeping back in.
    # Nor does an arrow or degree query need the expansion, essential or
    # matrix layers, whose subcommands import them when they run.
    src = str(Path(catio.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    unloaded = ["numpy", "catramsey.expansions", "catramsey.essential", "catramsey.matrix"]
    probe = f"import sys, catramsey.cli; print([m for m in {unloaded!r} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"

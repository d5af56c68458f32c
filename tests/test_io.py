import hashlib
import io
import re

import pytest
from hypothesis import given, settings, strategies as st

from catramsey import io as catio, kernel
from catramsey.core import MAX_MORPHISMS, CategoryError, validate
from catramsey.generators import UniverseSpec, generate, forgetful_LO_to_Inj
from conftest import matrix_coloring_expansion, same_category, surj3_coloring_expansion


def test_category_round_trip(lo4):
    text = catio.dumps_category(lo4)
    back = catio.loads_category(text)
    assert same_category(back, lo4)
    assert validate(back).ok


@pytest.mark.parametrize(
    "family, size, digest",
    [
        ("LO", 4, "b1f8b2dac26882d622cdc77443d6d202ad08572c556e105aafb275f397297d6e"),
        ("Inj", 3, "ad6e77209232cd3a9c5f70a0ddece7f2ad95c6971474972773a584370cef8b89"),
        ("Surj", 3, "860fa182364244bfc785530e9776ce8349511d508d4fb4c783824c19359af422"),
        ("Inj", 5, "64e8a465a8160b7a6b384007264edf2d0122b6e0f481297e12487b4c599e46b9"),
        ("Surj", 5, "a165df5b9440527cacb18c676bb1cc2b5aab3ef9832a8d84638868a5b327d15f"),
        ("LO", 7, "7a68f78ad18202bbac04d855ed144c63a917ad07077b7288ce0737df5ab4e1aa"),
    ],
)
def test_dump_bytes_are_stable(family, size, digest):
    # cache keys hash these bytes, so any change to them orphans every cache
    cat = generate(UniverseSpec(family, size))
    text = catio.dumps_category(cat)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    # and they load back, through the bulk read, to the generated category
    assert same_category(catio.loads_category(text), cat)


@pytest.mark.parametrize(
    "build, digest",
    [
        (lambda: forgetful_LO_to_Inj(3), "32a11a981191273fde381921c00b813d39755b0a4f1b03f782a00a5dd6285ae9"),
        (matrix_coloring_expansion, "d871400140c84983e52e36294276a7096c21b12ecaa6e11445b05f98717bb85f"),
        (surj3_coloring_expansion, "59628440a1855a48e3e3977093688dc47a5601fdab8424e4d40e494190e6d173"),
    ],
    ids=["forgetful_3", "coloring_inj_2", "coloring_surj_3"],
)
def test_functor_dump_bytes_are_stable(build, digest):
    # morphism ids, labels, composition and the maps of both expansions
    assert hashlib.sha256(catio.dumps_functor(build()).encode()).hexdigest() == digest


def test_duplicate_object_id_rejected():
    text = "objects: 2\nobj 0 a\nobj 0 b\n"
    with pytest.raises(catio.ParseError) as err:
        catio.loads_category(text)
    assert "line 3" in str(err.value)


def test_duplicate_morphism_id_rejected():
    text = "objects: 1\nobj 0 x\nmor 0 0 0 id\nmor 0 0 0 e\ncmp 0 0 0\n"
    with pytest.raises(catio.ParseError) as err:
        catio.loads_category(text)
    assert "line 4" in str(err.value)


def test_dangling_reference_rejected():
    # FiniteCategory refuses these; the parser then names the first bad line
    for text, message in (
        ("objects: 1\nobj 0 x\nmor 0 0 5 f\ncmp 0 0 0\n", "line 3: dangling object reference"),
        ("objects: 1\nobj 0 x\nmor 0 0 0 id\ncmp 0 3 0\n", "line 4: dangling morphism reference 3"),
        ("objects: 1\nobj 0 x\ncmp 0 3 0\nmor 0 0 5 f\n", "line 3: dangling morphism reference 3"),
    ):
        with pytest.raises(catio.ParseError) as err:
            catio.loads_category(text)
        assert str(err.value) == message


@pytest.mark.parametrize(
    "text, message",
    [
        ("objects: 1\nobj 0 x\nmor 0 0 5 f\nfrob\n", "line 4: unknown directive 'frob'"),
        (
            "objects: 1\nobj 0 x\nmor 0 0 0 id\ncmp 0 3 0\ncmp +0 0 0\n",
            "line 5: cmp fields must be ASCII decimal integers separated by spaces or tabs",
        ),
        ("objects: 1\nobj 0 x\nmor 0 0 5 f\nmor 1 0 0 id\ncmp 0 7 0\n", "line 3: dangling object reference"),
    ],
    ids=["grammar_after_a_header_reference", "grammar_after_a_cmp_reference", "header_reference_before_a_cmp_one"],
)
def test_a_line_no_file_may_hold_is_named_before_an_earlier_bad_reference(text, message):
    # a line outside the grammar is named wherever it is; among bad
    # references, header or cmp, the first in file order is
    with pytest.raises(catio.ParseError) as err:
        catio.loads_category(text)
    assert str(err.value) == message


@pytest.mark.parametrize("repeat", ["cmp 0 0 0", "cmp 0 0 1"])
def test_duplicate_composition_entry_rejected_with_its_line(repeat):
    text = f"objects: 1\nobj 0 x\nmor 0 0 0 id\nmor 1 0 0 e\ncmp 0 0 0\n{repeat}\ncmp 0 1 1\n"
    with pytest.raises(catio.ParseError, match=r"line 6: duplicate composition entry \(0,0\)"):
        catio.loads_category(text)


def test_object_count_above_the_morphism_cap_refused_at_its_header():
    # every object needs its own identity morphism
    with pytest.raises(catio.ParseError, match="line 1:"):
        catio.loads_category(f"objects: {MAX_MORPHISMS + 1}\n")


def test_morphism_count_above_the_cap_refused_before_the_table():
    text = "objects: 1\n" + "".join(f"mor {i} 0 0 {i}\n" for i in range(MAX_MORPHISMS + 1))
    # the first mor line past the cap is named
    message = f"line {MAX_MORPHISMS + 2}: morphism {MAX_MORPHISMS} would exceed the cap"
    with pytest.raises(catio.ParseError, match=message):
        catio.loads_category(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("objects: 1\nobj 0 x\nobj 5 y\nmor 0 0 0 id\ncmp 0 0 0\n", "line 3: object id 5 out of range"),
        ("objects: 1\nobj 0 x\nmor 0 0 0 id\nmor 2 0 0 e\ncmp 0 0 0\n", "line 4: morphism id 2 leaves a gap: ids must be 0..1"),
        ("objects: 1\nmor -1 0 0 e\nobj 0 x\nmor 0 0 0 id\ncmp 0 0 0\n", "line 2: morphism id -1 leaves a gap: ids must be 0..1"),
    ],
    ids=["object_out_of_range", "morphism_id_gap", "negative_morphism_id"],
)
def test_a_bad_object_or_morphism_id_names_its_line(text, message):
    with pytest.raises(catio.ParseError) as err:
        catio.loads_category(text)
    assert str(err.value) == message


# two objects x, y and e: x -> y, with every composite on a composable pair
_X_TO_Y = "objects: 2\nobj 0 x\nobj 1 y\nmor 0 0 0 idx\nmor 1 1 1 idy\nmor 2 0 1 e\ncmp 0 0 0\ncmp 1 1 1\ncmp 2 0 2\ncmp 1 2 2\n"


@pytest.mark.parametrize("after", ["", "mor 3 0 7 f\n", "mor 9 0 0 f\n"], ids=["alone", "dangling_mor_after", "mor_gap_after"])
def test_an_off_pair_composite_names_its_line(after):
    assert validate(catio.loads_category(_X_TO_Y)).ok
    # line 11 defines idx*idy, but idy ends at y and idx starts at x; a bad
    # mor line after it leaves it the first bad line
    with pytest.raises(catio.ParseError) as err:
        catio.loads_category(_X_TO_Y + "cmp 0 1 1\n" + after)
    assert str(err.value) == "line 11: 0*1 is defined, but 0 and 1 are not composable"


_SMALL_DUMPS = [catio.dumps_category(generate(UniverseSpec(f, n))) for f, n in (("LO", 3), ("Inj", 2), ("Surj", 2))]
_FIELD = st.one_of(st.integers(-2, 12).map(str), st.sampled_from(["x", "0.5", "-", str(MAX_MORPHISMS + 1)]))


@st.composite
def one_line_changes(draw):
    """A small dump with one line changed: one field of it, or the whole
    line, which may go."""
    lines = draw(st.sampled_from(_SMALL_DUMPS)).splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    parts = lines[i].split()
    if draw(st.booleans()):
        # one field of the line changes
        parts[draw(st.integers(0, len(parts) - 1))] = draw(_FIELD)
    else:
        # the whole line changes, or goes
        directive = draw(st.sampled_from(["objects:", "obj", "mor", "cmp", "#", "frob", ""]))
        parts = [directive, *draw(st.lists(_FIELD, max_size=5))]
    lines[i] = " ".join(parts)
    return "\n".join(lines) + "\n"


@settings(max_examples=400, deadline=None)
@given(one_line_changes())
def test_a_one_line_change_loads_or_names_a_line_of_the_file(text):
    try:
        catio.loads_category(text)
    except CategoryError as exc:
        for named in re.findall(r"\bline (-?\d+)", str(exc)):
            assert 1 <= int(named) <= len(text.splitlines()), str(exc)


def test_objects_header_may_follow_its_lines():
    cat = catio.loads_category("obj 0 x\nmor 0 0 0 id\ncmp 0 0 0\nobjects: 1\n")
    assert cat.object_labels == ("x",) and cat.identities == (0,)


def _records_first(text: str) -> str:
    """The text with each category block's cmp lines moved before its header
    lines; section headers and umap lines stay where they are."""
    out: list[str] = []
    block: list[str] = []
    for line in text.splitlines():
        if line in ("upstairs:", "downstairs:") or line.startswith("umap "):
            out += sorted(block, key=lambda s: not s.startswith("cmp")) + [line]
            block = []
        else:
            block.append(line)
    return "\n".join(out + sorted(block, key=lambda s: not s.startswith("cmp"))) + "\n"


_LAYOUTS = {
    "tabs": lambda text: text.replace(" ", "\t"),
    "repeated_blanks": lambda text: text.replace(" ", "  \t "),
    "leading_and_trailing_blanks": lambda text: "".join(f" \t{line} \n" for line in text.splitlines()),
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "comments_and_blank_lines": lambda text: text.replace("\n", "\n# a comment\n\n  \n"),
    "header_after_records": _records_first,
}
_LAYOUT_TEXTS = {
    "LO_3": _SMALL_DUMPS[0],
    "Inj_2": _SMALL_DUMPS[1],
    "Surj_2": _SMALL_DUMPS[2],
    "forgetful_2": catio.dumps_functor(forgetful_LO_to_Inj(2)),
}


@pytest.mark.parametrize("layout", _LAYOUTS)
@pytest.mark.parametrize("name", _LAYOUT_TEXTS)
def test_a_layout_variant_loads_as_the_canonical_text(name, layout):
    text = _LAYOUT_TEXTS[name]
    variant = _LAYOUTS[layout](text)
    assert variant != text
    if name == "forgetful_2":
        want, got = (catio.load_functor(io.StringIO(t)) for t in (text, variant))
        assert catio.dumps_functor(got) == catio.dumps_functor(want)
    else:
        assert same_category(catio.loads_category(variant), catio.loads_category(text))


@pytest.mark.parametrize(
    "line, message",
    [
        ("cmp 0 0 0 0", "cmp takes 3 fields, got 4"),
        ("cmp +0 0 0", "cmp fields must be ASCII decimal integers separated by spaces or tabs"),
        ("cmp 0 0_0 0", "cmp fields must be ASCII decimal integers separated by spaces or tabs"),
        ("cmp 0 0 ٠", "cmp fields must be ASCII decimal integers separated by spaces or tabs"),
        ("cmp 0\xa00 0", "cmp fields must be ASCII decimal integers separated by spaces or tabs"),
    ],
    ids=["fourth_field", "plus_sign", "underscore", "arabic_indic_digit", "no_break_space"],
)
def test_a_cmp_line_outside_the_grammar_names_its_line(line, message):
    # int() and str.split() accept each of these; the bad line is named even
    # when a later line is bad too
    text = f"objects: 1\nobj 0 x\nmor 0 0 0 id\n{line}\nfrob\n"
    with pytest.raises(catio.ParseError) as err:
        catio.loads_category(text)
    assert str(err.value) == f"line 4: {message}"


_BLANKS = st.sampled_from([" ", "\t", "  ", " \t", "\xa0", "　"])
_EDGES = st.sampled_from(["", " ", "\t", "\xa0"])
_SPELLINGS = st.sampled_from(["plain", "leading_zero", "plus", "underscore", "arabic_indic"])


@st.composite
def respelt_cmp_lines(draw):
    """A small dump, and that dump with one cmp line respelt, the line's
    index, and whether the respelt line keeps the grammar."""
    text = draw(st.sampled_from(_SMALL_DUMPS))
    lines = text.splitlines()
    i = draw(st.sampled_from([k for k, line in enumerate(lines) if line.startswith("cmp")]))
    fields, ok = ["cmp"], True
    for value in lines[i].split()[1:]:
        spelling = draw(_SPELLINGS)
        ok &= spelling in ("plain", "leading_zero")
        fields.append({
            "plain": value,
            "leading_zero": "0" + value,
            "plus": "+" + value,
            "underscore": "0_" + value,
            "arabic_indic": "".join(chr(0x660 + int(d)) for d in value),
        }[spelling])
    if draw(st.booleans()):
        fields.append("0")
        ok = False
    blanks = [draw(_EDGES), *(draw(_BLANKS) for _ in fields[1:]), draw(_EDGES)]
    ok &= set("".join(blanks)) <= {" ", "\t"}
    lines[i] = blanks[0] + "".join(b + f for b, f in zip(["", *blanks[1:-1]], fields)) + blanks[-1]
    return text, "\n".join(lines) + "\n", i, ok


@settings(max_examples=300, deadline=None)
@given(respelt_cmp_lines())
def test_a_respelt_cmp_line_loads_exactly_when_it_keeps_the_grammar(respelt):
    text, variant, i, ok = respelt
    if ok:
        assert same_category(catio.loads_category(variant), catio.loads_category(text))
    else:
        with pytest.raises(catio.ParseError, match=f"^line {i + 1}: cmp "):
            catio.loads_category(variant)


def test_zero_objects_is_the_empty_category():
    cat = catio.loads_category("objects: 0\n")
    assert (cat.n_objects, cat.n_morphisms) == (0, 0)


def _refuse(name: str):
    def run(*args):
        raise AssertionError(f"{name} ran")

    return run


def test_a_dumped_category_loads_without_the_line_scan(surj3, monkeypatch):
    text = catio.dumps_category(surj3)
    with monkeypatch.context() as m:
        if kernel.READER is not None:
            # where the library is built, the compiled reader loads it, and
            # the pure reader never runs
            m.setattr(catio, "_read_category", _refuse("the pure reader"))
            m.setattr(catio, "_fill_table", _refuse("the pure table fill"))
        assert same_category(catio.loads_category(text), surj3)
        # and so are both category blocks of a functor file
        functor = forgetful_LO_to_Inj(2)
        assert catio.dumps_functor(catio.load_functor(io.StringIO(catio.dumps_functor(functor)))) == catio.dumps_functor(functor)
    # a malformed file is refused by one run of the pure reader, which names its line
    read_category, pure = catio._read_category, []
    monkeypatch.setattr(catio, "_read_category", lambda *args: pure.append(args) or read_category(*args))
    line_no = text[: text.index("\ncmp ")].count("\n") + 2
    with pytest.raises(catio.ParseError, match=f"^line {line_no}: cmp takes 3 fields, got 4$"):
        catio.loads_category(text.replace("\ncmp ", "\ncmp 0 ", 1))
    assert len(pure) == 1


def test_a_crlf_dump_loads_to_the_table_of_the_lf_dump(surj3, monkeypatch, tmp_path):
    text = catio.dumps_category(surj3)
    want = catio.loads_category(text)
    crlf = text.replace("\n", "\r\n")
    read_category, pure = catio._read_category, []
    monkeypatch.setattr(catio, "_read_category", lambda *args: pure.append(args) or read_category(*args))
    # the pure reader reads it: the compiled one declines a \r
    got = catio.loads_category(crlf)
    assert len(pure) == 1
    assert same_category(got, want) and got._table.tobytes() == want._table.tobytes()
    # a file opened by path has its line ends turned into \n as it is read
    path = tmp_path / "crlf.txt"
    path.write_bytes(crlf.encode())
    from_file = catio.load_category_file(str(path))
    assert same_category(from_file, want) and from_file._table.tobytes() == want._table.tobytes()


def test_unknown_directive_rejected():
    with pytest.raises(catio.ParseError):
        catio.loads_category("objects: 1\nobj 0 x\nfrob 1 2\n")


@pytest.mark.parametrize(
    "text, line",
    [
        ("objects:\n", 1),
        ("objects: 1\nobj\n", 2),
        ("objects: 1\nobj 0 x\nmor 0 0\n", 3),
        ("objects: 1\nobj 0 x\nmor 0 0 0 id\ncmp 0 0\n", 4),
        ("objects: -1\n", 1),
    ],
    ids=["objects", "obj", "mor", "cmp", "negative_objects"],
)
def test_truncated_directive_rejected(text, line):
    with pytest.raises(catio.ParseError) as err:
        catio.loads_category(text)
    assert f"line {line}:" in str(err.value)


@pytest.mark.parametrize(
    "line_no, line",
    [
        (1, "objects: x"),
        (2, "obj z x"),
        (3, "mor z 0 0 id"),
        (3, "mor 0 z 0 id"),
        (3, "mor 0 0 z id"),
        (4, "cmp z 0 0"),
        (4, "cmp 0 0.5 0"),
        (4, "cmp 0 0 z"),
    ],
)
def test_non_integer_field_rejected_with_its_line(line_no, line):
    lines = ["objects: 1", "obj 0 x", "mor 0 0 0 id", "cmp 0 0 0"]
    lines[line_no - 1] = line
    with pytest.raises(catio.ParseError, match=f"line {line_no}:"):
        catio.loads_category("\n".join(lines) + "\n")


def test_functor_round_trip(tmp_path):
    U = forgetful_LO_to_Inj(2)
    path = tmp_path / "functor.txt"
    catio.dump_functor_file(U, str(path))
    back = catio.load_functor_file(str(path))
    assert same_category(back.upstairs, U.upstairs)
    assert same_category(back.downstairs, U.downstairs)
    assert back.object_map == U.object_map
    assert back.morphism_map == U.morphism_map
    assert back.validate_functor()["status"] == "ok"


def _forgetful2_dump_with(old: str, new: str) -> str:
    text = catio.dumps_functor(forgetful_LO_to_Inj(2))
    assert f"\n{old}\n" in text
    return text.replace(f"\n{old}\n", f"\n{new}\n")


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("umap mor 1 1", "umap mor 1 999", "unknown downstairs mor 999"),
        ("umap obj 2 1", "umap obj 2 7", "unknown downstairs obj 7"),
        ("umap obj 2 1", "umap obj 9 1", "unknown upstairs obj 9"),
    ],
)
def test_functor_map_must_cover_known_ids(old, new, message):
    with pytest.raises(catio.ParseError, match=message):
        catio.load_functor(io.StringIO(_forgetful2_dump_with(old, new)))


def test_functor_map_missing_an_entry_is_refused_by_the_functor():
    # no line is at fault: ExpansionFunctor names the upstairs id left out
    with pytest.raises(CategoryError, match="morphism_map has no entry for upstairs morphism 0"):
        catio.load_functor(io.StringIO(_forgetful2_dump_with("umap mor 0 0", "")))


@pytest.mark.parametrize("old, new", [("umap obj 2 1", "umap obj z 1"), ("umap mor 1 1", "umap mor 1 one")])
def test_non_integer_umap_field_rejected_with_its_line(old, new):
    text = _forgetful2_dump_with(old, new)
    line_no = text.splitlines().index(new) + 1
    with pytest.raises(catio.ParseError, match=f"line {line_no}:"):
        catio.load_functor(io.StringIO(text))


def test_truncated_directive_in_a_functor_block_rejected():
    # both category blocks of a functor file go through the category parser
    with pytest.raises(catio.ParseError, match="line 7:"):
        catio.load_functor(io.StringIO(_forgetful2_dump_with("mor 1 0 1 0", "mor 1 0")))


def test_file_round_trip(tmp_path, surj3):
    path = tmp_path / "surj.txt"
    catio.dump_category_file(surj3, str(path))
    assert same_category(catio.load_category_file(str(path)), surj3)


@pytest.mark.parametrize("pick", [0, -1])
def test_an_undefined_composite_is_left_out_of_the_dump(pick):
    # a loaded file may leave a composable pair undefined: its row is written
    # entry by entry, and the dump drops exactly that line
    lo = generate(UniverseSpec("LO", 3))
    lines = catio.dumps_category(lo).splitlines(keepends=True)
    identities = set(map(str, lo.identities))
    cmp_lines = [i for i, line in enumerate(lines) if line.startswith("cmp") and not identities & set(line.split()[1:3])]
    i = cmp_lines[pick]
    g, f = map(int, lines[i].split()[1:3])
    assert len(lo._into[lo.mor_dom[g]]) > 1  # the row keeps other entries
    text = "".join(lines[:i] + lines[i + 1 :])
    cat = catio.loads_category(text)
    assert validate(cat).missing_compositions == [(g, f)]
    assert catio.dumps_category(cat) == text
    assert same_category(catio.loads_category(catio.dumps_category(cat)), cat)

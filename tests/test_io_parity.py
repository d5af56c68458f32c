"""The compiled category reader and writer against the pure ones.

The compiled reader, built here with every warning an error and the
undefined-behaviour sanitizer on, either returns exactly the category that
the pure reader returns (labels, dom and cod, the table's bytes) or declines
the text.  It never accepts a file that the pure reader refuses, and it
declines only a text with a line break other than \\n, which str.splitlines
splits at and the pure reader therefore reads.  The compiled cmp-line
writer, built the same way, writes the pure writer's bytes, through
dumps_category and dump_category_file alike, and nothing past its buffer.
"""

import os
import shutil
from array import array
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from catramsey import io as catio, kernel
from catramsey.core import CategoryError, FiniteCategory, product
from catramsey.generators import UniverseSpec, generate
from conftest import random_categories
from test_io import _SMALL_DUMPS, one_line_changes, respelt_cmp_lines

# the line breaks of str.splitlines other than \n
ODD_BREAKS = ["\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def pure(text: str):
    lines = text.splitlines()
    try:
        return catio._read_category(lines, range(1, len(lines) + 1))
    except CategoryError:
        return None


def compiled(reader, text: str):
    try:
        return catio._read_compiled(text, reader)
    except ValueError:  # declined or refused; CategoryError included
        return None


def facts(cat):
    return cat.object_labels, cat.mor_labels, cat.mor_dom, cat.mor_cod, cat.identities, cat._table.tobytes()


def assert_parity(reader, text: str) -> bool:
    """Check the compiled reader against the pure one on `text`; True when
    the compiled reader read it."""
    got, want = compiled(reader, text), pure(text)
    if got is None:
        assert want is None or any(b in text for b in ODD_BREAKS), "the compiled reader declined a plain file"
        return False
    assert want is not None, "the compiled reader accepted a file that the pure reader refuses"
    assert facts(got) == facts(want)
    return True


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(one_line_changes(), respelt_cmp_lines().map(lambda respelt: respelt[1])))
def test_the_compiled_reader_reads_a_changed_file_as_the_pure_one(compiled_kernel, text):
    assert_parity(compiled_kernel, text)


@pytest.mark.parametrize("family, size", [("LO", 4), ("Inj", 3), ("Surj", 3)])
def test_the_compiled_reader_reads_a_dump(compiled_kernel, family, size):
    text = catio.dumps_category(generate(UniverseSpec(family, size)))
    assert assert_parity(compiled_kernel, text)
    # more header lines than the first scan makes room for
    assert assert_parity(compiled_kernel, "# a comment\n" * 5000 + text)


# LO_3's dump, the obj line that the label cases change, and the cmp line
# that each cmp case changes, with whether the file then loads
_LO_3 = _SMALL_DUMPS[0]
_OBJ = "obj 0 LO_1"
_CMP = "cmp 0 0 0"
_CMP_CASES = {
    "25_digit_id": (_CMP, "cmp 1234567890123456789012345 0 0", False),
    "minus_zero": (_CMP, "cmp -0 0 -000", True),
    "leading_zeros": ("cmp 7 1 3", "cmp 007 01 0003", True),
    "tabs": (_CMP, "\tcmp\t0\t\t0 \t0", True),
    "trailing_blanks": (_CMP, "cmp 0 0 0 \t ", True),
    "no_blank_after_cmp": (_CMP, "cmp1 2 3 4", False),
    "plus_sign": (_CMP, "cmp +0 0 0", False),
    "underscore": (_CMP, "cmp 1_0 0 0", False),
    "arabic_indic_digit": (_CMP, "cmp 0 \u0660 0", False),
    "minus_alone": (_CMP, "cmp - 0 0", False),
    "fourth_field": (_CMP, "cmp 0 0 0 0", False),
    "no_break_space": (_CMP, "cmp 0\xa00 0", False),
    "leading_no_break_space": (_CMP, "\xa0cmp 0 0 0", False),
    "a_repeat": (_CMP, "cmp 0 0 0\ncmp 0 0 0", False),
    "id_past_the_morphisms": (_CMP, "cmp 0 0 99", False),
    "negative_id": (_CMP, "cmp 0 0 -1", False),
}


@pytest.mark.parametrize("case", _CMP_CASES)
def test_the_compiled_reader_reads_a_fixed_cmp_line_as_the_pure_one(compiled_kernel, case):
    old, new, loads = _CMP_CASES[case]
    assert f"\n{old}\n" in _LO_3
    assert assert_parity(compiled_kernel, _LO_3.replace(f"\n{old}\n", f"\n{new}\n")) is loads


@pytest.mark.parametrize("label", ["\xa3", "\u2013", "\u2027", "\u202a", "\xc2\x84", "\xe9\u2192x"])
def test_the_compiled_reader_takes_a_label_near_a_line_break(compiled_kernel, label):
    # UTF-8 that starts as U+0085, U+2028 or U+2029 does, and is none of them
    assert f"\n{_OBJ}\n" in _LO_3
    assert assert_parity(compiled_kernel, _LO_3.replace(f"\n{_OBJ}\n", f"\nobj 0 {label}\n"))


@pytest.mark.parametrize("where", ["cmp_middle", "cmp_end", "label_middle", "label_end"])
@pytest.mark.parametrize("brk", ODD_BREAKS, ids=[f"U+{ord(b[0]):04X}" + ("_LF" if len(b) > 1 else "") for b in ODD_BREAKS])
def test_the_compiled_reader_declines_an_odd_line_break(compiled_kernel, brk, where):
    old, new = {
        "cmp_middle": (_CMP, f"cmp 0{brk}0 0"),
        "cmp_end": (_CMP, f"{_CMP}{brk}"),
        "label_middle": (_OBJ, f"obj 0 x{brk}y"),
        "label_end": (_OBJ, f"{_OBJ}{brk}"),
    }[where]
    text = _LO_3.replace(f"\n{old}\n", f"\n{new}\n")
    assert not assert_parity(compiled_kernel, text)
    with pytest.raises(ValueError, match="line break"):
        compiled_kernel.scan_lines(text.encode())


def test_the_compiled_reader_refuses_what_it_cannot_hold(compiled_kernel):
    for bad in ("cmp 0 0 0\n", bytearray(b"cmp 0 0 0\n")):
        with pytest.raises(ValueError):
            compiled_kernel.scan_lines(bad)
    for n_mor in (-1, 46341):
        with pytest.raises(ValueError, match="n_mor"):
            compiled_kernel.fill_table(b"", n_mor)
    assert compiled_kernel.fill_table(b"cmp 0 0 0", 1).tolist() == [0]
    assert compiled_kernel.fill_table(b"", 0).tolist() == []
    with pytest.raises(ValueError):
        compiled_kernel.fill_table(b"cmp 0 0 0", 0)


def test_the_compiled_reader_is_in_use_where_it_can_be_built():
    # _kernel builds its library on first import when there is a C compiler
    # and the package directory is writable; a reader that silently fell
    # back would leave every load on the pure path
    package = Path(kernel.__file__).parent
    if shutil.which("cc") is None or not os.access(package, os.W_OK):
        pytest.skip("the compiled library cannot be built here")
    assert kernel.READER is not None


# the compiled cmp-line writer against the pure one


def written(reader, cat, tmp_path=None):
    """The dump of `cat` with `reader` as the compiled library, the pure
    writer when None: dumps_category's text, encoded, or, given tmp_path,
    the bytes that dump_category_file writes."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel, "READER", reader)
        if tmp_path is None:
            return catio.dumps_category(cat).encode()
        path = tmp_path / f"{'pure' if reader is None else 'compiled'}.txt"
        catio.dump_category_file(cat, str(path))
        return path.read_bytes()


def _copy(cat):
    morphisms = list(zip(cat.mor_dom, cat.mor_cod, cat.mor_labels))
    return FiniteCategory(cat.object_labels, morphisms, array("i", cat._table), cat.identities)


def with_undefined(cat, pick):
    """A copy of `cat` whose table has the composable cell g*f set to -1
    after construction, for the pick-th (g, f) whose g and f are no
    identities, as a file that leaves a cmp line out loads."""
    copy = _copy(cat)
    pairs = [(g, f) for g, f, _ in cat.compose_entries() if not {g, f} & set(cat.identities)]
    g, f = pairs[pick]
    copy._table[g * cat.n_morphisms + f] = -1
    return copy


def with_off_pair(cat):
    """A copy of `cat` with an entry set after construction on the first
    pair that does not compose, which neither writer writes."""
    copy, m = _copy(cat), cat.n_morphisms
    g, f = next((g, f) for g in range(m) for f in range(m) if not cat.composable(g, f))
    copy._table[g * m + f] = 0
    return copy


def _writer_cases():
    sizes = (("LO", 4), ("Inj", 3), ("Surj", 3), ("Inj", 5))
    bases = {f"{family}_{size}": generate(UniverseSpec(family, size)) for family, size in sizes}
    cases = {**bases, **{f"{name}_op": cat.opposite() for name, cat in bases.items()}}
    cases["Inj_3xLO_4"] = product(bases["Inj_3"], bases["LO_4"])
    cases["Surj_3xSurj_3_op"] = product(bases["Surj_3"], cases["Surj_3_op"])
    cases["empty"] = FiniteCategory([], [], array("i"), [])
    for pick in (0, -1):
        cases[f"LO_4_undefined_{pick}"] = with_undefined(bases["LO_4"], pick)
        cases[f"Surj_3_op_undefined_{pick}"] = with_undefined(cases["Surj_3_op"], pick)
    cases["Inj_3_off_pair"] = with_off_pair(bases["Inj_3"])
    return cases


WRITER_CASES = _writer_cases()


@pytest.mark.parametrize("name", WRITER_CASES)
def test_the_compiled_writer_writes_as_the_pure_one(compiled_kernel, name, tmp_path):
    cat = WRITER_CASES[name]
    text = written(None, cat)
    assert written(compiled_kernel, cat) == text
    assert written(compiled_kernel, cat, tmp_path) == written(None, cat, tmp_path) == text


def test_the_compiled_writer_leaves_out_an_undefined_composite(compiled_kernel):
    full, cut = WRITER_CASES["LO_4"], WRITER_CASES["LO_4_undefined_0"]
    lines, kept = written(compiled_kernel, full).splitlines(), written(compiled_kernel, cut).splitlines()
    assert len(kept) == len(lines) - 1 and set(kept) < set(lines)


@settings(max_examples=100, deadline=None)
@given(cat=random_categories(), data=st.data())
def test_the_compiled_writer_writes_a_random_category_as_the_pure_one(compiled_kernel, cat, data):
    # with some of its composites undefined after construction
    cells = [g * cat.n_morphisms + f for g, f, _ in cat.compose_entries()]
    for cell in data.draw(st.lists(st.sampled_from(cells), max_size=3)):
        cat._table[cell] = -1
    assert written(compiled_kernel, cat) == written(None, cat)


def test_the_compiled_writer_stops_at_the_end_of_its_buffer(compiled_kernel):
    cat = WRITER_CASES["Surj_3"]
    text = written(None, cat)
    block = text[text.index(b"cmp") :]
    need = len(block)
    for size in (need - 1, need, need + 5):
        memory = bytearray(b"\xaa" * (need + 16))
        view = memoryview(memory)[:size]
        if size < need:
            with pytest.raises(ValueError, match=f"take {need} bytes"):
                compiled_kernel.write_cmp(cat._table, cat.mor_dom, cat.mor_cod, view)
        else:
            assert compiled_kernel.write_cmp(cat._table, cat.mor_dom, cat.mor_cod, view) == need
            assert memory[:need] == block
        # nothing past the buffer's end, nor past the lines' end
        assert memory[min(size, need) :] == b"\xaa" * (need + 16 - min(size, need))
    assert compiled_kernel.write_cmp(array("i"), (), (), bytearray()) == 0


def test_the_compiled_writer_refuses_what_it_cannot_hold(compiled_kernel):
    for table, dom, cod in (
        (array("i", [0]), (0,), ()),
        (array("i", [0, 0]), (0,), (0,)),
        (array("l", [0]), (0,), (0,)),
        ([0], (0,), (0,)),
    ):
        with pytest.raises(ValueError):
            compiled_kernel.write_cmp(table, dom, cod, bytearray(64))
    with pytest.raises(ValueError, match="take 10 bytes"):
        compiled_kernel.write_cmp(array("i", [0]), (0,), (0,), bytearray())

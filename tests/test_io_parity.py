"""The compiled category reader against the pure one.

The compiled reader, built here with every warning an error and the
undefined-behaviour sanitizer on, either returns exactly the category that
the pure reader returns (labels, dom and cod, the table's bytes) or declines
the text.  It never accepts a file that the pure reader refuses, and it
declines only a text with a line break other than \\n, which str.splitlines
splits at and the pure reader therefore reads.
"""

import os
import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from catramsey import io as catio, kernel
from catramsey.core import CategoryError
from catramsey.generators import UniverseSpec, generate
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

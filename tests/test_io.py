import hashlib

import pytest

from catramsey import io as catio
from catramsey.core import validate
from catramsey.generators import UniverseSpec, generate, forgetful_LO_to_Inj


def test_category_round_trip(lo4):
    text = catio.dumps_category(lo4)
    back = catio.loads_category(text)
    assert back.structurally_equal(lo4)
    assert validate(back).ok
    assert back.identities == lo4.identities


@pytest.mark.parametrize(
    "family, size, digest",
    [
        ("LO", 4, "b1f8b2dac26882d622cdc77443d6d202ad08572c556e105aafb275f397297d6e"),
        ("Inj", 3, "ad6e77209232cd3a9c5f70a0ddece7f2ad95c6971474972773a584370cef8b89"),
        ("Surj", 3, "860fa182364244bfc785530e9776ce8349511d508d4fb4c783824c19359af422"),
    ],
)
def test_dump_bytes_are_stable(family, size, digest):
    # cache keys hash these bytes, so any change to them orphans every cache
    text = catio.dumps_category(generate(UniverseSpec(family, size)))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


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
    text = "objects: 1\nobj 0 x\nmor 0 0 5 f\ncmp 0 0 0\n"
    with pytest.raises(catio.ParseError):
        catio.loads_category(text)
    text = "objects: 1\nobj 0 x\nmor 0 0 0 id\ncmp 0 3 0\n"
    with pytest.raises(catio.ParseError):
        catio.loads_category(text)


def test_unknown_directive_rejected():
    with pytest.raises(catio.ParseError):
        catio.loads_category("objects: 1\nobj 0 x\nfrob 1 2\n")


def test_functor_round_trip(tmp_path):
    U = forgetful_LO_to_Inj(2)
    path = tmp_path / "functor.txt"
    catio.dump_functor_file(U, str(path))
    back = catio.load_functor_file(str(path))
    assert back.upstairs.structurally_equal(U.upstairs)
    assert back.downstairs.structurally_equal(U.downstairs)
    assert back.object_map == U.object_map
    assert back.morphism_map == U.morphism_map
    assert back.validate_functor()["status"] == "ok"


def test_file_round_trip(tmp_path, surj3):
    path = tmp_path / "surj.txt"
    catio.dump_category_file(surj3, str(path))
    assert catio.load_category_file(str(path)).structurally_equal(surj3)

"""Every test of test_io.py again, with the compiled category reader taken
away, so that each file goes through the pure reader, which reads every
file wherever the compiled library is not built; and what a refusal by the
pure reader costs."""

import tracemalloc

import pytest

from catramsey import io as catio, kernel
from catramsey.core import CategoryError
from catramsey.generators import UniverseSpec, generate
from test_io import *  # noqa: F403 -- the tests, collected again here


@pytest.fixture(autouse=True)
def pure_reader(monkeypatch):
    monkeypatch.setattr(kernel, "READER", None)


def _traced_peak(text: str) -> int:
    """The peak of the memory that tracemalloc traces while the text is
    loaded or refused."""
    tracemalloc.start()
    try:
        catio.loads_category(text)
    except CategoryError:
        pass
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak


def test_refusing_a_bad_last_line_costs_no_more_memory_than_the_good_read():
    # the fault is found where the line is read, with the memory of the
    # good read; no second pass keeps a record per line
    text = catio.dumps_category(generate(UniverseSpec("Inj", 5)))
    good = _traced_peak(text)
    assert _traced_peak(text + "cmp 0 0 999999\n") <= 1.3 * good

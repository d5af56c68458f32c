"""Every test of test_io.py again, with the compiled category reader taken
away, so that each file goes through the pure reader, which reads every
file wherever the compiled library is not built."""

import pytest

from catramsey import kernel
from test_io import *  # noqa: F403 -- the tests, collected again here


@pytest.fixture(autouse=True)
def pure_reader(monkeypatch):
    monkeypatch.setattr(kernel, "READER", None)

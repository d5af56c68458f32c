"""Every test of test_core.py again, with the compiled table check taken
away, so that each category's table goes through core's pure check, which
is the only one wherever the compiled library is not built."""

import pytest

from catramsey import kernel
from test_core import *  # noqa: F403 -- the tests, collected again here


@pytest.fixture(autouse=True)
def pure_check(monkeypatch):
    monkeypatch.setattr(kernel, "READER", None)

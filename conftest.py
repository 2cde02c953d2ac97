"""Shared by every test path (tests/ and perfbench/tests/)."""

import pytest

from bondsim import circuits


@pytest.fixture(autouse=True)
def _cold_fragment_memo():
    """Each test compiles as a fresh process does: the fragment memo of
    `circuits.compile_circuit` starts empty, so a test that counts KAK
    calls does not depend on which tests ran before it."""
    circuits._fragment.cache_clear()

"""Fixtures shared by the files of ``tests/``."""

import pytest

from nmesolve import problem


@pytest.fixture
def forget_analysis():
    """``cache_clear`` of the psi analysis that ``problem._critical_angles`` remembers:
    call it where the next analysis of a pair must run.  The entry the test leaves, which
    it may have made under patched routines, is cleared when it ends."""
    clear = problem._psi_analysis.cache_clear
    yield clear
    clear()

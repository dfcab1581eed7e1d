"""Shared test helpers."""

from contextlib import contextmanager

import pytest

from price_display_auctions import QualityModel


@contextmanager
def _counting_q_calls():
    """Count ``QualityModel.q`` calls made inside the block.

    Yields a reader of the running count.  ``q`` is wrapped on the base
    class, which no quality kind overrides, and restored on exit, also
    when the block raises.
    """
    original = QualityModel.q
    calls = 0

    def counted(self, p, p_min):
        nonlocal calls
        calls += 1
        return original(self, p, p_min)

    QualityModel.q = counted
    try:
        yield lambda: calls
    finally:
        QualityModel.q = original


@pytest.fixture
def count_q_calls():
    """The ``q()`` call counter, as a context manager:
    ``with count_q_calls() as calls: ...; calls()``."""
    return _counting_q_calls

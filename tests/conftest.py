"""Shared test helpers."""

import heapq
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


@contextmanager
def _counting_heap_pops():
    """Count ``heapq.heappop`` calls made inside the block.

    Yields a reader of the running count.  The indirect table pops its
    bound-ordered bids through the ``heapq`` module, where the wrapper is
    installed and restored on exit, also when the block raises.
    """
    original = heapq.heappop
    pops = 0

    def counted(heap):
        nonlocal pops
        pops += 1
        return original(heap)

    heapq.heappop = counted
    try:
        yield lambda: pops
    finally:
        heapq.heappop = original


@pytest.fixture
def count_heap_pops():
    """The ``heappop`` call counter, as a context manager:
    ``with count_heap_pops() as pops: ...; pops()``."""
    return _counting_heap_pops

"""The size rule in matching: pools align to the same bytes on either side
of SMALL_LIMIT.

test_golden.py's pools align below the limit and test_golden_large.py's
above it. Moving the limit to 0 sends every alignment through numpy and
scipy, and moving it past every pool sends every alignment through the
standard library; the pinned bytes must not change either way.
"""
from __future__ import annotations

import hashlib

import pytest

import test_golden
import test_golden_large
from abscon import matching
from abscon.abstraction import abstract
from abscon.domains import profile

PINNED = [pytest.param(test_golden._pool, *case, id=f"golden-{i}")
          for i, case in enumerate(test_golden.GOLDEN)]
PINNED += [pytest.param(test_golden_large._pool, *case, id=f"golden_large-{i}")
           for i, case in enumerate(test_golden_large.GOLDEN_LARGE)]


@pytest.mark.parametrize("limit", [0, 10**6])
@pytest.mark.parametrize("pool,source,domain,overrides,expected", PINNED)
def test_pinned_bytes_on_either_side_of_the_limit(monkeypatch, limit, pool, source, domain,
                                                  overrides, expected):
    monkeypatch.setattr(matching, "SMALL_LIMIT", limit)
    text = abstract(pool(source), profile(domain, **overrides)).to_json()
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == expected

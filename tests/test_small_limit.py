"""The size rule in matching: pools align to the same bytes on either side
of SMALL_LIMIT.

test_golden.py's pools align below the limit and test_golden_large.py's
above it. Moving the limit to 0 sends every warm start through numpy and
scipy, and moving it past every pool sends every warm start through the
standard library; the pinned bytes must not change either way, nor may
the partial models of unrelated large flowcharts, whose warm starts tie.
"""
from __future__ import annotations

import hashlib
import random

import pytest

import test_golden
import test_golden_large
from abscon import matching
from abscon.abstraction import abstract
from abscon.domains import profile
from genutil import random_flowchart

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


@pytest.mark.parametrize("seed,tau", [(3, 0.2), (5, None), (7, None), (9, 0.2)])
def test_the_limit_never_changes_the_answer(monkeypatch, seed, tau):
    rng = random.Random(f"big/{seed}/{tau}")
    n = rng.randint(30, 60)
    pool = [random_flowchart(rng, n) for _ in range(4)]
    prof = profile("flowchart", **({} if tau is None else {"tau": tau}))
    texts = []
    for limit in (0, 10**6):
        monkeypatch.setattr(matching, "SMALL_LIMIT", limit)
        texts.append(abstract(pool, prof).to_json())
    assert texts[0] == texts[1]

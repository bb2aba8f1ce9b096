"""A pick from a Python list must cost its one random draw, whatever
the list's length.

The synthetic feed (``repro.data.generator``) picks addresses and
payment tokens from Python lists, and its shared pools grow with the
buyer count. ``Generator.choice(list)`` turns the list into an array
before its one ``integers(0, len)`` draw, so a pick from 10,000 entries
cost 46-48x a pick from 2 on a 2-core Xeon VM (numpy 2.4).
``TransactionGenerator._pick`` makes that draw and indexes the list.
``test_pool_pick_ratio_floor`` holds one pick from a 10,000-entry pool
to at most ``PICK_RATIO_BUDGET``x one from a 2-entry pool: the median of
the per-pair ratios of two timings alternated in one process
(``_helpers.paired_ratio``), so machine speed cancels and a slow spell
moves one pair only (CI's perf-smoke runs it). On the same VM it read
1.04-1.20x over 32 runs as a ratio of medians; the budget is that worst
reading + 15%. The notes of PR 47's entry in ``BENCH_ledger.json`` hold
both estimators from the same runs.
"""

import numpy as np

from _helpers import alternated_readings, paired_ratio
from repro.data import GeneratorConfig, TransactionGenerator

PICK_RATIO_BUDGET = 1.38  # a pick from 10,000 entries vs from 2 (worst read 1.20x)
POOL_SIZES = (2, 10_000)
PICKS = 2_000


def test_pool_pick_ratio_floor():
    """A pool pick must not pay for the pool's length."""
    generator = TransactionGenerator(GeneratorConfig(seed=0))
    small, large = (list(range(size)) for size in POOL_SIZES)
    small_us, large_us = alternated_readings(
        [lambda: generator._pick(small), lambda: generator._pick(large)], number=PICKS
    )
    ratio = paired_ratio(large_us, small_us)
    print(
        f"\npool pick: {np.median(small_us):.2f} us from {POOL_SIZES[0]:,} entries, "
        f"{np.median(large_us):.2f} us from {POOL_SIZES[1]:,} -> {ratio:.2f}x per pair "
        f"(budget <= {PICK_RATIO_BUDGET:.2f}x)"
    )
    assert ratio <= PICK_RATIO_BUDGET

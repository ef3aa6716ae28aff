"""The recorded sweep digests: each line of ``data/sweeps.txt`` against its sweep.

A sweep hashes every value that a root or prime function returns over a fixed
set of inputs (``sweeps.py``), so a changed root, plan or prime check changes
its digest even where no other test looks.  A line changed on purpose is
logged in ``CHANGES.md`` with its reason.
"""

from pathlib import Path

import pytest

from powmap import modnum
from sweeps import SWEEPS

RECORDED = dict(line.split() for line in (Path(__file__).parent / "data" / "sweeps.txt").read_text().splitlines())


@pytest.mark.parametrize("name", RECORDED)
def test_sweep_digest_matches_record(name):
    try:
        assert SWEEPS[name]() == RECORDED[name]
    finally:
        modnum._key_plan.cache_clear()  # later tests build their plans afresh, in any order

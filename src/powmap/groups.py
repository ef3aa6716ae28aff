"""Cyclic structure of the root set.

Every root of order exactly t generates a length-t power cycle; merging
cycles that coincide as sets partitions the t**2 roots into g groups
(six when t = 5, twelve when t = 6).  Lower-order roots recur across
groups, and the column-index rule below identifies them in bulk.
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import roots


class GroupPartition(namedtuple("GroupPartition", "t modulus groups multiplicity")):
    """Deduplicated power cycles (1, a, ..., a**(t-1)) over one root set;
    multiplicity maps each root to the number of cycles containing it."""

    __slots__ = ()


def cyclic_groups(rs: roots.RootSet) -> GroupPartition:
    """Partition the root set into the cycles of its order-t members.

    Generators are walked ascending, skipping one seen in an earlier cycle
    (it generates that cycle), so each cycle keeps its smallest generator;
    tuples keep power order (1, a, a**2, ...).  multiplicity counts the
    cycles containing each root.
    """
    groups, seen = [], set()
    for a in roots.eligible_generators(rs):
        if a not in seen:
            groups.append(tuple(pow(a, j, rs.modulus) for j in range(rs.t)))
            seen.update(groups[-1])
    multiplicity = {r: sum(r in g for g in groups) for r in rs.roots}
    return GroupPartition(rs.t, rs.modulus, tuple(groups), multiplicity)


def multiplicity_report(gp: GroupPartition) -> dict[int, list[int]]:
    """Root values bucketed by how many groups contain them.

    1 is omitted (it sits in every group); each bucket is sorted ascending.
    """
    buckets: dict[int, list[int]] = {}
    for r, count in gp.multiplicity.items():
        if r == 1 or count == 0:
            continue
        buckets.setdefault(count, []).append(r)
    return {k: sorted(v) for k, v in sorted(buckets.items())}


def group_matrix(gp: GroupPartition) -> tuple[tuple[tuple[int, ...], ...], list[int]]:
    """The cycles as a g x t matrix plus the unusable initial values.

    Entry (i, j) is generator_i**j.  Values appearing in a column whose
    index j shares a factor with t (including column 0) have order below t
    and cannot seed a full cycle; they are returned sorted ascending.
    """
    bad_cols = [j for j in range(gp.t) if math.gcd(j, gp.t) != 1]
    ineligible = sorted({row[j] for row in gp.groups for j in bad_cols})
    return gp.groups, ineligible

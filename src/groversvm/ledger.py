"""Counters for oracle calls, measurement shots, and classical evaluations.

Every learner and circuit-level operation reports its cost through a
:class:`QueryLedger`.  Counters are non-negative integers (not bool); merging two
ledgers sums them componentwise, so per-trial ledgers can be combined in any
order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .sim import _check_int


@dataclass
class QueryLedger:
    oracle_queries: int = 0
    shots: int = 0
    classical_evaluations: int = 0

    def __post_init__(self):
        for name in ("oracle_queries", "shots", "classical_evaluations"):
            _check_int(getattr(self, name), name)

    @property
    def total_queries(self) -> int:
        """Oracle accesses of either flavor: quantum applications plus classical calls."""
        return self.oracle_queries + self.classical_evaluations

    def merged(self, other: "QueryLedger") -> "QueryLedger":
        return QueryLedger(
            oracle_queries=self.oracle_queries + other.oracle_queries,
            shots=self.shots + other.shots,
            classical_evaluations=self.classical_evaluations + other.classical_evaluations,
        )


def merge_ledgers(ledgers) -> QueryLedger:
    return reduce(QueryLedger.merged, ledgers, QueryLedger())

"""The transaction log: a batch of transaction rows.

One row of the platform's transaction log (Figure 3 of the paper) is a
:class:`~repro.data.events.TxnEvent`: a transaction id, the linking
entities it uses (buyer account, billing email, payment token, shipping
address), the feature vector produced by the upstream risk-identification
system, and the fraud/legit flag used for supervision. The same type is
the stream's event, so a log row and the event it is exported as are
one object.

Guest checkouts (Appendix G.3) have ``buyer_id = None`` — the paper
highlights that xFraud can still link them through payment token,
email, or shipping address.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from .events import TxnEvent


@dataclass
class TransactionLog:
    """A batch of transaction rows plus bookkeeping."""

    records: List[TxnEvent] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def append(self, record: TxnEvent) -> None:
        self.records.append(record)

    def fraud_rate(self) -> float:
        if not self.records:
            return 0.0
        return float(np.mean([r.label for r in self.records]))

    def feature_matrix(self) -> np.ndarray:
        """Stacked transaction features in record order."""
        if not self.records:
            return np.zeros((0, 0))
        return np.stack([r.features for r in self.records])

    def labels(self) -> np.ndarray:
        return np.array([r.label for r in self.records], dtype=np.int64)

    def scenario_counts(self) -> dict:
        counts: dict = {}
        for record in self.records:
            counts[record.scenario] = counts.get(record.scenario, 0) + 1
        return counts

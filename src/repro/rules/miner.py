"""Rule mining for the business unit's rule-based filters.

The paper's pipeline (Appendix B) first runs the transaction stream
through "simple rules … already implemented in the eBay transaction
platforms" that filter out low-risk transactions (raising the fraud
rate from 0.016% to 0.043%), and the business unit uses skope-rules
(rule mining on tabular data, footnote 6) to triage suspicious
transactions. This module implements that substrate: interpretable
conjunction rules over feature thresholds, mined greedily and kept
only when they meet precision/recall floors on a validation split —
the skope-rules selection semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class Condition:
    """One literal: ``feature <op> threshold``."""

    feature: int
    op: str  # ">" or "<="
    threshold: float

    def __post_init__(self) -> None:
        if self.op not in (">", "<="):
            raise ValueError("op must be '>' or '<='")

    def apply(self, features: np.ndarray) -> np.ndarray:
        """Boolean mask of rows satisfying the literal."""
        column = features[:, self.feature]
        if self.op == ">":
            return column > self.threshold
        return column <= self.threshold

    def __str__(self) -> str:
        return f"x[{self.feature}] {self.op} {self.threshold:.4f}"


@dataclass(frozen=True)
class Rule:
    """A conjunction of conditions predicting the positive (fraud) class."""

    conditions: Tuple[Condition, ...]

    def apply(self, features: np.ndarray) -> np.ndarray:
        """Boolean mask of rows satisfying every condition."""
        mask = np.ones(len(features), dtype=bool)
        for condition in self.conditions:
            mask &= condition.apply(features)
        return mask

    def precision_recall(self, features: np.ndarray, labels: np.ndarray) -> Tuple[float, float]:
        """(precision, recall) of the rule for the fraud class."""
        mask = self.apply(features)
        fired = int(mask.sum())
        positives = int((labels == 1).sum())
        if fired == 0:
            return 0.0, 0.0
        true_positive = int((mask & (labels == 1)).sum())
        precision = true_positive / fired
        recall = true_positive / max(positives, 1)
        return precision, recall

    def __str__(self) -> str:
        return " AND ".join(str(c) for c in self.conditions)


# Rule induction (skope-rules-like): at most MAX_RULES rules of at most
# MAX_TERMS conditions, thresholds at CANDIDATE_QUANTILES of the
# MAX_FEATURES most separating features, and a rule is kept when its
# validation precision and recall clear the floors.
MAX_TERMS = 2
MAX_RULES = 10
CANDIDATE_QUANTILES = (0.5, 0.75, 0.9, 0.95)
MIN_PRECISION = 0.3
MIN_RECALL = 0.02
MAX_FEATURES = 32
VALIDATION_FRACTION = 0.3


@dataclass
class MinerConfig:
    """Seed of the miner's train/validation split."""

    seed: int = 0


@dataclass
class RuleSet:
    """Mined rules plus their validation scores."""

    rules: List[Rule] = field(default_factory=list)
    scores: List[Tuple[float, float]] = field(default_factory=list)

    def apply(self, features: np.ndarray) -> np.ndarray:
        """Disjunction: a row is flagged if any rule fires."""
        mask = np.zeros(len(features), dtype=bool)
        for rule in self.rules:
            mask |= rule.apply(features)
        return mask

    def __len__(self) -> int:
        return len(self.rules)

    def describe(self) -> str:
        """One line per rule with its validation precision/recall."""
        lines = []
        for rule, (precision, recall) in zip(self.rules, self.scores):
            lines.append(f"[p={precision:.2f} r={recall:.2f}] {rule}")
        return "\n".join(lines)


class RuleMiner:
    """Greedy interpretable rule induction over feature thresholds."""

    def __init__(self, config: Optional[MinerConfig] = None) -> None:
        self.config = config or MinerConfig()

    # ------------------------------------------------------------------
    def fit(self, features: np.ndarray, labels: Sequence[int]) -> RuleSet:
        """Mine rules for the fraud class.

        Candidate literals come from per-feature quantile thresholds of
        the fraud rows; rules grow greedily (best precision at each
        step, ties to higher recall) and are kept only if they clear
        the precision/recall floors on a held-out validation split.
        """
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        if features.ndim != 2 or len(features) != len(labels):
            raise ValueError("features must be (n, d) aligned with labels")
        if (labels == 1).sum() == 0:
            return RuleSet()

        rng = np.random.default_rng(self.config.seed)
        order = rng.permutation(len(labels))
        cut = int(len(order) * (1 - VALIDATION_FRACTION))
        train_idx, valid_idx = order[:cut], order[cut:]
        x_train, y_train = features[train_idx], labels[train_idx]
        x_valid, y_valid = features[valid_idx], labels[valid_idx]
        if (y_train == 1).sum() == 0 or (y_valid == 1).sum() == 0:
            # Not enough fraud to split; validate on the training data.
            x_train = x_valid = features
            y_train = y_valid = labels

        literals = self._candidate_literals(x_train, y_train)
        rule_set = RuleSet()
        covered = np.zeros(len(y_train), dtype=bool)
        for _ in range(MAX_RULES):
            rule = self._grow_rule(x_train, y_train, literals, covered)
            if rule is None:
                break
            precision, recall = rule.precision_recall(x_valid, y_valid)
            if precision >= MIN_PRECISION and recall >= MIN_RECALL:
                rule_set.rules.append(rule)
                rule_set.scores.append((precision, recall))
            # Remove the covered fraud so later rules target the rest.
            newly = rule.apply(x_train) & (y_train == 1)
            if not newly.any():
                break
            covered |= newly
        return rule_set

    # ------------------------------------------------------------------
    def _candidate_literals(self, features: np.ndarray, labels: np.ndarray) -> List[Condition]:
        """Quantile thresholds on the most label-separating features."""
        fraud = features[labels == 1]
        benign = features[labels == 0]
        if len(benign) == 0 or len(fraud) == 0:
            return []
        separation = np.abs(fraud.mean(axis=0) - benign.mean(axis=0)) / (
            features.std(axis=0) + 1e-9
        )
        top = np.argsort(-separation)[:MAX_FEATURES]
        literals: List[Condition] = []
        for feature in top:
            for quantile in CANDIDATE_QUANTILES:
                threshold = float(np.quantile(features[:, feature], quantile))
                literals.append(Condition(int(feature), ">", threshold))
                literals.append(Condition(int(feature), "<=", threshold))
        return literals

    def _grow_rule(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        literals: List[Condition],
        covered: np.ndarray,
    ) -> Optional[Rule]:
        """Greedy conjunction growth targeting uncovered fraud."""
        target = (labels == 1) & ~covered
        if not target.any():
            return None
        active = np.ones(len(labels), dtype=bool)
        chosen: List[Condition] = []
        for _ in range(MAX_TERMS):
            best, best_score = None, (-1.0, -1.0)
            for literal in literals:
                if any(literal.feature == c.feature and literal.op == c.op for c in chosen):
                    continue
                mask = active & literal.apply(features)
                fired = int(mask.sum())
                if fired == 0:
                    continue
                hit = int((mask & target).sum())
                if hit == 0:
                    continue
                precision = hit / fired
                recall = hit / int(target.sum())
                if (precision, recall) > best_score:
                    best_score = (precision, recall)
                    best = literal
            if best is None:
                break
            chosen.append(best)
            active &= best.apply(features)
            if best_score[0] >= 0.95:
                break
        if not chosen:
            return None
        return Rule(tuple(chosen))

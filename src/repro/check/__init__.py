"""Differential correctness harness: invariant audits + seeded fuzzing.

Two halves, one purpose — falsify the stack's equivalence claims before
production traffic does:

* :mod:`repro.check.invariants` — a registry of per-layer checkers,
  each a deterministic experiment that must come back with zero
  violations (and must *detect* seeded corruption when self-testing).
* :mod:`repro.check.fuzz` — differential scenarios driving fast paths
  against their executable specs on ``(seed, size)``-determined random
  inputs, with greedy shrinking to a minimal repro on divergence.

``repro check [--fuzz N --seed S]`` runs both and exits non-zero on any
violation; CI gates on it.
"""

from .fuzz import SCENARIOS, FuzzFailure, FuzzReport, numerical_grad, run_case, run_fuzz, shrink
from .gen import random_delta, random_events, random_hetero_graph
from .invariants import (
    REGISTRY,
    CheckResult,
    InvariantCheck,
    csr_violations,
    ledger_violations,
    run_audits,
    subgraph_equal,
    wal_violations,
)

__all__ = [
    "SCENARIOS",
    "REGISTRY",
    "CheckResult",
    "FuzzFailure",
    "FuzzReport",
    "InvariantCheck",
    "csr_violations",
    "ledger_violations",
    "numerical_grad",
    "random_delta",
    "random_events",
    "random_hetero_graph",
    "run_audits",
    "run_case",
    "run_fuzz",
    "shrink",
    "subgraph_equal",
    "wal_violations",
]

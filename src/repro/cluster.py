"""Placement hash and member-health vocabulary shared across layers.

The replicated feature tier puts keys on replicas
(:mod:`repro.storage.replicated`) and the elastic trainer puts graph
partitions on workers (:mod:`repro.train.distributed`); both rank
members with the one rendezvous hash here and name a member's health
with the same four states. Like :mod:`repro.util` this module imports
nothing from the package, so ``storage`` and ``train`` share it without
importing each other. Only the state *names* are common: the machines
(:class:`~repro.storage.replicated.ReplicaHealth`, fed by read outcomes;
:class:`~repro.train.elastic.FailureDetector`, fed by heartbeats) stay
with their layers.
"""

from __future__ import annotations

from typing import Iterable, List

__all__ = ["HEALTHY", "SUSPECT", "DEAD", "PROBING", "mix64", "rendezvous_order"]

HEALTHY = "healthy"
SUSPECT = "suspect"
DEAD = "dead"
PROBING = "probing"

# splitmix64 finalizer constants — the same mixing the samplers use
# (repro.graph.sampling), in plain-int form for per-key hashing.
_GAMMA = 0x9E3779B97F4A7C15
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1


def mix64(value: int) -> int:
    """splitmix64 finalizer of ``value`` taken modulo 2**64 (any Python
    int, negative included, is reduced before mixing)."""
    z = (value + _GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX_1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_2) & _MASK64
    return z ^ (z >> 31)


def rendezvous_order(key_hash: int, ids: Iterable[int], seed: int = 0) -> List[int]:
    """``ids`` ranked for one key, highest random weight first.

    A member's weight is ``mix64(key_hash ^ mix64(seed ^ id << 32))`` —
    a pure function of the key, the seed and the member's *id*, never
    of its position among the others. Removing a member therefore
    reassigns only the keys it ranked first for, which is what makes
    rendezvous hashing the consistent-hashing scheme of choice for a
    handful of members. Equal weights rank the lowest id first.
    """
    return sorted(
        ids, key=lambda member: (-mix64(key_hash ^ mix64(seed ^ (member << 32))), member)
    )

"""Bounded LRU cache for sampled subgraphs.

Samplers in this package are *stateless*: with a fixed seed,
``sample(graph, targets)`` is a pure function of
``(graph structure, targets, sampler config)`` — see the purity
contract in :mod:`repro.graph.sampling`. That purity is what makes
caching sound: a cached :class:`~repro.graph.sampling.SampledSubgraph`
is byte-identical to what re-sampling would produce, so serving can
skip the sampler entirely on repeat traffic (hot targets dominate
real fraud workloads — a small set of active buyers/cards generates
most scoring requests).

Keys are ``(graph identity, graph.version, sampler.cache_key(),
targets)``. The version component means an in-place structural edit
(``HeteroGraph.mark_mutated()``) silently misses every stale entry;
:meth:`SubgraphCache.invalidate` additionally drops them eagerly so a
long-lived service does not carry dead weight until eviction.

A micro-batch looks its targets up together
(``get_or_sample(..., disjoint=True)``): one entry per target under the
same singleton key a lone lookup of that target uses, every miss of the
batch sampled in one ``sampler.sample(..., disjoint=True)`` walk. The
entries, their LRU order and the counters end up exactly as if the
targets had been looked up one by one.

Consumers must treat cached subgraphs as immutable. The serving layer
hydrates per-request features via ``HeteroGraph.with_features`` (an
O(1) structural clone) rather than writing into ``txn_features`` of a
shared cached instance.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from typing import Dict, Hashable, List, Sequence, Tuple, Union

import numpy as np

from .sampling import SampledSubgraph, unstack_subgraphs

__all__ = ["SubgraphCache"]


class SubgraphCache:
    """Bounded LRU of :class:`SampledSubgraph` keyed by
    ``(target, sampler-config, graph-version)``.

    ``capacity`` bounds the entry count; least-recently-used entries
    are evicted first. Hit/miss/eviction counters are plain
    attributes, the only copy; after :meth:`instrument` a
    :class:`repro.obs.registry.MetricsRegistry` reads them, whenever it
    is scraped, as ``subgraph_cache_{hits,misses,evictions}_total``.

    Thread-safe: the serving layer scores from worker threads while
    ``drain`` runs on the control thread.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: "OrderedDict[Tuple, SampledSubgraph]" = OrderedDict()
        # RLock, not Lock: weakref finalizers (_forget_graph) run at
        # arbitrary allocation points, including inside our own locked
        # regions (dict resize during insert can trigger the GC that
        # collects a dead graph). A non-reentrant lock would self-
        # deadlock on that re-entry.
        self._lock = threading.RLock()
        self._graph_finalizers: dict = {}

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def instrument(self, registry) -> "SubgraphCache":
        """Let ``registry`` read the counters; returns self."""
        registry.collect(self._collect)
        return self

    def _collect(self):
        stats = self.stats()  # one locked snapshot: hits + misses never torn
        for tally, name, help in (
            ("hits", "subgraph_cache_hits_total", "Sampled-subgraph cache hits."),
            ("misses", "subgraph_cache_misses_total", "Sampled-subgraph cache misses."),
            ("evictions", "subgraph_cache_evictions_total", "Sampled-subgraph cache LRU evictions."),
        ):
            yield "counter", name, help, {"cache": "subgraph"}, stats[tally]

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict:
        """Atomic snapshot of the counters plus derived ``lookups``.

        Taken under the lock so the accounting identity
        ``hits + misses == lookups`` holds exactly even while worker
        threads are mid-churn; reading the attributes one by one can
        observe a torn pair (hit counted, lookup total not yet
        implied).
        """
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "lookups": self.hits + self.misses,
                "entries": len(self._entries),
            }

    # ------------------------------------------------------------------
    # Core API
    # ------------------------------------------------------------------
    def get_or_sample(
        self,
        graph,
        sampler,
        targets: Sequence[int],
        deadline=None,
        disjoint: bool = False,
    ) -> Union[SampledSubgraph, List[SampledSubgraph]]:
        """Cached ``sampler.sample(graph, targets)``.

        A hit returns the stored subgraph without touching the sampler
        (and without consuming any of ``deadline``); a miss samples,
        stores, and returns. ``targets`` order matters — it determines
        ``target_local`` — so it is part of the key.

        ``disjoint=True`` is the micro-batch lookup: a list with one
        singleton entry per target, each under the key
        ``get_or_sample(graph, sampler, [t])`` uses, the batch's misses
        sampled together (:meth:`_lookup_each`). One target is the
        plain lookup in a list.
        """
        if not disjoint:
            return self._lookup(graph, sampler, targets, deadline)
        if len(targets) == 1:
            return [self._lookup(graph, sampler, targets, deadline)]
        return self._lookup_each(graph, sampler, targets, deadline)

    def _lookup(self, graph, sampler, targets: Sequence[int], deadline) -> SampledSubgraph:
        key = self._key(graph, sampler, targets)
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return cached
            self.misses += 1
        sampled = sampler.sample(graph, targets, deadline=deadline)
        with self._lock:
            self._store(key, sampled)
        return sampled

    def _lookup_each(
        self, graph, sampler, targets: Sequence[int], deadline
    ) -> List[SampledSubgraph]:
        """``[_lookup(graph, sampler, [t]) for t in targets]`` with one
        sampler call for all of its misses.

        Three steps. Under the lock, decide every lookup's outcome as
        the loop would (:meth:`_loop_outcomes`) and count it; unlocked,
        sample the distinct missed targets in one disjoint walk and cut
        it into per-target entries; under the lock again, replay the
        loop's bookkeeping in target order (:meth:`_replay`). On one
        thread the entries, their LRU order and ``hits`` / ``misses`` /
        ``evictions`` equal the loop's: a repeated absent target is one
        miss then one hit, and an entry that this call's own inserts
        evict before its turn is the miss (and the re-insert) it would
        be there. What differs: every target is looked up before any is
        sampled, so a walk that raises leaves the whole batch counted
        and nothing inserted.
        """
        head = self._key_head(graph, sampler)
        keys = [head + ((int(target),),) for target in targets]
        with self._lock:
            # Present entries are held from here on, so that another
            # thread's churn between the two locked steps cannot take a
            # hit's entry away.
            parts, absent = {}, False
            for key in keys:
                entry = self._entries.get(key)
                if entry is None:
                    absent = True
                else:
                    parts[key] = entry
            hit = self._loop_outcomes(keys) if absent else [True] * len(keys)
            self.hits += sum(hit)
            self.misses += len(hit) - sum(hit)
        missed = list(dict.fromkeys(key for key, found in zip(keys, hit) if not found))
        if missed:
            walk = sampler.sample(
                graph, [key[-1][0] for key in missed], deadline=deadline, disjoint=True
            )
            parts.update(zip(missed, unstack_subgraphs(walk)))
        with self._lock:
            return self._replay(keys, hit, parts)

    def _loop_outcomes(self, keys: Sequence[Tuple]) -> List[bool]:
        """Hit or miss, per key, were they looked up one by one now:
        the loop's LRU bookkeeping run on a copy of the key order."""
        order = OrderedDict.fromkeys(self._entries)
        outcomes = []
        for key in keys:
            outcomes.append(key in order)
            if outcomes[-1]:
                order.move_to_end(key)
            else:
                order[key] = None
                while len(order) > self.capacity:
                    order.popitem(last=False)
        return outcomes

    def _replay(
        self, keys: Sequence[Tuple], hit: Sequence[bool], parts: Dict[Tuple, SampledSubgraph]
    ) -> List[SampledSubgraph]:
        """Touch (hit) or insert (miss) each key in target order — the
        order is what makes the LRU queue the loop's. ``parts`` holds
        an entry for every key, for the misses and for a hit whose entry
        another thread removed since it was looked up."""
        results = []
        for key, found in zip(keys, hit):
            entry = self._entries.get(key) if found else None
            if entry is not None:
                self._entries.move_to_end(key)
            else:
                entry = parts[key]
                if not found:
                    self._store(key, entry)
            results.append(entry)
        return results

    def _store(self, key: Tuple, sampled: SampledSubgraph) -> None:
        """Insert unless a racing miss of the same key already did,
        evicting from the cold end."""
        if key not in self._entries:
            self._entries[key] = sampled
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def invalidate(self, graph=None) -> int:
        """Eagerly drop entries: all of them, or only those belonging
        to stale versions of ``graph``. Returns the number removed.

        Entries for the *current* ``graph.version`` survive — they are
        still correct. Stale versions can never hit again anyway (the
        version is in the key); this just frees the memory now rather
        than waiting for LRU pressure.
        """
        with self._lock:
            if graph is None:
                removed = len(self._entries)
                self._entries.clear()
                return removed
            token, version = id(graph), graph.version
            stale = [
                key
                for key in self._entries
                if key[0] == token and key[1] != version
            ]
            for key in stale:
                del self._entries[key]
            return len(stale)

    # ------------------------------------------------------------------
    # Keying
    # ------------------------------------------------------------------
    def _key(self, graph, sampler, targets: Sequence[int]) -> Tuple:
        target_key: Hashable
        if isinstance(targets, (int, np.integer)):
            target_key = int(targets)
        else:
            target_key = tuple(int(t) for t in targets)
        return self._key_head(graph, sampler) + (target_key,)

    def _key_head(self, graph, sampler) -> Tuple:
        return (self._graph_token(graph), graph.version, sampler.cache_key())

    def _graph_token(self, graph) -> int:
        """Stable identity for ``graph`` within this cache.

        ``id()`` alone can be recycled after a graph is garbage
        collected; a finalizer purges that graph's entries on death so
        a recycled address can never alias a dead graph's cache lines.
        """
        token = id(graph)
        if token not in self._graph_finalizers:
            self._graph_finalizers[token] = weakref.finalize(
                graph, self._forget_graph, token
            )
        return token

    def _forget_graph(self, token: int) -> None:
        with self._lock:
            self._graph_finalizers.pop(token, None)
            dead = [key for key in self._entries if key[0] == token]
            for key in dead:
                del self._entries[key]

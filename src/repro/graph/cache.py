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
target)``. The version component means an in-place structural edit
(``HeteroGraph.mark_mutated()``) silently misses every stale entry;
:meth:`SubgraphCache.invalidate` additionally drops them eagerly so a
long-lived service does not carry dead weight until eviction.

A lookup is a micro-batch of targets, looked up one key per target, and
gets ONE stacked :class:`~repro.graph.sampling.SampledSubgraph` back: a
component per *distinct* target, ``target_local[i]`` the root of
request ``i``'s (repeats share one). The entries, their LRU order and
the counters end up exactly as if the targets had been looked up one by
one. The lookup's misses are sampled in one ``sampler.sample(...,
disjoint=True)`` walk; a lookup that finds none of its targets stored
and repeats none gets the walk itself.

Every entry is a ``(sample, component)`` piece: component ``c`` of the
walk that sampled it, the walk stored whole and never cut. A lookup
gathers its pieces into its stack
(:func:`~repro.graph.sampling.gather`) by the bounds the walk recorded;
a lookup of every component of one walk, in order, gets that walk.

Consumers must treat cached subgraphs as immutable. The serving layer
hydrates per-request features via ``HeteroGraph.with_features`` (an
O(1) structural clone) rather than writing into ``txn_table`` of a
shared cached instance.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from typing import Dict, Iterable, List, Sequence, Tuple

from .sampling import SampledSubgraph, gather

__all__ = ["SubgraphCache"]

#: A cache entry: component ``c`` of the sample that walked it.
_Piece = Tuple[SampledSubgraph, int]


class SubgraphCache:
    """Bounded LRU of :class:`SampledSubgraph` keyed by
    ``(target, sampler-config, graph-version)``.

    ``capacity`` bounds the entry count; least-recently-used entries
    are evicted first. Hit/miss/eviction counters are plain
    attributes, the only copy; after :meth:`instrument` a
    :class:`repro.obs.registry.MetricsRegistry` reads them, whenever it
    is scraped, as ``subgraph_cache_{hits,misses,evictions}_total``.

    Thread-safe, though no module in :mod:`repro` starts a thread: a
    caller may share one cache across its own threads (the harness's
    churn test drives one from eight), and the finalizer that purges a
    dead graph's entries runs on whichever thread's allocation
    triggers the collection.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: "OrderedDict[Tuple, _Piece]" = OrderedDict()
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
    def get_or_sample(self, graph, sampler, targets: Sequence[int], deadline=None) -> SampledSubgraph:
        """``sampler.sample(graph, targets, disjoint=True)``, each target
        looked up under its own key, as one stacked sample, with one
        sampler call for all of the misses. A hit does not touch the
        sampler (nor consume any of ``deadline``); no target is a
        ``ValueError``.

        Three steps. Under the lock, decide every lookup's outcome as
        the loop would (:meth:`_loop_outcomes`) and count it; unlocked,
        sample the distinct missed targets in one disjoint walk; under
        the lock again, replay the loop's bookkeeping in target order
        (:meth:`_replay`), storing each walked target as its piece of the
        walk. The result gathers the walk's pieces, then each other
        distinct target's. A batch that finds every target stored makes
        the loop's touches under the first lock and walks nothing; one
        that finds nothing stored and repeats no target — each lookup a
        miss, the stream's every batch — skips the simulation and the
        replay: its entries are inserted in order and it gets the walk
        itself.

        On one thread the entries, their LRU order and ``hits`` /
        ``misses`` / ``evictions`` equal the loop's: a repeated absent
        target is one miss then one hit, and an entry that this call's
        own inserts evict before its turn is the miss (and the
        re-insert) it would be there. What differs: every target is
        looked up before any is sampled, so a walk that raises leaves
        the whole batch counted and nothing inserted.
        """
        if not len(targets):
            raise ValueError("need at least one target to look up")
        head = (self._graph_token(graph), graph.version, sampler.cache_key())
        keys = [head + (int(target),) for target in targets]
        distinct = list(dict.fromkeys(keys))
        with self._lock:
            # Present entries are held from here on, so that another
            # thread's churn between the two locked steps cannot take a
            # hit's entry away.
            held = {}
            for key in distinct:
                entry = self._entries.get(key)
                if entry is not None:
                    held[key] = entry
            fresh = not held and len(distinct) == len(keys)
            if len(held) == len(distinct):
                hit = [True] * len(keys)
                for key in keys:  # the loop's touches, made now: nothing to walk or replay
                    self._entries.move_to_end(key)
            elif fresh:
                hit = [False] * len(keys)
            else:
                hit = self._loop_outcomes(keys)
            self.hits += sum(hit)
            self.misses += len(hit) - sum(hit)
        served, missed, walked = held, [], []
        if len(held) < len(distinct):
            if fresh:
                missed = distinct
            else:
                missed = list(dict.fromkeys(key for key, found in zip(keys, hit) if not found))
            walk = sampler.sample(graph, [key[-1] for key in missed], deadline=deadline, disjoint=True)
            walked = [(walk, index) for index in range(len(missed))]
            with self._lock:
                if fresh:
                    self._store(zip(missed, walked))
                    return walk
                held.update(zip(missed, walked))
                served = self._replay(keys, hit, held)
        # Slots by target: the keys differ in nothing else, and ints hash cheaply.
        slots = {key[-1]: index for index, key in enumerate(missed)}
        pieces = list(walked)
        for key, entry in served.items():
            if key[-1] not in slots:
                slots[key[-1]] = len(pieces)
                pieces.append(entry)
        return gather(pieces, [slots[key[-1]] for key in keys])

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
        self, keys: Sequence[Tuple], hit: Sequence[bool], held: Dict[Tuple, _Piece]
    ) -> Dict[Tuple, _Piece]:
        """Touch (hit) or insert (miss) each key in target order — the
        order is what makes the LRU queue the loop's — and return the
        entry each distinct key was first served, in order of first
        appearance. ``held`` holds an entry for every key, for the
        misses and for a hit whose entry another thread removed since it
        was looked up."""
        served: Dict[Tuple, _Piece] = {}
        for key, found in zip(keys, hit):
            entry = self._entries.get(key) if found else None
            if entry is not None:
                self._entries.move_to_end(key)
            else:
                entry = held[key]
                if not found:
                    self._store(((key, entry),))
            served.setdefault(key, entry)
        return served

    def _store(self, items: Iterable[Tuple[Tuple, _Piece]]) -> None:
        """Insert each ``(key, entry)`` in order unless a racing miss of
        the same key already did, then evict from the cold end. For
        distinct keys none of which is stored, that leaves the entries
        and the eviction count that inserting and evicting one at a time
        does."""
        entries = self._entries
        for key, entry in items:
            if key not in entries:
                entries[key] = entry
        while len(entries) > self.capacity:
            entries.popitem(last=False)
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

"""Differential fuzzer with automatic seed shrinking.

Every fast or durable path in the stack has a slower executable spec:
the vectorized samplers have the scalar reference walk, the CSR delta
merge has the full stable rebuild, a micro-batch of n has n batches
of one through the same pipeline, the detector's plain-array inference
kernel has its autograd forward, the header-memoising row decoder has ``np.load``, and
the WAL has "whatever was durably framed before the crash". A fuzz *scenario* drives both sides of one such pair on a
seeded random input and returns a divergence description (or ``None``).

Cases are fully determined by ``(scenario, seed, size)``, so a failure
is replayable forever — and shrinkable: :func:`shrink` greedily walks
``size`` down (halving, then decrementing) and then scans for a smaller
``seed``, re-running the scenario at each candidate and keeping only
reductions that still diverge. The result is the minimal repro that CI
prints and a regression test pins.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from .gen import DELTA_SHAPES, random_delta, random_events, random_hetero_graph
from .invariants import csr_violations, subgraph_equal, wal_violations

__all__ = [
    "SCENARIOS",
    "FuzzFailure",
    "FuzzReport",
    "run_case",
    "run_fuzz",
    "shrink",
]

# Sizes cycle small -> large so early trials stay fast and later trials
# reach hub-heavy graphs; a failing case then shrinks back down.
_SIZE_LADDER = (2, 3, 5, 8, 13, 21)


def _case_seed(base_seed: int, trial: int) -> int:
    """Derive a per-trial seed; splitmix64-style so trials decorrelate."""
    mixed = (base_seed * 0x9E3779B97F4A7C15 + trial * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    mixed ^= mixed >> 31
    return mixed & 0x7FFFFFFF


@dataclass
class FuzzFailure:
    """One divergence, as found and as shrunk."""

    scenario: str
    seed: int
    size: int
    detail: str
    shrunk_seed: int
    shrunk_size: int
    shrunk_detail: str
    shrink_steps: int

    def repro_command(self) -> str:
        return (
            f"repro check --case {self.scenario} "
            f"--seed {self.shrunk_seed} --size {self.shrunk_size}"
        )


@dataclass
class FuzzReport:
    trials: int
    per_scenario: Dict[str, int] = field(default_factory=dict)
    failures: List[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


SCENARIOS: Dict[str, Callable[[int, int], Optional[str]]] = {}


def scenario(name: str):
    def decorate(fn: Callable[[int, int], Optional[str]]) -> Callable[[int, int], Optional[str]]:
        if name in SCENARIOS:
            raise ValueError(f"duplicate fuzz scenario {name!r}")
        SCENARIOS[name] = fn
        return fn

    return decorate


# ----------------------------------------------------------------------
# Scenarios: each returns a divergence string or None
# ----------------------------------------------------------------------
@scenario("sampler-fast-vs-reference")
def _fuzz_sampler(seed: int, size: int) -> Optional[str]:
    """Vectorized sampler walk vs the scalar reference spec."""
    from ..graph.sampling import HGSampler, SageSampler

    rng = np.random.default_rng(seed)
    graph = random_hetero_graph(rng, num_txns=size)
    txns = np.flatnonzero(graph.node_type == 0)
    picks = rng.integers(0, len(txns), size=min(3, len(txns)))
    targets = list(dict.fromkeys(int(txns[p]) for p in picks))  # unique, order kept
    sampler_seed = int(rng.integers(0, 1 << 16))
    pairs = [
        (
            SageSampler(hops=1 + size % 3, fanout=1 + size % 5, seed=sampler_seed),
            SageSampler(hops=1 + size % 3, fanout=1 + size % 5, seed=sampler_seed, reference=True),
        ),
        (
            HGSampler(depth=1 + size % 2, width=1 + size % 4, seed=sampler_seed),
            HGSampler(depth=1 + size % 2, width=1 + size % 4, seed=sampler_seed, reference=True),
        ),
    ]
    for fast, reference in pairs:
        diff = subgraph_equal(fast.sample(graph, targets), reference.sample(graph, targets))
        if diff is not None:
            return f"{fast.cache_key()} targets={targets}: {diff}"
    return None


@scenario("delta-merge-vs-rebuild")
def _fuzz_delta_merge(seed: int, size: int) -> Optional[str]:
    """In-place growth and CSR splice vs a from-scratch graph: a run of
    deltas long enough to cross buffer reallocations (``2 * size``, 42
    at the top of the ladder) of every shape — full, edge-only,
    node-only, empty — with in-place label flips and ``rebuild_csr()``
    interleaved, audited after every step; then probe subgraphs."""
    from ..graph.hetero import HeteroGraph
    from ..graph.sampling import SageSampler

    rng = np.random.default_rng(seed)
    graph = random_hetero_graph(rng, num_txns=size)
    graph.csr()
    flipped: Dict[int, int] = {}
    for step in range(2 * size):
        if rng.random() < 0.3:
            node = int(rng.choice(graph.txn_nodes))
            flipped[node] = int(rng.integers(0, 2))
            if rng.random() < 0.5:  # swap in an edited copy: the buffer goes stale
                graph.labels = graph.labels.copy()
            graph.labels[node] = flipped[node]
            graph.mark_mutated(structural=False)
        if rng.random() < 0.15:
            graph.rebuild_csr()
        shape = str(rng.choice(DELTA_SHAPES, p=(0.7, 0.1, 0.1, 0.1)))
        before, captured, snapshot = graph.version, graph.labels, graph.labels.copy()
        graph.append_delta(**random_delta(rng, graph, 1 + size % 3, shape=shape))
        if graph.version != before + 1:
            return f"step {step} ({shape}): version {before} -> {graph.version}, expected +1"
        if not (
            np.array_equal(captured, snapshot)
            and np.array_equal(graph.labels[: len(snapshot)], snapshot)
        ):
            return f"step {step} ({shape}): the delta rewrote labels it had already published"
        problems = csr_violations(graph)
        if problems:
            return f"step {step} ({shape}): merged CSR invalid: {problems[0]}"
    lost = [node for node, label in flipped.items() if graph.labels[node] != label]
    if lost:
        return f"label flips lost across deltas at nodes {lost[:5]}"
    rebuilt = HeteroGraph(
        node_type=graph.node_type.copy(),
        edge_src=graph.edge_src.copy(),
        edge_dst=graph.edge_dst.copy(),
        edge_type=graph.edge_type.copy(),
        txn_features=graph.txn_features.copy(),
        labels=graph.labels.copy(),
    )
    for name, left, right in zip(("indptr", "src", "eid"), graph.csr(), rebuilt.csr()):
        if not np.array_equal(left, right):
            return f"merged {name} != rebuilt {name}"
    sampler = SageSampler(hops=2, fanout=3, seed=seed & 0xFFFF)
    target = int(np.flatnonzero(graph.node_type == 0)[0])
    diff = subgraph_equal(sampler.sample(graph, [target]), sampler.sample(rebuilt, [target]))
    if diff is not None:
        return f"probe subgraph on merged vs rebuilt graph: {diff}"
    return None


@scenario("single-vs-batched-scoring")
def _fuzz_scoring(seed: int, size: int) -> Optional[str]:
    """n batches of one (``score()``) vs one batch of n
    (``score_batch()``): a verdict must not depend on batch composition."""
    from ..models.detector import DetectorConfig, XFraudDetectorPlus
    from ..reliability.faults import ManualClock
    from ..serving.service import ScoringService, ServiceConfig

    rng = np.random.default_rng(seed)
    graph = random_hetero_graph(rng, num_txns=max(3, size), feature_dim=6)
    detector = XFraudDetectorPlus(
        DetectorConfig(
            feature_dim=6,
            hidden_dim=8,
            num_heads=2,
            num_layers=1 + size % 2,
            ffn_hidden_dim=8,
            seed=seed % 97,
        ),
        hops=2,
        fanout=3,
    )
    txns = np.flatnonzero(graph.node_type == 0)
    picks = sorted({int(txns[int(rng.integers(0, len(txns)))]) for _ in range(4)})

    def make_service() -> ScoringService:
        return ScoringService(
            detector,
            graph,
            config=ServiceConfig(static_prior=0.01, batch_size=None),
            clock=ManualClock(),
        )

    alone = [make_service().score(node) for node in picks]
    batched = make_service().score_batch(picks)
    for node, left, right in zip(picks, alone, batched):
        if left.rung != right.rung:
            return f"node {node}: rung {left.rung} != {right.rung}"
        if abs(left.score - right.score) > 1e-9:
            return f"node {node}: score {left.score!r} != {right.score!r}"
        if left.verdict != right.verdict:
            return f"node {node}: verdict {left.verdict} != {right.verdict}"
    return None


@scenario("wal-crash-replay")
def _fuzz_wal(seed: int, size: int) -> Optional[str]:
    """Write, crash (truncate / zero-fill / bit-flip the active tail),
    replay, reopen, resume — durable prefix semantics throughout."""
    import os

    from ..data.events import encode_event
    from ..stream.wal import _FRAME_HEADER, EventLog, TornTailError, replay_wal

    rng = np.random.default_rng(seed)
    events = random_events(rng, size, feature_dim=3)
    frame_size = _FRAME_HEADER.size + len(encode_event(events[0]))
    per_segment = 1 + int(rng.integers(0, 4))
    # Bias the rotation boundary onto the exact frame edge half the time.
    segment_max = per_segment * frame_size
    if rng.random() < 0.5:
        segment_max += int(rng.integers(1, frame_size))

    with tempfile.TemporaryDirectory() as directory:
        with EventLog(directory, segment_max_bytes=segment_max) as log:
            for event in events:
                log.append(event)
            active_name = log._active_name
            active_records = log._active_records
            active_size = log._active_size
        sealed_records = len(events) - active_records

        damage = str(rng.choice(["clean", "truncate", "zero-fill", "bit-flip"]))
        expected = len(events)
        should_tear = False
        if damage != "clean" and active_size > 0:
            path = os.path.join(directory, active_name)
            cut = int(rng.integers(0, active_size))  # survives: full frames below cut
            expected = sealed_records + cut // frame_size
            should_tear = True
            if damage == "truncate":
                # A cut on an exact frame boundary is indistinguishable
                # from a clean close — no tear to report.
                should_tear = cut % frame_size != 0
                with open(path, "r+b") as handle:
                    handle.truncate(cut)
            elif damage == "zero-fill":
                with open(path, "r+b") as handle:
                    handle.truncate(cut)
                    handle.seek(cut)
                    handle.write(b"\x00" * int(rng.integers(1, 64)))
            else:  # bit-flip at `cut`, torn from the containing frame on
                with open(path, "r+b") as handle:
                    handle.seek(cut)
                    byte = handle.read(1)
                    handle.seek(cut)
                    handle.write(bytes([byte[0] ^ 0x01]))
        else:
            damage = "clean"

        torn = False
        replayed: List = []
        try:
            for _, event in replay_wal(directory):
                replayed.append(event)
        except TornTailError:
            torn = True
        if torn != should_tear:
            return f"{damage}: replay torn={torn}, expected {should_tear}"
        if len(replayed) != expected:
            return f"{damage}: replay kept {len(replayed)} records, expected {expected}"
        if [e.txn_id for e in replayed] != [e.txn_id for e in events[:expected]]:
            return f"{damage}: replayed records are not the written prefix"

        # Reopen: recovery truncates the tear; appends must resume.
        log = EventLog(directory, segment_max_bytes=segment_max)
        if (log.recovered_tail is not None) != should_tear:
            return f"{damage}: recovered_tail={log.recovered_tail!r}, tear={should_tear}"
        if log.record_count != expected:
            return f"{damage}: reopen record_count {log.record_count} != {expected}"
        resumed = random_events(rng, 2, feature_dim=3, start_txn_id=10_000)
        for event in resumed:
            log.append(event)
        log.close()
        final = [event for _, event in replay_wal(directory)]
        want = [e.txn_id for e in events[:expected]] + [e.txn_id for e in resumed]
        if [e.txn_id for e in final] != want:
            return f"{damage}: post-resume replay diverges from prefix + resumed"
        if wal_violations(directory):
            return f"{damage}: {wal_violations(directory)[0]}"
    return None


@scenario("fused-vs-autograd-forward")
def _fuzz_inference_forward(seed: int, size: int) -> Optional[str]:
    """The detector's plain-array ``predict_proba`` kernel vs its
    ``Tensor`` forward in eval mode: on a whole random graph, on the
    same graph with a random share of its directed edges dropped
    (targets without in-edges, down to no edges at all), and on a
    block-diagonal stack of sampled neighbourhoods."""
    from ..graph.hetero import HeteroGraph
    from ..graph.sampling import SageSampler, stack_subgraphs
    from ..models.detector import DetectorConfig, XFraudDetector
    from ..models.inference import tensor_predict_proba

    rng = np.random.default_rng(seed)
    graph = random_hetero_graph(rng, num_txns=size, feature_dim=5)
    heads = int(rng.integers(1, 4))
    detector = XFraudDetector(
        DetectorConfig(
            feature_dim=5,
            hidden_dim=heads * int(rng.integers(1, 5)),
            num_heads=heads,
            num_layers=1 + size % 3,
            ffn_hidden_dim=int(rng.integers(2, 9)),
            per_type_projections=bool(rng.integers(0, 2)),
            target_specific_aggregation=bool(rng.integers(0, 2)),
            seed=seed % 97,
        )
    )
    # Type embeddings start at zero and layer norms at identity; draw
    # every parameter so no term of the forward is multiplied away.
    for param in detector.parameters():
        param.data[...] = rng.normal(scale=0.5, size=param.data.shape)
    detector.train(bool(rng.integers(0, 2)))  # the kernel must not care

    txns = np.flatnonzero(graph.node_type == 0)
    targets = txns[rng.integers(0, len(txns), size=int(rng.integers(1, 6)))]  # repeats allowed
    sampler = SageSampler(hops=1 + size % 2, fanout=1 + size % 4, seed=seed & 0xFFFF)
    stacked = stack_subgraphs([sampler.sample(graph, [int(node)]) for node in targets])
    keep = rng.random(graph.num_edges) < rng.choice([0.0, 0.5, 0.9])
    thinned = HeteroGraph(
        node_type=graph.node_type,
        edge_src=graph.edge_src[keep],
        edge_dst=graph.edge_dst[keep],
        edge_type=graph.edge_type[keep],
        txn_features=graph.txn_features,
        labels=graph.labels,
    )
    cases = (
        ("whole graph", graph, targets),
        ("thinned graph", thinned, targets),
        ("stacked samples", stacked.graph, stacked.target_local),
    )
    for label, case_graph, case_targets in cases:
        fused = detector.predict_proba(case_graph, case_targets)
        reference = tensor_predict_proba(detector, case_graph, case_targets)
        worst = float(np.abs(fused - reference).max())
        if not worst <= 1e-12:  # also catches NaN
            return (
                f"{label} ({case_graph.num_nodes} nodes, {case_graph.num_edges} edges, "
                f"targets={case_targets.tolist()}): max |fused - autograd| = {worst:.3e}"
            )
    return None


@scenario("fast-decode-vs-np-load")
def _fuzz_decode(seed: int, size: int) -> Optional[str]:
    """The header-memoising ``decode_array`` vs ``np.load`` over the
    same bytes: well-formed blobs of random dtype and shape, then the
    same blobs damaged (cut, extended, one header or payload byte
    flipped, sometimes twice) and hand-built headers ``encode_array``
    never writes (object or sub-array dtype, Fortran order, negative
    extent, format 2.0 / 3.0).
    Both sides must return the same dtype, shape and bytes, or both
    must raise."""
    import io
    import warnings

    from numpy.lib import format as npy_format

    from ..storage.loader import decode_array, encode_array

    rng = np.random.default_rng(seed)

    def random_array() -> np.ndarray:
        dtype = np.dtype(str(rng.choice(["<f4", "<f8", ">f8", "<i8", "|b1", "|u1"])))
        rank = int(rng.integers(0, 3))
        shape = tuple(int(rng.integers(0, 5)) for _ in range(rank))
        raw = rng.integers(0, 256, size=int(np.prod(shape, dtype=np.int64)) * dtype.itemsize)
        return np.frombuffer(raw.astype(np.uint8).tobytes(), dtype=dtype).reshape(shape)

    def hand_built(kind: str) -> bytes:
        stream = io.BytesIO()
        if kind == "object":
            header = {"descr": "|O", "fortran_order": False, "shape": (2,)}
            npy_format.write_array_header_1_0(stream, header)
            stream.write(bytes(16))
        elif kind == "fortran":
            array = np.asfortranarray(rng.normal(size=(2, 3)))
            npy_format.write_array(stream, array, version=(1, 0))
        elif kind == "negative":
            header = {"descr": "<f8", "fortran_order": False, "shape": (-1,)}
            npy_format.write_array_header_1_0(stream, header)
            stream.write(bytes(24))
        elif kind == "subarray":
            extent = int(rng.integers(0, 3))
            header = {"descr": ("<f4", (2,)), "fortran_order": False, "shape": (extent,)}
            npy_format.write_array_header_1_0(stream, header)
            stream.write(bytes(8 * extent))
        else:  # "v2" / "v3": the wider header-length field
            npy_format.write_array(stream, random_array(), version=(int(kind[1]), 0))
        return stream.getvalue()

    def damage(blob: bytes) -> "tuple[str, bytes]":
        kind = str(rng.choice(["none", "truncate", "extend", "flip-head", "flip-any"]))
        if not blob:  # already cut to nothing: no byte left to cut or flip
            return "none", blob
        if kind == "truncate":
            return kind, blob[: int(rng.integers(0, len(blob)))]
        if kind == "extend":
            return kind, blob + bytes(rng.integers(0, 256, size=int(rng.integers(1, 9)), dtype=np.uint8))
        if kind in ("flip-head", "flip-any"):
            # flip-head: magic, version, header length, start of the dict.
            reach = min(24, len(blob)) if kind == "flip-head" else len(blob)
            at = int(rng.integers(0, reach))
            flipped = blob[at] ^ (1 << int(rng.integers(0, 8)))
            return f"{kind}@{at}", blob[:at] + bytes([flipped]) + blob[at + 1 :]
        return kind, blob

    def outcome(decode: Callable[[bytes], np.ndarray], blob: bytes):
        try:
            array = decode(blob)
        except Exception:
            return "raised"
        return str(array.dtype), array.shape, array.tobytes()

    def np_load(blob: bytes) -> np.ndarray:
        return np.load(io.BytesIO(blob), allow_pickle=False)

    for trial in range(2 * size):
        if rng.random() < 0.3:
            source = str(rng.choice(["object", "fortran", "negative", "subarray", "v2", "v3"]))
            blob = hand_built(source)
        else:
            source, blob = "encode_array", encode_array(random_array())
        how, blob = damage(blob)
        if rng.random() < 0.3:
            again, blob = damage(blob)
            how = f"{how}+{again}"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # numpy warns on py2-style headers
            fast, reference = outcome(decode_array, blob), outcome(np_load, blob)
        if fast != reference:
            sides = [side if side == "raised" else side[:2] for side in (fast, reference)]
            return (
                f"blob {trial} ({source}, {how}, {len(blob)} bytes): "
                f"decode_array -> {sides[0]}, np.load -> {sides[1]}"
            )
    return None


# ----------------------------------------------------------------------
# Driver + shrinker
# ----------------------------------------------------------------------
def run_case(name: str, seed: int, size: int) -> Optional[str]:
    """Run one scenario once; returns the divergence string or None."""
    if name not in SCENARIOS:
        raise KeyError(f"unknown fuzz scenario {name!r}")
    try:
        return SCENARIOS[name](int(seed), int(size))
    except Exception as error:
        # One side crashing on an input the other handles is a
        # divergence to shrink and pin, not a reason to stop the run.
        return f"raised {type(error).__name__}: {error}"


def shrink(
    name: str,
    seed: int,
    size: int,
    max_attempts: int = 120,
) -> "tuple[int, int, str, int]":
    """Greedy minimization of a failing ``(seed, size)`` case.

    Phase 1 walks ``size`` down (halving first, then decrementing),
    keeping any candidate that still diverges. Phase 2 scans seeds
    ``0..63`` for a smaller seed that diverges at the minimal size.
    Returns ``(shrunk_seed, shrunk_size, detail, attempts_used)``.
    """
    detail = run_case(name, seed, size)
    if detail is None:
        raise ValueError(f"case {name}({seed}, {size}) does not fail; nothing to shrink")
    attempts = 0

    def still_fails(candidate_seed: int, candidate_size: int) -> Optional[str]:
        nonlocal attempts
        attempts += 1
        return run_case(name, candidate_seed, candidate_size)

    while size > 1 and attempts < max_attempts:
        for candidate in dict.fromkeys((size // 2, size - 1)):
            if candidate < 1:
                continue
            found = still_fails(seed, candidate)
            if found is not None:
                size, detail = candidate, found
                break
        else:
            break  # neither halving nor decrementing reproduces
    for candidate in range(0, min(seed, 64)):
        if attempts >= max_attempts:
            break
        found = still_fails(candidate, size)
        if found is not None:
            seed, detail = candidate, found
            break
    return seed, size, detail, attempts


def run_fuzz(
    trials: int,
    seed: int = 0,
    names: Optional[List[str]] = None,
    stop_on_first: bool = True,
    progress: Optional[Callable[[str], None]] = None,
) -> FuzzReport:
    """Round-robin the scenarios over derived ``(seed, size)`` cases.

    On divergence the case is shrunk immediately and recorded; with
    ``stop_on_first`` (the default, what CI wants) the run ends there.
    """
    selected = list(SCENARIOS) if names is None else list(names)
    for name in selected:
        if name not in SCENARIOS:
            raise KeyError(f"unknown fuzz scenario {name!r}")
    report = FuzzReport(trials=trials)
    for trial in range(trials):
        name = selected[trial % len(selected)]
        case_seed = _case_seed(seed, trial)
        size = _SIZE_LADDER[(trial // len(selected)) % len(_SIZE_LADDER)]
        report.per_scenario[name] = report.per_scenario.get(name, 0) + 1
        detail = run_case(name, case_seed, size)
        if detail is None:
            if progress is not None and (trial + 1) % 25 == 0:
                progress(f"{trial + 1}/{trials} cases clean")
            continue
        shrunk_seed, shrunk_size, shrunk_detail, steps = shrink(name, case_seed, size)
        report.failures.append(
            FuzzFailure(
                scenario=name,
                seed=case_seed,
                size=size,
                detail=detail,
                shrunk_seed=shrunk_seed,
                shrunk_size=shrunk_size,
                shrunk_detail=shrunk_detail,
                shrink_steps=steps,
            )
        )
        if stop_on_first:
            break
    return report

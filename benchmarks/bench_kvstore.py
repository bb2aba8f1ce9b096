"""Figures 12 & 13 — single- vs multi-handle KV-store data loading.

The paper replaced a single-threaded (LevelDB-style) KV-store with a
multi-reader memory-mapped one (LMDB) and cut per-epoch data loading
from ~45 min to ~1 min. This bench loads feature batches from both
designs with one worker (no contention: what the locked path costs by
itself) and with four concurrent workers, and reports throughput.

Until rows were decoded by :func:`repro.storage.decode_array` this
bench read 1.01x: a ~30 us GIL-held ``np.load`` per row outside the lock
swamped the ~0.3 us locked section, so the handle design could not
show. With a ~1 us decode the lock is a real share of each row, and
four workers on one handle can form a lock convoy (a holder that loses
the GIL stalls every waiter: ~36 vs ~3 us/row) — the paper's effect, at
this scale. A convoy is sticky once formed and does not form in every
run, so runs are bimodal; the table gives the median and the range.
"""

import io
import itertools
import statistics
import threading
import time

import numpy as np

from _helpers import alternated_readings, format_table, paired_ratio, write_result
from repro.storage import (
    GraphStore,
    InMemoryKVStore,
    MmapKVStore,
    ReplicatedConfig,
    ReplicatedKVStore,
    WorkerLoader,
    decode_array,
    encode_array,
    encode_rows,
    load_rows,
)

NUM_WORKERS = 4
TOTAL_BATCHES = 1200  # split over the workers of a run
BATCH = 64
REPEATS = 5
# Ratio floors (CI perf-smoke): the median of the per-pair ratios of two
# timings alternated in one process (``_helpers.paired_ratio``), so a slow
# spell of the box moves one pair only. Readings, before and after that
# estimator: results/kvstore_ratio_floors.txt.
FLOOR_SAMPLES = 9
DECODE_FLOOR = 5.0  # np.load / decode_array, one 128-float row
BATCHED_ROWS_FLOOR = 2.0  # per-key gets / one get_many, 32 rows
ENCODE_ROWS_FLOOR = 3.0  # np.save per row / encode_rows, 3.5k rows


def _concurrent_load(store, private_handle, graph, num_workers):
    per_worker = TOTAL_BATCHES // num_workers
    rng = np.random.default_rng(0)
    batches = [rng.choice(graph.txn_nodes, BATCH) for _ in range(TOTAL_BATCHES)]
    errors = []

    def worker(worker_id):
        loader = WorkerLoader(store, private_handle=private_handle)
        try:
            for i in range(per_worker):
                loader.load_features(batches[worker_id * per_worker + i])
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)
        finally:
            loader.close()

    threads = [threading.Thread(target=worker, args=(w,)) for w in range(num_workers)]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - start
    assert not errors
    return elapsed


def _decode_readings():
    """(np.load, decode_array) microseconds for one 128-float row, alternated."""
    blob = encode_array(np.linspace(0.0, 1.0, 128))
    decode_array(blob)  # the one header parse every later row shares
    return alternated_readings(
        [lambda: np.load(io.BytesIO(blob), allow_pickle=False), lambda: decode_array(blob)],
        number=400,
        samples=FLOOR_SAMPLES,
    )


def test_decode_ratio_floor():
    """Machine-independent: the header-once decoder against the
    ``np.load`` it replaced, same blob, same process (CI perf-smoke)."""
    np_load_us, decode_us = _decode_readings()
    ratio = paired_ratio(np_load_us, decode_us)
    print(
        f"\nrow decode: np.load {np.median(np_load_us):.2f} us, decode_array "
        f"{np.median(decode_us):.2f} us -> {ratio:.1f}x per pair (floor >= {DECODE_FLOOR:.0f}x)"
    )
    assert ratio >= DECODE_FLOOR


def _batched_rows_readings():
    """(per-key loop, ``load_rows(store.get_many, ...)``) microseconds
    for the 32 rows of one ``fetch_chunk`` out of the serving fixture's
    tier: 3 in-memory replicas at replication factor 2, 114-float rows,
    alternated. The loop is the one ``load_rows`` ran until the
    multi-get: a ``store.get`` and a ``decode_array`` per row."""
    store = ReplicatedKVStore(
        [InMemoryKVStore() for _ in range(3)], ReplicatedConfig(replication_factor=2)
    )
    rng = np.random.default_rng(0)
    for node, row in enumerate(rng.normal(size=(2000, 114))):
        store.put(f"feat/{node}", encode_array(row))
    chunks = itertools.cycle(rng.integers(0, 2000, size=(4000, 32)).tolist())
    out = np.empty((32, 114))

    def per_key():
        for position, node in enumerate(next(chunks)):
            out[position] = decode_array(store.get(f"feat/{node}"))

    return alternated_readings(
        [per_key, lambda: load_rows(store.get_many, next(chunks), out)], number=40, samples=FLOOR_SAMPLES
    )


def test_batched_rows_ratio_floor():
    """Machine-independent: one multi-get per chunk against the per-key
    reads it replaced — same store, same rows, same process (CI
    perf-smoke). Every per-key check is still made; what the batch
    saves is the per-row gate, locks and ndarray."""
    per_key_us, batched_us = _batched_rows_readings()
    ratio = paired_ratio(per_key_us, batched_us)
    print(
        f"\n32 rows: per-key gets {np.median(per_key_us):.0f} us, one get_many "
        f"{np.median(batched_us):.0f} us -> {ratio:.1f}x per pair (floor >= {BATCHED_ROWS_FLOOR:.0f}x)"
    )
    assert ratio >= BATCHED_ROWS_FLOOR


def _encode_readings():
    """(per-row ``encode_array``, ``encode_rows``) microseconds for the
    serving fixture's table: ~3.5k transactions of 114 floats, alternated."""
    table = np.random.default_rng(0).normal(size=(3500, 114))
    return alternated_readings(
        [lambda: [encode_array(row) for row in table], lambda: encode_rows(table)],
        number=1,
        samples=FLOOR_SAMPLES,
    )


def test_encode_rows_ratio_floor():
    """Machine-independent: one header for a whole table against an
    ``np.save`` per row — same rows, same bytes, same process (CI
    perf-smoke)."""
    per_row_us, once_us = _encode_readings()
    ratio = paired_ratio(per_row_us, once_us)
    print(
        f"\n3.5k rows: np.save per row {np.median(per_row_us) / 1e3:.1f} ms, encode_rows "
        f"{np.median(once_us) / 1e3:.1f} ms -> {ratio:.1f}x per pair (floor >= {ENCODE_ROWS_FLOOR:.0f}x)"
    )
    assert ratio >= ENCODE_ROWS_FLOOR


def test_fig12_13_kvstore_loading(benchmark, small, tmp_path_factory):
    graph = small.graph
    base = tmp_path_factory.mktemp("kvstore")

    single = MmapKVStore(str(base / "single.bin"), single_handle=True)
    GraphStore(single).save(graph)
    multi = MmapKVStore(str(base / "multi.bin"), single_handle=False)
    GraphStore(multi).save(graph)

    seconds = {(design, w): [] for design in ("single", "multi") for w in (1, NUM_WORKERS)}
    for workers in (1, NUM_WORKERS):
        for _ in range(REPEATS):  # alternate, so drift hits both designs
            seconds["single", workers].append(_concurrent_load(single, False, graph, workers))
            seconds["multi", workers].append(_concurrent_load(multi, True, graph, workers))

    loader = WorkerLoader(multi, private_handle=True)
    rows_idx = graph.txn_nodes[:BATCH]
    benchmark.pedantic(lambda: loader.load_features(rows_idx), rounds=5, iterations=1)
    loader.close()

    total_rows = TOTAL_BATCHES * BATCH
    labels = {"single": "single-handle (LevelDB-like)", "multi": "multi-handle (LMDB-like)"}
    rows, speedup = [], {}
    for workers in (1, NUM_WORKERS):
        for design in ("single", "multi"):
            samples = seconds[design, workers]
            median = statistics.median(samples)
            rows.append(
                [
                    labels[design],
                    workers,
                    f"{median:.3f}s",
                    f"{total_rows / median:,.0f}",
                    f"{median / total_rows * 1e6:.2f}",
                    f"{min(samples):.3f}-{max(samples):.3f}s",
                ]
            )
        speedup[workers] = statistics.median(seconds["single", workers]) / statistics.median(
            seconds["multi", workers]
        )
        rows.append([f"speedup, {workers} worker(s)", "", f"{speedup[workers]:.2f}x", "", "", ""])
    np_load_us, decode_us = (float(np.median(readings)) for readings in _decode_readings())
    text = (
        f"Figures 12/13 — concurrent feature loading ({total_rows:,} rows, "
        f"median of {REPEATS} alternating runs)\n"
        + format_table(["Design", "Workers", "Wall time", "Rows/s", "us/row", "Range"], rows)
        + f"\nrow decode (128 floats): np.load {np_load_us:.2f} us -> "
        f"decode_array {decode_us:.2f} us ({np_load_us / decode_us:.1f}x)"
    )
    path = write_result("fig12_13_kvstore", text)
    print("\n" + text + f"\n-> {path}")

    single.close()
    multi.close()

    # Four workers on one handle contend for its lock: private handles
    # must win (1.18x measured without a convoy, ~12x with one).
    assert speedup[NUM_WORKERS] >= 1.05

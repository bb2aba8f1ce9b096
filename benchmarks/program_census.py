"""Program census: which lines under ``src/repro`` does no program run?

Every line outside ``repro.check`` has a program or a reason (DESIGN.md,
"Every line has a program or a reason"). This script runs every program
the repository has, 56 of them, each in its own process under
``sys.settrace`` and ``threading.settrace``:

- the four ledger workloads (``benchmarks/ledger/run.py --ops-scale 0.02
  --trace 1``, as CI runs them);
- the 13 ``python -m repro`` commands in ``.github/workflows/ci.yml``,
  plus ``datasets``, ``evaluate``, ``score``, ``explain`` (twice),
  ``pipeline``, ``check --list`` and ``--case``, a GAT ``train`` and
  ``stream`` with ``--wal-dir`` and ``--checkpoint-dir``;
- the five ``examples/*.py``;
- 23 benches: the 15 paper-table and figure benches, the degraded-rung
  and elastic-overhead benches, and the six CI runs only for their floors.

It writes ``benchmarks/results/program_census.txt``: each function under
``src/repro`` outside ``check/`` none of whose lines ran (nested ones
folded in), and each maximal run of unrun lines in one that ran, keyed
by ``path:qualname`` plus the run's first line. A run made only of
``raise`` statements is validation; every other entry is kept for a
stated reason (``KEPT``) or listed under "no reason", which should read
``none``. Text after the ``NOTES`` marker in the file is kept.

A frame gets a line tracer only when its code lies under the package
outside ``check/`` and no ``check/`` frame is on the stack: what the
harness calls has a spec as its user, not a program. A function's lines
are its code object's (``co_lines``) but its def line, with those of its
comprehensions and lambdas. Traced benches miss their timing floors and
exit nonzero; the lines they ran still count. Programs run in a
temporary copy of the repository, so benches write results there.

Usage (no flags)::

    python benchmarks/program_census.py
"""

from __future__ import annotations

import ast
import inspect
import json
import os
import runpy
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUTPUT = os.path.join(HERE, "results", "program_census.txt")
PACKAGE = os.path.join("src", "repro")
EXCLUDED = os.path.join(PACKAGE, "check")
NOTES = "## Notes"

#: (label, argv); ``{tmp}`` is a scratch directory of the copy.
_LEDGER = [
    (f"ledger {name}", ["benchmarks/ledger/run.py", "--workload", name, "--ops-scale", "0.02", "--trace", "1"])
    for name in ("serve_cold", "serve_hot", "stream_ingest", "train_epoch")
]
_SERVE_DEMO = ["serve", "--demo", "--scale", "0.1", "--epochs", "1", "--requests", "30", "--burst", "14"]
_ELASTIC_RESUME = [
    "train", "--elastic", "--workers", "4", "--scale", "0.1", "--model", "gem", "--epochs", "4",
    "--batch-size", "512", "--kill-at", "1:2", "--rejoin-at", "3:2", "--checkpoint-dir", "{tmp}/elastic",
]
_CLI = [
    # ci.yml, job by job
    _SERVE_DEMO,
    _SERVE_DEMO + ["--replicas", "3", "--health"],
    ["healthcheck", "--replicas", "3", "--keys", "60", "--kill-replica", "1", "--metrics"],
    _SERVE_DEMO + ["--metrics", "--trace-out", "{tmp}/serve-trace.json"],
    ["train", "--scale", "0.1", "--epochs", "2", "--trace-out", "{tmp}/train-trace.json"],
    ["train", "--elastic", "--workers", "8", "--chaos", "--scale", "0.1", "--epochs", "5", "--batch-size", "512"],
    ["stream", "--demo", "--scale", "0.15", "--events", "160", "--epochs", "1", "--batch-size", "8",
     "--compact-every", "24", "--runs", "2", "--metrics"],
    ["healthcheck", "--replicas", "2", "--keys", "32", "--stream-events", "24"],
    ["check", "--fuzz", "150", "--seed", "0"],
    ["train", "--scale", "0.1", "--model", "gem", "--epochs", "2", "--checkpoint-dir", "{tmp}/ckpts"],
    ["train", "--scale", "0.1", "--model", "gem", "--epochs", "4", "--checkpoint-dir", "{tmp}/ckpts", "--resume"],
    _ELASTIC_RESUME + ["--stop-after-epoch", "1"],
    _ELASTIC_RESUME + ["--resume"],
    # the subcommands CI does not run
    ["datasets", "--scale", "0.1"],
    ["train", "--scale", "0.1", "--epochs", "2", "--save", "{tmp}/model.npz"],
    ["evaluate", "--scale", "0.1", "--load", "{tmp}/model.npz"],
    ["score", "--scale", "0.1", "--load", "{tmp}/model.npz"],
    ["explain", "--scale", "0.1", "--epochs", "2", "--explainer-epochs", "20", "--dot"],
    ["explain", "--scale", "0.1", "--epochs", "2", "--explainer-epochs", "20", "--node", "0"],
    ["check", "--list"],
    ["check", "--case", "sampler-fast-vs-reference", "--seed", "0"],
    ["pipeline"],
    ["train", "--scale", "0.1", "--model", "gat", "--epochs", "2"],
    ["stream", "--demo", "--scale", "0.1", "--events", "64", "--epochs", "1", "--runs", "1",
     "--wal-dir", "{tmp}/wal", "--checkpoint-dir", "{tmp}/stream-ckpts"],
]
_BENCHES = [
    "bench_ablation_aggregation", "bench_agg_methods", "bench_case_studies", "bench_convergence",
    "bench_curves", "bench_datasets", "bench_end_to_end", "bench_feature_only", "bench_hybrid",
    "bench_kvstore", "bench_sampler_ablation", "bench_survey", "bench_table1_centrality",
    "bench_thresholds", "bench_tradeoff", "bench_degraded_rung", "bench_elastic_overhead",
    # the CI floor benches the list above lacks
    "bench_generator", "bench_obs_overhead", "bench_sampler_fastpath", "bench_scoring_overhead",
    "bench_stream_throughput", "bench_train_step",
]
PROGRAMS: List[Tuple[str, List[str]]] = (
    _LEDGER
    + [("repro " + " ".join(argv), ["-m", "repro"] + argv) for argv in _CLI]
    + [(f"examples/{name}", [f"examples/{name}"])
       for name in sorted(os.listdir(os.path.join(ROOT, "examples"))) if name.endswith(".py")]
    + [(name, ["-m", "pytest", f"benchmarks/{name}.py", "-q", "-p", "no:cacheprovider"]) for name in _BENCHES]
)

_RECOVERY = "recovery or durability: crash repair, torn or corrupt files, fsync; no program crashes yet (ROADMAP item 4)"
_SAFETY = "safety: an error, guard, bound, fallback, alarm or outcome no healthy run of the programs reaches"
_REFERENCE = "reference: only check/'s specs, audits and scenarios reach it"
_INTERFACE = "interface: an abstract method, or a call form or default no program takes, of a type whose other forms run"
_PROTOCOL = "protocol: a Python protocol method (operator, len, in, with, pickle, repr)"
_METRIC = "metric: a tally or accessor tests and check/ read to observe exported state"
_CACHE = "the cache's mixed-hit path, which ROADMAP item 5 decides"
_HG = "HGSampler's half of the sampler interface: no program scores through HG"
_IAA = "holds the annotator panel to the paper's inter-annotator agreement (test_iaa_calibrated_to_paper)"
#: ``path:qualname`` (a function none of whose lines ran) or ``path:qualname |
#: first line`` (a run of unrun lines in one that did) -> why it stays.
KEPT: Dict[str, str] = {
    **dict.fromkeys([
        'src/repro/data/events.py:decode_event',
        'src/repro/durable.py:Manifest.read | except json.JSONDecodeError as error:',
        'src/repro/reliability/checkpoint.py:_decode_checkpoint | except (ValueError, OSError) as error:',
        'src/repro/storage/kvstore.py:MmapKVStore.close | self._write_file.close()',
        'src/repro/storage/kvstore.py:MmapKVStore.open',
        'src/repro/storage/kvstore.py:_read_index',
        'src/repro/storage/loader.py:GraphStore.load',
        'src/repro/storage/loader.py:load_rows | for position, blob in enumerate(blobs):',
        'src/repro/storage/replicated.py:ReplicatedKVStore.anti_entropy | self._crc[key] = expected',
        'src/repro/storage/replicated.py:ReplicatedKVStore.anti_entropy | votes = Counter(c for c in observed.values() if isinstance(c, int))',
        'src/repro/storage/replicated.py:ReplicatedKVStore.keys | merged: Dict[str, None] = {}',
        'src/repro/stream/builder.py:IncrementalGraphBuilder.from_log',
        'src/repro/stream/feedback.py:OnlineFineTuner.resume',
        'src/repro/stream/wal.py:EventLog.__init__ | self.rotate()',
        'src/repro/stream/wal.py:EventLog._open_segment | fsync_dir(self.directory)',
        'src/repro/stream/wal.py:EventLog._recover | path = os.path.join(self.directory, unsealed)',
        'src/repro/stream/wal.py:EventLog.replay',
        'src/repro/stream/wal.py:EventLog.rotate | self._active_file = open(path, "ab")',
        'src/repro/stream/wal.py:EventLog.sync | os.fsync(self._active_file.fileno())',
        'src/repro/stream/wal.py:TornTailError.__init__',
        'src/repro/stream/wal.py:_read_unsealed',
        'src/repro/stream/wal.py:_scan_frames',
        'src/repro/stream/wal.py:replay_wal',
        'src/repro/train/elastic.py:ElasticTrainer._supervised_epoch | continue',
        'src/repro/train/elastic.py:ElasticTrainer._supervised_epoch | except NoSurvivorsError:',
    ], _RECOVERY),
    **dict.fromkeys([
        'src/repro/cli.py:_check_demo_run | failures.append(',
        'src/repro/cli.py:_check_demo_run | failures.append("no request demoted as kv_unavailable — the outage went unseen")',
        'src/repro/cli.py:_check_demo_run | failures.append("the last scored response is not on the gnn rung")',
        'src/repro/cli.py:_check_demo_run | failures.append(f"killed replica {killed} did not recover: {journey}")',
        'src/repro/cli.py:_check_demo_run | failures.append(f"killed replica {killed} never went dead — outage not exercised")',
        'src/repro/cli.py:_check_demo_run | failures.append(f"kv_failures={stats.kv_failures} (expected 0)")',
        'src/repro/cli.py:_check_demo_run | failures.append(f"storage-attributed degradations: {storage_degraded}")',
        'src/repro/cli.py:_check_demo_run | reason: count',
        'src/repro/cli.py:_check_demo_run | return 1',
        'src/repro/cli.py:_cmd_check | print(',
        'src/repro/cli.py:_cmd_check | print(f"        {violation}")',
        'src/repro/cli.py:_cmd_check | print(f"FAIL  {args.case} seed={args.seed} size={args.size}: {detail}")',
        'src/repro/cli.py:_cmd_healthcheck | failures.append(f"the killed replica\'s stale copies were not all repaired ({report.describe()})")',
        'src/repro/cli.py:_cmd_healthcheck | return 1',
        'src/repro/cli.py:_cmd_stream | failures.append(',
        'src/repro/cli.py:_cmd_stream | failures.append(f"run {run}: delta-vs-compacted subgraph gate failed")',
        'src/repro/cli.py:_cmd_stream | failures.append(f"run {run}: verdict stream diverged from run 0")',
        'src/repro/cli.py:_cmd_stream | print(',
        'src/repro/cli.py:_cmd_stream | return 1',
        'src/repro/cli.py:_cmd_train_elastic | except SkipBudgetExhaustedError as error:',
        'src/repro/cli.py:_cmd_train_elastic | failures.append(',
        'src/repro/cli.py:_cmd_train_elastic | failures.append("corrupt gradient was never quarantined")',
        'src/repro/cli.py:_cmd_train_elastic | failures.append("eviction did not trigger a checkpoint rollback")',
        'src/repro/cli.py:_cmd_train_elastic | failures.append(f"expected evictions {_CHAOS_KILL}, saw {evicted}")',
        'src/repro/cli.py:_cmd_train_elastic | failures.append(f"expected rejoins {_CHAOS_REJOIN}, saw {rejoined}")',
        'src/repro/cli.py:_cmd_train_elastic | return 1',
        'src/repro/cli.py:_failed | print(f"FAIL: {failure}", file=sys.stderr)',
        'src/repro/cli.py:_load_saved_state | except (FileNotFoundError, ValueError, KeyError) as error:',
        'src/repro/cli.py:main | except _UsageError as error:',
        'src/repro/data/generator.py:TransactionGenerator._emit_stolen_cards | return',
        'src/repro/data/records.py:TransactionLog.feature_matrix | return np.zeros((0, 0))',
        'src/repro/data/records.py:TransactionLog.fraud_rate | return 0.0',
        'src/repro/durable.py:fsync_dir | except OSError:  # pragma: no cover - platform without dir fds',
        'src/repro/explain/centrality.py:_line_graph_node_centrality | return {}',
        'src/repro/explain/centrality.py:_per_component | for node in sub.nodes:',
        'src/repro/explain/hitrate.py:normalize_weights | return {}',
        'src/repro/explain/hitrate.py:topk_hit_rate | return 0.0',
        'src/repro/explain/visualize.py:CaseStudy.condition | return "FP"',
        'src/repro/explain/visualize.py:render_dot | lines.append(f"  n{u} -- n{v};")',
        'src/repro/graph/cache.py:SubgraphCache._store | entries.popitem(last=False)',
        'src/repro/graph/hetero.py:HeteroGraph._grow_csr | return InEdges(indptr, base, cap, src, edge_id)',
        'src/repro/graph/hetero.py:HeteroGraph.edges_per_node | return 0.0',
        'src/repro/graph/hetero.py:HeteroGraph.fraud_rate | return 0.0',
        'src/repro/graph/hetero.py:HeteroGraph.with_features | for name in ("indptr", "base", "cap", "src_by_dst", "edge_id_by_dst"):',
        'src/repro/graph/hetero.py:_check_edge_schema | bad = int(np.flatnonzero(implied != edge_type)[0])',
        'src/repro/graph/hetero.py:_ranges | return np.zeros(0, dtype=np.int64)',
        'src/repro/graph/homophily.py:HomophilyScore.lift | return float("inf") if self.same_label_rate > 0 else 1.0',
        'src/repro/graph/homophily.py:homophily_score | return HomophilyScore(entity_type, 0, 0.0, baseline, 0.0)',
        'src/repro/graph/partition.py:_kmeans_1d | centers = np.append(centers, rng.uniform(values.min(), values.max() + 1e-9))',
        'src/repro/graph/partition.py:pic_partition | return np.arange(n, dtype=np.int64)',
        'src/repro/graph/partition.py:power_iteration_embedding | break',
        'src/repro/graph/sampling.py:HGSampler._expand.<locals>.push | return members',
        'src/repro/graph/sampling.py:_node_ids | outside = targets[(targets < 0) | (targets >= graph.num_nodes)]',
        'src/repro/models/hetero_conv.py:HeteroConvLayer.kernel.<locals>.pullback | return None, grads, d_scale',
        'src/repro/nn/functional.py:dropout | rng = np.random.default_rng()',
        'src/repro/nn/optim.py:clip_grad_norm | return 0.0',
        'src/repro/nn/segment.py:_sum_kernels | except (ImportError, AttributeError):  # does not load, or has no such kernels',
        'src/repro/nn/segment.py:_through_public',
        'src/repro/nn/tensor.py:Tensor._accumulate | self.grad = np.array(np.broadcast_to(grad, self.data.shape), dtype=np.float64)',
        'src/repro/nn/tensor.py:Tensor.sum.<locals>.backward | return',
        'src/repro/obs/profile.py:_backward_op_name | name = parts[-1] if parts else "op"',
        'src/repro/obs/registry.py:_label_key | except KeyError:',
        'src/repro/obs/trace.py:Span.duration_s | return 0.0',
        'src/repro/obs/trace.py:Tracer._finish | overflow = len(self._finished) - MAX_SPANS',
        'src/repro/reliability/checkpoint.py:CheckpointManager.latest | return None',
        'src/repro/rules/miner.py:RuleMiner._candidate_literals | return []',
        'src/repro/rules/miner.py:RuleMiner._grow_rule | break',
        'src/repro/rules/miner.py:RuleMiner._grow_rule | return None',
        'src/repro/rules/miner.py:RuleMiner.fit | break',
        'src/repro/rules/miner.py:RuleMiner.fit | return RuleSet()',
        'src/repro/rules/miner.py:RuleMiner.fit | x_train = x_valid = features',
        'src/repro/serving/admission.py:AdmissionQueue.offer | return False, SHED_RATE_LIMITED',
        'src/repro/serving/admission.py:TokenBucket._refill | self._tokens = min(self.capacity, self._tokens + (now - self._last) * self.rate)',
        'src/repro/serving/admission.py:TokenBucket.grant | granted = wanted if self._tokens >= wanted else int(self._tokens)',
        'src/repro/serving/demo.py:_build_replicated_store | continue',
        'src/repro/serving/service.py:ScoringService._gnn_score_batch | components = np.searchsorted(sampled.bounds[:-1, 0], sampled.target_local)',
        'src/repro/serving/service.py:ScoringService._gnn_score_batch | live, targets = group.live, targets[np.isin(live, group.live)]',
        'src/repro/serving/service.py:ScoringService._serve | self.stats.record_shed(SHED_RATE_LIMITED, len(nodes) - admitted)',
        'src/repro/serving/service.py:ScoringService.warm_cache | return 0',
        'src/repro/storage/kvstore.py:MmapKVStore.finalize | return',
        'src/repro/storage/loader.py:_decode_uniform | except Exception:',
        'src/repro/storage/loader.py:_decode_uniform | return None',
        'src/repro/storage/loader.py:_frame | return None',
        'src/repro/storage/loader.py:_parse_header | elif version == (2, 0):',
        'src/repro/storage/loader.py:_parse_header | return None  # numpy reads the items flat, then refuses all but size 0',
        'src/repro/storage/loader.py:_ragged',
        'src/repro/storage/loader.py:decode_array | return npy_format.read_array(io.BytesIO(blob), allow_pickle=False)',
        'src/repro/storage/loader.py:encode_rows | return []',
        'src/repro/storage/replicated.py:ReplicaHealth.mark_probing | self._transition(PROBING, reason)',
        'src/repro/storage/replicated.py:ReplicatedKVStore._failed_over | return self._sequential_get(key, owners, start=1)',
        'src/repro/storage/replicated.py:ReplicatedKVStore._get_many | except Exception:',
        'src/repro/storage/replicated.py:ReplicatedKVStore._read_replica | except Exception:',
        'src/repro/storage/replicated.py:ReplicatedKVStore._sequential_get | pass',
        'src/repro/storage/replicated.py:ReplicatedKVStore.anti_entropy | bad.append((index, "corrupt"))',
        'src/repro/storage/replicated.py:ReplicatedKVStore.anti_entropy | bad.append((index, "divergent"))',
        'src/repro/storage/replicated.py:ReplicatedKVStore.anti_entropy | bad.append((index, "missing"))',
        'src/repro/storage/replicated.py:ReplicatedKVStore.anti_entropy | continue',
        'src/repro/storage/replicated.py:ReplicatedKVStore.anti_entropy | except Exception:',
        'src/repro/storage/replicated.py:ReplicatedKVStore.anti_entropy | except KeyError:',
        'src/repro/storage/replicated.py:ReplicatedKVStore.anti_entropy | observed[index] = _MISSING',
        'src/repro/storage/replicated.py:ReplicatedKVStore.anti_entropy | report.unrepairable += len(bad)',
        'src/repro/storage/replicated.py:ReplicatedKVStore.describe | else "n/a"',
        'src/repro/stream/builder.py:IncrementalGraphBuilder.apply_label | self._pending_labels[node - self.graph.num_nodes] = label',
        'src/repro/stream/demo.py:run_stream_demo | responses.extend(scorer.pump(max_batches=1))',
        'src/repro/stream/feedback.py:OnlineAUC.auc | return float("nan")',
        'src/repro/stream/feedback.py:OnlineFineTuner.maybe_update | return None',
        'src/repro/stream/scorer.py:StreamScorer.ingest | self.backpressure_rejections += 1',
        'src/repro/train/distributed.py:DistributedResult.seconds_per_epoch | return 0.0',
        'src/repro/train/elastic.py:ElasticTrainer._evict | else f"silent through the {_HEARTBEAT_GRACE_S:g}s grace period"',
        'src/repro/train/elastic.py:ElasticTrainer._inject_corruption | return',
        'src/repro/train/elastic.py:ElasticTrainer._integrity_check | reason = "checksum"',
        'src/repro/train/elastic.py:FailureDetector._transition | return',
        'src/repro/train/elastic.py:FailureDetector.heartbeat | return',
        'src/repro/train/elastic.py:FailureDetector.heartbeat | self._transition(worker, HEALTHY, at)',
        'src/repro/train/elastic.py:FailureDetector.heartbeat | self._transition(worker, PROBING, at)',
        'src/repro/train/elastic.py:FailureDetector.mark_probing | self.add(worker, at)',
        'src/repro/train/elastic.py:FailureDetector.phi | mean = self.bootstrap_interval_s',
        'src/repro/train/elastic.py:FailureDetector.poll | taken.append((worker, state, HEALTHY))',
        'src/repro/train/metrics.py:epoch_auc | return None',
        'src/repro/train/metrics.py:latency_percentiles | return {key: float("nan") for key in keys}',
        'src/repro/train/metrics.py:partial_roc_auc | return 0.0',
        'src/repro/train/metrics.py:project_precision_to_stream | return 0.0',
        'src/repro/train/trainer.py:TrainResult.seconds_per_epoch | return 0.0',
        'src/repro/util.py:release_free_memory | except (OSError, AttributeError, TypeError):',
    ], _SAFETY),
    **dict.fromkeys([
        'src/repro/models/detector.py:XFraudDetector.node_representations',
        'src/repro/models/hetero_conv.py:HeteroConvLayer.forward | layout = InferenceLayout.of(layout)',
        'src/repro/models/hetero_conv.py:HeteroConvLayer.reads | return np.arange(len(layout.node_type))',
        'src/repro/nn/functional.py:log_softmax',
        'src/repro/nn/module.py:Embedding.forward',
        'src/repro/nn/optim.py:Adam._update | grad += np.multiply(data, self.weight_decay, out=scratch)',
        'src/repro/nn/optim.py:_runs | continue',
        'src/repro/nn/segment.py:scatter_rows',
        'src/repro/nn/tensor.py:Tensor.T',
        'src/repro/nn/tensor.py:Tensor.matmul.<locals>.backward | grad = np.expand_dims(grad, -1)',
        'src/repro/nn/tensor.py:Tensor.matmul.<locals>.backward | grad = np.expand_dims(grad, -2)',
        'src/repro/nn/tensor.py:Tensor.mean | count = self.size',
        'src/repro/nn/tensor.py:Tensor.transpose',
        'src/repro/reliability/faults.py:FaultyKVStore.get | self._attempts[key] = seen + 1',
        'src/repro/reliability/faults.py:FaultyKVStore.get | self._fault(f"injected random fault for {key!r}")',
        'src/repro/reliability/faults.py:FaultyKVStore.get | self.injected += 1',
        'src/repro/serving/service.py:ScoringService._coerce | budgets[index] = requests[index].deadline_s',
        'src/repro/serving/stats.py:ServiceStats.record_response',
        'src/repro/train/elastic.py:ElasticTrainer._inject_corruption | view = target.view(np.uint8).reshape(-1)',
    ], _REFERENCE),
    **dict.fromkeys([
        'src/repro/data/events.py:export_events | return events',
        'src/repro/graph/hetero.py:HeteroGraph.mark_mutated | self._csr = None',
        'src/repro/nn/init.py:xavier_uniform | fan_in = fan_out = shape[0]',
        'src/repro/nn/module.py:Embedding.__init__ | table = init.xavier_uniform((num_embeddings, embedding_dim), rng)',
        'src/repro/nn/serialization.py:load_state | path = path + ".npz"',
        'src/repro/nn/serialization.py:save_state | path = path + ".npz"',
        'src/repro/nn/tensor.py:Tensor.reshape | shape = tuple(shape[0])',
        'src/repro/obs/trace.py:_NullSpan.set',
        'src/repro/obs/trace.py:timed.__init__ | self._clock = clock',
        'src/repro/reliability/checkpoint.py:load_training_state | return CheckpointManager(source).load()',
        'src/repro/reliability/checkpoint.py:load_training_state | return source',
        'src/repro/reliability/checkpoint.py:load_training_state | return source.load()',
        'src/repro/reliability/faults.py:FaultPlan.wrap_replicas | else store',
        'src/repro/storage/kvstore.py:DelegatingKVStore.keys',
        'src/repro/storage/kvstore.py:DelegatingKVStore.put',
        'src/repro/storage/kvstore.py:InMemoryKVStore.delete',
        'src/repro/storage/kvstore.py:InMemoryKVStore.keys',
        'src/repro/storage/kvstore.py:MmapKVStore._get_raw | return self._shared_reader.get(key)',
        'src/repro/storage/kvstore.py:MmapKVStore.contains',
        'src/repro/storage/kvstore.py:MmapKVStore.keys',
        'src/repro/storage/replicated.py:ReplicatedKVStore.contains',
        'src/repro/storage/replicated.py:ReplicatedKVStore.finalize | finalize()',
        'src/repro/train/trainer.py:measure_inference_time | model.predict_proba_sampled(graph, batch)',
    ], _INTERFACE),
    **dict.fromkeys([
        'src/repro/graph/cache.py:SubgraphCache.__len__',
        'src/repro/nn/module.py:ModuleDict.__contains__',
        'src/repro/nn/module.py:Parameter.__setstate__',
        'src/repro/nn/optim.py:Optimizer.__getstate__',
        'src/repro/nn/tensor.py:Tensor.__len__',
        'src/repro/nn/tensor.py:Tensor.__repr__',
        'src/repro/nn/tensor.py:Tensor.__rtruediv__',
        'src/repro/obs/trace.py:Span.__repr__',
        'src/repro/serving/admission.py:AdmissionQueue.__len__',
        'src/repro/storage/kvstore.py:KVStore.__contains__',
        'src/repro/storage/kvstore.py:KVStore.__enter__',
        'src/repro/storage/kvstore.py:KVStore.__exit__',
        'src/repro/storage/kvstore.py:_MmapReader.__enter__',
        'src/repro/storage/kvstore.py:_MmapReader.__exit__',
        'src/repro/storage/loader.py:WorkerLoader.__enter__',
        'src/repro/storage/loader.py:WorkerLoader.__exit__',
        'src/repro/stream/wal.py:EventLog.__enter__',
        'src/repro/stream/wal.py:EventLog.__exit__',
    ], _PROTOCOL),
    **dict.fromkeys([
        'src/repro/obs/profile.py:Profiler.__enter__.<locals>.profiled_call | stack[-1].child_s += elapsed',
        'src/repro/obs/profile.py:Profiler.records | rows = [row for row in rows if row.phase == phase]',
        'src/repro/obs/registry.py:Counter.total',
        'src/repro/obs/registry.py:Counter.value',
        'src/repro/obs/registry.py:Gauge.dec',
        'src/repro/obs/registry.py:Gauge.set',
        'src/repro/obs/registry.py:Gauge.value',
        'src/repro/obs/registry.py:Histogram.count',
        'src/repro/obs/registry.py:Histogram.sum',
        'src/repro/obs/registry.py:MetricsRegistry.get',
        'src/repro/obs/registry.py:MetricsRegistry.names',
        'src/repro/serving/stats.py:ServiceStats.snapshot',
        'src/repro/storage/kvstore.py:MmapKVStore.get | started = time.perf_counter()',
        'src/repro/storage/kvstore.py:MmapKVStore.instrument',
        'src/repro/storage/replicated.py:ReplicatedKVStore.__init__ | self.instrument(registry)',
        'src/repro/storage/replicated.py:ReplicatedKVStore._samples | yield ("counter", *corrupt, {"replica": str(index)}, count)',
        'src/repro/stream/scorer.py:StreamScorer.lag_seconds | return max(0.0, float(self.clock()) - self._queue[0].timestamp)',
    ], _METRIC),
    **dict.fromkeys([
        'src/repro/graph/cache.py:SubgraphCache._loop_outcomes',
        'src/repro/graph/cache.py:SubgraphCache._replay',
        'src/repro/graph/cache.py:SubgraphCache.get_or_sample | held.update(zip(missed, walked))',
        'src/repro/graph/cache.py:SubgraphCache.get_or_sample | hit = self._loop_outcomes(keys)',
        'src/repro/graph/cache.py:SubgraphCache.get_or_sample | missed = list(dict.fromkeys(key for key, found in zip(keys, hit) if not found))',
    ], _CACHE),
    **dict.fromkeys([
        'src/repro/graph/sampling.py:HGSampler._expand | deadline.check(f"sampling step {step}")',
        'src/repro/graph/sampling.py:HGSampler.steps',
    ], _HG),
    **dict.fromkeys([
        'src/repro/explain/annotations.py:cohen_kappa',
        'src/repro/explain/annotations.py:mean_pairwise_kappa',
        'src/repro/explain/annotations.py:random_panel',
    ], _IAA),
}


# -- attribution -------------------------------------------------------------


def _lines(code) -> Set[int]:
    """A code object's executable lines, without its header line (the
    def or first decorator) unless the body shares it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    return lines - {code.co_firstlineno} if len(lines) > 1 else lines


class Census:
    """Records which lines under ``tree/package`` run in a frame outside
    ``tree/excluded`` with no frame from ``excluded`` on the stack, in
    this thread and every thread started while it runs. ``ran`` holds
    ``(path relative to tree, line)`` pairs."""

    def __init__(self, tree: str, package: str = PACKAGE, excluded: str = EXCLUDED) -> None:
        self.tree = os.path.abspath(tree)
        self.root = os.path.join(self.tree, package, "")
        self.excluded = os.path.join(self.tree, excluded, "")
        self._skip: Set[object] = set()  # code outside root, excluded, or all of whose lines ran
        self._left: Dict[object, Set[int]] = {}  # code -> its lines not yet seen run
        self._ran: Set[Tuple[str, int]] = set()

    def _call(self, frame, event, arg):
        code = frame.f_code
        if code in self._skip:
            return None
        if code not in self._left:
            path = code.co_filename
            if not path.startswith(self.root) or path.startswith(self.excluded):
                self._skip.add(code)
                return None
            self._left[code] = _lines(code)
        back = frame.f_back
        while back is not None:
            if back.f_code.co_filename.startswith(self.excluded):
                return None
            back = back.f_back
        return self._line

    def _line(self, frame, event, arg):
        if event != "line":
            return self._line
        code = frame.f_code
        self._ran.add((code.co_filename, frame.f_lineno))
        left = self._left[code]
        left.discard(frame.f_lineno)
        if left:
            return self._line
        self._skip.add(code)
        return None

    def __enter__(self) -> "Census":
        threading.settrace(self._call)
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc) -> None:
        sys.settrace(None)
        threading.settrace(None)

    @property
    def ran(self) -> Set[Tuple[str, int]]:
        return {(os.path.relpath(path, self.tree), line) for path, line in self._ran}


@dataclass
class Function:
    path: str  # relative to the tree the census ran
    qualname: str
    lines: List[int]  # executable, with its comprehensions' and lambdas'; not its nested defs'
    parent: Optional["Function"]  # the enclosing def

    @property
    def name(self) -> str:
        return f"{self.path}:{self.qualname}"


_INLINE = {"<lambda>", "<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>"}


def functions(tree: str, package: str = PACKAGE, excluded: str = EXCLUDED) -> List[Function]:
    """Every def under ``tree/package`` outside ``excluded``, from the
    code objects its files compile to, in path and line order."""
    found: List[Function] = []
    for directory, subdirs, names in os.walk(os.path.join(tree, package)):
        subdirs.sort()
        rel_dir = os.path.relpath(directory, tree)
        if rel_dir == excluded or rel_dir.startswith(excluded + os.sep):
            continue
        for name in sorted(names):
            if name.endswith(".py"):
                path = os.path.join(rel_dir, name)
                with open(os.path.join(tree, path)) as handle:
                    _walk(compile(handle.read(), path, "exec"), path, [], None, found)
    return sorted(found, key=lambda f: (f.path, f.lines[0]))


def _walk(code, path: str, scope: List[str], owner: Optional[Function], found: List[Function]) -> None:
    for child in code.co_consts:
        if not hasattr(child, "co_lines"):
            continue
        if not child.co_flags & inspect.CO_OPTIMIZED:  # a class body
            _walk(child, path, scope + [child.co_name], owner, found)
        elif child.co_name in _INLINE and owner is not None:
            owner.lines = sorted(set(owner.lines) | _lines(child))
            _walk(child, path, scope, owner, found)
        else:
            function = Function(path, ".".join(scope + [child.co_name]), sorted(_lines(child)), owner)
            found.append(function)
            _walk(child, path, scope + [child.co_name, "<locals>"], function, found)


@dataclass
class Entry:
    """An unreached function (its nested defs folded in) or a maximal
    run of unrun lines in a reached one."""

    function: Function
    statement: Optional[str]  # the run's first line, stripped; None when unreached
    lines: int
    validation: bool  # every line lies in a ``raise`` statement

    @property
    def key(self) -> str:
        return self.function.name + ("" if self.statement is None else f" | {self.statement}")


def unrun(tree: str, found: List[Function], ran: Set[Tuple[str, int]]) -> List[Entry]:
    """What no program ran, in path and line order."""
    texts: Dict[str, List[str]] = {}
    raises: Dict[str, Set[int]] = {}
    for function in found:
        if function.path not in texts:
            with open(os.path.join(tree, function.path)) as handle:
                source = handle.read()
            texts[function.path] = source.splitlines()
            raises[function.path] = {
                line for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Raise)
                for line in range(node.lineno, node.end_lineno + 1)
            }
    dead = {id(f) for f in found if not any((f.path, line) in ran for line in f.lines)}
    entries: List[Entry] = []
    for function in found:
        if id(function) in dead:
            if function.parent is None or id(function.parent) not in dead:
                inner = [f for f in found if _within(f, function)]
                lines = [line for f in inner for line in f.lines]
                entries.append(Entry(function, None, len(lines), set(lines) <= raises[function.path]))
            continue
        run: List[int] = []
        for line in function.lines + [None]:
            if line is not None and (function.path, line) not in ran:
                run.append(line)
            elif run:
                statement = texts[function.path][run[0] - 1].strip()
                entries.append(Entry(function, statement, len(run), set(run) <= raises[function.path]))
                run = []
    return entries


def _within(inner: Function, outer: Function) -> bool:
    while inner is not None and inner is not outer:
        inner = inner.parent
    return inner is outer


# -- running the programs ------------------------------------------------------

_BOOT = (
    "import sys; sys.path.insert(0, {here!r}); import program_census; "
    "del sys.path[0]; program_census._child()"
)


def _child() -> None:
    """``python -c _BOOT OUT -m MODULE ARGS...`` or ``... OUT SCRIPT ARGS...``:
    run the program under a census and write the lines it ran to OUT."""
    out, target = sys.argv[1], sys.argv[2:]
    census = Census(os.getcwd())
    if target[0] == "-m":
        sys.argv = [target[1]] + target[2:]
        run = lambda: runpy.run_module(target[1], run_name="__main__", alter_sys=True)  # noqa: E731
    else:
        sys.argv = target
        sys.path.insert(0, os.path.dirname(os.path.abspath(target[0])))
        run = lambda: runpy.run_path(target[0], run_name="__main__")  # noqa: E731
    status = 0
    with census:
        try:
            run()
        except SystemExit as exit_:
            status = exit_.code if isinstance(exit_.code, int) else (0 if exit_.code is None else 1)
    with open(out, "w") as handle:
        json.dump(sorted(census.ran), handle)
    sys.stdout.flush()
    os._exit(status)


def _copy_tree(destination: str) -> None:
    ignore = shutil.ignore_patterns(".git", "__pycache__", "*.pyc", ".pytest_cache", ".benchmarks", ".work")
    for name in ("src", "benchmarks", "examples", "pyproject.toml", "BENCHMARK.json"):
        source = os.path.join(ROOT, name)
        if os.path.isdir(source):
            shutil.copytree(source, os.path.join(destination, name), ignore=ignore)
        else:
            shutil.copy(source, destination)


def run_programs(tree: str, programs: Sequence[Tuple[str, List[str]]]):
    """Run each program in ``tree``; returns the lines they ran and
    ``(label, exit status, seconds)`` per program."""
    scratch = os.path.join(tree, "census-tmp")
    os.makedirs(scratch)
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    ran: Set[Tuple[str, int]] = set()
    statuses = []
    for index, (label, argv) in enumerate(programs):
        out = os.path.join(scratch, f"ran-{index}.json")
        argv = [part.replace("{tmp}", scratch) for part in argv]
        started = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", _BOOT.format(here=HERE), out] + argv,
            cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        seconds = time.perf_counter() - started
        if os.path.exists(out):
            with open(out) as handle:
                ran |= {tuple(pair) for pair in json.load(handle)}
        else:
            sys.stderr.write(done.stderr[-2000:])
        statuses.append((label, done.returncode, seconds))
        print(f"{'ok ' if done.returncode == 0 else 'ERR'} {seconds:7.1f} s  {label}", flush=True)
    return ran, statuses


def render(found: List[Function], entries: List[Entry], programs: int, notes: str) -> str:
    def total(rows: List[Entry]) -> str:
        return f"{len(rows)}, {sum(e.lines for e in rows)} lines"

    unreached = [e for e in entries if e.statement is None]
    runs = [e for e in entries if e.statement is not None]
    kept = [e for e in entries if e.key in KEPT]
    validation = [e for e in entries if e.key not in KEPT and e.validation]
    rest = [e for e in entries if e.key not in KEPT and not e.validation]
    stale = sorted(set(KEPT) - {e.key for e in entries})
    out = [
        "# Program census: lines under src/repro outside check/ that no program ran",
        "# Regenerate with: python benchmarks/program_census.py (see its docstring for the programs)",
        f"# {programs} programs; {len(found)} functions, {sum(len(f.lines) for f in found)} executable lines; "
        f"unreached functions: {total(unreached)}; runs of unrun lines in reached ones: {total(runs)}",
        "",
        f"## Kept ({total(kept)})",
    ]
    out += [f"{e.lines:4}  {e.key}  -- {KEPT[e.key]}" for e in kept]
    out += ["", f"## Validation: runs made only of raise statements ({total(validation)})"]
    out += [f"{e.lines:4}  {e.key}" for e in validation]
    out += ["", f"## No reason: delete it, drive it or keep it with a reason ({total(rest)})"]
    out += [f"{e.lines:4}  {e.key}" for e in rest] or ["none"]
    out += ["", f"## Kept keys that match nothing ({len(stale)})"] + (stale or ["none"])
    out += ["", NOTES, notes.strip("\n"), ""] if notes.strip() else ["", NOTES, ""]
    return "\n".join(out)


def main() -> int:
    notes = ""
    if os.path.exists(OUTPUT):
        with open(OUTPUT) as handle:
            text = handle.read()
        if NOTES in text:
            notes = text.split(NOTES, 1)[1]
    started = time.perf_counter()
    tree = tempfile.mkdtemp(prefix="program-census-")
    try:
        _copy_tree(tree)
        ran, statuses = run_programs(tree, PROGRAMS)
    finally:
        shutil.rmtree(tree, ignore_errors=True)
    found = functions(ROOT)
    with open(OUTPUT, "w") as handle:
        handle.write(render(found, unrun(ROOT, found, ran), len(PROGRAMS), notes))
    failed = [label for label, status, _ in statuses if status != 0]
    print(f"census: {time.perf_counter() - started:.0f} s, {len(PROGRAMS)} programs, "
          f"{len(failed)} exited nonzero {failed}; wrote {os.path.relpath(OUTPUT, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``datasets``      print Table-2-style stats for the simulated datasets
``train``         train a model on a preset dataset, optionally save it
``evaluate``      load a saved model and evaluate on a preset dataset
``explain``       explain one transaction's prediction (text + DOT)
``pipeline``      run the Appendix-B label pipeline and print each stage
``score``         score transactions through the online ScoringService
``serve``         replay the deterministic chaos demo (``--demo``)
``healthcheck``   exercise a replicated feature tier and dump replica health
``check``         run invariant audits + the differential fuzzer (CI gate)

Datasets are fully regenerable from (name, seed, scale), so commands
take those instead of data files; model weights persist as ``.npz``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

import numpy as np

from .data import load_dataset
from .explain import render_dot, render_text
from .graph import extract_community
from .models import DetectorConfig, GATModel, GEMModel, XFraudDetectorPlus
from .nn.serialization import load_state, save_state
from .reliability import CheckpointError, CheckpointManager
from .train import TrainConfig, Trainer

MODEL_CHOICES = {
    "detector+": XFraudDetectorPlus,
    "gat": GATModel,
    "gem": GEMModel,
}


def _add_dataset_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dataset",
        default="ebay-small-sim",
        choices=["ebay-small-sim", "ebay-large-sim", "ebay-xlarge-sim"],
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=0.5)


def _add_model_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", default="detector+", choices=sorted(MODEL_CHOICES))
    parser.add_argument("--hidden-dim", type=int, default=64)
    parser.add_argument("--heads", type=int, default=4)
    parser.add_argument("--layers", type=int, default=2)


def _build_model(args, feature_dim: int):
    config = DetectorConfig(
        feature_dim=feature_dim,
        hidden_dim=args.hidden_dim,
        num_heads=args.heads,
        num_layers=args.layers,
        seed=args.seed,
    )
    return MODEL_CHOICES[args.model](config)


class _UsageError(Exception):
    """Raised by a helper that rejects its arguments; ``main`` prints
    ``error: <message>`` on stderr and exits 2 instead of a traceback."""


def _load_saved_state(model, path: str) -> None:
    """Load saved weights; a bad --load path is a usage error."""
    try:
        load_state(model, path)
    except (FileNotFoundError, ValueError, KeyError) as error:
        message = str(error) or error.__class__.__name__
        raise _UsageError(f"cannot load model state: {message}") from error


def _load_or_train(
    args, model, bundle, what: str, learning_rate: float = TrainConfig.learning_rate
) -> None:
    """``--load`` saved weights, or announce and fit ``--epochs`` on the
    training split."""
    if args.load:
        _load_saved_state(model, args.load)
        return
    print(f"no --load given; training {what} ...")
    Trainer(
        model, TrainConfig(epochs=args.epochs, batch_size=2048, learning_rate=learning_rate)
    ).fit(bundle.graph, bundle.train_nodes)


def _check_labeled_txn(graph, node: int) -> None:
    if node < 0 or node >= graph.num_nodes or graph.labels[node] < 0:
        raise _UsageError(f"node {node} is not a labeled transaction")


def _resolve_checkpoint(args):
    """``--checkpoint-dir`` / ``--resume`` for both train paths: returns
    ``(manager, checkpoint to resume from)``, each or None."""
    if not args.checkpoint_dir:
        if args.resume:
            raise _UsageError("--resume requires --checkpoint-dir")
        return None, None
    manager = CheckpointManager(args.checkpoint_dir, keep_last=args.keep_last)
    resume_from = manager.latest() if args.resume else None
    if args.resume and resume_from is None:
        raise _UsageError(f"--resume given but no checkpoints in {args.checkpoint_dir}")
    return manager, resume_from


def _print_test_metrics(metrics) -> None:
    print(
        f"test: accuracy={metrics['accuracy']:.4f} ap={metrics['ap']:.4f} "
        f"auc={metrics['auc']:.4f}"
    )


def _write_trace(spans, path: str) -> None:
    from .obs import write_chrome_trace

    events = write_chrome_trace(spans, path)
    print(f"wrote {events} trace events to {path} (open in chrome://tracing)")


def _failed(failures: List[str]) -> bool:
    """The tail of every gate: one ``FAIL:`` line per failure on stderr."""
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return bool(failures)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="xFraud reproduction command line"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    datasets = commands.add_parser("datasets", help="print dataset statistics")
    _add_dataset_args(datasets)

    train = commands.add_parser("train", help="train a model")
    _add_dataset_args(train)
    _add_model_args(train)
    train.add_argument("--epochs", type=int, default=8)
    train.add_argument("--batch-size", type=int, default=2048)
    train.add_argument("--lr", type=float, default=5e-3)
    train.add_argument("--save", default=None, help="path to save model state (.npz)")
    train.add_argument(
        "--checkpoint-dir",
        default=None,
        help="write a crash-safe checkpoint here after every epoch",
    )
    train.add_argument(
        "--resume",
        action="store_true",
        help="resume from the latest checkpoint in --checkpoint-dir",
    )
    train.add_argument(
        "--keep-last",
        type=int,
        default=3,
        help="checkpoints retained under --checkpoint-dir",
    )
    train.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write a chrome://tracing JSON of the fit/epoch span tree here",
    )
    train.add_argument(
        "--elastic",
        action="store_true",
        help="train under the elastic self-healing supervisor",
    )
    train.add_argument(
        "--workers",
        type=int,
        default=8,
        help="elastic worker count (with --elastic)",
    )
    train.add_argument(
        "--chaos",
        action="store_true",
        help="with --elastic: kill 2 of 8 workers mid-run, rejoin 1, and "
        "exit nonzero unless the run's AUC lands within "
        f"{_CHAOS_AUC_TOLERANCE} of the fault-free run's",
    )
    train.add_argument(
        "--stop-after-epoch",
        type=int,
        default=None,
        metavar="E",
        help="with --elastic: checkpoint epoch E then exit (kill-and-resume tests)",
    )
    train.add_argument(
        "--kill-at",
        action="append",
        default=[],
        metavar="E:W[,W...]",
        help="with --elastic: kill workers W at epoch E (repeatable)",
    )
    train.add_argument(
        "--rejoin-at",
        action="append",
        default=[],
        metavar="E:W[,W...]",
        help="with --elastic: rejoin workers W at epoch E (repeatable)",
    )

    evaluate = commands.add_parser("evaluate", help="evaluate a saved model")
    _add_dataset_args(evaluate)
    _add_model_args(evaluate)
    evaluate.add_argument("--load", required=True, help="saved model state (.npz)")

    explain = commands.add_parser("explain", help="explain one transaction")
    _add_dataset_args(explain)
    _add_model_args(explain)
    explain.add_argument("--load", default=None, help="saved model state (.npz)")
    explain.add_argument("--epochs", type=int, default=6, help="detector epochs if training")
    explain.add_argument(
        "--node", type=int, default=None, help="transaction node id (default: first fraud test node)"
    )
    explain.add_argument("--explainer-epochs", type=int, default=50)
    explain.add_argument("--dot", action="store_true", help="also print Graphviz DOT")

    pipeline = commands.add_parser("pipeline", help="Appendix-B label pipeline stages")
    pipeline.add_argument("--seed", type=int, default=0)
    pipeline.add_argument("--buyers", type=int, default=400)

    score = commands.add_parser("score", help="score transactions online")
    _add_dataset_args(score)
    _add_model_args(score)
    score.add_argument("--load", default=None, help="saved model state (.npz)")
    score.add_argument("--epochs", type=int, default=2, help="detector epochs if training")
    score.add_argument(
        "--node",
        type=int,
        action="append",
        default=None,
        help="transaction node id(s); default: first 5 test nodes",
    )
    score.add_argument(
        "--deadline-ms", type=float, default=50.0, help="per-request latency budget"
    )

    serve = commands.add_parser(
        "serve", help="run the online scoring service demo (chaos storyline)"
    )
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--scale", type=float, default=0.25)
    serve.add_argument("--epochs", type=int, default=2)
    serve.add_argument("--requests", type=int, default=40)
    serve.add_argument("--burst", type=int, default=20)
    serve.add_argument(
        "--demo",
        action="store_true",
        help="replay the scripted KV-outage incident on a simulated clock",
    )
    serve.add_argument(
        "--metrics",
        action="store_true",
        help="print the Prometheus-text metrics exposition after the run",
    )
    serve.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write a chrome://tracing JSON of per-request span trees here",
    )
    serve.add_argument(
        "--batch-size",
        type=int,
        default=None,
        metavar="N",
        help="micro-batch size for score_batch/drain (default: coalesce all)",
    )
    serve.add_argument(
        "--replicas",
        type=int,
        default=1,
        metavar="N",
        help="feature-store replicas; 1 (a one-replica tier) demotes requests "
        "while its replica is dead, N > 1 turns the incident into a replica "
        "kill + silent corruption handled by failover, quarantine, and "
        "anti-entropy (service stays on the GNN rung)",
    )
    serve.add_argument(
        "--health",
        action="store_true",
        help="print the per-replica health table after the run",
    )

    healthcheck = commands.add_parser(
        "healthcheck",
        help="exercise a replicated feature tier and dump per-replica health",
    )
    healthcheck.add_argument("--seed", type=int, default=0)
    healthcheck.add_argument(
        "--replicas", type=int, default=3, metavar="N", help="replica count"
    )
    healthcheck.add_argument(
        "--keys", type=int, default=64, metavar="N", help="synthetic keys to write/read"
    )
    healthcheck.add_argument(
        "--kill-replica",
        type=int,
        default=None,
        metavar="R",
        help="kill replica R for the middle third of the sweep (recovers before the end)",
    )
    healthcheck.add_argument(
        "--metrics",
        action="store_true",
        help="also print the Prometheus-text exposition (kv_replica_* gauges)",
    )
    healthcheck.add_argument(
        "--stream-events",
        type=int,
        default=48,
        metavar="N",
        help="also replay N live events through the streaming scorer and "
        "report stream lag / WAL segments / last-compaction version "
        "(0 disables the stream section)",
    )

    stream = commands.add_parser(
        "stream",
        help="streaming ingestion: WAL + incremental graph + online scoring",
    )
    stream.add_argument(
        "--demo",
        action="store_true",
        help="replay the deterministic event stream through the full "
        "ingest->score->feedback loop (ManualClock), twice, and diff "
        "the verdict streams byte-for-byte",
    )
    stream.add_argument("--seed", type=int, default=0)
    stream.add_argument("--scale", type=float, default=0.25)
    stream.add_argument("--epochs", type=int, default=2)
    stream.add_argument(
        "--events", type=int, default=None, metavar="N", help="cap the event stream"
    )
    stream.add_argument("--batch-size", type=int, default=16, metavar="N")
    stream.add_argument(
        "--compact-every",
        type=int,
        default=64,
        metavar="N",
        help="events between delta-CSR compactions",
    )
    stream.add_argument(
        "--label-delay",
        type=float,
        default=4.0,
        metavar="S",
        help="chargeback lag on the simulated clock",
    )
    stream.add_argument(
        "--runs",
        type=int,
        default=2,
        metavar="N",
        help="replays to run and byte-diff (>= 1)",
    )
    stream.add_argument(
        "--wal-dir",
        default=None,
        metavar="DIR",
        help="persist event-log segments under DIR (default: temp dir)",
    )
    stream.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help="checkpoint online fine-tunes under DIR",
    )
    stream.add_argument(
        "--metrics",
        action="store_true",
        help="also print the Prometheus-text exposition (stream_* series)",
    )

    check = commands.add_parser(
        "check",
        help="run the correctness harness: invariant audits + differential fuzzing",
    )
    check.add_argument(
        "--fuzz",
        type=int,
        default=0,
        metavar="N",
        help="differential fuzz trials after the audits (0 = audits only)",
    )
    check.add_argument("--seed", type=int, default=0, help="base fuzz seed")
    check.add_argument(
        "--scenario",
        action="append",
        default=None,
        metavar="NAME",
        help="restrict fuzzing to the named scenario(s) (repeatable)",
    )
    check.add_argument(
        "--skip-audit",
        action="store_true",
        help="skip the invariant audits (fuzz only)",
    )
    check.add_argument(
        "--case",
        default=None,
        metavar="SCENARIO",
        help="replay one fuzz case: --case NAME --seed S --size K",
    )
    check.add_argument(
        "--size", type=int, default=3, help="case size for --case replay"
    )
    check.add_argument(
        "--list",
        action="store_true",
        dest="list_checks",
        help="list registered invariant checkers, fuzz scenarios and planted mutants, then exit",
    )

    return parser


# ----------------------------------------------------------------------
def _cmd_datasets(args) -> int:
    bundle = load_dataset(args.dataset, seed=args.seed, scale=args.scale)
    summary = bundle.summary()
    print(f"dataset        : {summary['dataset']}")
    print(f"features       : {summary['features']}")
    print(f"nodes / edges  : {summary['num_nodes']:,} / {summary['num_edges']:,}")
    print(f"fraud rate     : {summary['fraud_pct']}%")
    print(f"edges per node : {summary['edges_per_node']}")
    print(f"node types     : {summary['node_type_counts']}")
    return 0


def _cmd_train(args) -> int:
    if args.elastic:
        return _cmd_train_elastic(args)
    manager, resume_from = _resolve_checkpoint(args)

    bundle = load_dataset(args.dataset, seed=args.seed, scale=args.scale)
    model = _build_model(args, bundle.graph.feature_dim)
    tracer = None
    if args.trace_out:
        from .obs import Tracer

        tracer = Tracer()
    trainer = Trainer(
        model,
        TrainConfig(epochs=args.epochs, batch_size=args.batch_size, learning_rate=args.lr),
        tracer=tracer,
    )
    if resume_from is not None:
        print(f"resuming from {resume_from}")
    result = trainer.fit(
        bundle.graph,
        bundle.train_nodes,
        eval_nodes=bundle.test_nodes,
        checkpoint=manager,
        resume_from=resume_from,
    )
    metrics = trainer.evaluate(bundle.graph, bundle.test_nodes)
    timing = result.epoch_time_percentiles()
    print(
        f"trained {args.model} for {len(result.history)} epochs "
        f"({result.seconds_per_epoch:.2f}s/epoch, "
        f"p50={timing['p50']:.2f}s p95={timing['p95']:.2f}s p99={timing['p99']:.2f}s)"
    )
    _print_test_metrics(metrics)
    if args.save:
        path = save_state(model, args.save)
        print(f"saved model state to {path}")
    if tracer is not None:
        _write_trace(tracer.spans(), args.trace_out)
    return 0


# Scripted chaos for the CI gate: kill 2 of 8 workers at epoch 1 (the
# detector must evict them and re-shard), rejoin one at epoch 3 (probing
# readmission), slow one worker 4x at epoch 2 (the round waits for it),
# and corrupt one gradient at epoch 2 (quarantine). Deterministic on the
# supervisor's ManualClock, so the gate replays bit-for-bit.
_CHAOS_WORKERS = 8
_CHAOS_MIN_EPOCHS = 5
_CHAOS_KILL = {1: [2, 5]}
_CHAOS_REJOIN = {3: [5]}
_CHAOS_SLOW = {2: {1: 4.0}}
_CHAOS_CORRUPT = {2: [3]}
_CHAOS_AUC_TOLERANCE = 0.1  # max |AUC(chaos) - AUC(fault-free)| the gate accepts


def _elastic_run(args, bundle, fault_plan=None, checkpoint=None, resume=False):
    """One supervised run; returns (result, ElasticTrainer)."""
    from .train import ElasticTrainer

    model = _build_model(args, bundle.graph.feature_dim)
    trainer = ElasticTrainer(
        model,
        bundle.graph,
        bundle.train_nodes,
        num_workers=args.workers,
        config=TrainConfig(
            epochs=args.epochs,
            batch_size=args.batch_size,
            learning_rate=args.lr,
            seed=args.seed,
        ),
        fault_plan=fault_plan,
        checkpoint=checkpoint,
    )
    result = trainer.fit(
        bundle.graph,
        bundle.test_nodes,
        resume=resume,
        stop_after_epoch=args.stop_after_epoch,
    )
    return result, trainer


def _parse_schedule(specs):
    """Parse repeated ``E:W[,W...]`` flags into {epoch: [worker ids]}."""
    schedule = {}
    for spec in specs:
        epoch, _, workers = spec.partition(":")
        schedule.setdefault(int(epoch), []).extend(
            int(w) for w in workers.split(",") if w
        )
    return schedule


def _cmd_train_elastic(args) -> int:
    from .reliability import FaultPlan
    from .train import SkipBudgetExhaustedError

    if args.workers < 1:
        raise _UsageError("--workers must be >= 1")
    if args.chaos and (args.resume or args.stop_after_epoch is not None):
        # The gate compares two whole runs from epoch 0; half of one
        # has no final metrics to compare.
        raise _UsageError("--chaos cannot be combined with --resume or --stop-after-epoch")
    manager, resume_from = _resolve_checkpoint(args)
    bundle = load_dataset(args.dataset, seed=args.seed, scale=args.scale)

    if not args.chaos:
        plan = None
        kills = _parse_schedule(args.kill_at)
        rejoins = _parse_schedule(args.rejoin_at)
        if kills or rejoins:
            plan = FaultPlan(
                num_workers=args.workers, worker_kill=kills, worker_rejoin=rejoins
            )
        try:
            result, _ = _elastic_run(
                args, bundle, fault_plan=plan, checkpoint=manager, resume=resume_from is not None
            )
        except SkipBudgetExhaustedError as error:
            print(f"ABORT: {error}", file=sys.stderr)
            return 2
        except CheckpointError as error:
            raise _UsageError(f"cannot resume: {error}") from error
        print(f"elastic training over {args.workers} workers:")
        print(result.describe())
        if result.metrics:
            _print_test_metrics(result.metrics)
        return 0

    # ---- deterministic chaos gate (CI) --------------------------------
    if args.workers != _CHAOS_WORKERS or args.epochs < _CHAOS_MIN_EPOCHS:
        raise _UsageError(
            f"--chaos is scripted for --workers {_CHAOS_WORKERS} "
            f"and --epochs >= {_CHAOS_MIN_EPOCHS}"
        )
    print("chaos gate: fault-free baseline ...")
    baseline, _ = _elastic_run(args, bundle)
    plan = FaultPlan(
        num_workers=args.workers,
        worker_kill=_CHAOS_KILL,
        worker_rejoin=_CHAOS_REJOIN,
        worker_slow=_CHAOS_SLOW,
        grad_corrupt=_CHAOS_CORRUPT,
    )
    print("chaos gate: kill 2/8 at epoch 1, rejoin 1 at epoch 3 ...")
    try:
        chaos, _ = _elastic_run(args, bundle, fault_plan=plan, checkpoint=manager)
    except SkipBudgetExhaustedError as error:
        print(f"ABORT: {error}", file=sys.stderr)
        return 2
    print(chaos.describe())

    failures = []
    evicted = sorted(w for record in chaos.history for w in record.evicted)
    if evicted != sorted(w for ws in _CHAOS_KILL.values() for w in ws):
        failures.append(f"expected evictions {_CHAOS_KILL}, saw {evicted}")
    rejoined = sorted(w for record in chaos.history for w in record.rejoined)
    if rejoined != sorted(w for ws in _CHAOS_REJOIN.values() for w in ws):
        failures.append(f"expected rejoins {_CHAOS_REJOIN}, saw {rejoined}")
    if chaos.total_quarantined < 1:
        failures.append("corrupt gradient was never quarantined")
    if chaos.total_rollbacks < 1:
        failures.append("eviction did not trigger a checkpoint rollback")
    base_auc = baseline.metrics.get("auc", float("nan"))
    chaos_auc = chaos.metrics.get("auc", float("nan"))
    delta = abs(base_auc - chaos_auc)
    if not delta <= _CHAOS_AUC_TOLERANCE:
        failures.append(
            f"chaos AUC {chaos_auc:.4f} vs fault-free {base_auc:.4f}: "
            f"|delta| {delta:.4f} > tolerance {_CHAOS_AUC_TOLERANCE}"
        )
    print(
        f"fault-free auc={base_auc:.4f} chaos auc={chaos_auc:.4f} "
        f"delta={delta:.4f} (tolerance {_CHAOS_AUC_TOLERANCE})"
    )
    if _failed(failures):
        return 1
    print("chaos gate passed: evicted, re-sharded, rolled back, readmitted, converged")
    return 0


def _cmd_evaluate(args) -> int:
    bundle = load_dataset(args.dataset, seed=args.seed, scale=args.scale)
    model = _build_model(args, bundle.graph.feature_dim)
    _load_saved_state(model, args.load)
    trainer = Trainer(model, TrainConfig(epochs=0))
    _print_test_metrics(trainer.evaluate(bundle.graph, bundle.test_nodes))
    return 0


def _cmd_explain(args) -> int:
    from .explain import ExplainerConfig, GNNExplainer

    bundle = load_dataset(args.dataset, seed=args.seed, scale=args.scale)
    model = _build_model(args, bundle.graph.feature_dim)
    _load_or_train(args, model, bundle, "a detector first", learning_rate=5e-3)

    if args.node is not None:
        node = args.node
        _check_labeled_txn(bundle.graph, node)
    else:
        fraud_tests = [n for n in bundle.test_nodes if bundle.graph.labels[n] == 1]
        node = int(fraud_tests[0]) if fraud_tests else int(bundle.test_nodes[0])

    community = extract_community(bundle.graph, node, max_nodes=100)
    score = model.predict_proba(community.graph, [community.seed_local])[0]
    explainer = GNNExplainer(model, ExplainerConfig(epochs=args.explainer_epochs))
    explanation = explainer.explain(community.graph, community.seed_local)
    weights = explanation.undirected_edge_weights(community.graph)

    print(f"transaction node {node}: risk score {score:.4f} "
          f"(truth: {'fraud' if community.label == 1 else 'legit'})")
    print(render_text(community, weights, top_edges=8))
    top = explanation.top_features(community.seed_local, k=5)
    print(f"top feature dims for the seed: {top.tolist()}")
    if args.dot:
        print(render_dot(community, weights))
    return 0


def _cmd_pipeline(args) -> int:
    from .data import GeneratorConfig, TransactionGenerator
    from .rules import appendix_b_pipeline

    generator = TransactionGenerator(
        GeneratorConfig(num_benign_buyers=args.buyers, seed=args.seed)
    )
    raw = generator.generate()
    result = appendix_b_pipeline(raw)
    print(result.describe())
    if len(result.rules):
        print("\nmined platform rules:")
        print(result.rules.describe())
    return 0


def _cmd_score(args) -> int:
    from .serving import ScoreRequest, ScoringService, ServiceConfig

    bundle = load_dataset(args.dataset, seed=args.seed, scale=args.scale)
    model = _build_model(args, bundle.graph.feature_dim)
    if args.load or args.epochs > 0:
        _load_or_train(args, model, bundle, f"{args.model} for {args.epochs} epochs")

    nodes = args.node if args.node else [int(n) for n in bundle.test_nodes[:5]]
    for node in nodes:
        _check_labeled_txn(bundle.graph, node)

    with ScoringService(
        model,
        bundle.graph,
        config=ServiceConfig(deadline_s=args.deadline_ms / 1000.0),
    ) as service:
        for node in nodes:
            response = service.score(ScoreRequest(node=node))
            print(
                f"node {response.node:6d}: score={response.score:.4f} "
                f"verdict={response.verdict:5s} rung={response.rung} "
                f"latency={response.latency_s * 1000:.2f}ms"
            )
        print()
        print(service.stats.describe())
    return 0


def _cmd_serve(args) -> int:
    from .serving import run_demo

    if not args.demo:
        raise _UsageError("only the deterministic demo is implemented; pass --demo")
    if args.batch_size is not None and args.batch_size < 1:
        raise _UsageError("--batch-size must be >= 1")
    if args.replicas < 1:
        raise _UsageError("--replicas must be >= 1")
    registry = None
    if args.metrics:
        from .obs import MetricsRegistry

        registry = MetricsRegistry()
    print(
        f"replaying scripted incident: {args.requests} requests + burst of "
        f"{args.burst} on a simulated clock (seed={args.seed}, "
        f"{args.replicas}-replica feature tier) ..."
    )
    result = run_demo(
        seed=args.seed,
        scale=args.scale,
        epochs=args.epochs,
        requests=args.requests,
        burst=args.burst,
        registry=registry,
        trace=bool(args.trace_out),
        batch_size=args.batch_size,
        replicas=args.replicas,
    )
    for response in result.responses[:8]:
        print(
            f"  node {response.node:6d}: verdict={response.verdict:5s} "
            f"rung={response.rung:6s} "
            f"degraded={response.degraded_reason or '-'}"
        )
    print("  ...")
    print()
    print(result.stats.describe())
    print(f"shed with verdict: {len(result.shed_responses)} (all rung=prior)")
    print(result.anti_entropy.describe())
    if args.health:
        print()
        print(result.feature_store.describe())
    if args.trace_out:
        _write_trace(result.service.tracer.spans(), args.trace_out)
    if registry is not None:
        print()
        print(registry.render(), end="")
    return _check_demo_run(result)


def _check_demo_run(result) -> int:
    """CI-facing assertions for ``serve --demo --replicas N``, any N:
    the killed replica's health journeys through ``dead`` (proof the
    outage was seen) and ends ``healthy`` again, and the last scored
    response is back on the GNN rung. With a failover target (N > 1)
    the kill and the silent corruption must be fully absorbed — zero
    KV failures reach the service, no storage-attributed degradations;
    a lone replica (N = 1) must demote requests as ``kv_unavailable``
    while it is dead."""
    from .cluster import DEAD, HEALTHY
    from .serving import RUNG_GNN
    from .serving.demo import killed_replica

    stats = result.stats
    replicas = len(result.feature_store.replicas)
    killed = killed_replica(replicas)
    failures = []
    if replicas > 1:
        if stats.kv_failures != 0:
            failures.append(f"kv_failures={stats.kv_failures} (expected 0)")
        storage_degraded = {
            reason: count
            for reason, count in stats.degraded_reasons.items()
            if "kv" in reason or "feature" in reason or "storage" in reason
        }
        if storage_degraded:
            failures.append(f"storage-attributed degradations: {storage_degraded}")
    elif not stats.degraded_reasons["kv_unavailable"]:
        failures.append("no request demoted as kv_unavailable — the outage went unseen")
    path = result.feature_store.health[killed].state_path()
    journey = " -> ".join(path)
    if DEAD not in path:
        failures.append(f"killed replica {killed} never went dead — outage not exercised")
    elif path[-1] != HEALTHY:
        failures.append(f"killed replica {killed} did not recover: {journey}")
    if result.responses[-1].rung != RUNG_GNN:
        failures.append("the last scored response is not on the gnn rung")
    if result.anti_entropy.unrepairable:
        failures.append(
            f"anti-entropy left {result.anti_entropy.unrepairable} copies unrepairable"
        )
    if _failed(failures):
        return 1
    print(f"\nreplica {killed} journey: {journey}")
    if replicas > 1:
        print("ok: replica failover absorbed — zero storage-attributed degradations")
    else:
        demoted = stats.degraded_reasons["kv_unavailable"]
        print(f"ok: {demoted} requests demoted as kv_unavailable, then recovered on gnn")
    return 0


def _cmd_healthcheck(args) -> int:
    """Exercise a small replicated tier end to end and print its health.

    Synthetic and self-contained: N in-memory replicas on a simulated
    clock, a write + read sweep over ``--keys`` keys, optionally a
    scripted kill of one replica for the middle third of the sweep, an
    anti-entropy pass, and finally the per-replica health table (plus
    the Prometheus text exposition with ``--metrics``). Exits 1 if any
    replica is still dead at the end — the shape a real deployment's
    liveness probe would take.
    """
    from .obs import MetricsRegistry
    from .reliability.faults import FaultPlan, ManualClock
    from .storage import InMemoryKVStore, ReplicatedConfig, ReplicatedKVStore

    if args.replicas < 1 or args.keys < 1:
        raise _UsageError("--replicas and --keys must be >= 1")
    if args.kill_replica is not None and not (0 <= args.kill_replica < args.replicas):
        raise _UsageError("--kill-replica out of range")

    clock = ManualClock()
    registry = MetricsRegistry()
    replicas = [InMemoryKVStore() for _ in range(args.replicas)]
    # One read per key advances the clock ~1ms; the kill window covers
    # the middle third of the sweep and ends well before the final
    # probe reads, so a healthy run always recovers.
    sweep_s = args.keys * 0.001
    replica_kill = {}
    if args.kill_replica is not None:
        replica_kill = {args.kill_replica: [(sweep_s / 3.0, 2.0 * sweep_s / 3.0)]}
    plan = FaultPlan(
        num_workers=args.replicas,
        seed=args.seed,
        replica_kill=replica_kill,
        replica_slow={replica: 0.001 for replica in range(args.replicas)},
    )
    config = ReplicatedConfig(
        replication_factor=min(2, args.replicas),
        suspect_after=1,
        dead_after=2,
        probe_interval_s=sweep_s / 10.0,
    )
    store = ReplicatedKVStore(
        plan.wrap_replicas(replicas, clock), config=config, clock=clock, seed=args.seed
    ).instrument(registry)

    for index in range(args.keys):
        store.put(f"hc/{index}", f"value-{index}".encode())
    for _ in range(3):  # three sweeps: before, during, and after the kill
        for index in range(args.keys):
            store.get(f"hc/{index}")
    report = store.anti_entropy(repair=True)
    clock.advance(config.probe_interval_s * 2)
    for index in range(args.keys):  # final sweep re-probes anything dead
        store.get(f"hc/{index}")

    print(store.describe())
    print()
    print(report.describe())
    if args.metrics:
        print()
        print(registry.render(), end="")
    dead = [health.index for health in store.health if health.state == "dead"]
    failures = [f"replicas still dead at end of sweep: {dead}"] if dead else []

    if args.stream_events > 0:
        # Streaming-plane health alongside the replica table: a tiny
        # untrained replay is enough to surface lag, WAL segmentation,
        # and compaction bookkeeping.
        from .stream import run_stream_demo

        result = run_stream_demo(
            seed=args.seed,
            scale=0.1,
            epochs=0,
            max_events=max(8, args.stream_events * 2),
            batch_size=8,
            compact_every=16,
            drift_burst=False,
            finetune=False,
        )
        print()
        print(result.health.describe())

    if _failed(failures):
        return 1
    print("\nok: all replicas serving")
    return 0


def _cmd_stream(args) -> int:
    """Deterministic replay-and-score gate behind ``repro stream --demo``.

    Runs the scripted stream ``--runs`` times with identical seeds and
    byte-diffs the verdict streams: any nondeterminism in WAL framing,
    incremental graph maintenance, cache keying, sampling, or the
    feedback plane shows up as a digest mismatch and a non-zero exit.
    Also enforces the delta-vs-compacted subgraph gate each run.
    """
    from .obs import MetricsRegistry
    from .stream import run_stream_demo

    if not args.demo:
        raise _UsageError("only --demo mode is implemented")
    if args.runs < 1:
        raise _UsageError("--runs must be >= 1")
    if not args.label_delay >= 0:
        raise _UsageError("--label-delay must be >= 0")

    results = []
    registry = MetricsRegistry() if args.metrics else None
    for run in range(args.runs):
        wal_dir = (
            os.path.join(args.wal_dir, f"run-{run}") if args.wal_dir is not None else None
        )
        checkpoint_dir = (
            os.path.join(args.checkpoint_dir, f"run-{run}")
            if args.checkpoint_dir is not None
            else None
        )
        results.append(
            run_stream_demo(
                seed=args.seed,
                scale=args.scale,
                epochs=args.epochs,
                max_events=args.events,
                batch_size=args.batch_size,
                compact_every=args.compact_every,
                label_delay_s=args.label_delay,
                wal_dir=wal_dir,
                checkpoint_dir=checkpoint_dir,
                registry=registry if run == 0 else None,
            )
        )

    first = results[0]
    print(
        f"stream demo: {first.warmup_events} warmup + {first.streamed_events} "
        f"streamed events (seed {args.seed}, scale {args.scale})"
    )
    print()
    print(first.health.describe())
    print()
    auc = first.online_auc
    print(f"prequential auc     : {'n/a' if auc != auc else f'{auc:.4f}'}")
    print(f"drift alerts        : {len(first.drift_reports)}")
    for report in first.drift_reports[:3]:
        print(
            f"  [{report.signal}] psi={report.psi:.3f} ks={report.ks:.3f} "
            f"over {report.samples} samples"
        )
    print(f"verdict digest      : {first.verdict_digest:#010x}")
    print(f"final graph version : {first.graph_version}")

    failures = []
    for run, result in enumerate(results[1:], start=1):
        if result.verdict_lines != first.verdict_lines:
            failures.append(f"run {run}: verdict stream diverged from run 0")
        if result.graph_version != first.graph_version:
            failures.append(
                f"run {run}: final graph version {result.graph_version} "
                f"!= {first.graph_version}"
            )
    for run, result in enumerate(results):
        if not result.subgraph_gate_passed:
            failures.append(f"run {run}: delta-vs-compacted subgraph gate failed")

    if args.metrics:
        print()
        print(registry.render(), end="")

    if _failed(failures):
        return 1
    if args.runs > 1:
        print(f"\nok: {args.runs} replays byte-identical, subgraph gate passed")
    else:
        print("\nok: subgraph gate passed")
    return 0


def _cmd_check(args) -> int:
    from .check import MUTANTS, REGISTRY, SCENARIOS, run_audits, run_case, run_fuzz

    if args.list_checks:
        print("invariant checkers:")
        for check in REGISTRY.values():
            print(f"  {check.name:28s} [{check.layer}] falsifies: {check.falsifies}")
        print("fuzz scenarios:")
        for name in SCENARIOS:
            print(f"  {name}")
        print("planted mutants:")
        for mutant in MUTANTS.values():
            print(f"  {mutant.name:48s} killed by {mutant.check}")
        return 0

    if args.case is not None:
        detail = run_case(args.case, args.seed, args.size)
        if detail is None:
            print(f"OK    {args.case} seed={args.seed} size={args.size}")
            return 0
        print(f"FAIL  {args.case} seed={args.seed} size={args.size}: {detail}")
        return 1

    failed = False
    if not args.skip_audit:
        results = run_audits()
        width = max(len(result.name) for result in results)
        for result in results:
            status = "PASS" if result.passed else "FAIL"
            print(f"{status}  {result.name:{width}s}  [{result.layer}]")
            for violation in result.violations:
                print(f"        {violation}")
        bad = sum(1 for result in results if not result.passed)
        failed = failed or bad > 0
        print(f"audits: {len(results) - bad}/{len(results)} passed")

    if args.fuzz > 0:
        report = run_fuzz(
            args.fuzz,
            seed=args.seed,
            names=args.scenario,
            progress=lambda line: print(f"fuzz: {line}"),
        )
        spread = ", ".join(
            f"{name}={count}" for name, count in report.per_scenario.items()
        )
        print(f"fuzz: {report.trials} trials ({spread})")
        for failure in report.failures:
            print(
                f"FAIL  {failure.scenario} seed={failure.seed} size={failure.size}: "
                f"{failure.detail}"
            )
            print(
                f"      shrunk to seed={failure.shrunk_seed} size={failure.shrunk_size} "
                f"in {failure.shrink_steps} attempts: {failure.shrunk_detail}"
            )
            print(f"      repro: {failure.repro_command()}")
        failed = failed or not report.ok
        if report.ok:
            print("fuzz: no divergence")

    return 1 if failed else 0


_COMMANDS = {
    "datasets": _cmd_datasets,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "explain": _cmd_explain,
    "pipeline": _cmd_pipeline,
    "score": _cmd_score,
    "serve": _cmd_serve,
    "healthcheck": _cmd_healthcheck,
    "stream": _cmd_stream,
    "check": _cmd_check,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _UsageError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())

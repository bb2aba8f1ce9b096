"""Command-line interface."""

import re

import numpy as np
import pytest

from repro.cli import main


def _exposition(out):
    """``{'name{labels}': value}`` of the Prometheus text a ``--metrics``
    run prints (one blank-line-delimited block), holding it to the
    format on the way: every sample parses, one ``# TYPE`` per family."""
    block = out[out.index("# HELP") :].split("\n\n")[0]
    samples, families = {}, []
    for line in block.splitlines():
        if line.startswith("# TYPE "):
            families.append(line.split()[2])
        elif not line.startswith("# HELP "):
            sample = re.fullmatch(r'([a-zA-Z_:][\w:]*(?:\{.*\})?) (\S+)', line)
            assert sample, line
            assert sample.group(1) not in samples, line
            samples[sample.group(1)] = float(sample.group(2))
    assert len(families) == len(set(families)) > 0
    assert all(name.startswith(tuple(families)) for name in samples)
    return samples


@pytest.mark.parametrize(
    "argv, message",
    [
        (["train", "--elastic", "--workers", "0"], "--workers must be >= 1"),
        (
            ["train", "--elastic", "--chaos", "--workers", "4", "--scale", "0.1"],
            "--chaos is scripted for --workers 8 and --epochs >= 5",
        ),
        (["serve"], "only the deterministic demo is implemented; pass --demo"),
        (["serve", "--demo", "--batch-size", "0"], "--batch-size must be >= 1"),
        (["serve", "--demo", "--replicas", "0"], "--replicas must be >= 1"),
        (["healthcheck", "--keys", "0"], "--replicas and --keys must be >= 1"),
        (["healthcheck", "--replicas", "2", "--kill-replica", "2"], "--kill-replica out of range"),
        (["stream"], "only --demo mode is implemented"),
        (["stream", "--demo", "--runs", "0"], "--runs must be >= 1"),
        (["stream", "--demo", "--label-delay=-1"], "--label-delay must be >= 0"),
    ],
)
def test_a_refused_argument_exits_2_with_one_error_line(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


class TestDatasetsCommand:
    def test_prints_summary(self, capsys):
        assert main(["datasets", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "ebay-small-sim" in out
        assert "fraud rate" in out

    def test_dataset_choice_validated(self):
        with pytest.raises(SystemExit):
            main(["datasets", "--dataset", "nope"])


class TestTrainEvaluate:
    def test_train_save_evaluate(self, tmp_path, capsys):
        save_path = str(tmp_path / "model.npz")
        code = main(
            [
                "train",
                "--dataset",
                "ebay-small-sim",
                "--scale",
                "0.1",
                "--model",
                "gem",
                "--epochs",
                "2",
                "--save",
                save_path,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "auc=" in out and "saved model state" in out

        code = main(
            [
                "evaluate",
                "--dataset",
                "ebay-small-sim",
                "--scale",
                "0.1",
                "--model",
                "gem",
                "--load",
                save_path,
            ]
        )
        assert code == 0
        assert "auc=" in capsys.readouterr().out

    def test_evaluate_reproduces_training_metrics(self, tmp_path, capsys):
        save_path = str(tmp_path / "model.npz")
        main(
            ["train", "--scale", "0.1", "--model", "gem", "--epochs", "2", "--save", save_path]
        )
        train_out = capsys.readouterr().out
        main(["evaluate", "--scale", "0.1", "--model", "gem", "--load", save_path])
        eval_out = capsys.readouterr().out
        train_auc = train_out.split("auc=")[1].split()[0]
        eval_auc = eval_out.split("auc=")[1].split()[0]
        assert train_auc == eval_auc


    def test_model_flags_shape_the_model_and_lr_moves_it(self, tmp_path, capsys):
        """--hidden-dim / --heads / --layers shape the saved detector, which
        loads back only under the same flags; --lr changes what it learns."""
        shape = ["--hidden-dim", "16", "--heads", "2", "--layers", "1"]
        saved = [str(tmp_path / f"lr-{lr}.npz") for lr in ("5e-3", "5e-2")]
        for lr, path in zip(("5e-3", "5e-2"), saved):
            train = ["train", "--scale", "0.1", "--epochs", "1", *shape, "--lr", lr]
            assert main([*train, "--save", path]) == 0
        slow, fast = (np.load(path) for path in saved)
        assert slow["convs.0.q_linear.shared.weight"].shape[1] == 16
        assert slow["convs.0.att_src"].shape[1] == 2
        assert not any(key.startswith("convs.1.") for key in slow)
        weight = "convs.0.q_linear.shared.weight"
        assert not np.array_equal(slow[weight], fast[weight])
        assert main(["evaluate", "--scale", "0.1", *shape, "--load", saved[0]]) == 0
        assert main(["evaluate", "--scale", "0.1", "--load", saved[0]]) == 2
        assert "cannot load model state" in capsys.readouterr().err


class TestExplainCommand:
    def test_explain_trains_and_renders(self, capsys):
        code = main(
            [
                "explain",
                "--scale",
                "0.1",
                "--model",
                "detector+",
                "--epochs",
                "2",
                "--explainer-epochs",
                "5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "risk score" in out
        assert "community(" in out

    def test_explain_rejects_entity_node(self, capsys):
        # Node 10^9 is out of range -> error exit code 2.
        code = main(
            [
                "explain",
                "--scale",
                "0.1",
                "--epochs",
                "1",
                "--explainer-epochs",
                "2",
                "--node",
                "999999999",
            ]
        )
        assert code == 2

    def test_explain_dot_flag(self, capsys):
        code = main(
            [
                "explain",
                "--scale",
                "0.1",
                "--epochs",
                "1",
                "--explainer-epochs",
                "3",
                "--dot",
            ]
        )
        assert code == 0
        assert "graph community {" in capsys.readouterr().out


class TestPipelineCommand:
    def test_pipeline_stages_printed(self, capsys):
        assert main(["pipeline", "--buyers", "150"]) == 0
        out = capsys.readouterr().out
        assert "original stream" in out
        assert "after label sampling" in out


class TestLoadErrorHandling:
    def test_evaluate_missing_load_exits_2(self, capsys):
        code = main(["evaluate", "--scale", "0.1", "--load", "/nonexistent/model.npz"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_evaluate_non_archive_load_exits_2(self, tmp_path, capsys):
        junk = tmp_path / "junk.npz"
        junk.write_text("definitely not an npz archive")
        code = main(["evaluate", "--scale", "0.1", "--load", str(junk)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_explain_missing_load_exits_2(self, capsys):
        code = main(["explain", "--scale", "0.1", "--load", "/nonexistent/model.npz"])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestCheckpointFlags:
    def test_train_writes_checkpoints_and_resumes(self, tmp_path, capsys):
        ckpt_dir = str(tmp_path / "ckpts")
        code = main(
            ["train", "--scale", "0.1", "--model", "gem", "--epochs", "2",
             "--checkpoint-dir", ckpt_dir]
        )
        assert code == 0
        capsys.readouterr()
        import os

        files = sorted(os.listdir(ckpt_dir))
        assert "MANIFEST.json" in files
        assert any(name.startswith("ckpt-") for name in files)

        code = main(
            ["train", "--scale", "0.1", "--model", "gem", "--epochs", "4",
             "--checkpoint-dir", ckpt_dir, "--resume"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "resuming from" in out
        assert "trained gem for 4 epochs" in out

    def test_resume_without_dir_exits_2(self, capsys):
        code = main(["train", "--scale", "0.1", "--epochs", "1", "--resume"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_resume_empty_dir_exits_2(self, tmp_path, capsys):
        code = main(
            ["train", "--scale", "0.1", "--epochs", "1",
             "--checkpoint-dir", str(tmp_path / "fresh"), "--resume"]
        )
        assert code == 2
        assert "no checkpoints" in capsys.readouterr().err


class TestElasticCheckpointFlags:
    """``train --elastic`` argument paths that used to end in a
    traceback or a misleading verdict; each exits 2 with one line, as
    plain ``train`` does (both go through one ``_resolve_checkpoint``)."""

    ELASTIC = ["train", "--elastic", "--scale", "0.1", "--model", "gem", "--batch-size", "512"]

    def test_elastic_resume_empty_dir_exits_2(self, tmp_path, capsys):
        code = main(
            self.ELASTIC
            + ["--workers", "4", "--epochs", "2",
               "--checkpoint-dir", str(tmp_path / "fresh"), "--resume"]
        )
        assert code == 2
        assert "--resume given but no checkpoints in" in capsys.readouterr().err

    def test_elastic_resume_of_a_plain_checkpoint_exits_2(self, tmp_path, capsys):
        plain = ["train", "--scale", "0.1", "--model", "gem", "--checkpoint-dir", str(tmp_path)]
        assert main(plain + ["--epochs", "1"]) == 0
        code = main(
            self.ELASTIC
            + ["--workers", "4", "--epochs", "2", "--checkpoint-dir", str(tmp_path), "--resume"]
        )
        assert code == 2
        assert 'error: cannot resume: the checkpoint of epoch 0 has no "elastic" section' in (
            capsys.readouterr().err
        )

    def test_elastic_resume_without_dir_exits_2(self, capsys):
        code = main(self.ELASTIC + ["--workers", "4", "--epochs", "2", "--resume"])
        assert code == 2
        assert "--resume requires --checkpoint-dir" in capsys.readouterr().err

    def test_chaos_with_resume_exits_2(self, tmp_path, capsys):
        """The gate's fault-free baseline inherited ``--resume`` but no
        checkpoint manager (uncaught ElasticTrainingError)."""
        code = main(
            self.ELASTIC
            + ["--workers", "8", "--epochs", "5", "--chaos",
               "--checkpoint-dir", str(tmp_path), "--resume"]
        )
        assert code == 2
        assert "--chaos cannot be combined" in capsys.readouterr().err

    def test_chaos_with_stop_after_epoch_exits_2(self, capsys):
        """Both runs were truncated, then judged: ``auc=nan`` and four
        spurious FAIL lines, exit 1."""
        code = main(
            self.ELASTIC + ["--workers", "8", "--epochs", "5", "--chaos", "--stop-after-epoch", "1"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "--chaos cannot be combined" in captured.err
        assert "FAIL" not in captured.err and "nan" not in captured.out

    def test_elastic_keep_last_is_honoured(self, tmp_path, capsys):
        import os

        code = main(
            self.ELASTIC
            + ["--workers", "4", "--epochs", "3",
               "--checkpoint-dir", str(tmp_path), "--keep-last", "1"]
        )
        assert code == 0
        capsys.readouterr()
        assert [n for n in sorted(os.listdir(tmp_path)) if n.startswith("ckpt-")] == [
            "ckpt-000002.npz"
        ]


class TestExplainWithLoad:
    def test_explain_loads_saved_model(self, tmp_path, capsys):
        save_path = str(tmp_path / "m.npz")
        main(["train", "--scale", "0.1", "--model", "detector+", "--epochs", "2",
              "--save", save_path])
        capsys.readouterr()
        code = main(["explain", "--scale", "0.1", "--model", "detector+",
                     "--load", save_path, "--explainer-epochs", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "risk score" in out
        assert "training a detector first" not in out


class TestScoreCommand:
    def test_score_default_nodes(self, capsys):
        code = main(["score", "--scale", "0.1", "--epochs", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("verdict=") == 5
        assert "rung=gnn" in out
        assert "requests      : 5 received, 5 admitted" in out

    def test_score_explicit_node_and_deadline(self, capsys):
        from repro.data import load_dataset

        bundle = load_dataset("ebay-small-sim", seed=0, scale=0.1)
        node = str(int(bundle.test_nodes[0]))
        code = main(
            ["score", "--scale", "0.1", "--epochs", "0", "--node", node,
             "--deadline-ms", "250"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert f"node {int(node):6d}:" in out

    def test_score_rejects_entity_node(self, capsys):
        # Node 0 on the simulator graph is a labeled txn only if labels[0]>=0;
        # pick a guaranteed-unlabeled entity node instead.
        from repro.data import load_dataset
        import numpy as np

        bundle = load_dataset("ebay-small-sim", seed=0, scale=0.1)
        entity = str(int(np.flatnonzero(bundle.graph.labels < 0)[0]))
        code = main(["score", "--scale", "0.1", "--epochs", "0", "--node", entity])
        assert code == 2
        assert "not a labeled transaction" in capsys.readouterr().err


class TestServeCommand:
    def test_serve_requires_demo_flag(self, capsys):
        assert main(["serve"]) == 2
        assert "--demo" in capsys.readouterr().err

    def test_serve_demo_replays_incident(self, capsys):
        """The CI serve-smoke command: a one-replica tier whose replica
        is killed, demotes requests while it is dead, and is probed back."""
        code = main(
            ["serve", "--demo", "--scale", "0.1", "--epochs", "1",
             "--requests", "30", "--burst", "14"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "1-replica feature tier" in out
        dead_probing = " -> dead -> probing"
        assert "\nreplica 0 journey: healthy -> suspect" + dead_probing * 5 + " -> healthy\n" in out
        assert "rungs: gnn=22, linked=16" in out
        assert "ok: 16 requests demoted as kv_unavailable, then recovered on gnn" in out
        assert "breaker" not in out
        assert "shed with verdict" in out

    def test_serve_demo_replicated_absorbs_failover(self, capsys):
        code = main(
            ["serve", "--demo", "--replicas", "3", "--scale", "0.1",
             "--epochs", "1", "--requests", "30", "--burst", "14", "--health", "--metrics"]
        )
        out = capsys.readouterr().out
        assert code == 0
        self._exposition_agrees_with_the_text_above_it(out)
        assert "3-replica feature tier" in out
        assert "kv_failures=0" in out
        # The killed replica's own journey, through dead and back.
        assert "replica 1 journey: healthy -> suspect -> dead -> probing" in out
        assert "breaker" not in out  # health is the only gate
        assert "anti-entropy:" in out
        assert "replicated store: 3 replicas" in out  # --health table
        assert "replica failover absorbed" in out

    @staticmethod
    def _exposition_agrees_with_the_text_above_it(out):
        """``ServiceStats.describe()`` and ``ReplicatedKVStore.describe()``
        against the registry's reading of the same attributes."""
        metrics = _exposition(out)
        admitted, shed, reasons = re.search(
            r"requests +: \d+ received, (\d+) admitted, (\d+) shed \((.*)\)", out
        ).groups()
        assert metrics["service_admitted_total"] == int(admitted)
        by_reason = dict(pair.split("=") for pair in reasons.split(", "))
        assert {
            f'service_shed_total{{reason="{reason}"}}': int(count)
            for reason, count in by_reason.items()
        } == {k: v for k, v in metrics.items() if k.startswith("service_shed_total")}
        assert sum(map(int, by_reason.values())) == int(shed) > 0
        replicas = re.findall(r"replica (\d): state=(\w+) .* ok=(\d+) errors", out)
        assert len(replicas) == 3
        for replica, state, ok in replicas:
            assert metrics[f'kv_replica_reads_total{{replica="{replica}",outcome="ok"}}'] == int(ok)
            for name in ("healthy", "suspect", "dead", "probing"):
                one_hot = metrics[f'kv_replica_state{{replica="{replica}",state="{name}"}}']
                assert one_hot == (name == state)
        tallies = re.search(r"failovers=(\d+) corrupt=(\d+)", out).groups()
        assert metrics["kv_failovers_total"] == int(tallies[0]) > 0
        corrupt = [v for k, v in metrics.items() if k.startswith("kv_corrupt_reads_total")]
        assert sum(corrupt) == int(tallies[1]) > 0

    @staticmethod
    def _replicated_run(kill_window):
        """A bare replicated tier read across ``kill_window`` on replica 1,
        shaped like the demo's result for ``_check_demo_run``."""
        from types import SimpleNamespace

        from repro.reliability import FaultPlan, ManualClock
        from repro.serving import ServiceStats
        from repro.storage import InMemoryKVStore, ReplicatedConfig, ReplicatedKVStore

        clock = ManualClock()
        plan = FaultPlan(num_workers=3, replica_kill={1: [kill_window]})
        store = ReplicatedKVStore(
            plan.wrap_replicas([InMemoryKVStore() for _ in range(3)], clock),
            config=ReplicatedConfig(
                replication_factor=3, dead_after=2, probe_interval_s=0.05
            ),
            clock=clock,
        )
        for index in range(12):
            store.put(f"feat/{index}", b"row")
        for step in range(120):
            clock.advance(0.01)
            assert store.get(f"feat/{step % 12}") == b"row"
        return SimpleNamespace(
            stats=ServiceStats(),
            feature_store=store,
            anti_entropy=SimpleNamespace(unrepairable=0),
            responses=[SimpleNamespace(rung="gnn")],
        )

    def test_replicated_gate_reads_the_killed_replicas_health_path(self, capsys):
        from repro.cli import _check_demo_run

        recovered = self._replicated_run((0.2, 0.6))
        assert recovered.feature_store.health[1].state_path()[-1] == "healthy"
        assert _check_demo_run(recovered) == 0
        assert "replica 1 journey: healthy -> suspect -> dead" in capsys.readouterr().out

        stuck = self._replicated_run((0.2, 1e9))  # killed, never revived
        assert stuck.feature_store.health[1].state_path()[-1] == "dead"
        assert _check_demo_run(stuck) == 1
        assert "killed replica 1 did not recover" in capsys.readouterr().err

        untouched = self._replicated_run((5.0, 6.0))  # the kill never happened
        assert _check_demo_run(untouched) == 1
        assert "never went dead" in capsys.readouterr().err

        recovered.responses[-1].rung = "linked"  # the run ended degraded
        assert _check_demo_run(recovered) == 1
        assert "last scored response is not on the gnn rung" in capsys.readouterr().err

    def test_one_replica_gate_needs_the_outage_to_demote(self, capsys):
        """A lone replica has no failover target: the gate asks for
        ``kv_unavailable`` demotions instead of zero of them."""
        from types import SimpleNamespace

        from repro.cli import _check_demo_run
        from repro.reliability import FaultPlan, ManualClock
        from repro.serving import ServiceStats
        from repro.storage import (
            AllReplicasFailedError,
            InMemoryKVStore,
            ReplicatedConfig,
            ReplicatedKVStore,
        )

        clock = ManualClock()
        plan = FaultPlan(num_workers=1, replica_kill={0: [(0.2, 0.6)]})
        store = ReplicatedKVStore(
            plan.wrap_replicas([InMemoryKVStore()], clock),
            config=ReplicatedConfig(replication_factor=1, dead_after=2, probe_interval_s=0.05),
            clock=clock,
        )
        store.put("feat/0", b"row")
        stats = ServiceStats()
        for _ in range(100):
            clock.advance(0.01)
            try:
                store.get("feat/0")
            except AllReplicasFailedError:
                stats.record_admitted()
                stats.record_response("linked", 0.0, "kv_unavailable")
        result = SimpleNamespace(
            stats=stats, feature_store=store, anti_entropy=SimpleNamespace(unrepairable=0),
            responses=[SimpleNamespace(rung="gnn")],
        )
        assert _check_demo_run(result) == 0
        out = capsys.readouterr().out
        assert "replica 0 journey: healthy -> suspect -> dead -> probing" in out
        assert f"ok: {stats.degraded_reasons['kv_unavailable']} requests demoted" in out

        result.stats = ServiceStats()  # the outage demoted nothing
        assert _check_demo_run(result) == 1
        assert "no request demoted as kv_unavailable" in capsys.readouterr().err

    def test_serve_rejects_bad_replicas(self, capsys):
        assert main(["serve", "--demo", "--replicas", "0"]) == 2
        assert "--replicas" in capsys.readouterr().err


class TestStreamCommand:
    def test_the_two_status_surfaces_of_one_run_agree(self, capsys):
        """The CI stream-smoke command: the exposition it prints last
        against the ``stream health`` block it prints first. (The graph
        version was pushed at flush time only, and read 157 under a
        health block and a ``final graph version`` of 171.)"""
        code = main(
            ["stream", "--demo", "--scale", "0.15", "--events", "160", "--epochs", "1",
             "--batch-size", "8", "--compact-every", "24", "--runs", "2", "--metrics"]
        )
        out = capsys.readouterr().out
        assert code == 0
        metrics = _exposition(out)

        def shown(pattern):
            return [int(group) for group in re.search(pattern, out).groups()]

        nodes, edges, version = shown(r"graph +: (\d+) nodes, (\d+) edges, version (\d+)")
        assert shown(r"final graph version : (\d+)") == [version]
        assert metrics["stream_graph_version"] == version
        assert metrics["stream_graph_nodes"] == nodes
        assert metrics["stream_graph_edges"] == edges
        assert [metrics["stream_events_scored_total"]] == shown(r"scored +: (\d+) events")
        assert [metrics["stream_labels_matured_total"]] == shown(r"labels +: (\d+) matured")
        assert [metrics["stream_backpressure_total"]] == shown(r"backpressure +: (\d+) rejected")
        assert [metrics["stream_wal_segments"]] == shown(r"wal +: (\d+) segments")
        assert metrics["service_admitted_total"] == metrics["stream_events_scored_total"] > 0


class TestHealthcheckCommand:
    def test_healthcheck_recovers_from_kill(self, capsys):
        code = main(
            ["healthcheck", "--replicas", "3", "--keys", "40",
             "--kill-replica", "1", "--metrics"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "replicated store: 3 replicas" in out
        assert "kv_replica_state" in out  # Prometheus exposition
        assert "kv_replica_info" in out
        assert "anti-entropy:" in out
        assert "all replicas serving" in out
        # The killed replica's journey is visible in the health table.
        assert "probing" in out

    def test_healthcheck_clean_run(self, capsys):
        code = main(["healthcheck", "--replicas", "2", "--keys", "10"])
        out = capsys.readouterr().out
        assert code == 0
        assert "all replicas serving" in out

    def test_healthcheck_rejects_bad_args(self, capsys):
        assert main(["healthcheck", "--replicas", "2", "--kill-replica", "5"]) == 2
        assert "out of range" in capsys.readouterr().err


class TestReplicaTierGolden:
    """The two CI replica-tier commands, at their CI flags, print what
    they printed while ``get`` was a read path of its own beside
    ``get_many``: every replica's ``path:`` line, the anti-entropy line
    and the failover / corrupt counts, byte for byte. A change here is
    a change in how reads are routed, not a refactor."""

    @staticmethod
    def _pinned(argv, capsys):
        assert main(argv) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if re.match(r"( +path|anti-entropy):", line)]
        return lines + re.findall(r"failovers=\d+ corrupt=\d+", out)

    def test_serve_demo_replicas(self, capsys):
        argv = ["serve", "--demo", "--replicas", "3", "--scale", "0.1", "--epochs", "1",
                "--requests", "30", "--burst", "14", "--health"]
        dead_probing = " -> dead -> probing"
        assert self._pinned(argv, capsys) == [
            "anti-entropy: 417 keys checked, 3 divergent copies, 3 repaired, 0 unrepairable",
            "  path: healthy",
            "  path: healthy -> suspect" + dead_probing * 5 + " -> healthy",
            "  path: healthy" + dead_probing * 3 + " -> healthy",
            "failovers=9 corrupt=3",
        ]

    def test_healthcheck_kill(self, capsys):
        argv = ["healthcheck", "--replicas", "3", "--keys", "60", "--kill-replica", "1"]
        assert self._pinned(argv, capsys) == [
            "  path: healthy",
            "  path: healthy -> suspect -> dead -> probing -> healthy",
            "  path: healthy",
            "anti-entropy: 60 keys checked, 13 divergent copies, 13 repaired, 0 unrepairable",
            "failovers=0 corrupt=0",
        ]

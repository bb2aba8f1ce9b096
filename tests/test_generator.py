"""Synthetic transaction-log generator: scenarios and pipeline."""

import math
import zlib

import numpy as np
import pytest

from repro.data import (
    GeneratorConfig,
    TransactionGenerator,
    encode_event,
    generate_log,
    load_dataset,
)


def tiny_config(**overrides) -> GeneratorConfig:
    base = dict(
        num_benign_buyers=40,
        num_stolen_cards=3,
        num_warehouse_rings=2,
        num_apartment_buildings=1,
        num_cultivated_accounts=2,
        num_guest_checkouts=5,
        feature_dim=16,
        seed=3,
    )
    base.update(overrides)
    return GeneratorConfig(**base)


class TestScenarios:
    def test_all_scenarios_present(self):
        log = TransactionGenerator(tiny_config()).generate()
        scenarios = set(log.scenario_counts())
        assert {"benign", "stolen_card", "warehouse_ring", "cultivated"} <= scenarios
        assert scenarios & {"guest_linked", "guest_anonymous"}

    def test_stolen_card_reuses_victim_token(self):
        log = TransactionGenerator(tiny_config()).generate()
        benign_pmts = {r.pmt_id for r in log if r.scenario == "benign"}
        stolen = [r for r in log if r.scenario == "stolen_card"]
        assert stolen
        assert all(r.pmt_id in benign_pmts for r in stolen)
        assert all(r.label == 1 for r in stolen)

    def test_warehouse_ring_shares_address(self):
        log = TransactionGenerator(tiny_config()).generate()
        ring = [r for r in log if r.scenario == "warehouse_ring"]
        addresses = {r.addr_id for r in ring}
        # Few warehouse addresses serve many ring transactions.
        assert len(addresses) <= 2
        buyers = {r.buyer_id for r in ring}
        assert len(buyers) > len(addresses)

    def test_cultivated_attack_same_buyer_new_token(self):
        log = TransactionGenerator(tiny_config()).generate()
        benign = {r.buyer_id: r.pmt_id for r in log if r.scenario == "cultivated"}
        attacks = [r for r in log if r.scenario == "cultivated_attack"]
        assert attacks
        for record in attacks:
            assert record.buyer_id in benign
            assert record.pmt_id != benign[record.buyer_id]
            assert record.label == 1

    def test_guest_checkouts_have_no_buyer(self):
        log = TransactionGenerator(tiny_config()).generate()
        guests = [r for r in log if r.is_guest_checkout]
        assert guests
        assert all(r.buyer_id is None for r in guests)
        assert all(r.scenario.startswith("guest") for r in guests)

    def test_timestamps_strictly_increase(self):
        log = TransactionGenerator(tiny_config()).generate()
        stamps = [r.timestamp for r in log]
        assert all(b > a for a, b in zip(stamps, stamps[1:]))

    def test_txn_ids_unique(self):
        log = TransactionGenerator(tiny_config()).generate()
        ids = [r.txn_id for r in log]
        assert len(set(ids)) == len(ids)


class TestFeatures:
    def test_feature_dim_respected(self):
        log = TransactionGenerator(tiny_config(feature_dim=33)).generate()
        assert all(len(r.features) == 33 for r in log)

    def test_fraud_features_shifted(self):
        log = TransactionGenerator(tiny_config(num_benign_buyers=100)).generate()
        features = log.feature_matrix()
        labels = log.labels()
        risk_block = features[:, :16].mean(axis=1)
        assert risk_block[labels == 1].mean() > risk_block[labels == 0].mean()

    def test_feature_matrix_shape(self):
        log = TransactionGenerator(tiny_config()).generate()
        assert log.feature_matrix().shape == (len(log), 16)


class TestDownsampling:
    def test_keeps_all_fraud(self):
        generator = TransactionGenerator(tiny_config())
        log = generator.generate()
        fraud_before = sum(r.label for r in log)
        kept = generator.downsample_benign(log, keep_fraction=0.1)
        fraud_after = sum(r.label for r in kept)
        assert fraud_after == fraud_before

    def test_reduces_benign(self):
        generator = TransactionGenerator(tiny_config())
        log = generator.generate()
        kept = generator.downsample_benign(log, keep_fraction=0.1)
        benign_before = sum(1 for r in log if r.label == 0)
        benign_after = sum(1 for r in kept if r.label == 0)
        assert benign_after < benign_before

    def test_raises_fraud_rate(self):
        generator = TransactionGenerator(tiny_config())
        log = generator.generate()
        kept = generator.downsample_benign(log, keep_fraction=0.2)
        assert kept.fraud_rate() > log.fraud_rate()

    def test_generate_log_wrapper(self):
        log = generate_log(tiny_config(), downsample=True)
        assert len(log) > 0


class TestDeterminism:
    def test_same_seed_same_log(self):
        a = TransactionGenerator(tiny_config()).generate()
        b = TransactionGenerator(tiny_config()).generate()
        assert [r.txn_id for r in a] == [r.txn_id for r in b]
        assert [r.label for r in a] == [r.label for r in b]
        np.testing.assert_allclose(a.feature_matrix(), b.feature_matrix())

    def test_different_seed_differs(self):
        a = TransactionGenerator(tiny_config(seed=1)).generate()
        b = TransactionGenerator(tiny_config(seed=2)).generate()
        assert not np.allclose(
            a.feature_matrix()[: min(len(a), len(b))],
            b.feature_matrix()[: min(len(a), len(b))],
        )


class TestLogContainer:
    def test_empty_log(self):
        from repro.data import TransactionLog

        log = TransactionLog()
        assert len(log) == 0
        assert log.fraud_rate() == 0.0
        assert log.feature_matrix().size == 0


class TestApartmentBuildings:
    def test_apartment_txns_all_benign(self):
        log = TransactionGenerator(tiny_config(num_apartment_buildings=2)).generate()
        apartments = [r for r in log if r.scenario == "apartment"]
        assert apartments
        assert all(r.label == 0 for r in apartments)

    def test_apartment_shares_one_address_many_buyers(self):
        log = TransactionGenerator(tiny_config(num_apartment_buildings=1)).generate()
        apartments = [r for r in log if r.scenario == "apartment"]
        addresses = {r.addr_id for r in apartments}
        buyers = {r.buyer_id for r in apartments}
        assert len(addresses) == 1
        assert len(buyers) >= 3

    def test_apartment_structurally_mimics_warehouse(self):
        """Both scenarios produce a high-degree shared address; only the
        labels (and entity semantics) differ."""
        log = TransactionGenerator(
            tiny_config(num_apartment_buildings=1, num_warehouse_rings=1)
        ).generate()
        apartment_addr = {r.addr_id for r in log if r.scenario == "apartment"}
        warehouse_addr = {r.addr_id for r in log if r.scenario == "warehouse_ring"}
        apartment_degree = sum(1 for r in log if r.addr_id in apartment_addr)
        warehouse_degree = sum(1 for r in log if r.addr_id in warehouse_addr)
        assert apartment_degree >= 3 and warehouse_degree >= 3


class TestPoolPick:
    """``TransactionGenerator._pick`` is ``Generator.choice(list)``'s
    draw: the same value and the same generator state after it, so the
    generator's output does not depend on which of the two it calls."""

    @pytest.mark.parametrize("size", [1, 2, 3, 1_000, 10_000])
    def test_equal_to_choice_draw_for_draw(self, size):
        for seed in range(10):
            generator = TransactionGenerator(GeneratorConfig(seed=seed))
            reference = np.random.default_rng(seed)
            pool = [int(v) for v in np.random.default_rng(size).integers(0, 2**40, size=size)]
            for step in range(60):
                assert generator._pick(pool) == reference.choice(pool)
                if step % 3 == 1:
                    assert generator.rng.normal(0.0, 1.0, size=3).tolist() == (
                        reference.normal(0.0, 1.0, size=3).tolist()
                    )
                if step % 4 == 2:
                    assert generator.rng.exponential(1.0) == reference.exponential(1.0)
            assert generator.rng.bit_generator.state == reference.bit_generator.state

    def test_a_pick_is_the_pools_own_element(self):
        generator = TransactionGenerator(GeneratorConfig(seed=0))
        pool = [7, 11]
        picks = {generator._pick(pool) for _ in range(50)}
        assert picks == {7, 11} and all(type(pick) is int for pick in picks)


def _crc(*arrays) -> int:
    value = 0
    for array in arrays:
        value = zlib.crc32(np.ascontiguousarray(array).tobytes(), value)
    return value


class TestDigest:
    """Bits digest of the synthetic feed: CRC32s of the ``ebay-small-sim``
    graph arrays and split, and of the encoded events of the ledger's
    stream, computed at commit ac074a0cf86e9c7b3e0413f8392562c1cff6236f
    (when every pool pick still went through ``Generator.choice``). A
    change to the generator's draws must re-commit these values and say
    why."""

    GRAPH_ARRAYS = ("txn_table", "edge_src", "edge_dst", "edge_type", "node_type", "labels")
    # scale -> (CRC per graph array, CRC of train_nodes then test_nodes)
    SMALL_SIM = {
        0.25: (
            {
                "txn_table": 576761230,
                "edge_src": 2105045726,
                "edge_dst": 1005711250,
                "edge_type": 54501350,
                "node_type": 3708452485,
                "labels": 3535399273,
            },
            878459884,
        ),
        1.0: (
            {
                "txn_table": 1766981016,
                "edge_src": 1727203955,
                "edge_dst": 1192697801,
                "edge_type": 2550142328,
                "node_type": 3828977366,
                "labels": 2455148273,
            },
            3926182269,
        ),
    }
    STREAM_EVENTS = 25_397
    STREAM_CRC = 1875049770

    @pytest.mark.parametrize("scale", [0.25, 1.0])
    def test_ebay_small_sim(self, scale):
        bundle = load_dataset("ebay-small-sim", seed=0, scale=scale)
        arrays = {name: _crc(getattr(bundle.graph, name)) for name in self.GRAPH_ARRAYS}
        assert (arrays, _crc(bundle.train_nodes, bundle.test_nodes)) == self.SMALL_SIM[scale]

    def test_ledger_stream_events(self):
        # benchmarks/ledger's stream_ingest config at seed 0: ebay-small-sim's
        # mix at the scale that covers 6,000 pre-built + 512 warm-up +
        # 15,000 timed events (3,000 events per unit of scale).
        scale = (6_000 + 512 + 15_000) / 3_000
        config = GeneratorConfig(
            num_benign_buyers=math.ceil(700 * scale),
            num_stolen_cards=math.ceil(12 * scale),
            num_warehouse_rings=math.ceil(4 * scale),
            num_cultivated_accounts=math.ceil(6 * scale),
            num_guest_checkouts=math.ceil(25 * scale),
            num_apartment_buildings=math.ceil(4 * scale),
            feature_dim=114,
            risk_signal=0.4,
            seed=0,
        )
        events = TransactionGenerator(config).event_stream(interleave=True)
        value = 0
        for event in events:
            value = zlib.crc32(encode_event(event), value)
        assert (len(events), value) == (self.STREAM_EVENTS, self.STREAM_CRC)

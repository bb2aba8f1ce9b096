"""Synthetic transaction-log generator: scenarios and pipeline."""

import copy
import dataclasses
import math
import tracemalloc
import zlib

import numpy as np
import pytest

from repro.data import (
    GeneratorConfig,
    TransactionGenerator,
    TransactionLog,
    TxnEvent,
    encode_event,
    load_dataset,
)
from repro.data.events import _event_of, assemble_event
from repro.data.generator import BENIGN_DOWNSAMPLE


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
        scenarios = {record.scenario for record in log}
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
        guests = [r for r in log if r.buyer_id is None]
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

    @pytest.mark.parametrize("keep_fraction", [None, 0.0, 0.3, 1.0])
    def test_one_block_draw_keeps_what_a_per_record_loop_keeps(self, keep_fraction):
        fraction = BENIGN_DOWNSAMPLE if keep_fraction is None else keep_fraction
        for seed in range(10):
            generator = TransactionGenerator(tiny_config(seed=seed))
            log = generator.generate()
            reference = copy.deepcopy(generator.rng)
            expected = [r for r in log if r.label == 1 or reference.random() < fraction]
            kept = generator.downsample_benign(log, keep_fraction=keep_fraction)
            assert len(kept) == len(expected)
            assert all(a is b for a, b in zip(kept, expected))
            assert generator.rng.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize("keep_fraction", [0.0, 0.6, 1.0])
    def test_an_all_fraud_or_empty_log_draws_nothing(self, keep_fraction):
        generator = TransactionGenerator(tiny_config())
        fraud = TransactionLog([r for r in generator.generate() if r.label == 1])
        state = generator.rng.bit_generator.state
        assert generator.downsample_benign(fraud, keep_fraction=keep_fraction).records == fraud.records
        assert len(generator.downsample_benign(TransactionLog(), keep_fraction=keep_fraction)) == 0
        assert generator.rng.bit_generator.state == state

    @pytest.mark.parametrize("keep_fraction", [float("nan"), -0.1, 1.5, float("inf")])
    def test_a_keep_fraction_outside_0_1_is_refused(self, keep_fraction):
        generator = TransactionGenerator(tiny_config())
        log = generator.generate()
        state = generator.rng.bit_generator.state
        with pytest.raises(ValueError, match="keep_fraction"):
            generator.downsample_benign(log, keep_fraction=keep_fraction)
        assert generator.rng.bit_generator.state == state


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
    generator's output does not depend on which of the two it calls.
    The picks interleave with the other calls a record makes, each
    against the call it replaced: a pick that drew a stray 32-bit half
    word would shift every later ``integers`` draw."""

    @pytest.mark.parametrize("size", [1, 2, 3, 1_000, 10_000])
    def test_equal_to_choice_draw_for_draw(self, size):
        for seed in range(10):
            generator = TransactionGenerator(GeneratorConfig(seed=seed))
            reference = np.random.default_rng(seed)
            pool = [int(v) for v in np.random.default_rng(size).integers(0, 2**40, size=size)]
            for step in range(60):
                assert generator._pick(pool) == reference.choice(pool)
                if step % 3 == 1:
                    assert generator.rng.standard_normal(3).tolist() == (
                        reference.normal(0.0, 1.0, size=3).tolist()
                    )
                    assert generator.rng.integers(8) == reference.integers(8)
                if step % 4 == 2:
                    assert generator.rng.standard_exponential() == reference.exponential(1.0)
                if step % 5 == 3:
                    assert generator.rng.random(2).tolist() == [reference.random(), reference.random()]
            assert generator.rng.bit_generator.state == reference.bit_generator.state

    def test_a_pick_is_the_pools_own_element(self):
        generator = TransactionGenerator(GeneratorConfig(seed=0))
        pool = [7, 11]
        picks = {generator._pick(pool) for _ in range(50)}
        assert picks == {7, 11} and all(type(pick) is int for pick in picks)


class TestStandardDraws:
    """The generator's ``standard_normal(F)`` and ``standard_exponential()``
    are the ``normal(0.0, 1.0, F)`` and ``exponential(1.0)`` they replaced:
    numpy computes those as ``0.0 + 1.0 * z`` and ``1.0 * e``, the same
    draws and the same bits, except that ``0.0 + z`` turned a draw of
    exactly -0.0 (probability 2**-53) into +0.0. ``_features`` equals the
    formula it was reformulated from, written out below. (A one-entry
    pick, which draws nothing, is ``TestPoolPick``'s ``size`` 1.)"""

    @pytest.mark.parametrize("dim", [0, 1, 16, 114])
    def test_standard_normal_is_normal_0_1(self, dim):
        for seed in range(10):
            new, old = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(50):
                assert new.standard_normal(dim).tobytes() == old.normal(0.0, 1.0, size=dim).tobytes()
                assert new.integers(8) == old.integers(8)
            assert new.bit_generator.state == old.bit_generator.state

    def test_standard_exponential_is_exponential_1(self):
        for seed in range(10):
            new, old = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(200):
                assert new.standard_exponential() == old.exponential(1.0)
                assert new.integers(8) == old.integers(8)
            assert new.bit_generator.state == old.bit_generator.state

    @staticmethod
    def _reference_features(rng, config, label, scenario):
        risk_dim = min(16, config.feature_dim)
        features = rng.normal(0.0, 1.0, size=config.feature_dim)
        visibility = TransactionGenerator.SCENARIO_RISK_VISIBILITY.get(scenario, 1.0)
        shift = config.risk_signal * visibility if label == 1 else 0.0
        if scenario.startswith("guest"):
            shift += 0.3
        features[:risk_dim] += shift
        category = rng.integers(8)
        if risk_dim + category < min(risk_dim + 8, config.feature_dim):
            features[risk_dim + category] += 2.0
        return features

    @pytest.mark.parametrize("dim", [8, 16, 20, 114])
    def test_features_equal_the_formula_they_came_from(self, dim):
        scenarios = ["benign", "stolen_card", "guest_linked", "cultivated_attack", "warehouse_ring"]
        for seed in range(5):
            generator = TransactionGenerator(tiny_config(seed=seed, feature_dim=dim))
            reference = np.random.default_rng(seed)
            for step in range(40):
                label, scenario = step % 2, scenarios[step % len(scenarios)]
                expected = self._reference_features(reference, generator.config, label, scenario)
                assert generator._features(label, scenario).tobytes() == expected.tobytes()
            assert generator.rng.bit_generator.state == reference.bit_generator.state


class TestAssembledEvent:
    """``events.assemble_event`` builds the frozen constructor's instance
    without its per-field lookups: equal fields in field order, hash,
    repr and frozenness, the same features array, and no instance dict,
    so no more memory a row. A re-timed event is ``dataclasses.replace``'s."""

    FIELDS = dict(txn_id=7, buyer_id=None, email_id=3, pmt_id=4, addr_id=5, timestamp=1.5, label=1)

    def test_equal_to_the_constructed_event(self):
        features = np.arange(4.0)
        built = TxnEvent(features=features, scenario="guest_linked", **self.FIELDS)
        assembled = assemble_event(features=features, scenario="guest_linked", **self.FIELDS)
        assert type(assembled) is TxnEvent and assembled.features is features
        assert (assembled, hash(assembled), repr(assembled)) == (built, hash(built), repr(built))
        assert list(vars(assembled).items()) == list(vars(built).items())
        with pytest.raises(dataclasses.FrozenInstanceError):
            assembled.label = 0

    def test_no_more_memory_than_the_constructor(self):
        features = np.zeros(1)

        def held(make) -> int:
            make(0)  # warm
            tracemalloc.start()
            try:
                rows = [make(txn_id) for txn_id in range(1_000, 3_000)]
                return tracemalloc.get_traced_memory()[0] // len(rows)
            finally:
                tracemalloc.stop()

        fields = {**self.FIELDS, "features": features, "scenario": "benign"}
        built = held(lambda txn_id: TxnEvent(**{**fields, "txn_id": txn_id}))
        assembled = held(lambda txn_id: assemble_event(**{**fields, "txn_id": txn_id}))
        assert assembled <= built

    def test_a_retimed_event_is_replace_with_the_new_timestamp(self):
        event = TransactionGenerator(tiny_config()).generate().records[5]
        retimed = _event_of(event, 123.25)
        assert retimed == dataclasses.replace(event, timestamp=123.25)
        assert retimed.timestamp == 123.25 and retimed.features is event.features


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

"""Shared fixtures: a tiny dataset and a trained detector.

Session-scoped so the expensive artefacts (graph construction,
training) are built once for the whole run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    DetectorConfig,
    GeneratorConfig,
    TrainConfig,
    Trainer,
    TransactionGenerator,
    XFraudDetectorPlus,
)
from repro.data import generator as generator_module
from repro.graph import build_graph, train_test_split


def small_log(config, benign_txns_per_buyer, keep_fraction):
    """``config``'s downsampled log with fewer benign transactions per
    buyer than the generator's ``BENIGN_TXNS_PER_BUYER``, for fixtures
    that must stay small."""
    generator = TransactionGenerator(config)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(generator_module, "BENIGN_TXNS_PER_BUYER", benign_txns_per_buyer)
        log = generator.generate()
    return generator.downsample_benign(log, keep_fraction=keep_fraction)


TINY_CONFIG = GeneratorConfig(
    num_benign_buyers=60,
    num_stolen_cards=4,
    num_warehouse_rings=2,
    num_cultivated_accounts=2,
    num_guest_checkouts=6,
    feature_dim=24,
    # Features informative enough that the tiny test models (16-dim,
    # 6 epochs) clear the sanity thresholds reliably; the harder
    # weak-feature regime is exercised by the benchmark suite.
    risk_signal=0.9,
    seed=7,
)


@pytest.fixture(scope="session")
def tiny_log():
    return small_log(TINY_CONFIG, benign_txns_per_buyer=(2, 5), keep_fraction=0.8)


@pytest.fixture(scope="session")
def tiny_graph(tiny_log):
    graph, _ = build_graph(tiny_log)
    return graph


@pytest.fixture(scope="session")
def tiny_splits(tiny_graph):
    train, _, test = train_test_split(tiny_graph, test_fraction=0.3, seed=0)
    return train, test


@pytest.fixture(scope="session")
def detector_config(tiny_graph):
    return DetectorConfig(
        feature_dim=tiny_graph.feature_dim,
        hidden_dim=32,
        num_heads=2,
        num_layers=2,
        ffn_hidden_dim=32,
        seed=0,
    )


@pytest.fixture(scope="session")
def trained_detector(tiny_graph, tiny_splits, detector_config):
    train_nodes, _ = tiny_splits
    model = XFraudDetectorPlus(detector_config)
    trainer = Trainer(
        model, TrainConfig(epochs=12, batch_size=512, learning_rate=1e-2, seed=0)
    )
    trainer.fit(tiny_graph, train_nodes)
    return model


@pytest.fixture()
def rng():
    return np.random.default_rng(0)

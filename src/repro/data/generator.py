"""Synthetic eBay-like transaction-log generator.

The real eBay datasets are proprietary, so this module synthesises
transaction logs whose *graph mechanics* match what the paper describes
and exploits:

* **Benign buyers** — stable accounts with their own email, one or two
  payment tokens and shipping addresses, producing legitimate
  transactions (the homophilic "legit" background).
* **Stolen cards** (Sec. 3.1) — a payment token first used by its
  legitimate owner, later bursts of fraudulent transactions by a
  different (fraudster) buyer. A legitimate user does not imply all its
  transactions are legitimate.
* **Warehouse fraud rings** (Sec. 5.2, Figure 11) — a generic shipping
  address (warehouse) shared by many buyers with mixed fraud/benign
  transactions; linkage through the address is the stable signal.
* **Cultivated accounts** (Appendix H.5) — accounts that execute benign
  transactions for a long time to gain trust, then launch an attack.
* **Guest checkouts** (Appendix G.3) — transactions without a buyer
  link; some are linkable through a suspicious payment token or email,
  some are fully anonymous (the hard case the paper discusses).

Transaction features emulate the upstream risk identifier: a noisy
risk-score block correlated with the label plus item-category one-hot
and nuisance dimensions. The feature signal is deliberately imperfect
so that graph structure carries real information — exactly the regime
in which the paper's heterogeneous GNN beats feature-only models.

Every value comes from one seeded ``numpy`` generator, and the output
is a function of the draw sequence alone. A record draws, in order: a
pick per list it chooses from, its tick (``standard_exponential()``),
its features (``standard_normal(F)``) and its category
(``integers(8)``); downsampling draws one ``random()`` per benign record,
in one block. Each is the cheapest call that makes the same draw, held
by ``tests/test_generator.py``: a pick is ``Generator.choice``'s one
``integers(0, len)`` draw, none from a one-entry pool (``TestPoolPick``);
the standard draws are ``exponential(1.0)``'s and ``normal(0.0, 1.0)``'s
(``TestStandardDraws``); the block is the per-record loop
(``TestDownsampling``). ``TestDigest`` holds CRC32s of the datasets and
the stream's encoded events: a change to the draws must re-commit it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .events import TxnEvent, assemble_event
from .records import TransactionLog

NUM_ITEM_CATEGORIES = 8

# Per-scenario draws: (low, high) ranges are inclusive counts, probs are
# per transaction. The config sets how many of each scenario appear.
BENIGN_TXNS_PER_BUYER = (4, 12)
STOLEN_CARD_BURST = (3, 7)
RING_FRAUD_PROB = 0.75
CULTIVATED_BENIGN = (4, 8)
CULTIVATED_ATTACK = (2, 4)
GUEST_FRAUD_PROB = 0.4
APARTMENT_RESIDENTS = (6, 12)
APARTMENT_TXNS_PER_RESIDENT = (1, 3)
# Entity sharing between benign buyers (households sharing an address).
# Payment tokens are personal: a token appearing under several buyers is
# the stolen-card signature, so benign pmt sharing is kept rare.
ADDR_SHARING = 0.25
PMT_SHARING = 0.02
#: Fraction of benign transactions :meth:`TransactionGenerator.downsample_benign` keeps.
BENIGN_DOWNSAMPLE = 0.6


@dataclass
class GeneratorConfig:
    """Knobs of the synthetic workload.

    The defaults produce an ``eBay-small``-like graph: ~70% txn nodes,
    sparsity around two edges per node, fraud rate a few percent after
    downsampling.
    """

    num_benign_buyers: int = 700
    num_stolen_cards: int = 8
    num_warehouse_rings: int = 3
    ring_buyers: tuple = (4, 7)
    ring_txns_per_buyer: tuple = (1, 3)
    num_cultivated_accounts: int = 5
    num_guest_checkouts: int = 20
    # Benign address hubs: apartment buildings / PO boxes where many
    # unrelated legitimate buyers ship. Structurally these mimic the
    # fraud warehouses (a high-degree shared address), so telling them
    # apart requires knowing *which entity type* is shared and by whom
    # — the heterogeneity signal the xFraud detector exploits and
    # type-blind models cannot see.
    num_apartment_buildings: int = 3
    feature_dim: int = 114
    risk_signal: float = 1.2
    seed: int = 0


class _EntityAllocator:
    """Hands out fresh integer ids per entity kind."""

    def __init__(self) -> None:
        self._next = {"buyer": 0, "email": 0, "pmt": 0, "addr": 0, "txn": 0}

    def new(self, kind: str) -> int:
        value = self._next[kind]
        self._next[kind] = value + 1
        return value


@dataclass
class _BuyerProfile:
    buyer_id: int
    email_id: int
    pmt_ids: List[int]
    addr_ids: List[int]


class TransactionGenerator:
    """Generates a :class:`TransactionLog` according to a config."""

    def __init__(self, config: Optional[GeneratorConfig] = None) -> None:
        self.config = config or GeneratorConfig()
        self.rng = np.random.default_rng(self.config.seed)
        self._alloc = _EntityAllocator()
        self._clock = 0.0
        self._shared_addrs: List[int] = []
        self._shared_pmts: List[int] = []
        self._risk_dim = min(16, self.config.feature_dim)
        self._category_slots = min(NUM_ITEM_CATEGORIES, self.config.feature_dim - self._risk_dim)

    # ------------------------------------------------------------------
    # Feature model
    # ------------------------------------------------------------------
    #: How visible each fraud scenario is to the upstream feature-based
    #: risk identifier. Stolen-card purchases deliberately mimic normal
    #: buying behaviour, so their *features* look benign — that fraud
    #: is only detectable through the graph (a payment token shared
    #: across buyer accounts), which is precisely the signal a
    #: heterogeneous GNN can exploit and type-blind models cannot.
    SCENARIO_RISK_VISIBILITY = {
        "stolen_card": 0.0,
        "guest_linked": 0.0,
        "cultivated_attack": 0.5,
        "warehouse_ring": 1.0,
        "guest_anonymous": 1.0,
    }

    def _features(self, label: int, scenario: str) -> np.ndarray:
        """Risk-identifier feature vector for one transaction.

        Layout: [risk block | item-category one-hot | nuisance noise].
        The risk block mean is shifted for fraud (scenario-dependent),
        with enough noise that features alone are an imperfect
        detector.
        """
        features = self.rng.standard_normal(self.config.feature_dim)
        visibility = self.SCENARIO_RISK_VISIBILITY.get(scenario, 1.0)
        shift = self.config.risk_signal * visibility if label == 1 else 0.0
        # Guest checkouts look riskier to the upstream identifier even
        # when benign, which is one source of false positives.
        if scenario.startswith("guest"):
            shift += 0.3
        if shift:
            features[: self._risk_dim] += shift
        category = int(self.rng.integers(NUM_ITEM_CATEGORIES))
        if category < self._category_slots:
            features[self._risk_dim + category] += 2.0
        return features

    def _record(
        self,
        buyer_id: Optional[int],
        email_id: int,
        pmt_id: int,
        addr_id: int,
        label: int,
        scenario: str,
    ) -> TxnEvent:
        # The tick is drawn before the features.
        self._clock += self.rng.standard_exponential()
        return assemble_event(
            txn_id=self._alloc.new("txn"),
            buyer_id=buyer_id,
            email_id=email_id,
            pmt_id=pmt_id,
            addr_id=addr_id,
            timestamp=self._clock,
            features=self._features(label, scenario),
            label=label,
            scenario=scenario,
        )

    def _new_buyer(
        self, num_pmt: int = 1, num_addr: int = 1, allow_sharing: bool = False
    ) -> _BuyerProfile:
        def new_addr() -> int:
            if (
                allow_sharing
                and self._shared_addrs
                and self.rng.random() < ADDR_SHARING
            ):
                return self._pick(self._shared_addrs)
            addr = self._alloc.new("addr")
            if allow_sharing:
                self._shared_addrs.append(addr)
            return addr

        def new_pmt() -> int:
            if (
                allow_sharing
                and self._shared_pmts
                and self.rng.random() < PMT_SHARING
            ):
                return self._pick(self._shared_pmts)
            pmt = self._alloc.new("pmt")
            if allow_sharing:
                self._shared_pmts.append(pmt)
            return pmt

        return _BuyerProfile(
            buyer_id=self._alloc.new("buyer"),
            email_id=self._alloc.new("email"),
            pmt_ids=[new_pmt() for _ in range(num_pmt)],
            addr_ids=[new_addr() for _ in range(num_addr)],
        )

    def _pick(self, pool: list):
        """``self.rng.choice(pool)``'s draw, and nothing else."""
        if len(pool) == 1:  # numpy draws nothing for a one-value range
            return pool[0]
        return pool[int(self.rng.integers(0, len(pool)))]

    def _rand_range(self, bounds: tuple) -> int:
        low, high = bounds
        return int(self.rng.integers(low, high + 1))

    # ------------------------------------------------------------------
    # Scenario emitters
    # ------------------------------------------------------------------
    def _emit_benign_buyers(self, log: TransactionLog) -> List[_BuyerProfile]:
        profiles = []
        for _ in range(self.config.num_benign_buyers):
            profile = self._new_buyer(
                num_pmt=self._rand_range((1, 2)),
                num_addr=self._rand_range((1, 2)),
                allow_sharing=True,
            )
            profiles.append(profile)
            for _ in range(self._rand_range(BENIGN_TXNS_PER_BUYER)):
                log.append(
                    self._record(
                        buyer_id=profile.buyer_id,
                        email_id=profile.email_id,
                        pmt_id=self._pick(profile.pmt_ids),
                        addr_id=self._pick(profile.addr_ids),
                        label=0,
                        scenario="benign",
                    )
                )
        return profiles

    def _emit_stolen_cards(self, log: TransactionLog, victims: List[_BuyerProfile]) -> None:
        """A victim's payment token reused by a fraudster account."""
        if not victims:
            return
        for _ in range(self.config.num_stolen_cards):
            victim = self._pick(victims)
            stolen_pmt = self._pick(victim.pmt_ids)
            thief = self._new_buyer()
            for _ in range(self._rand_range(STOLEN_CARD_BURST)):
                log.append(
                    self._record(
                        buyer_id=thief.buyer_id,
                        email_id=thief.email_id,
                        pmt_id=stolen_pmt,
                        addr_id=self._pick(thief.addr_ids),
                        label=1,
                        scenario="stolen_card",
                    )
                )

    def _emit_warehouse_rings(self, log: TransactionLog) -> None:
        """Many buyers shipping to one warehouse address, mostly fraud."""
        for _ in range(self.config.num_warehouse_rings):
            warehouse_addr = self._alloc.new("addr")
            for _ in range(self._rand_range(self.config.ring_buyers)):
                member = self._new_buyer()
                for _ in range(self._rand_range(self.config.ring_txns_per_buyer)):
                    label = int(self.rng.random() < RING_FRAUD_PROB)
                    log.append(
                        self._record(
                            buyer_id=member.buyer_id,
                            email_id=member.email_id,
                            pmt_id=self._pick(member.pmt_ids),
                            addr_id=warehouse_addr,
                            label=label,
                            scenario="warehouse_ring",
                        )
                    )

    def _emit_apartment_buildings(self, log: TransactionLog) -> None:
        """Benign address hubs that structurally mimic warehouses."""
        for _ in range(self.config.num_apartment_buildings):
            building_addr = self._alloc.new("addr")
            for _ in range(self._rand_range(APARTMENT_RESIDENTS)):
                resident = self._new_buyer()
                for _ in range(self._rand_range(APARTMENT_TXNS_PER_RESIDENT)):
                    log.append(
                        self._record(
                            buyer_id=resident.buyer_id,
                            email_id=resident.email_id,
                            pmt_id=self._pick(resident.pmt_ids),
                            addr_id=building_addr,
                            label=0,
                            scenario="apartment",
                        )
                    )

    def _emit_cultivated_accounts(self, log: TransactionLog) -> None:
        """Benign history first, then a fraud burst from the same account."""
        for _ in range(self.config.num_cultivated_accounts):
            account = self._new_buyer()
            for _ in range(self._rand_range(CULTIVATED_BENIGN)):
                log.append(
                    self._record(
                        buyer_id=account.buyer_id,
                        email_id=account.email_id,
                        pmt_id=account.pmt_ids[0],
                        addr_id=account.addr_ids[0],
                        label=0,
                        scenario="cultivated",
                    )
                )
            attack_pmt = self._alloc.new("pmt")
            for _ in range(self._rand_range(CULTIVATED_ATTACK)):
                log.append(
                    self._record(
                        buyer_id=account.buyer_id,
                        email_id=account.email_id,
                        pmt_id=attack_pmt,
                        addr_id=account.addr_ids[0],
                        label=1,
                        scenario="cultivated_attack",
                    )
                )

    def _emit_guest_checkouts(self, log: TransactionLog, profiles: List[_BuyerProfile]) -> None:
        """Buyer-less transactions; some link to existing risky entities."""
        for _ in range(self.config.num_guest_checkouts):
            fraud = int(self.rng.random() < GUEST_FRAUD_PROB)
            if fraud and profiles and self.rng.random() < 0.5:
                # Linkable guest fraud: reuses a stolen token from an
                # existing profile (detectable through graph linkage).
                victim = self._pick(profiles)
                pmt_id = self._pick(victim.pmt_ids)
                scenario = "guest_linked"
            else:
                pmt_id = self._alloc.new("pmt")
                scenario = "guest_anonymous"
            log.append(
                self._record(
                    buyer_id=None,
                    email_id=self._alloc.new("email"),
                    pmt_id=pmt_id,
                    addr_id=self._alloc.new("addr"),
                    label=fraud,
                    scenario=scenario,
                )
            )

    # ------------------------------------------------------------------
    # Pipeline
    # ------------------------------------------------------------------
    def generate(self) -> TransactionLog:
        """Produce the raw (pre-filter) transaction log."""
        log = TransactionLog()
        profiles = self._emit_benign_buyers(log)
        self._emit_stolen_cards(log, profiles)
        self._emit_warehouse_rings(log)
        self._emit_apartment_buildings(log)
        self._emit_cultivated_accounts(log)
        self._emit_guest_checkouts(log, profiles)
        return log

    def downsample_benign(self, log: TransactionLog, keep_fraction: Optional[float] = None) -> TransactionLog:
        """Keep all fraud and a fraction of benign records (Appendix B).

        Mirrors the paper's label-sampling step that lifts the fraud
        rate from ~0.04% to ~4% before GNN training. A ``keep_fraction``
        outside [0, 1] is refused: a NaN would drop every benign record.
        """
        fraction = BENIGN_DOWNSAMPLE if keep_fraction is None else keep_fraction
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"keep_fraction must be in [0, 1], got {fraction!r}")
        benign = sum(1 for record in log if record.label != 1)
        keep = iter((self.rng.random(benign) < fraction).tolist())
        return TransactionLog([record for record in log if record.label == 1 or next(keep)])

    def event_stream(self, downsample: bool = True, interleave: bool = False):
        """Event-stream export mode: the synthetic log as a time-ordered
        list of :class:`~repro.data.events.TxnEvent`.

        Same seed ⇒ same event sequence (generation, downsampling, and
        the optional scenario interleave all draw from seeded RNGs, and
        the export order is a total order on ``(timestamp, txn_id)``).
        ``interleave=True`` mixes the scenario-clustered emission order
        along the clock (see :func:`~repro.data.events.export_events`).
        This feeds the ``repro stream --demo`` replay gate and tests.
        The draws each record makes, and the tests that hold each call
        equal to the one it replaced, are in the module docstring.
        """
        from .events import export_events

        log = self.generate()
        if downsample:
            log = self.downsample_benign(log)
        return export_events(
            log, interleave_seed=self.config.seed if interleave else None
        )

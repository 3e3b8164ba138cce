"""Fault plans: arm one named fault and let the data path trip it.

A :class:`FaultPlan` describes *one* fault: the stage it fires at and on
which arrival at that stage (the ``hit``).  The instrumented code calls
:func:`crash_point` (client kill), :func:`torn_op_count` (OSD-side torn
transaction), :func:`torn_tail_bytes` (client-log torn tail) or
:func:`osd_kill_due` (OSD daemon kill) at its named stages; a plan made
active with :func:`inject` counts arrivals and fires exactly once.

The stages are a closed vocabulary (``ALL_STAGES`` for the client-kill
matrix, ``OSD_KILL_STAGES`` for the failure drill) so CI can enumerate
them and a typo'd stage name is an error rather than a fault that
silently never fires.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Optional

from ..errors import ConfigurationError

# -- stage vocabulary ---------------------------------------------------------

#: client-kill stages (the process dies; in-memory state is lost, the
#: cluster and the client-local persistent write log survive)
STAGE_PRE_LOG_APPEND = "pre-log-append"
STAGE_POST_ACK_PRE_DRAIN = "post-ack-pre-drain"
STAGE_MID_DRAIN = "mid-drain"
STAGE_MID_COPYUP = "mid-copyup"
STAGE_MID_LUKS_HEADER_UPDATE = "mid-luks-header-update"

#: OSD-side fault: a transaction is applied only partially (torn write)
#: and the client dies with it — models losing OSD atomicity.
STAGE_TORN_OSD_WRITE = "torn-osd-write"

#: client-log fault: the crash interrupts the log append itself, leaving
#: a partial (torn) record frame at the tail of the persistent log.
STAGE_TORN_LOG_TAIL = "torn-log-tail"

CRASH_STAGES = (STAGE_PRE_LOG_APPEND, STAGE_POST_ACK_PRE_DRAIN,
                STAGE_MID_DRAIN, STAGE_MID_COPYUP,
                STAGE_MID_LUKS_HEADER_UPDATE)
OSD_FAULTS = (STAGE_TORN_OSD_WRITE,)
LOG_FAULTS = (STAGE_TORN_LOG_TAIL,)
ALL_STAGES = CRASH_STAGES + OSD_FAULTS + LOG_FAULTS

#: OSD-kill stages (the *daemon* dies, the client survives): the cluster
#: marks the victim down mid-operation and the client's retry/failover
#: machinery must carry every acked write through.  A separate vocabulary
#: from ``ALL_STAGES`` — the client-kill harness and the failure drill
#: enumerate different matrices.
STAGE_KILL_PRIMARY_MID_TXN = "kill-primary-mid-txn"
STAGE_KILL_REPLICA_MID_TXN = "kill-replica-mid-txn"
STAGE_KILL_DURING_BACKFILL = "kill-during-backfill"
#: EC pools: a chunk OSD dies mid-stripe-transaction — the shard committed
#: locally but the stripe never acked, so the client must retry against
#: the surviving shards (and backfill later reconstructs the stale chunk).
STAGE_KILL_EC_SHARD_MID_TXN = "kill-ec-shard-mid-txn"

OSD_KILL_STAGES = (STAGE_KILL_PRIMARY_MID_TXN, STAGE_KILL_REPLICA_MID_TXN,
                   STAGE_KILL_DURING_BACKFILL, STAGE_KILL_EC_SHARD_MID_TXN)

#: the subsets of ``OSD_KILL_STAGES`` that apply per pool type: the
#: primary/replica kill sites live in the replicated dispatch path, the
#: ec-shard kill site in the stripe dispatch path; kill-during-backfill
#: fires in the shared backfill loop, so it covers both (for EC pools it
#: lands mid ec-repair).
REPLICATED_KILL_STAGES = (STAGE_KILL_PRIMARY_MID_TXN,
                          STAGE_KILL_REPLICA_MID_TXN,
                          STAGE_KILL_DURING_BACKFILL)
EC_KILL_STAGES = (STAGE_KILL_EC_SHARD_MID_TXN, STAGE_KILL_DURING_BACKFILL)


class ClientCrash(BaseException):
    """The injected client death.

    Derives from :class:`BaseException` (like ``KeyboardInterrupt``) so
    that library code catching ``Exception`` cannot absorb it: nothing on
    the data path gets to handle its own death.  Tests catch it
    explicitly, then recover from the surviving durable state.
    """

    def __init__(self, stage: str, detail: str = "") -> None:
        self.stage = stage
        self.detail = detail
        super().__init__(f"injected client crash at stage {stage!r}"
                         + (f" ({detail})" if detail else ""))


@dataclass
class FaultPlan:
    """One armed fault: fire at the ``hit``-th arrival of ``stage``.

    ``hit`` is 1-based: ``hit=1`` fires on the first arrival.  For the
    torn faults the plan also decides how much of the victim survives:
    ``torn_keep`` ops of the transaction (``torn-osd-write``) or a seeded
    random fraction of the record frame (``torn-log-tail``).  At an
    OSD-kill stage the victim is a *daemon*, not the client: the call site
    (:func:`osd_kill_due`) reports that the kill is due and records which
    OSD it landed on as ``victim``.
    """

    stage: str
    hit: int = 1
    #: for torn-osd-write: how many ops of the victim transaction are
    #: applied before the tear (None = a seeded random strict prefix)
    torn_keep: Optional[int] = None
    #: seed of the plan's private RNG (tear geometry); printed by the
    #: harness so any run is reproducible
    seed: int = 0
    # -- state (not settable) ------------------------------------------------
    hits_seen: int = field(default=0, init=False, repr=False)
    fired: bool = field(default=False, init=False, repr=False)
    #: OSD-kill stages: the OSD id the kill landed on (for reports)
    victim: Optional[int] = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.stage not in ALL_STAGES + OSD_KILL_STAGES:
            raise ConfigurationError(
                f"unknown fault stage {self.stage!r}; valid: "
                f"{ALL_STAGES + OSD_KILL_STAGES}")
        if self.hit < 1:
            raise ConfigurationError("fault hit must be >= 1")
        self._rng = random.Random(self.seed)

    @classmethod
    def random_plan(cls, stage: str, seed: int, max_hit: int = 8) -> "FaultPlan":
        """A plan whose trigger point is drawn from ``seed`` (printed-seed
        randomized testing: the CI crash matrix derives the hit from
        ``FAULT_SEED`` so any failure is rerunnable)."""
        rng = random.Random(f"{seed}/{stage}")
        return cls(stage=stage, hit=rng.randint(1, max(1, max_hit)), seed=seed)

    # -- firing --------------------------------------------------------------

    def _arrived(self, stage: str) -> bool:
        """Count one arrival; True when this is the firing one."""
        if self.fired or stage != self.stage:
            return False
        self.hits_seen += 1
        if self.hits_seen < self.hit:
            return False
        self.fired = True
        return True

    def tear_point(self, total: int) -> int:
        """How much of a torn victim survives (a strict prefix of ``total``)."""
        if self.torn_keep is not None:
            return max(0, min(self.torn_keep, total - 1))
        if total <= 1:
            return 0
        return self._rng.randint(0, total - 1)


# -- the active plan ----------------------------------------------------------

_active: Optional[FaultPlan] = None


def active_plan() -> Optional[FaultPlan]:
    """The currently injected plan (None outside :func:`inject`)."""
    return _active


@contextmanager
def inject(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Make ``plan`` the active fault for the duration of the block."""
    global _active
    previous = _active
    _active = plan
    try:
        yield plan
    finally:
        _active = previous


def crash_point(stage: str) -> None:
    """Die here if the active plan targets this stage and the hit is due.

    Instrumented stages cost one attribute load + comparison when no plan
    is active, so they stay in the production data path permanently.
    """
    plan = _active
    if plan is not None and plan._arrived(stage):
        raise ClientCrash(stage)


def torn_op_count(total_ops: int) -> Optional[int]:
    """OSD hook: ops of this transaction to apply before tearing it.

    Returns ``None`` (apply everything, the normal case) unless the
    active plan is an armed ``torn-osd-write`` whose hit is due; then the
    returned strict prefix is applied and the OSD raises
    :class:`ClientCrash` — the client dies with the torn object state.
    """
    plan = _active
    if plan is None or not plan._arrived(STAGE_TORN_OSD_WRITE):
        return None
    return plan.tear_point(total_ops)


def osd_kill_due(stage: str, victim: int) -> bool:
    """Instrumented kill point: is the armed OSD fault due here?

    Returns True exactly once, on the firing arrival; the caller then
    marks ``victim`` down on its cluster.  ``victim`` is recorded on the
    plan so harnesses can report which daemon died.
    """
    plan = _active
    if plan is None or not plan._arrived(stage):
        return False
    plan.victim = victim
    return True


def torn_tail_bytes(frame_size: int) -> Optional[int]:
    """Write-log hook: bytes of this record frame that reach the media.

    Returns ``None`` normally; for an armed ``torn-log-tail`` hit it
    returns a strict prefix of the frame — the append then persists only
    that prefix and raises :class:`ClientCrash`, leaving a torn tail for
    recovery to discard.
    """
    plan = _active
    if plan is None or not plan._arrived(STAGE_TORN_LOG_TAIL):
        return None
    return plan.tear_point(frame_size)

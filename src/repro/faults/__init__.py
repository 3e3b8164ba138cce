"""Fault injection and crash-recovery equivalence checking.

This package turns durability from an assumption into a tested property:

* :mod:`repro.faults.plan` — a :class:`FaultPlan` arms one named fault
  (kill the client at a pipeline stage, tear a transaction at the OSD,
  tear the tail of the client-side write log, kill an OSD daemon) and the
  data path calls :func:`crash_point` or :func:`osd_kill_due` at the
  instrumented stages;
* :mod:`repro.faults.checker` — the crash-recovery equivalence checker:
  after any crash + replay, the recovered image must be bit-identical to
  some *prefix-consistent* history of the acked writes.

The injected crash is a :class:`ClientCrash`, which deliberately derives
from :class:`BaseException` so no library-level ``except Exception``
handler can accidentally "survive" a crash that a real process would not.
"""

from .plan import (ALL_STAGES, CRASH_STAGES, ClientCrash, EC_KILL_STAGES,
                   FaultPlan, LOG_FAULTS, OSD_FAULTS, OSD_KILL_STAGES,
                   REPLICATED_KILL_STAGES,
                   STAGE_KILL_DURING_BACKFILL, STAGE_KILL_EC_SHARD_MID_TXN,
                   STAGE_KILL_PRIMARY_MID_TXN,
                   STAGE_KILL_REPLICA_MID_TXN, STAGE_MID_COPYUP,
                   STAGE_MID_DRAIN, STAGE_MID_LUKS_HEADER_UPDATE,
                   STAGE_POST_ACK_PRE_DRAIN, STAGE_PRE_LOG_APPEND,
                   STAGE_TORN_LOG_TAIL, STAGE_TORN_OSD_WRITE,
                   active_plan, crash_point, inject, osd_kill_due,
                   torn_op_count, torn_tail_bytes)
from .checker import (AckedWrite, EquivalenceReport, apply_history,
                      check_crash_equivalence)

__all__ = [
    "ALL_STAGES", "CRASH_STAGES", "LOG_FAULTS", "OSD_FAULTS",
    "OSD_KILL_STAGES", "REPLICATED_KILL_STAGES", "EC_KILL_STAGES",
    "STAGE_PRE_LOG_APPEND", "STAGE_POST_ACK_PRE_DRAIN", "STAGE_MID_DRAIN",
    "STAGE_MID_COPYUP", "STAGE_MID_LUKS_HEADER_UPDATE",
    "STAGE_TORN_OSD_WRITE", "STAGE_TORN_LOG_TAIL",
    "STAGE_KILL_PRIMARY_MID_TXN", "STAGE_KILL_REPLICA_MID_TXN",
    "STAGE_KILL_DURING_BACKFILL", "STAGE_KILL_EC_SHARD_MID_TXN",
    "ClientCrash", "FaultPlan", "active_plan", "crash_point", "inject",
    "osd_kill_due", "torn_op_count", "torn_tail_bytes",
    "AckedWrite", "EquivalenceReport", "apply_history",
    "check_crash_equivalence",
]

"""Persistent write log (pwl): the crash-safe client-side write cache.

libRBD's production replacement for the volatile ObjectCacher acks
writes after a *local persistent log append* and drains them to the
cluster in order.  This package reproduces that shape:

* :mod:`repro.pwl.log` — the log itself: framed records on a
  :class:`PwlMedia` that survives client crashes, with checkpoint +
  torn-tail-tolerant replay built on the kvstore WAL framing;
* :mod:`repro.pwl.image` — :class:`PwlImage`, the ``ImageWrapper``
  selected by cache mode ``"pwl"``: ack at the append,
  watermark-triggered in-order drain, read overlay of pending records,
  and :meth:`PwlImage.recover` for the post-crash replay.

Every stage is instrumented with the :mod:`repro.faults` crash points,
so the CI crash matrix can kill the client anywhere and check
prefix-consistent recovery.
"""

from .image import PwlImage, PwlStats, RecoveryReport
from .log import (PersistentWriteLog, PwlMedia, PwlReplayError,
                  decode_pwl_record, encode_pwl_record)

__all__ = [
    "PwlImage", "PwlStats", "RecoveryReport",
    "PersistentWriteLog", "PwlMedia", "PwlReplayError",
    "decode_pwl_record", "encode_pwl_record",
]

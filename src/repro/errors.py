"""Exception hierarchy shared by every subsystem in the reproduction.

All errors raised by the library derive from :class:`ReproError` so that a
caller embedding the library can catch a single base class.  Subsystems
define narrower classes below; they never raise bare ``ValueError`` or
``RuntimeError`` for conditions a caller could reasonably want to handle.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` library."""


class CryptoError(ReproError):
    """Base class for cryptographic failures."""


class KeySizeError(CryptoError):
    """A cipher was given a key of unsupported length."""


class IVSizeError(CryptoError):
    """An IV/tweak of the wrong length was supplied."""


class DataSizeError(CryptoError):
    """Plaintext/ciphertext length is invalid for the selected mode."""


class IntegrityError(ReproError):
    """Stored data failed an integrity (MAC / AEAD) check on read."""


class AuthenticationError(CryptoError, IntegrityError):
    """A MAC or AEAD tag failed verification."""


class StorageError(ReproError):
    """Base class for the simulated storage stack."""


class DeviceError(StorageError):
    """Errors from the simulated block device layer."""


class OutOfRangeError(DeviceError):
    """An IO touched sectors outside of the device/image."""


class KVStoreError(StorageError):
    """Errors from the embedded LSM key-value store."""

class KVClosedError(KVStoreError):
    """The key-value store was used after :meth:`close`."""


class RadosError(StorageError):
    """Errors from the simulated RADOS cluster."""


class ObjectNotFoundError(RadosError):
    """The requested RADOS object does not exist."""


class PoolNotFoundError(RadosError):
    """The requested pool does not exist."""


class OsdDownError(RadosError):
    """An operation was dispatched to an OSD that is not serving.

    Internal to the RADOS layer: the client's retry/failover logic catches
    it, recomputes the acting set and retries — callers above the client
    only ever see :class:`DegradedClusterError` once no replica remains.
    """


class DegradedClusterError(RadosError):
    """No acting replica can serve the operation (the EIO of the stack).

    Raised by :class:`~repro.rados.client.IoCtx` after retry, backoff and
    replica failover are exhausted: every replica of the object is down,
    out or still recovering.
    """


class SnapshotError(RadosError):
    """Snapshot creation/removal/rollback failed."""


class TransactionError(RadosError):
    """An atomic RADOS transaction could not be applied."""


class RbdError(StorageError):
    """Errors from the virtual-disk (RBD image) layer."""


class ImageExistsError(RbdError):
    """Attempt to create an image that already exists."""


class ImageNotFoundError(RbdError):
    """Attempt to open an image that does not exist."""


class CloneError(RbdError):
    """A clone operation (clone/flatten/chain walk) is invalid."""


class EncryptionFormatError(ReproError):
    """An encryption format header is malformed or unsupported."""


class PassphraseError(EncryptionFormatError):
    """No key slot could be unlocked with the supplied passphrase."""


class WorkloadError(ReproError):
    """A workload specification is invalid."""


class ConfigurationError(ReproError):
    """A simulation or cluster configuration value is invalid."""

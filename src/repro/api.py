"""High-level convenience API tying the whole stack together.

These helpers exist so that examples, tests and the benchmark harness can
set up "a 3-node cluster with an encrypted 64 MiB image using the
object-end layout" in two lines.  Everything they do is also possible (and
documented) through the underlying packages.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

from typing import List, Sequence

from .cache import wrap_image
from .cache.config import CacheConfig
from .cache.image import CachedImage
from .clone import chain as _clone_chain
from .crypto.drbg import HmacDrbg, RandomSource
from .crypto.suite import DEFAULT_SUITE
from .encryption.format import (EncryptedImageInfo, EncryptionOptions,
                                format_encryption, load_encryption)
from .engine.pipeline import EngineConfig, IoPipeline
from .rados.cluster import Cluster, ClusterConfig
from .rbd.image import DEFAULT_OBJECT_SIZE, Image, create_image, open_image
from .rbd.wrapper import ImageLike
from .sim.costparams import CostParameters, default_cost_parameters
from .util import parse_size


def _as_cache_config(cache: Union[None, str, CacheConfig]) -> Optional[CacheConfig]:
    """Normalize a cache argument: None, a mode string, or a full config."""
    if cache is None or isinstance(cache, CacheConfig):
        return cache
    return CacheConfig(mode=cache)


def make_cluster(osd_count: int = 3, replica_count: int = 3,
                 params: Optional[CostParameters] = None,
                 config: Optional[ClusterConfig] = None) -> Cluster:
    """Create a simulated cluster (defaults match the paper's testbed)."""
    if config is None:
        config = ClusterConfig(osd_count=osd_count, replica_count=replica_count)
    return Cluster(config=config, params=params or default_cost_parameters())


def _as_bytes(size: Union[int, str]) -> int:
    return parse_size(size) if isinstance(size, str) else int(size)


def create_encrypted_image(cluster: Cluster, name: str, size: Union[int, str],
                           passphrase: bytes,
                           encryption_format: str = "object-end",
                           codec: str = "xts",
                           cipher_suite: Optional[str] = None,
                           iv_policy: Optional[str] = None,
                           object_size: Union[int, str] = DEFAULT_OBJECT_SIZE,
                           pool: str = "rbd",
                           random_seed: Optional[bytes] = None,
                           journaled: bool = False,
                           cache: Union[None, str, CacheConfig] = None,
                           ) -> Tuple[ImageLike, EncryptedImageInfo]:
    """Create an image, format it for encryption and return it unlocked.

    ``encryption_format`` selects the per-sector metadata layout
    (``luks-baseline``, ``unaligned``, ``object-end`` or ``omap``).
    ``cache`` optionally enables the client-side block cache: pass a mode
    string (``"writeback"`` / ``"writethrough"``) or a full
    :class:`~repro.cache.CacheConfig`; the returned image is then a
    :class:`~repro.cache.CachedImage` (``"pwl"``: a :class:`~repro.pwl.PwlImage`)
    behind the same :class:`~repro.rbd.wrapper.ImageLike` surface.
    """
    ioctx = cluster.client().open_ioctx(pool)
    create_image(ioctx, name, _as_bytes(size), _as_bytes(object_size))
    image = open_image(ioctx, name)
    rng: Optional[RandomSource] = HmacDrbg(random_seed) if random_seed else None
    options = EncryptionOptions(layout=encryption_format, codec=codec,
                                cipher_suite=cipher_suite or DEFAULT_SUITE,
                                iv_policy=iv_policy, journaled=journaled,
                                random_source=rng)
    info = format_encryption(image, passphrase, options)
    return wrap_image(image, _as_cache_config(cache)), info


def open_encrypted_image(cluster: Cluster, name: str, passphrase: bytes,
                         pool: str = "rbd",
                         journaled: bool = False,
                         cache: Union[None, str, CacheConfig] = None,
                         ) -> Tuple[ImageLike, EncryptedImageInfo]:
    """Open and unlock an existing encrypted image (optionally cached)."""
    ioctx = cluster.client().open_ioctx(pool)
    image = open_image(ioctx, name)
    info = load_encryption(image, passphrase, journaled=journaled)
    return wrap_image(image, _as_cache_config(cache)), info


def clone_encrypted_image(cluster: Cluster, parent_name: str, snap_name: str,
                          clone_name: str, passphrase: bytes,
                          parent_passphrase: Union[bytes, Sequence[bytes]],
                          encryption_format: Optional[str] = None,
                          codec: Optional[str] = None,
                          cipher_suite: Optional[str] = None,
                          random_seed: Optional[bytes] = None,
                          pool: str = "rbd",
                          cache: Union[None, str, CacheConfig] = None,
                          ) -> Tuple[ImageLike, EncryptedImageInfo]:
    """Clone ``parent@snap`` into a COW child with its *own* passphrase.

    The child carries an independent LUKS header and volume key: reads of
    unwritten ranges descend the parent chain (decrypting each layer with
    its own key), first writes copy the backing object up re-encrypted
    under the child's key, and neither layer's key decrypts the other
    layer's writes (:mod:`repro.attacks.clone_key_isolation`).  Format
    parameters default to the parent layer's; the parent snapshot is
    protected automatically.  ``parent_passphrase`` may be a list (nearest
    ancestor first) for chains of independently keyed layers.  The image
    returned is a :class:`~repro.clone.LayeredImage`; ``cache`` wraps it in
    a client-side block cache, exactly as in :func:`create_encrypted_image`.
    """
    image, info = _clone_chain.clone_encrypted_image(
        cluster, parent_name, snap_name, clone_name, passphrase,
        parent_passphrase, encryption_format=encryption_format, codec=codec,
        cipher_suite=cipher_suite, random_seed=random_seed, pool=pool)
    return wrap_image(image, _as_cache_config(cache)), info


def open_layered_image(cluster: Cluster, name: str,
                       passphrases: Union[None, bytes, Sequence[bytes]] = None,
                       pool: str = "rbd",
                       cache: Union[None, str, CacheConfig] = None,
                       ) -> Tuple[ImageLike, List[Optional[EncryptedImageInfo]]]:
    """Open an image with its whole clone chain unlocked layer by layer.

    ``passphrases`` is one secret per layer, the child's first (a single
    ``bytes`` applies to every encrypted layer); the returned info list is
    per layer, child first, with ``None`` for plaintext layers.  The image
    is a :class:`~repro.clone.LayeredImage`, wrapped when ``cache`` is set.
    """
    image, infos = _clone_chain.open_layered_image(cluster, name, passphrases,
                                                   pool=pool)
    return wrap_image(image, _as_cache_config(cache)), infos


def create_plain_image(cluster: Cluster, name: str, size: Union[int, str],
                       object_size: Union[int, str] = DEFAULT_OBJECT_SIZE,
                       pool: str = "rbd") -> Image:
    """Create and open an unencrypted image (for comparisons and tests)."""
    ioctx = cluster.client().open_ioctx(pool)
    create_image(ioctx, name, _as_bytes(size), _as_bytes(object_size))
    return open_image(ioctx, name)


def make_pipeline(image: ImageLike, queue_depth: int = 16,
                  batch_size: Optional[int] = None,
                  cache: Union[None, str, CacheConfig] = None) -> IoPipeline:
    """Wrap an image in the batched I/O engine (:mod:`repro.engine`).

    Up to ``queue_depth`` requests coalesce into one RADOS transaction per
    object; ``batch_size`` optionally caps the blocks one object may
    accumulate per window.  ``cache`` slots the client-side block cache
    (:class:`~repro.cache.CachedImage`) between the pipeline and the
    image: a mode string or a :class:`~repro.cache.CacheConfig` (an image
    that is already cached is used as-is).  Collect per-window cost
    receipts with ``pipeline.poll()`` (or ``drain()`` at the end);
    unpolled completions are bounded by merging the oldest into aggregate
    records.
    """
    from .pwl.image import PwlImage
    cache_config = _as_cache_config(cache)
    if cache_config is not None and not isinstance(image, (CachedImage, PwlImage)):
        image = wrap_image(image, cache_config)
    return IoPipeline(image, EngineConfig(queue_depth=queue_depth,
                                          batch_size=batch_size))

"""Client-side block cache: writeback/writethrough caching with readahead.

The paper's cost model makes every miss to the cluster expensive — a round
trip, a replicated transaction, and the chosen layout's per-sector
metadata accesses.  This package is the reproduction of the client cache
libRBD ships for exactly that reason: :class:`CachedImage` wraps an image
behind the same declared surface (:class:`~repro.rbd.wrapper.ImageLike`)
and absorbs IO at encryption-block granularity before it reaches the
batched engine's transaction path.

Contracts (see :mod:`repro.cache.image` for the details):

* **Determinism** — given the same request stream and configuration, the
  cache makes the same hit/miss/eviction/writeback decisions; cached
  benchmark baselines (``BENCH_cache.json``) are exactly reproducible.
* **Buffer ownership** — written data is *copied* into cache blocks at
  admission; unlike the engine's zero-copy queue, callers may reuse their
  buffers immediately.  The don't-mutate-until-flush AIO contract applies
  below the cache, where writeback hands cache-owned buffers to
  :meth:`~repro.rbd.image.Image.write_extents`.
* **Flush ordering** — ``flush()`` is a barrier: all dirty blocks are
  written back (first-dirtied order, coalesced into one transaction per
  object) and the inner image is flushed before it returns; snapshot
  creation and resize take the same barrier first, and evicting a dirty
  block always writes its contiguous dirty run back before dropping it.
* **Equivalence** — with the cache off nothing changes (the wrapper is
  simply absent); writethrough keeps the RADOS write stream bit-identical
  to the uncached path; writeback is plaintext-equivalent always and
  ciphertext-identical for single-object streams in which no block is
  written twice (``tests/cache/test_cache_equivalence.py``).
"""

from typing import Optional

from .config import CACHE_MODES, CACHE_POLICIES, CacheConfig, CacheStats
from .image import CachedImage
from .policy import ArcPolicy, EvictionPolicy, LruPolicy, make_policy
from .readahead import SequentialDetector
from ..rbd.wrapper import ImageLike


def wrap_image(image: ImageLike, config: Optional[CacheConfig]) -> ImageLike:
    """Wrap ``image`` in the front-end the cache mode selects.

    ``None`` returns the image unwrapped; mode ``"pwl"`` selects the
    crash-safe persistent write log (:class:`repro.pwl.PwlImage`); the
    block-cache modes select :class:`CachedImage`.  This is the single
    dispatch point the API helpers and the workload runner share.
    """
    if config is None:
        return image
    if config.mode == "pwl":
        from ..pwl.image import PwlImage   # lazy: pwl imports cache.config
        return PwlImage(image, config)
    return CachedImage(image, config)


__all__ = [
    "CACHE_MODES", "CACHE_POLICIES", "CacheConfig", "CacheStats",
    "CachedImage", "ArcPolicy", "EvictionPolicy", "LruPolicy", "make_policy",
    "SequentialDetector", "wrap_image",
]

"""Layered clone subsystem: COW image clones with per-layer encryption keys.

The production shape of the paper's design — one encrypted golden image,
thousands of copy-on-write children — reproduced on top of the existing
snapshot machinery:

* :mod:`repro.clone.chain` — protect/clone/open/flatten chain management,
  per-layer LUKS unlock (each layer owns its own volume key), and the
  golden-image fan-out builder the benchmarks use.
* :mod:`repro.clone.layered` — :class:`LayeredImage`, the ``ImageWrapper``
  front-end whose reads descend the parent chain via ``snap_set_read``
  and whose writes perform librbd-style atomic copyup.

See ``docs/ARCHITECTURE.md`` ("Cloned images") and
``examples/clone_golden_image.py``.
"""

from .chain import (build_layers, clone_encrypted_image, clone_fanout,
                    clone_image, flatten_image, open_layered_image)
from .layered import CloneLayer, LayeredImage

__all__ = [
    "CloneLayer", "LayeredImage", "build_layers", "clone_encrypted_image",
    "clone_fanout", "clone_image", "flatten_image", "open_layered_image",
]

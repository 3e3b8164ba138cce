"""Write buffers are measured in bytes, not items.

A bytes-like object whose item size is not 1 (``array('I')``, a
``memoryview`` cast to ``'H'``) has ``len()`` equal to a half or a
quarter of the bytes it holds.  Every write entry point must bound-check,
stripe and account with the byte length: before the fix a 8192-byte
buffer written 4096 bytes before the image end passed the bounds check as
a 4096-byte write and grew the last object past the image end.

The front-ends stacked on the image stage their batch the same way
(``ImageWrapper._staged``): a buffer that does not fit is refused *before*
it is cached, logged or acknowledged.  Before that, a writeback cache and
a pwl acked the write and then failed every flush, drain and recovery for
ever (a later acked write never reached the cluster), and a clone child
landed 2048 of an in-bounds buffer's 8192 bytes without an error.
"""

import array
import sys
from pathlib import Path

import pytest

from repro import api
from repro.cache.image import CachedImage
from repro.errors import RbdError
from repro.pwl.image import PwlImage
from repro.util import MIB, as_readonly_view

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))

from image_transcript import below_caches, build_stacking      # noqa: E402

IMAGE_SIZE = 4 * MIB
OBJECT_SIZE = 1 * MIB
PATTERN = bytes(range(256)) * 32            # 8192 bytes


def _plain():
    cluster = api.make_cluster()
    return api.create_plain_image(cluster, "img", IMAGE_SIZE,
                                  object_size=OBJECT_SIZE)


def _encrypted():
    cluster = api.make_cluster()
    image, _info = api.create_encrypted_image(
        cluster, "img", IMAGE_SIZE, passphrase=b"pw",
        cipher_suite="blake2-xts-sim", random_seed=b"seed",
        object_size=OBJECT_SIZE)
    return image


def _scalar(image, offset, data):
    return image.write(offset, data).bytes_moved


def _vectored(image, offset, data):
    return image.write_extents([(offset, data)]).bytes_moved


def _pipeline(image, offset, data):
    pipeline = api.make_pipeline(image, queue_depth=4)
    pipeline.write(offset, data)
    pipeline.flush()
    return sum(c.receipt.bytes_moved for c in pipeline.drain())


def _stacked(stacking):
    """A front-end stacking from the transcript tool (its own, smaller
    geometry; clones sit at depth 2)."""
    return lambda: build_stacking(api.make_cluster(), stacking)[0]


IMAGES = {"plain": _plain, "encrypted": _encrypted,
          **{kind: _stacked(kind) for kind in (
              "writethrough", "writeback", "pwl", "clone",
              "writeback-over-clone", "pwl-over-clone")}}
WRITERS = {"scalar": _scalar, "vectored": _vectored, "pipeline": _pipeline}
BUFFERS = {
    "memoryview-H": lambda raw: memoryview(bytearray(raw)).cast("H"),
    "memoryview-I": lambda raw: memoryview(bytearray(raw)).cast("I"),
    "array-H": lambda raw: array.array("H", raw),
    "array-I": lambda raw: array.array("I", raw),
}


@pytest.mark.parametrize("buffer", sorted(BUFFERS))
@pytest.mark.parametrize("writer", sorted(WRITERS))
@pytest.mark.parametrize("image_kind", sorted(IMAGES))
class TestWideItemBuffers:
    def test_round_trip_and_bytes_moved(self, image_kind, writer, buffer):
        """The whole buffer lands, across an object boundary, and the
        receipt accounts for at least every byte of it."""
        image = IMAGES[image_kind]()
        offset = image.object_size - 4096   # straddles objects 0 and 1
        moved = WRITERS[writer](image, offset, BUFFERS[buffer](PATTERN))
        assert image.read(offset, len(PATTERN)) == PATTERN
        assert image.read(offset + len(PATTERN), 512) == bytes(512)
        assert moved >= len(PATTERN)
        if image_kind == "plain" and writer != "pipeline":
            assert moved == len(PATTERN)
        image.flush()
        assert below_caches(image).read(offset, len(PATTERN)) == PATTERN

    def test_write_past_image_end_is_refused(self, image_kind, writer, buffer):
        """8192 bytes do not fit 4096 bytes before the end, however few
        items the buffer reports — and under a front-end the refusal comes
        before any state change: nothing is dirty or logged, the barrier
        still works, and a write acked afterwards is durable (under a pwl:
        through a crash and the log replay)."""
        image = IMAGES[image_kind]()
        before = image.read(image.size - 4096, 4096)
        log_bytes = image.log.bytes_used if isinstance(image, PwlImage) else 0
        with pytest.raises(RbdError):
            WRITERS[writer](image, image.size - 4096, BUFFERS[buffer](PATTERN))
        assert image.read(image.size - 4096, 4096) == before
        if image_kind == "plain":
            # Nothing was written beyond the image end.
            ioctx = image.ioctx
            assert all(ioctx.stat(name) <= OBJECT_SIZE
                       for name in ioctx.list_objects("rbd_data."))
        if isinstance(image, PwlImage):
            assert image.pending_records == 0
            assert image.log.bytes_used == log_bytes
        if isinstance(image, CachedImage):
            assert image.dirty_blocks == 0
        image.flush()
        image.write(4096, PATTERN[:4096])
        stored = below_caches(image)
        if isinstance(image, PwlImage):
            assert image.pending_records == 1       # acked, not yet drained
            _recovered, report = PwlImage.recover(stored, image.media)
            assert report.replayed_records == 1
        else:
            image.flush()
        assert stored.read(4096, 4096) == PATTERN[:4096]


class TestAsReadonlyView:
    def test_length_is_bytes(self):
        for make in BUFFERS.values():
            view = as_readonly_view(make(PATTERN))
            assert len(view) == len(PATTERN) and view.format == "B"
            assert view.readonly and bytes(view) == PATTERN

    def test_bytes_pass_through_without_a_copy(self):
        view = as_readonly_view(PATTERN)
        assert view.obj is PATTERN and view.readonly

    def test_non_contiguous_view_is_refused(self):
        with pytest.raises(RbdError):
            as_readonly_view(memoryview(PATTERN)[::2])

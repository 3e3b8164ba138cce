"""The zero-copy write path: views flow from the pipeline to the codec.

Queued writes are held as read-only memoryviews (no eager copy at
``IoPipeline.write``), per-object striping slices views of views, and the
crypto dispatcher encrypts fully-covered blocks straight out of the
caller's buffer.  These tests pin the user-visible consequences: read-only
buffers are accepted end to end, the data committed is the buffer's
content at flush time (standard AIO semantics), and the batched path stays
plaintext-equivalent to writing plain ``bytes``.
"""

import pytest

from repro import api
from repro.engine import EngineConfig, IoPipeline
from repro.util import MIB, as_readonly_view, chunked_views


def make_pipeline(queue_depth=4, layout="object-end"):
    cluster = api.make_cluster(osd_count=1, replica_count=1)
    image, _info = api.create_encrypted_image(
        cluster, "zc", 8 * MIB, passphrase=b"zc",
        encryption_format=layout, cipher_suite="blake2-xts-sim")
    return IoPipeline(image, EngineConfig(queue_depth=queue_depth))


class TestPipelineBufferHandling:
    def test_read_only_memoryview_accepted(self):
        pipeline = make_pipeline()
        payload = bytes(range(256)) * 32  # two 4 KiB blocks
        view = memoryview(payload).toreadonly()
        pipeline.write(0, view)
        pipeline.flush()
        assert pipeline.read(0, len(payload)) == payload

    def test_bytearray_contents_committed_at_flush_time(self):
        # AIO semantics: the pipeline defers the copy, so the bytes that
        # commit are the buffer's contents when the window flushes.
        pipeline = make_pipeline(queue_depth=8)
        buffer = bytearray(b"\xaa" * 4096)
        pipeline.write(0, buffer)
        buffer[:4] = b"\xbb\xbb\xbb\xbb"
        pipeline.flush()
        assert pipeline.read(0, 4) == b"\xbb\xbb\xbb\xbb"

    def test_no_copy_before_flush(self):
        pipeline = make_pipeline(queue_depth=8)
        payload = bytearray(4096)
        pipeline.write(0, payload)
        queued = pipeline._pending[0][1]
        assert isinstance(queued, memoryview)
        assert queued.readonly
        assert queued.obj is payload

    def test_views_equivalent_to_bytes(self):
        via_bytes = make_pipeline()
        via_views = make_pipeline()
        payload = bytes(range(256)) * 64
        for offset in (0, 4096, 10000):
            via_bytes.write(offset, payload)
            via_views.write(offset, memoryview(payload))
        via_bytes.flush()
        via_views.flush()
        for offset in (0, 4096, 10000):
            assert via_bytes.read(offset, len(payload)) == \
                via_views.read(offset, len(payload))

    def test_unaligned_view_write_roundtrip(self):
        # Partial blocks exercise the scratch-assembly path next to the
        # fully-covered view path within one batch.
        pipeline = make_pipeline(queue_depth=8)
        payload = bytes(range(256)) * 20  # 5120 bytes
        pipeline.write(100, memoryview(payload))
        pipeline.flush()
        assert pipeline.read(100, len(payload)) == payload
        assert pipeline.read(0, 100) == bytes(100)


class TestViewHelpers:
    def test_as_readonly_view(self):
        writable = bytearray(b"abc")
        view = as_readonly_view(writable)
        assert view.readonly
        with pytest.raises(TypeError):
            view[0] = 0
        already = memoryview(b"abc")
        assert as_readonly_view(already).readonly

    def test_chunked_views_do_not_copy(self):
        data = bytearray(range(64))
        chunks = list(chunked_views(data, 16))
        assert [len(c) for c in chunks] == [16, 16, 16, 16]
        data[0] = 255
        assert chunks[0][0] == 255  # views see the mutation: no copy

    def test_chunked_views_last_chunk_short(self):
        chunks = list(chunked_views(b"x" * 20, 16))
        assert [len(c) for c in chunks] == [16, 4]

    def test_chunked_views_rejects_bad_size(self):
        with pytest.raises(ValueError):
            list(chunked_views(b"x", 0))

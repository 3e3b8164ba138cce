"""Per-layer encryption keys, key isolation, and the clone scenario's
integration with the cache, the batched engine and both sim modes."""

import pytest

from repro import api
from repro.attacks import compare_clone_layers, key_isolation_report
from repro.cache import CacheConfig, CachedImage
from repro.clone import open_layered_image
from repro.errors import CloneError, PassphraseError
from repro.workload.runner import WorkloadRunner
from repro.workload.spec import WorkloadSpec
from repro.util import KIB, MIB

BLOCK = 4096


@pytest.fixture
def cluster():
    return api.make_cluster(osd_count=1, replica_count=1)


def _parent_and_clone(cluster, layout="object-end", codec="xts"):
    parent, parent_info = api.create_encrypted_image(
        cluster, "golden", 4 * MIB, b"parent-pw", encryption_format=layout,
        codec=codec, cipher_suite="blake2-xts-sim", object_size=1 * MIB,
        random_seed=b"parent-seed")
    parent.write(0, b"P" * BLOCK)
    parent.create_snapshot("s")
    child, child_info = api.clone_encrypted_image(
        cluster, "golden", "s", "child", passphrase=b"child-pw",
        parent_passphrase=b"parent-pw", random_seed=b"child-seed")
    return parent, parent_info, child, child_info


class TestPerLayerKeys:
    def test_child_has_independent_header_and_key(self, cluster):
        _parent, parent_info, _child, child_info = _parent_and_clone(cluster)
        assert parent_info.header is not child_info.header
        assert (parent_info.header.key_slots[0].wrapped_key
                != child_info.header.key_slots[0].wrapped_key)

    def test_wrong_layer_passphrase_rejected(self, cluster):
        _parent_and_clone(cluster)
        with pytest.raises(PassphraseError):
            open_layered_image(cluster, "child", [b"child-pw", b"WRONG"])
        with pytest.raises(PassphraseError):
            open_layered_image(cluster, "child", [b"WRONG", b"parent-pw"])
        with pytest.raises(CloneError):
            open_layered_image(cluster, "child", None)

    def test_chain_format_inheritance(self, cluster):
        parent, parent_info, _child, child_info = _parent_and_clone(
            cluster, layout="omap")
        assert child_info.layout == parent_info.layout == "omap"
        assert child_info.cipher_suite == parent_info.cipher_suite

    @pytest.mark.parametrize("layout", ["object-end", "unaligned", "omap"])
    def test_key_isolation_both_directions(self, cluster, layout):
        """Acceptance: neither layer's key decrypts the other layer's
        stored blocks, on every metadata layout."""
        parent, parent_info, child, child_info = _parent_and_clone(
            cluster, layout=layout)
        child.write(2 * MIB, b"C" * BLOCK)      # child-keyed, no copyup
        child.flush()
        report = key_isolation_report(
            cluster, parent, parent_info, child.image, child_info,
            parent_lba=0, child_lba=(2 * MIB) // BLOCK,
            parent_plaintext=b"P" * BLOCK, child_plaintext=b"C" * BLOCK)
        assert report.parent_block_with_parent_key.matches_expected
        assert report.child_block_with_child_key.matches_expected
        assert not report.parent_block_with_child_key.leaked
        assert not report.child_block_with_parent_key.leaked
        assert report.isolated
        assert "ISOLATED" in report.render()

    def test_copied_up_block_is_rekeyed(self, cluster):
        """A copyup re-encrypts parent plaintext under the child's key:
        the child's stored block decrypts only with the child's key."""
        parent, parent_info, child, child_info = _parent_and_clone(cluster)
        child.write(8, b"!")                     # copyup of object 0
        expected = bytearray(b"P" * BLOCK)
        expected[8:9] = b"!"
        report = key_isolation_report(
            cluster, parent, parent_info, child.image, child_info,
            parent_lba=0, child_lba=0,
            parent_plaintext=b"P" * BLOCK, child_plaintext=bytes(expected))
        assert report.isolated

    def test_authenticated_codec_rejects_foreign_key(self, cluster):
        """With an AEAD codec the cross-key decryption fails loudly."""
        parent, parent_info, child, child_info = _parent_and_clone(
            cluster, codec="gcm")
        child.write(0, b"!")                 # copyup of object 0
        expected = bytearray(b"P" * BLOCK)
        expected[0:1] = b"!"
        report = key_isolation_report(
            cluster, parent, parent_info, child.image, child_info,
            parent_lba=0, child_lba=0,
            parent_plaintext=b"P" * BLOCK, child_plaintext=bytes(expected))
        assert report.isolated
        assert report.parent_block_with_child_key.error is not None
        assert report.child_block_with_parent_key.error is not None


class TestChainLeakage:
    def test_copyup_hides_update_pattern_across_layers(self, cluster):
        """Chain extension of the snapshot-leak attack: comparing a
        copied-up object's ciphertext against the parent layer reveals
        nothing — every block differs, modified or not."""
        parent, parent_info, child, child_info = _parent_and_clone(cluster)
        child.write(100, b"only-this-block-changed")
        comparison = compare_clone_layers(
            cluster, parent, parent_info, child.image, child_info,
            first_lba=0, block_count=256)           # object 0 (1 MiB)
        assert comparison.identical_blocks == []
        assert len(comparison.differing_blocks) == 256
        assert not comparison.reveals_update_pattern

    def test_uncopied_objects_not_compared(self, cluster):
        parent, parent_info, child, child_info = _parent_and_clone(cluster)
        comparison = compare_clone_layers(
            cluster, parent, parent_info, child.image, child_info,
            first_lba=0, block_count=16)
        assert comparison.identical_blocks == []
        assert comparison.differing_blocks == []


class TestCloneIntegration:
    def test_cached_clone_flush_barriers(self, cluster):
        """CachedImage over LayeredImage: reads/writes work, and
        protect/flatten flush first so no acknowledged write is lost."""
        parent, _ = api.create_encrypted_image(
            cluster, "golden", 2 * MIB, b"parent-pw",
            cipher_suite="blake2-xts-sim", object_size=1 * MIB,
            random_seed=b"p")
        parent.write(0, b"G" * BLOCK)
        parent.create_snapshot("s")
        child, _ = api.clone_encrypted_image(
            cluster, "golden", "s", "child", passphrase=b"child-pw",
            parent_passphrase=b"parent-pw", random_seed=b"c",
            cache="writeback")
        assert isinstance(child, CachedImage)
        assert child.read(0, BLOCK) == b"G" * BLOCK     # via chain, cached
        child.write(0, b"c" * 100)                      # dirty in cache
        receipt = child.flatten()                       # must flush first
        assert receipt.latency_us > 0
        assert child.dirty_blocks == 0
        alone, _ = api.open_encrypted_image(cluster, "child", b"child-pw")
        assert alone.read(0, 100) == b"c" * 100
        assert alone.read(100, BLOCK - 100) == b"G" * (BLOCK - 100)

    def test_cached_clone_protect_flushes(self, cluster):
        parent, _ = api.create_encrypted_image(
            cluster, "golden", 2 * MIB, b"parent-pw",
            cipher_suite="blake2-xts-sim", object_size=1 * MIB,
            random_seed=b"p")
        cached = CachedImage(parent, CacheConfig(mode="writeback"))
        cached.write(0, b"pre-snap")
        cached.create_snapshot("s")          # flush barrier
        cached.protect_snapshot("s")         # flush barrier (no-op here)
        assert cached.dirty_blocks == 0
        child, _ = api.clone_encrypted_image(
            cluster, "golden", "s", "child", passphrase=b"child-pw",
            parent_passphrase=b"parent-pw", random_seed=b"c")
        assert child.read(0, 8) == b"pre-snap"

    def test_batched_engine_over_clone(self, cluster):
        """The IoPipeline drives a LayeredImage unchanged; copyups happen
        under the hood."""
        parent, _ = api.create_encrypted_image(
            cluster, "golden", 2 * MIB, b"parent-pw",
            cipher_suite="blake2-xts-sim", object_size=1 * MIB,
            random_seed=b"p")
        parent.write(0, b"B" * (64 * KIB))
        parent.create_snapshot("s")
        child, _ = api.clone_encrypted_image(
            cluster, "golden", "s", "child", passphrase=b"child-pw",
            parent_passphrase=b"parent-pw", random_seed=b"c")
        pipeline = api.make_pipeline(child, queue_depth=4)
        for i in range(8):
            pipeline.write(i * BLOCK, bytes([i + 1]) * BLOCK)
        pipeline.drain()
        assert cluster.ledger.counter("clone.copyups") >= 1
        for i in range(8):
            assert child.read(i * BLOCK, BLOCK) == bytes([i + 1]) * BLOCK
        # The copyup preserved the parent bytes the window did not touch.
        assert child.read(64 * KIB - BLOCK, BLOCK) == b"B" * BLOCK

    @pytest.mark.parametrize("sim_mode", ["analytic", "events"])
    def test_copyup_cost_attribution(self, sim_mode):
        """Copyup = parent read + child transaction in both sim modes: a
        write-heavy clone run records parent reads, copyups and a larger
        elapsed time than the same run on a flattened control."""
        from repro.sim.costparams import default_cost_parameters

        params = default_cost_parameters().with_overrides(sim_mode=sim_mode)
        cluster = api.make_cluster(params=params)
        parent, _ = api.create_encrypted_image(
            cluster, "golden", 2 * MIB, b"parent-pw",
            cipher_suite="blake2-xts-sim", object_size=256 * KIB,
            random_seed=b"p")
        from repro.workload.runner import prefill_image
        prefill_image(parent)
        parent.create_snapshot("s")
        clone, _ = api.clone_encrypted_image(
            cluster, "golden", "s", "clone", passphrase=b"pw-c",
            parent_passphrase=b"parent-pw", random_seed=b"c")
        control, _ = api.clone_encrypted_image(
            cluster, "golden", "s", "control", passphrase=b"pw-f",
            parent_passphrase=b"parent-pw", random_seed=b"f")
        control.flatten()

        spec = WorkloadSpec(name="copyup", rw="randwrite", io_size=4 * KIB,
                            queue_depth=4, io_count=32, seed=3,
                            parent_image="golden")
        runner = WorkloadRunner(cluster)
        before = cluster.ledger.counter("clone.copyups")
        clone_result = runner.run(clone, spec)
        copyups = cluster.ledger.counter("clone.copyups") - before
        control_result = runner.run(control, spec)
        assert copyups > 0
        assert clone_result.counter("clone.copyups") == copyups
        assert clone_result.counter("clone.parent_reads") >= copyups
        # The copyup tax must be visible as lower simulated bandwidth.
        assert (clone_result.bandwidth_mbps
                < control_result.bandwidth_mbps)

    def test_cluster_runner_fanout(self, cluster):
        """Per-client clones of one golden image through
        ``WorkloadRunner.run_streams`` (the boot-storm harness)."""
        from repro.clone import clone_fanout
        from repro.workload.runner import prefill_image

        parent, _ = api.create_encrypted_image(
            cluster, "golden", 2 * MIB, b"parent-pw",
            cipher_suite="blake2-xts-sim", object_size=512 * KIB,
            random_seed=b"p")
        prefill_image(parent)
        parent.create_snapshot("base")
        parent.protect_snapshot("base")
        clones = clone_fanout(cluster, "golden", "base", count=3,
                              passphrase_for=lambda i, d: f"pw{i}.{d}".encode(),
                              parent_passphrase=b"parent-pw")
        assert len(clones) == 3
        assert all(c.clone_depth == 1 for c in clones)
        spec = WorkloadSpec(name="storm", rw="randread", io_size=4 * KIB,
                            queue_depth=4, io_count=24, seed=9, num_clients=3,
                            parent_image="golden")
        result = WorkloadRunner(cluster).run_streams(
            clones, spec, layout_name="object-end")
        assert result.counter("clone.parent_reads") > 0
        assert result.bandwidth_mbps > 0
        assert "clone-of=golden" in spec.describe()

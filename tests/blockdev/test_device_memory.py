"""The memory contract of the extent-mapped device.

Resident memory follows the bytes written (not the span they are spread
over), and dropping a cluster gives its data back to the operating system
at once — the property that makes ``peak_rss_mib`` in ``perf/`` a number
about the program instead of about the allocator's free lists.
"""

import gc
import os
import resource

import pytest

from repro import api
from repro.blockdev.device import SimulatedDisk
from repro.util import GIB, MIB

pytestmark = pytest.mark.skipif(not os.path.exists("/proc/self/statm"),
                                reason="needs /proc/self/statm")


def rss_bytes() -> int:
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * resource.getpagesize()


def test_dropping_a_cluster_returns_its_data_to_the_os():
    cluster = api.make_cluster()                    # 3 OSDs, 3 replicas
    image = api.create_plain_image(cluster, "img", 32 * MIB)
    chunk = bytes(range(256)) * 4096                # 1 MiB
    for index in range(32):
        image.write(index * MIB, chunk)
    # three replicas of the data (+ a few sectors of image header)
    assert sum(osd.used_bytes() for osd in cluster.osds) >= 3 * 32 * MIB
    before = rss_bytes()
    del image, cluster
    gc.collect()
    assert before - rss_bytes() >= 24 * MIB


def test_resident_memory_follows_bytes_written_not_the_span():
    disk = SimulatedDisk("sparse", 64 * GIB)
    sector = bytes(range(256)) * (disk.sector_size // 256)
    disk.write(63 * GIB + 8 * MIB, sector)          # one-time allocations
    before = rss_bytes()
    for index in range(64):
        disk.write(index * GIB, sector)
    assert rss_bytes() - before < 2 * MIB
    assert disk.used_bytes() == 65 * disk.sector_size
    assert disk.read(17 * GIB, disk.sector_size).data == sector
    assert disk.read(17 * GIB + disk.sector_size, 64).data == bytes(64)

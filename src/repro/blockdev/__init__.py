"""Simulated sector-granular block devices (the NVMe drives behind each OSD).

The devices store real bytes (so the whole stack round-trips data
faithfully) and account every access in the cost ledger: number of device
operations, sectors transferred, unaligned accesses and the resulting
read-modify-write turns — the quantities the paper's §3.3 analysis is built
on.
"""

from .device import DeviceStats, SimulatedDisk

__all__ = ["SimulatedDisk", "DeviceStats"]

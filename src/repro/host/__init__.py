"""Host-system model: device driver, descriptor rings, main memory.

The paper models the host abstractly (Section 5: "The host model
emulates the real device driver"), and deliberately does not model the
I/O interconnect's bandwidth, only the latency NIC-initiated DMAs
experience.  This package follows the same contract.
"""

from repro.host.descriptors import DescriptorRing
from repro.host.driver import DriverModel, DriverStats
from repro.host.memory import HostMemoryLayout
from repro.host.rss import (
    HostQueueModel,
    HostRing,
    RssSpec,
    ToeplitzHash,
    flow_key_bytes,
    toeplitz_key,
)

__all__ = [
    "DescriptorRing",
    "DriverModel",
    "DriverStats",
    "HostMemoryLayout",
    "HostQueueModel",
    "HostRing",
    "RssSpec",
    "ToeplitzHash",
    "flow_key_bytes",
    "toeplitz_key",
]

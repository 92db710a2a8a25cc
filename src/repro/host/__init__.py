"""Host-system model: device driver, descriptor rings, main memory.

The paper models the host abstractly (Section 5: "The host model
emulates the real device driver"), and deliberately does not model the
I/O interconnect's bandwidth, only the latency NIC-initiated DMAs
experience.  This package follows the same contract.
"""

from repro._lazy import lazy_exports
from repro.host.descriptors import DescriptorRing
from repro.host.driver import DriverModel, DriverStats
from repro.host.memory import HostMemoryLayout

# The multi-queue (RSS) host loads when a run asks for it.
__getattr__, __dir__ = lazy_exports(__name__, {
    "HostQueueModel": "repro.host.rss",
    "HostRing": "repro.host.rss",
    "RssSpec": "repro.host.rss",
    "ToeplitzHash": "repro.host.rss",
    "flow_key_bytes": "repro.host.rss",
    "toeplitz_key": "repro.host.rss",
})

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

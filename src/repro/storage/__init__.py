"""Secondary-storage model: page layout, disk timing, disk array.

Reimplements the simulated disk array of the paper's section 4.2: 16 ms per
page read, 37.5 ms for a data page including its exact-geometry cluster,
modulo placement of pages onto disks, FCFS queueing per disk.
"""

from .disk import DEFAULT_DISK, DiskParams
from .diskarray import DiskArray
from .page import DEFAULT_STORAGE, PageKind, StorageParams

__all__ = [
    "PageKind",
    "StorageParams",
    "DEFAULT_STORAGE",
    "DiskParams",
    "DEFAULT_DISK",
    "DiskArray",
]

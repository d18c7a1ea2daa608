"""Page layout constants of the paper's R*-trees (section 4.1).

The trees use a page size of 4 KB; a directory entry occupies 40 bytes
(MBR plus child pointer) and a data entry 156 bytes (MBR plus a pointer to
the exact object representation).  That yields capacities of 102 directory
entries and 26 data entries per page — the fan-outs that give the paper's
Table 1 tree shapes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = [
    "PageKind",
    "StorageParams",
    "DEFAULT_STORAGE",
]


class PageKind(enum.Enum):
    """What a page holds; data pages drag their geometry cluster along."""

    DIRECTORY = "directory"
    DATA = "data"


@dataclass(frozen=True)
class StorageParams:
    """Sizes that determine R*-tree fan-out and I/O cost."""

    page_size: int = 4096
    dir_entry_bytes: int = 40
    data_entry_bytes: int = 156

    @property
    def dir_capacity(self) -> int:
        """Maximum entries in a directory page (102 for the paper's sizes)."""
        return self.page_size // self.dir_entry_bytes

    @property
    def data_capacity(self) -> int:
        """Maximum entries in a data page (26 for the paper's sizes)."""
        return self.page_size // self.data_entry_bytes


#: The parameters of the paper's evaluation (section 4.1).
DEFAULT_STORAGE = StorageParams()

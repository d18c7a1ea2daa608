"""The two evaluation maps and their R*-trees (paper sections 4.1 / Table 1).

:func:`paper_maps` generates stand-ins for the two TIGER county maps —
131,443 street and 127,312 boundary/river/railway objects at full scale,
each map one columnar :class:`BoxTable` — over one shared :class:`Region`.
Each generator reads its own seeded word stream in blocks and computes a
block's floats at once (:mod:`.words`).  The maps are independent seeded
tasks, and so are the head and the tail of map 1's stream once the tail
has passed the head with the cursor alone (:func:`.streets.street_part`):
a forked helper (:class:`_Helper`) generates map 2 and the head while the
caller generates the tail, the paper's lesson — an idle processor takes
the next task — applied to set-up.  :func:`build_tree` packs a
map's table into an R*-tree whose occupancy matches the paper's
dynamically built trees (the STR ``fill``/``dir_fill`` values below
reproduce Table 1's page counts and height 3 at full scale).
"""

from __future__ import annotations

import mmap
import multiprocessing

import numpy as np

from ..geometry.rect import Rect
from ..geometry.table import COLUMNS, BoxTable
from ..recovery.procs import PipedWorkers, fork_available
from ..rtree.bulk import str_bulk_load
from ..rtree.rstar import RStarTree
from .boundaries import generate_boundaries
from .region import Region, SpatialObject
from .streets import generate_streets, street_part

__all__ = ["MapData", "paper_maps", "build_tree", "MAP1_COUNT", "MAP2_COUNT"]

#: Object counts of the paper's maps (section 4.1).
MAP1_COUNT = 131443
MAP2_COUNT = 127312

#: STR occupancy reproducing the paper's dynamically-built tree shapes
#: (about 72 % leaf fill; directory levels pack a little denser so the
#: full-scale trees have height 3 like Table 1).
LEAF_FILL = 0.731
DIR_FILL = 0.80


class MapData:
    """One generated map: a name, its region, the boxes as one
    :class:`BoxTable` (row *i* is object *i*) and, when the generator kept
    them, the exact point chains in row order.  The table is the map: the
    object views below are built from it per call and never kept."""

    def __init__(self, name: str, region: Region, table: BoxTable, chains=None):
        self.name, self.region = name, region
        self._table, self._chains = table, chains

    def table(self) -> BoxTable:
        """*The* table of the map — the same one to every builder."""
        return self._table

    def items(self) -> list[tuple[int, Rect]]:
        """``(oid, mbr)`` pairs, for oracles and examples (a fresh list)."""
        return self._table.items()

    @property
    def objects(self) -> list[SpatialObject]:
        """One :class:`SpatialObject` a row (a fresh list)."""
        chains = self._chains or [None] * len(self)
        return [
            SpatialObject(oid, mbr, points)
            for (oid, mbr), points in zip(self.items(), chains)
        ]

    def __len__(self) -> int:
        return len(self._table)

    def __repr__(self) -> str:
        return f"<MapData {self.name!r} {len(self)} objects>"


def paper_maps(
    scale: float = 1.0,
    seed: int = 42,
    include_geometry: bool = False,
) -> tuple[MapData, MapData]:
    """Generate map 1 (streets) and map 2 (boundaries/rivers/railways).

    ``scale`` multiplies the object counts; the region area scales along,
    keeping density — and with it the join selectivity per object —
    constant.  Deterministic per ``(scale, seed)``.
    """
    region = Region(scale=scale, seed=seed)
    count1 = max(1, round(MAP1_COUNT * scale))
    count2 = max(1, round(MAP2_COUNT * scale))
    streets = (region, count1, seed + 1, include_geometry)
    features = (region, count2, seed + 2, include_geometry)
    # Map 2 and the head of map 1 in a forked helper, the tail of map 1 —
    # the longest part — here; who runs a generator changes no draw.
    helper = _Helper(streets, features)
    columns = helper.columns
    try:
        if columns is None:
            map1 = generate_streets(*streets)
        else:
            _, tail = street_part(*streets, columns[0], head=False)
        reply = helper.result()
    finally:
        helper.close()
    if reply is None:  # no helper, or it died or raised: its share is done here
        map2 = generate_boundaries(*features)
        if columns is not None:
            _, head = street_part(*streets, columns[0], head=True)
    else:
        map2, head = reply
    if columns is not None:
        map1 = BoxTable(np.arange(count1), *columns[0]), head + tail if include_geometry else None
    return (
        MapData("map 1 (streets)", region, *map1),
        MapData("map 2 (boundaries, rivers, railways)", region, *map2),
    )


def _helper_work(columns, args, _task):
    """Worker body: generate map 2 and the head of map 1, leave their
    columns in *columns*, answer with their chains."""
    streets, features = args
    table, chains = generate_boundaries(*features)
    for column, name in zip(columns[1], COLUMNS):
        column[:] = getattr(table, name)
    _, head = street_part(*streets, columns[0], head=True)
    return chains, head


class _Helper:
    """``generate_boundaries(*features)`` and the head of
    ``generate_streets(*streets)`` (:func:`.streets.street_part`) in one
    forked worker of the one process substrate: a one-worker, one-task
    :class:`PipedWorkers`, this object its sink.  The worker inherits the
    arguments at fork, and with them a block of anonymous shared memory
    for both maps' four columns; only the point chains (None without
    geometry) are pickled onto the pipe.  The columns re-enter through the
    validating :class:`BoxTable` constructor, which takes them as its
    storage without a copy — a 5 MB message received and freed this early
    would cost every later tree build resident memory (DESIGN.md section
    5, "Set-up on both cores").

    :attr:`columns` is None when no helper could be had (no ``fork``
    start method, a daemonic caller — which may have no children — or the
    fork failed): the caller generates both maps itself.  :meth:`result`
    is None whenever the caller has to generate map 2 and the head itself:
    no helper, the helper died, or a generator raised there (it will raise
    here, where it can be read)."""

    def __init__(self, streets, features):
        self._workers = None
        self._held = False
        self._reply = None  # (ok, value) once the worker answered or died
        self.columns = None
        if not fork_available() or multiprocessing.current_process().daemon:
            return
        count1, count2 = streets[1], features[1]
        block = np.frombuffer(mmap.mmap(-1, 4 * 8 * (count1 + count2)), dtype=np.float64)
        columns = block[: 4 * count1].reshape(4, count1), block[4 * count1 :].reshape(4, count2)
        self._workers = PipedWorkers(1, _helper_work, (columns, (streets, features)), self)
        try:
            self._workers.start()
        except OSError:
            self.close()
            return
        self.columns = columns
        self._workers.submit("map 2 and the head of map 1")
        # A worker is handed work once it has said *ready*: hear that now,
        # or the helper would idle for as long as the caller is busy.
        while not self._held and self._reply is None:
            self._workers.wait(1.0)

    def result(self):
        """Block until the helper answered or died; ``((table, chains),
        head chains)`` of map 2 and map 1's head, or None."""
        if self._workers is None:
            return None
        while self._reply is None:
            self._workers.wait(1.0)
        ok, value = self._reply
        if not ok:
            return None
        chains, head = value
        map2 = self.columns[1]
        return (BoxTable(np.arange(map2.shape[1]), *map2), chains), head

    def close(self) -> None:
        """Reap the helper (killing it if it still runs) and close its pipe."""
        if self._workers is not None:
            self._workers.close()
            self._workers = None

    # -- the substrate's sink --------------------------------------------------
    def handoff(self, task, pid):
        self._held = True
        return task

    def done(self, task, ok: bool, value) -> None:
        self._reply = (ok, value)

    def died(self, task, pid, exitcode, killed, replacement_pid) -> None:
        self._reply = (False, None)  # idle or not: wait for no replacement


def build_tree(map_data: MapData, *, fill: float = LEAF_FILL, dir_fill: float = DIR_FILL) -> RStarTree:
    """Pack a map into an R*-tree with paper-like occupancy."""
    return str_bulk_load(map_data.table(), fill=fill, dir_fill=dir_fill)

"""The two evaluation maps and their R*-trees (paper sections 4.1 / Table 1).

:func:`paper_maps` generates stand-ins for the two TIGER county maps —
131,443 street and 127,312 boundary/river/railway objects at full scale,
each map one columnar :class:`BoxTable` — over one shared :class:`Region`.
The maps are two independent seeded tasks, so map 2 is generated in a
forked helper (:class:`_Map2Helper`) while the caller generates map 1: the
paper's lesson — an idle processor takes the next task — applied to
set-up.  :func:`build_tree` packs a map's table into an R*-tree whose
occupancy matches the paper's dynamically built trees (the STR
``fill``/``dir_fill`` values below reproduce Table 1's page counts and
height 3 at full scale).
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
from .streets import generate_streets

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
    # Map 2 in a forked helper, map 1 — the longer task — here; who runs a
    # generator changes no draw.
    map2 = (region, count2, seed + 2, include_geometry)
    helper = _Map2Helper(*map2)
    try:
        streets = generate_streets(region, count1, seed + 1, include_geometry)
        features = helper.result()
    finally:
        helper.close()
    if features is None:
        features = generate_boundaries(*map2)
    return (
        MapData("map 1 (streets)", region, *streets),
        MapData("map 2 (boundaries, rivers, railways)", region, *features),
    )


def _boundaries_into(columns, args, _task):
    """Worker body: generate map 2, leave its four columns in *columns*,
    answer with the chains."""
    table, chains = generate_boundaries(*args)
    for column, name in zip(columns, COLUMNS):
        column[:] = getattr(table, name)
    return chains


class _Map2Helper:
    """``generate_boundaries(*args)`` in one forked worker of the one
    process substrate: a one-worker, one-task :class:`PipedWorkers`, this
    object its sink.  The worker inherits *args* at fork, and with them a
    block of anonymous shared memory for the four columns; only the point
    chains (None without geometry) are pickled onto the pipe.  The block
    re-enters through the validating :class:`BoxTable` constructor, which
    takes it as its storage without a copy — a 5 MB message received and
    freed this early would cost every later tree build resident memory
    (DESIGN.md section 5, "Set-up on both cores").

    :meth:`result` is None whenever the caller has to do the work itself:
    no helper could be had (no ``fork`` start method, a daemonic caller —
    which may have no children — or the fork failed), the helper died, or
    the generator raised there (it will raise here, where it can be read)."""

    def __init__(self, region, count, seed, include_geometry):
        self._workers = None
        self._held = False
        self._reply = None  # (ok, value) once the worker answered or died
        if not fork_available() or multiprocessing.current_process().daemon:
            return
        block = mmap.mmap(-1, 4 * 8 * count)
        self._columns = np.frombuffer(block, dtype=np.float64).reshape(4, count)
        self._workers = PipedWorkers(
            1,
            _boundaries_into,
            (self._columns, (region, count, seed, include_geometry)),
            self,
        )
        try:
            self._workers.start()
        except OSError:
            self.close()
            return
        self._workers.submit("map 2")
        # A worker is handed work once it has said *ready*: hear that now,
        # or the helper would idle for as long as the caller is busy.
        while not self._held and self._reply is None:
            self._workers.wait(1.0)

    def result(self):
        """Block until the helper answered or died; ``(table, chains)``,
        or None."""
        if self._workers is None:
            return None
        while self._reply is None:
            self._workers.wait(1.0)
        ok, chains = self._reply
        if not ok:
            return None
        return BoxTable(np.arange(self._columns.shape[1]), *self._columns), chains

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

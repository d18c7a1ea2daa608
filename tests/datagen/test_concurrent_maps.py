"""``paper_maps`` generates map 2 and the head of map 1 in a forked helper:
the data set is the in-process one to the byte, the helper's death or
absence costs nothing but time, and nothing of the helper outlives the
call."""

import asyncio
import multiprocessing
import os
import signal
import warnings

import numpy as np
import pytest

import repro.datagen.maps as maps_module
from repro.datagen import Region, generate_streets, paper_maps
from repro.datagen.streets import street_part
from repro.recovery.procs import PipedWorkers

from .test_datagen import GOLDEN, table_digest

POINTS = sorted(GOLDEN)

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs os.fork"
)


@pytest.fixture
def generated_here(monkeypatch):
    """The pids that ran ``generate_boundaries`` — as far as this process
    can see: a forked helper's append happens in the helper's copy, so the
    list stays empty exactly when the helper did the work."""
    pids = []
    real = maps_module.generate_boundaries

    def recording(*args):
        pids.append(os.getpid())
        return real(*args)

    monkeypatch.setattr(maps_module, "generate_boundaries", recording)
    return pids


def take_fork_away(monkeypatch):
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])


def assert_same_maps(ours, theirs):
    for mine, other in zip(ours, theirs):
        a, b = mine.table(), other.table()
        for name in ("xl", "yl", "xu", "yu"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
        assert a.oids.dtype == b.oids.dtype and a.oids.tolist() == b.oids.tolist()
        assert [o.points for o in mine.objects] == [o.points for o in other.objects]


@pytest.mark.parametrize("count", [0, 1, 2, 5, 3000])
def test_the_head_and_the_tail_are_the_streets(count):
    """Split where either side of the fork would: the two parts write the
    rows and chains of the whole, and agree on where they meet."""
    region = Region(scale=0.02, seed=11)
    table, chains = generate_streets(region, count, 12, True)
    columns = np.full((4, count), np.nan)
    split, head = street_part(region, count, 12, True, columns, head=True)
    assert np.isnan(columns[:, split:]).all()
    assert street_part(region, count, 12, True, columns, head=False) == (split, chains[split:])
    assert head == chains[:split]
    whole = np.stack([table.xl, table.yl, table.xu, table.yu])
    assert columns.tobytes() == whole.tobytes()


@needs_fork
class TestParity:
    @pytest.mark.parametrize("include_geometry", [False, True])
    @pytest.mark.parametrize("scale, seed", POINTS)
    def test_forked_equals_in_process(
        self, scale, seed, include_geometry, generated_here, monkeypatch
    ):
        forked = paper_maps(scale, seed, include_geometry)
        assert generated_here == []  # the helper made map 2
        take_fork_away(monkeypatch)
        in_process = paper_maps(scale, seed, include_geometry)
        assert generated_here == [os.getpid()]
        assert_same_maps(forked, in_process)
        assert (forked[1].objects[0].points is not None) == include_geometry

    def test_the_helpers_table_came_through_the_constructor(self, generated_here):
        table = paper_maps(0.02, 42)[1].table()
        assert generated_here == []
        for name in ("oids", "xl", "yl", "xu", "yu"):
            assert not getattr(table, name).flags.writeable, name


@needs_fork
class TestHelperDeath:
    def dying_in_the_helper(self, monkeypatch, die):
        parent, real = os.getpid(), maps_module.generate_boundaries
        ran_here = []

        def generate(*args):
            if os.getpid() != parent:
                die()
            ran_here.append(args)
            return real(*args)

        monkeypatch.setattr(maps_module, "generate_boundaries", generate)
        return ran_here

    @pytest.mark.parametrize("scale, seed", POINTS)
    def test_killed_mid_task_the_caller_generates_map_2(
        self, scale, seed, monkeypatch
    ):
        ran_here = self.dying_in_the_helper(
            monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL)
        )
        maps = paper_maps(scale, seed)
        assert len(ran_here) == 1
        assert tuple(table_digest(m.table()) for m in maps) == GOLDEN[scale, seed]
        assert multiprocessing.active_children() == []

    def test_an_exception_in_the_helper_is_raised_by_the_caller(self, monkeypatch):
        parent = os.getpid()

        def generate(*args):
            raise RuntimeError(f"from {'caller' if os.getpid() == parent else 'helper'}")

        monkeypatch.setattr(maps_module, "generate_boundaries", generate)
        with pytest.raises(RuntimeError, match="from caller"):
            paper_maps(0.02, 42)
        assert multiprocessing.active_children() == []

    def test_a_failing_street_generator_leaves_no_helper_behind(self, monkeypatch):
        def generate(*args, **kwargs):
            raise RuntimeError("map 1 failed")

        monkeypatch.setattr(maps_module, "generate_streets", generate)
        monkeypatch.setattr(maps_module, "street_part", generate)
        with pytest.raises(RuntimeError, match="map 1 failed"):
            paper_maps(0.02, 42)
        assert multiprocessing.active_children() == []

    def test_a_fork_that_fails_is_a_helper_that_cannot_be_had(
        self, monkeypatch, generated_here
    ):
        def start(self):
            raise OSError("fork: resource temporarily unavailable")

        monkeypatch.setattr(PipedWorkers, "start", start)
        maps = paper_maps(0.02, 42)
        assert generated_here == [os.getpid()]
        assert tuple(table_digest(m.table()) for m in maps) == GOLDEN[0.02, 42]


def _digests_in_a_daemonic_worker(task):
    """Runs inside a ``PipedWorkers`` worker, which is daemonic and so may
    have no children."""
    assert multiprocessing.current_process().daemon
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        maps = paper_maps(*task)
    return [table_digest(m.table()) for m in maps]


class _Collect:
    def __init__(self):
        self.replies = []

    def handoff(self, task, pid):
        return task

    def done(self, task, ok, value):
        self.replies.append((ok, value))

    def died(self, task, pid, exitcode, killed, replacement_pid):
        self.replies.append((False, f"worker died with {exitcode}"))


class TestNoHelperToBeHad:
    def test_no_fork_context(self, monkeypatch, generated_here):
        take_fork_away(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            maps = paper_maps(0.02, 42)
        assert generated_here == [os.getpid()]
        assert tuple(table_digest(m.table()) for m in maps) == GOLDEN[0.02, 42]

    @needs_fork
    def test_daemonic_caller(self):
        sink = _Collect()
        workers = PipedWorkers(1, _digests_in_a_daemonic_worker, (), sink)
        workers.start()
        try:
            workers.submit((0.02, 42))
            while not sink.replies:
                workers.wait(5.0)
        finally:
            workers.close()
        assert sink.replies == [(True, list(GOLDEN[0.02, 42]))]


@needs_fork
class TestNothingOutlivesTheCall:
    def open_fds(self):
        return sorted(os.listdir("/proc/self/fd"))

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
    @pytest.mark.parametrize("include_geometry", [False, True])
    def test_no_child_and_no_pipe_left(self, include_geometry, generated_here):
        paper_maps(0.02, 42)  # whatever the first fork opens for good is open
        before = self.open_fds()
        paper_maps(0.02, 42, include_geometry)
        assert generated_here == []
        assert multiprocessing.active_children() == []
        assert self.open_fds() == before

    def test_inside_a_running_event_loop(self, generated_here):
        """What ``perf/serving.py::_Targets.setup`` does."""

        async def set_up():
            loop = asyncio.get_running_loop()
            ticks = []
            loop.call_soon(ticks.append, "the loop still runs")
            maps = paper_maps(0.02, 42)
            await asyncio.sleep(0)
            return maps, ticks

        maps, ticks = asyncio.run(set_up())
        assert generated_here == [] and ticks == ["the loop still runs"]
        assert tuple(table_digest(m.table()) for m in maps) == GOLDEN[0.02, 42]
        assert multiprocessing.active_children() == []

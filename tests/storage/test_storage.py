"""Unit tests for page layout, disk timing, disk array and clusters."""

import pytest

from repro.sim import Environment, Metrics
from repro.storage import (
    DEFAULT_DISK,
    DEFAULT_STORAGE,
    DiskArray,
    DiskParams,
    PageKind,
    StorageParams,
)


class TestStorageParams:
    def test_paper_capacities(self):
        # Section 4.1: 4 KB pages, 40 B directory entries, 156 B data entries.
        assert DEFAULT_STORAGE.page_size == 4096
        assert DEFAULT_STORAGE.dir_capacity == 102
        assert DEFAULT_STORAGE.data_capacity == 26

    def test_custom_params(self):
        params = StorageParams(page_size=1024, dir_entry_bytes=40, data_entry_bytes=156)
        assert params.dir_capacity == 25
        assert params.data_capacity == 6


class TestDiskParams:
    def test_paper_page_read_time(self):
        # 9 ms seek + 6 ms latency + 1 ms transfer = 16 ms.
        assert DEFAULT_DISK.page_read_time == pytest.approx(16e-3)

    def test_paper_data_page_read_time(self):
        # Including the 26 KB cluster: 37.5 ms (section 4.2).
        assert DEFAULT_DISK.data_page_read_time == pytest.approx(37.5e-3)

    def test_service_time_by_kind(self):
        assert DEFAULT_DISK.service_time(PageKind.DIRECTORY) == pytest.approx(16e-3)
        assert DEFAULT_DISK.service_time(PageKind.DATA) == pytest.approx(37.5e-3)

    def test_cluster_read_time(self):
        # 9 + 6 + ceil(26/4) * 1 = 21.5 ms.
        assert DEFAULT_DISK.cluster_read_time == pytest.approx(21.5e-3)


class TestDiskArray:
    def test_modulo_placement(self):
        env = Environment()
        array = DiskArray(env, num_disks=8)
        assert array.disk_of(0) == 0
        assert array.disk_of(7) == 7
        assert array.disk_of(8) == 0
        assert array.disk_of(13) == 5

    def test_at_least_one_disk(self):
        with pytest.raises(ValueError):
            DiskArray(Environment(), num_disks=0)

    def test_single_read_timing(self):
        env = Environment()
        array = DiskArray(env, num_disks=1)

        def proc():
            yield env.process(array.read(0, PageKind.DIRECTORY))

        env.process(proc())
        assert env.run() == pytest.approx(16e-3)

    def test_reads_on_same_disk_serialise(self):
        env = Environment()
        array = DiskArray(env, num_disks=4)

        def proc(page):
            yield env.process(array.read(page, PageKind.DIRECTORY))

        # Pages 0 and 4 share disk 0.
        env.process(proc(0))
        env.process(proc(4))
        assert env.run() == pytest.approx(32e-3)

    def test_reads_on_distinct_disks_overlap(self):
        env = Environment()
        array = DiskArray(env, num_disks=4)

        def proc(page):
            yield env.process(array.read(page, PageKind.DIRECTORY))

        env.process(proc(0))
        env.process(proc(1))
        assert env.run() == pytest.approx(16e-3)

    def test_metrics_counting(self):
        env = Environment()
        metrics = Metrics()
        array = DiskArray(env, num_disks=2, metrics=metrics)

        def proc():
            yield env.process(array.read(0, PageKind.DIRECTORY))
            yield env.process(array.read(1, PageKind.DATA))
            yield env.process(array.read(2, PageKind.DIRECTORY))

        env.process(proc())
        env.run()
        assert metrics.disk_accesses == 3
        assert metrics.per_disk_reads[0] == 2 and metrics.per_disk_reads[1] == 1

    def test_one_disk_is_bottleneck(self):
        # The Figure 9 effect in miniature: with 1 disk, elapsed time is the
        # sum of the service times regardless of how many processors issue.
        def run(num_disks):
            env = Environment()
            array = DiskArray(env, num_disks=num_disks)

            def proc(page):
                yield env.process(array.read(page, PageKind.DIRECTORY))

            for page in range(8):
                env.process(proc(page))
            return env.run()

        assert run(1) == pytest.approx(8 * 16e-3)
        assert run(8) == pytest.approx(16e-3)

    def test_custom_disk_params(self):
        env = Environment()
        params = DiskParams(seek_time=1e-3, latency_time=1e-3, transfer_time_per_page=1e-3)
        array = DiskArray(env, num_disks=1, params=params)

        def proc():
            yield env.process(array.read(0, PageKind.DIRECTORY))

        env.process(proc())
        assert env.run() == pytest.approx(3e-3)

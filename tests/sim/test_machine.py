"""Unit tests for the KSR1 machine model (Table 2)."""

import pytest

from repro.sim import Environment, KSR1_CONFIG, Machine, MachineConfig, MemoryLevel


class TestMemoryLevel:
    def test_page_copy_time_units(self):
        level = MemoryLevel("x", 1024, 128, 32.0, 9.0)
        # 8 units of 128 B; per unit 9 us latency + 128/(32 MiB/s).
        per_unit = 9e-6 + 128 / (32 * 1024 * 1024)
        assert level.page_copy_time(1024) == pytest.approx(8 * per_unit)

    def test_partial_unit_rounds_up(self):
        level = MemoryLevel("x", 1024, 128, 32.0, 9.0)
        assert level.page_copy_time(129) == level.page_copy_time(256)


class TestKSR1Config:
    def test_table2_rows(self):
        cfg = KSR1_CONFIG
        assert cfg.cache.size_bytes == 256 * 1024
        assert cfg.cache.transfer_unit_bytes == 64
        assert cfg.cache.bandwidth_mb_per_s == 64.0
        assert cfg.main_memory.size_bytes == 32 * 1024 * 1024
        assert cfg.main_memory.transfer_unit_bytes == 128
        assert cfg.main_memory.bandwidth_mb_per_s == 40.0
        assert cfg.remote_memory.size_bytes == 768 * 1024 * 1024
        assert cfg.remote_memory.bandwidth_mb_per_s == 32.0

    def test_processors_default(self):
        assert KSR1_CONFIG.processors == 24

    def test_remote_access_slower_than_local(self):
        cfg = KSR1_CONFIG
        assert cfg.remote_page_access_time > cfg.local_page_access_time
        # The paper quotes "a factor of about 10" per access; our page-level
        # ratio reflects the latency-dominated gap (at least 2x).
        assert cfg.remote_page_access_time / cfg.local_page_access_time > 2

    def test_both_far_faster_than_disk(self):
        # A disk read is 16 ms; any memory access must be well under 1 ms.
        assert KSR1_CONFIG.remote_page_access_time < 1e-3

    def test_bus_transfer_shorter_than_full_remote_access(self):
        cfg = KSR1_CONFIG
        assert cfg.bus_transfer_time < cfg.remote_page_access_time


class TestMachine:
    def test_remote_copy_charges_time_and_counts(self):
        env = Environment()
        machine = Machine(env)

        def proc():
            yield env.process(machine.remote_copy())

        env.process(proc())
        total = env.run()
        assert total == pytest.approx(machine.config.remote_page_access_time)
        assert machine.metrics["bus_transfers"] == 1

    def test_concurrent_remote_copies_contend_on_bus(self):
        env = Environment()
        machine = Machine(env)

        def proc():
            yield env.process(machine.remote_copy())

        for _ in range(8):
            env.process(proc())
        total = env.run()
        cfg = machine.config
        # The bus serialises the raw transfers; the latency residues overlap.
        lower_bound = 8 * cfg.bus_transfer_time
        assert total >= lower_bound
        assert total < 8 * cfg.remote_page_access_time

    def test_custom_config(self):
        env = Environment()
        cfg = MachineConfig(processors=4)
        machine = Machine(env, cfg)
        assert machine.config.processors == 4

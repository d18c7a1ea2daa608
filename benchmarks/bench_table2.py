"""Table 2: memory parameters of the simulated KSR1 (paper section 4.2).

Prints the configured hierarchy (cache / own main memory / remote memory)
with the derived 4 KB page-copy times; the benchmark measures the
simulated remote-vs-local access gap the paper quotes as "a factor of
about 10".
"""

from repro.bench import heading, render_table, report, table2_rows
from repro.sim import Environment, KSR1_CONFIG, Machine


def _thousand_remote_copies():
    env = Environment()
    machine = Machine(env)

    def proc():
        for _ in range(1000):
            yield env.process(machine.remote_copy())

    env.process(proc())
    return env.run()


def bench_remote_copy_simulation(benchmark):
    simulated = benchmark.pedantic(_thousand_remote_copies, rounds=1, iterations=1)
    assert simulated > 0


def bench_table2_report(benchmark):
    rows = benchmark.pedantic(table2_rows, rounds=1, iterations=1)
    ratio = (
        KSR1_CONFIG.remote_memory.latency_us / KSR1_CONFIG.main_memory.latency_us
    )
    report(
        "table2",
        heading("Table 2 — KSR1 memory parameters (configured model)")
        + "\n"
        + render_table(
            rows,
            [
                "memory",
                "size of address space",
                "transfer unit (bytes)",
                "band width (MB/sec)",
                "latency (usec)",
                "4KB page copy (usec)",
            ],
        )
        + f"\n\nper-unit latency ratio (remote/local): {ratio:.1f} "
        + "(paper: 'a factor of about 10')",
    )
    assert ratio > 5

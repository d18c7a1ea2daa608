"""Seeded inputs: request stream, probe queries and the arrival schedule.

Everything random the benchmark feeds the program is drawn here from the
workload seed, as plain tuples — the program under test only ever sees
the generated maps, windows, points and due times.  Coordinates are
rounded to the engine's canonical nine digits at the source, so the
window the oracle checks is bit-for-bit the window the workers ran.

Request tuples::

    ("window", tree, (xl, yl, xu, yu))
    ("knn",    tree, x, y, k)
"""

from __future__ import annotations

import random

__all__ = ["RequestStream", "poisson_schedule", "probe_windows", "probe_points"]

TREES = ("map1", "map2")
DIGITS = 9


def _rng(seed: int, site: str) -> random.Random:
    # A string seed hashes through SHA-512 inside random.Random: stable
    # across processes, unlike hash(str).
    return random.Random(f"perf:{seed}:{site}")


def _window(rng: random.Random, side: float, lo: float, hi: float) -> tuple:
    extent = rng.uniform(lo, hi) * side
    x = min(rng.uniform(0.0, side), side - extent)
    y = min(rng.uniform(0.0, side), side - extent)
    return (
        round(x, DIGITS),
        round(y, DIGITS),
        round(x + extent, DIGITS),
        round(y + extent, DIGITS),
    )


#: The serving mix, fixed by the issue.
KNN_SHARE = 0.10
HOT_FRACTION = 0.25
HOT_SET_SIZE = 32
MIN_SIDE, MAX_SIDE = 0.02, 0.10


class RequestStream:
    """The serving workloads' request mix.

    90 % window queries whose side is 2–10 % of the region side, a
    quarter of them drawn from a fixed hot set of 32 windows (what the
    result cache can serve); 10 % kNN with k in 1..20.  No joins: one
    full-scale join costs about a thousand windows, so any share at all
    would turn a serving workload into the join workload.

    ``accept(tree, window)`` screens the windows: one it turns down is
    replaced by the next draw of a separate generator, so the rest of the
    stream stays where it was — two workloads with different screens see
    the same requests everywhere else.  The serving workloads turn down a
    window that finds no object in a tree it is sent to, because that
    request fails today (README, "Open defect") and the driver wants
    workloads on which no operation fails.
    """

    def __init__(self, side: float, seed: int, accept=None):
        self.side = side
        self.seed = seed
        self.accept = accept
        self.redrawn = 0
        self._redraw = _rng(seed, "redraw")
        hot_rng = _rng(seed, "hot")
        # a hot window goes to either tree
        self.hot_windows = [
            self._screened(TREES, _window(hot_rng, side, MIN_SIDE, MAX_SIDE))
            for _ in range(HOT_SET_SIZE)
        ]

    def _screened(self, trees, window: tuple) -> tuple:
        if self.accept is not None:
            while not all(self.accept(tree, window) for tree in trees):
                self.redrawn += 1
                window = _window(self._redraw, self.side, MIN_SIDE, MAX_SIDE)
        return window

    def make(self, rng: random.Random) -> tuple:
        tree = rng.choice(TREES)
        if rng.random() < KNN_SHARE:
            return (
                "knn",
                tree,
                round(rng.uniform(0.0, self.side), DIGITS),
                round(rng.uniform(0.0, self.side), DIGITS),
                rng.randint(1, 20),
            )
        if rng.random() < HOT_FRACTION:
            return ("window", tree, rng.choice(self.hot_windows))
        window = _window(rng, self.side, MIN_SIDE, MAX_SIDE)
        return ("window", tree, self._screened((tree,), window))

    def batch(self, site: str, count: int) -> list[tuple]:
        """*count* requests of *site*'s own generator: one client's, or
        the open-loop source's."""
        rng = _rng(self.seed, site)
        return [self.make(rng) for _ in range(count)]


def poisson_schedule(seed: int, site: str, rate: float, duration_s: float) -> list[float]:
    """Due times (seconds from phase start) of Poisson arrivals at *rate*
    per second over *duration_s*."""
    rng = _rng(seed, site)
    due, now = [], 0.0
    while True:
        now += rng.expovariate(rate)
        if now >= duration_s:
            return due
        due.append(now)


def probe_windows(side: float, seed: int, count: int = 800) -> list[tuple]:
    """The layer probes' windows: the serving mix's cold-window shape."""
    rng = _rng(seed, "probe-windows")
    return [_window(rng, side, MIN_SIDE, MAX_SIDE) for _ in range(count)]


def probe_points(side: float, seed: int, count: int = 800) -> list[tuple]:
    rng = _rng(seed, "probe-points")
    return [
        (round(rng.uniform(0.0, side), DIGITS), round(rng.uniform(0.0, side), DIGITS))
        for _ in range(count)
    ]

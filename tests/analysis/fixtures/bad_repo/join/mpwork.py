"""Fixture: planted fork-safety violations."""

import multiprocessing  # noqa: F401 - marks the module as fork-using

_REGISTRY = {}
_CURRENT = None


def _fork_init(key):
    global _CURRENT
    _CURRENT = key  # negative: registered initializer


def park_bad(trees):
    global _CURRENT
    _CURRENT = trees  # planted FORK001


def register_bad(key, trees):
    _REGISTRY[key] = trees  # planted FORK001 (subscript store)


def register_suppressed(key, trees):
    _REGISTRY[key] = trees  # repro: noqa[FORK001]

"""Fixture: planted pairing and async-discipline violations."""

import asyncio
import time


class Pool:
    def __init__(self, lock):
        self.lock = lock

    def latch_bad(self):
        self.lock.acquire()  # planted PAIR002
        return 1

    def latch_ok(self):
        self.lock.acquire()  # negative: released in finally
        try:
            return 1
        finally:
            self.lock.release()

    def latch_suppressed(self):
        self.lock.acquire()  # repro: noqa[PAIR002]


async def handle_bad():
    time.sleep(0.1)  # planted ASYNC001
    with open("/tmp/fixture") as fh:  # planted ASYNC001
        return fh.read()


async def handle_suppressed():
    time.sleep(0.1)  # repro: noqa[ASYNC001]


async def handle_ok():
    await asyncio.sleep(0.1)

    def blocking_helper():  # negative: nested sync def runs off-loop
        time.sleep(1)

    return blocking_helper

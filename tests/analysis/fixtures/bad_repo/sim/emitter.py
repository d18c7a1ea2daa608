"""Fixture: planted trace-discipline violations."""

from ..trace.events import EventKind


def run(tracer):
    tracer.emit(EventKind.GOOD_EVENT, proc=0)  # negative: declared and read
    tracer.emit(EventKind.SHOWN_EVENT, proc=0)  # negative: the timeline reads it
    tracer.emit(EventKind.MISSING_EVENT, proc=0)  # planted TRC001
    tracer.emit("stringly_event", proc=0)  # planted TRC001
    tracer.emit("suppressed_event", proc=0)  # repro: noqa[TRC001]
    tracer.emit(EventKind.FLT_INJECT_CRASH, call=1)  # planted TRC002
    tracer.emit(EventKind.UNREAD_EVENT, proc=0)  # planted TRC002: read by nobody
    tracer.emit(EventKind.SUP_CALL_FAILED, call=1)  # repro: noqa[TRC002]
    tracer.emit(EventKind.SUP_CALL_OK, call=1)  # negative: reconciled

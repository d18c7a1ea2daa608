"""Fixture: the event registry of the planted repo."""

import enum


class EventKind(str, enum.Enum):
    GOOD_EVENT = "good_event"
    SHOWN_EVENT = "shown_event"
    UNREAD_EVENT = "unread_event"
    FLT_INJECT_CRASH = "flt_inject_crash"
    SUP_CALL_OK = "sup_call_ok"
    SUP_CALL_FAILED = "sup_call_failed"

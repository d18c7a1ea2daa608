"""Fixture: the accounting checker only reconciles SUP_CALL_OK."""

from .events import EventKind

RECONCILED = {EventKind.GOOD_EVENT, EventKind.SUP_CALL_OK}

"""Fixture: the timeline is a reader of the trace too."""

from .events import EventKind

SHOWN = {EventKind.SHOWN_EVENT}

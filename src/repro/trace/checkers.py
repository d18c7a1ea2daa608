"""Invariant checkers over the simulation event stream.

Each checker is an event sink (so it can run online during a simulation)
that accumulates violations and renders a final :class:`Verdict`.  This
module holds only what a per-key automaton or an end-of-stream count
equation cannot say — geometry, time intervals, run-wide policy,
cross-stream reconciliation, row sums:

* :class:`StealSoundnessChecker` — every steal respects the run's
  :class:`~repro.join.reassign.ReassignLevel` (none at all with
  reassignment off), and each grant reports the pairs its victim gave up;
* :class:`BufferCoherenceChecker` — a local LRU hit names a page that was
  resident in that processor's buffer, only a resident page is evicted,
  and with the global buffer no page is resident in two local buffers;
* :class:`DiskAccountingChecker` — every disk completion matches an
  enqueue, pages land on ``page_id % num_disks``, and per-disk service
  intervals never overlap;
* :class:`ClockMonotonicityChecker` — simulated time never runs
  backwards, globally and per processor, and sequence numbers are
  strictly monotone;
* the recovery and shard accounting checkers of the forked and sharded
  tiers.

The protocols that *are* such automatons (the join's pair life cycle,
the serving ledger, lease life cycle, shard settlement, buffer
directory, worker calls and worker processes) are stated once, in
:mod:`repro.analysis.protocol.specs`, and ride in every checker set as
``protocol:<spec>`` monitors (DESIGN.md §5: invariant → its one home).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from .events import EventKind, TraceEvent

__all__ = [
    "Verdict",
    "InvariantViolation",
    "InvariantChecker",
    "StealSoundnessChecker",
    "BufferCoherenceChecker",
    "DiskAccountingChecker",
    "ClockMonotonicityChecker",
    "ShardAccountingChecker",
    "default_checkers",
    "service_checkers",
    "run_checkers",
]

#: Cap on stored violation messages per checker (counts keep accumulating).
MAX_STORED_VIOLATIONS = 25


class InvariantViolation(AssertionError):
    """Raised by :meth:`TraceHandle.verify` when any checker failed."""


@dataclass
class Verdict:
    """Outcome of one checker over one event stream."""

    checker: str
    ok: bool
    violations: list[str] = field(default_factory=list)
    violation_count: int = 0
    stats: dict[str, int] = field(default_factory=dict)

    def summary(self) -> str:
        state = "ok" if self.ok else f"{self.violation_count} violations"
        inner = ", ".join(f"{k}={v}" for k, v in self.stats.items())
        return f"{self.checker}: {state}" + (f" ({inner})" if inner else "")

    def __repr__(self) -> str:
        return f"<Verdict {self.summary()}>"


class InvariantChecker:
    """Base class: an event sink with a verdict."""

    name = "invariant"

    def __init__(self) -> None:
        self.violations: list[str] = []
        self.violation_count = 0
        self.events_seen = 0

    # -- sink protocol -------------------------------------------------------
    def handle(self, event: TraceEvent) -> None:
        self.events_seen += 1
        self.observe(event)

    def observe(self, event: TraceEvent) -> None:  # pragma: no cover
        raise NotImplementedError

    def _violate(self, message: str) -> None:
        self.violation_count += 1
        if len(self.violations) < MAX_STORED_VIOLATIONS:
            self.violations.append(message)

    # -- verdict -------------------------------------------------------------
    def finish(self) -> Verdict:
        self.at_end()
        return Verdict(
            checker=self.name,
            ok=self.violation_count == 0,
            violations=list(self.violations),
            violation_count=self.violation_count,
            stats=self.stats(),
        )

    def at_end(self) -> None:
        """Final checks once the stream is complete (override as needed)."""

    def stats(self) -> dict[str, int]:
        return {"events": self.events_seen}


class StealSoundnessChecker(InvariantChecker):
    """Steals obey the run's reassignment policy; grants count truly.

    Both rules are beyond a per-pair automaton: the policy is run-wide
    (``RUN_START`` names the level every steal is judged against), and a
    grant's ``count`` is a payload reconciled against the takes since the
    last grant of its ``(victim, thief, level)``.  That a stolen pair
    leaves its victim and reaches its thief, once, is the
    ``pair-lifecycle`` spec's statement (``protocol:pair-lifecycle``).
    """

    name = "steal-soundness"

    def __init__(self) -> None:
        super().__init__()
        self._policy_level: Optional[str] = None
        self._task_level: Optional[int] = None
        self._pending: dict[tuple[int, int, int], int] = {}
        self._steals = 0
        self._pairs_moved = 0

    def observe(self, event: TraceEvent) -> None:
        kind = event.kind
        data = event.data
        if kind is EventKind.RUN_START:
            self._policy_level = data.get("reassign_level")
            self._task_level = data.get("task_level")
        elif kind is EventKind.STEAL_TAKE:
            self._pairs_moved += 1
            key, level = (data["r"], data["s"]), data.get("level")
            if self._policy_level == "none":
                self._violate(
                    f"steal of pair {key} although reassignment is disabled"
                )
            elif self._policy_level == "root" and level != self._task_level:
                self._violate(
                    f"steal of pair {key} at level {level}, but the policy "
                    f"only allows the task level {self._task_level}"
                )
            slot = (event.proc, data.get("thief", -1), level)
            self._pending[slot] = self._pending.get(slot, 0) + 1
        elif kind is EventKind.STEAL_GRANTED:
            self._steals += 1
            victim, level = data.get("victim"), data.get("level")
            taken = self._pending.pop((victim, event.proc, level), 0)
            if taken != data.get("count"):
                self._violate(
                    f"steal grant P{victim}->P{event.proc} level {level} "
                    f"reports {data.get('count')} pairs, but {taken} were "
                    f"taken"
                )

    def stats(self) -> dict[str, int]:
        return {"steals": self._steals, "pairs_moved": self._pairs_moved}


class BufferCoherenceChecker(InvariantChecker):
    """Local LRU hits and evictions name pages resident in that buffer,
    and in a global-buffer run (``RUN_START``'s ``buffer``) a page is
    resident in at most one local buffer (paper §3.2).

    Who *owns* a page in the global directory — and so whom a remote
    fetch may copy from — is the ``buffer-directory`` spec's statement
    (``protocol:buffer-directory``); remote fetches are only counted here.
    """

    name = "buffer-coherence"

    def __init__(self) -> None:
        super().__init__()
        self._holders: dict[int, set[int]] = {}  # page -> processors
        self._global = False
        self._lru_hits = 0
        self._remote_fetches = 0

    def observe(self, event: TraceEvent) -> None:
        kind = event.kind
        data = event.data
        if kind is EventKind.RUN_START:
            self._global = data.get("buffer") == "global"
        elif kind is EventKind.BUFFER_INSERT:
            holders = self._holders.setdefault(data["page"], set())
            if self._global and len(holders) > (event.proc in holders):
                self._violate(
                    f"P{event.proc} inserted page {data['page']} while "
                    f"P{min(holders - {event.proc})} still holds it"
                )
            holders.add(event.proc)
        elif kind is EventKind.BUFFER_EVICT:
            holders = self._holders.get(data["page"], set())
            if event.proc not in holders:
                self._violate(
                    f"P{event.proc} evicted page {data['page']} "
                    f"it never held"
                )
            holders.discard(event.proc)
        elif kind is EventKind.BUFFER_HIT:
            if data.get("source") == "lru":
                self._lru_hits += 1
                if event.proc not in self._holders.get(data["page"], ()):
                    self._violate(
                        f"P{event.proc} LRU hit on page {data['page']} "
                        f"that is not resident there"
                    )
        elif kind is EventKind.REMOTE_FETCH:
            self._remote_fetches += 1

    def stats(self) -> dict[str, int]:
        return {
            "lru_hits": self._lru_hits,
            "remote_fetches": self._remote_fetches,
        }


class DiskAccountingChecker(InvariantChecker):
    """Disk requests pair up, land on the right disk, and never overlap."""

    name = "disk-accounting"

    def __init__(self) -> None:
        super().__init__()
        self._num_disks: Optional[int] = None
        self._outstanding: dict[tuple[int, int, int], int] = {}
        self._busy_until: dict[int, float] = {}
        self._reads = 0

    def observe(self, event: TraceEvent) -> None:
        kind = event.kind
        data = event.data
        if kind is EventKind.RUN_START:
            self._num_disks = data.get("disks")
        elif kind is EventKind.DISK_ENQUEUE:
            slot = (event.proc, data["page"], data["disk"])
            self._outstanding[slot] = self._outstanding.get(slot, 0) + 1
            if (
                self._num_disks is not None
                and data["disk"] != data["page"] % self._num_disks
            ):
                self._violate(
                    f"page {data['page']} enqueued on disk {data['disk']}, "
                    f"expected {data['page'] % self._num_disks}"
                )
        elif kind is EventKind.DISK_COMPLETE:
            self._reads += 1
            slot = (event.proc, data["page"], data["disk"])
            if self._outstanding.get(slot, 0) < 1:
                self._violate(
                    f"disk completion without enqueue: P{event.proc} "
                    f"page {data['page']} disk {data['disk']}"
                )
            else:
                self._outstanding[slot] -= 1
                if self._outstanding[slot] == 0:
                    del self._outstanding[slot]
            start = data.get("start", event.time)
            busy_until = self._busy_until.get(data["disk"], 0.0)
            if start < busy_until - 1e-12:
                self._violate(
                    f"disk {data['disk']} started serving page "
                    f"{data['page']} at {start:.6f} while busy until "
                    f"{busy_until:.6f}"
                )
            self._busy_until[data["disk"]] = event.time

    def at_end(self) -> None:
        for (proc, page, disk), count in self._outstanding.items():
            self._violate(
                f"{count} disk request(s) of P{proc} for page {page} on "
                f"disk {disk} never completed"
            )

    def stats(self) -> dict[str, int]:
        return {"disk_reads": self._reads}


class ClockMonotonicityChecker(InvariantChecker):
    """Time flows forward: global and per-processor, seq strictly rises."""

    name = "clock-monotonicity"

    def __init__(self) -> None:
        super().__init__()
        self._last_time = float("-inf")
        self._last_seq = -1
        self._per_proc: dict[int, float] = {}

    def observe(self, event: TraceEvent) -> None:
        if event.seq <= self._last_seq:
            self._violate(
                f"sequence number {event.seq} after {self._last_seq}"
            )
        self._last_seq = event.seq
        if event.time < self._last_time - 1e-12:
            self._violate(
                f"global clock ran backwards: {event.time:.9f} after "
                f"{self._last_time:.9f} (event #{event.seq})"
            )
        self._last_time = max(self._last_time, event.time)
        if event.proc >= 0:
            last = self._per_proc.get(event.proc, float("-inf"))
            if event.time < last - 1e-12:
                self._violate(
                    f"P{event.proc} clock ran backwards: {event.time:.9f} "
                    f"after {last:.9f} (event #{event.seq})"
                )
            self._per_proc[event.proc] = max(last, event.time)

    def stats(self) -> dict[str, int]:
        return {"processors_seen": len(self._per_proc)}


class RecoveryAccountingChecker(InvariantChecker):
    """No result row lost or double-counted, and every kill detected.

    The forked join's driver (:mod:`repro.join.mp`), the one owner of
    each chunk's lease and result, emits one ``LSE_*`` event per lease
    transition; the fault injector emits the task-kill sabotage ledger.
    The lease life cycle — per task and per lease id — is the ``lease``
    spec's statement (``protocol:lease``).  What it cannot say is
    checked here:

    * the final result size carried by ``RUN_END`` (``candidates``)
      equals the completed rows — no row lost, none counted twice;
    * every injected task kill (``FLT_INJECT_TASK_KILL``) is *detected*:
      the killed holder's leases expire (at least as many expiries on
      that proc as kills).

    On a stream without recovery events every rule is vacuous, so the
    checker rides in the default set.
    """

    name = "recovery-accounting"

    def __init__(self) -> None:
        super().__init__()
        self._lease_proc: dict = {}
        self._kills_by_proc: dict = {}
        self._expiries_by_proc: dict = {}
        self.completions = 0
        self.task_kills = 0
        self._completed_rows = 0
        self._run_end_candidates: Optional[int] = None

    def observe(self, event: TraceEvent) -> None:
        kind = event.kind
        data = event.data
        if kind is EventKind.LSE_GRANTED:
            self._lease_proc[data.get("lease")] = event.proc
        elif kind is EventKind.LSE_COMPLETED:
            self.completions += 1
            self._completed_rows += data.get("rows", 0)
        elif kind is EventKind.LSE_EXPIRED:
            proc = self._lease_proc.get(data.get("lease"), event.proc)
            self._expiries_by_proc[proc] = self._expiries_by_proc.get(proc, 0) + 1
        elif kind is EventKind.FLT_INJECT_TASK_KILL:
            self.task_kills += 1
            self._kills_by_proc[event.proc] = (
                self._kills_by_proc.get(event.proc, 0) + 1
            )
        elif kind is EventKind.RUN_END:
            if "candidates" in data:
                self._run_end_candidates = data["candidates"]

    def at_end(self) -> None:
        for proc, kills in sorted(self._kills_by_proc.items()):
            expiries = self._expiries_by_proc.get(proc, 0)
            if expiries < kills:
                self._violate(
                    f"P{proc}: {kills} injected task kill(s) but only "
                    f"{expiries} lease expiries — a kill went undetected"
                )
        if (
            self._run_end_candidates is not None
            and self.completions
            and self._completed_rows != self._run_end_candidates
        ):
            self._violate(
                f"RUN_END reports {self._run_end_candidates} result "
                f"rows but the lease completions account for "
                f"{self._completed_rows} — rows lost or double-counted"
            )

    def stats(self) -> dict[str, int]:
        # The lease counts are the ``lease`` spec's (``protocol:lease``).
        return {"completed_rows": self._completed_rows, "task_kills": self.task_kills}


class ShardAccountingChecker(InvariantChecker):
    """Routing and fan-out accounting of the sharded tier (repro.shard).

    The router announces the topology up front — one ``SHD_SHARD_UP``
    per (shard, tree) carrying the shard's stored-content bounding box —
    and every later event carries the request's geometry, so the checker
    can *recompute* each routing decision offline and compare:

    * **fan-out matches geometry** — a window request's routed shard set
      equals the shards whose content box intersects the window; a join
      request's equals the shards where both trees' content boxes
      overlap each other (and the window, if any); a kNN request's
      candidate set is every shard storing the tree, and each candidate
      is either queried or explicitly skipped;
    * **sends stay inside the routed set** — a ``SHD_SUBREQUEST_SENT``
      names a shard the request was routed to;
    * **kNN pruning is lawful** — a ``SHD_SHARD_SKIPPED`` must carry
      ``mindist`` strictly above the ``kth`` bound it was pruned
      against (an equal-distance shard could hold a tie that wins by
      oid order, so it may never be skipped);
    * **merges conserve rows** — a join merge reports zero duplicate
      pairs and exactly the sum of its parts (the reference-point rule
      makes shard contributions disjoint); window and kNN merges never
      exceed their parts (boundary replicas lawfully collapse).

    That every send settles exactly once (``DONE | FAILOVER | FAILED``
    per ``(request, shard)``) is the ``shard-settlement`` spec's statement
    (``protocol:shard-settlement``), and so are the settlement counts.
    On a stream without ``SHD_*`` events every rule is vacuous, so the
    checker rides in the default set like the other accounting checkers.
    """

    name = "shard-accounting"

    def __init__(self) -> None:
        super().__init__()
        self._content: dict = {}  # (shard, tree) -> bbox tuple or None
        self._shards_by_tree: dict = {}  # tree -> set of storing shards
        self._routed: dict = {}  # req -> (cls, frozenset of shards)
        self._touched: dict = {}  # req -> shards sent or skipped (kNN law)
        self.shards_up = 0
        self.routed = 0
        self.skips = 0
        self.merges = 0
        self.duplicates = 0

    # -- geometry (closed-interval, identical to Rect.intersects) -------------
    @staticmethod
    def _intersects(a, b) -> bool:
        return not (
            a[2] < b[0] or b[2] < a[0] or a[3] < b[1] or b[3] < a[1]
        )

    def _storing(self, tree) -> set:
        return self._shards_by_tree.get(tree, set())

    def _expected_window(self, tree, box) -> set:
        return {
            shard
            for shard in self._storing(tree)
            if self._intersects(self._content[(shard, tree)], box)
        }

    def _expected_join(self, tree_r, tree_s, box) -> set:
        expected = set()
        for shard in self._storing(tree_r) & self._storing(tree_s):
            mbr_r = self._content[(shard, tree_r)]
            mbr_s = self._content[(shard, tree_s)]
            if not self._intersects(mbr_r, mbr_s):
                continue
            if box is not None and not (
                self._intersects(mbr_r, box) and self._intersects(mbr_s, box)
            ):
                continue
            expected.add(shard)
        return expected

    # -- stream ---------------------------------------------------------------
    def observe(self, event: TraceEvent) -> None:
        kind = event.kind
        data = event.data
        if kind is EventKind.SHD_SHARD_UP:
            self.shards_up += 1
            shard, tree = data.get("shard"), data.get("tree")
            if data.get("empty"):
                self._content[(shard, tree)] = None
            else:
                self._content[(shard, tree)] = (
                    data.get("xl"), data.get("yl"),
                    data.get("xu"), data.get("yu"),
                )
                self._shards_by_tree.setdefault(tree, set()).add(shard)
        elif kind is EventKind.SHD_REQUEST_ROUTED:
            self.routed += 1
            req, cls = data.get("req"), data.get("cls")
            raw = data.get("shards", "")
            actual = frozenset(int(s) for s in raw.split(",") if s != "")
            self._routed[req] = (cls, actual)
            expected = None
            if cls == "window":
                expected = self._expected_window(
                    data.get("tree"),
                    (data.get("xl"), data.get("yl"),
                     data.get("xu"), data.get("yu")),
                )
            elif cls == "join":
                box = None
                if data.get("wxl") is not None:
                    box = (data.get("wxl"), data.get("wyl"),
                           data.get("wxu"), data.get("wyu"))
                expected = self._expected_join(
                    data.get("tree_r"), data.get("tree_s"), box
                )
            elif cls == "knn":
                # Every shard storing the tree is a candidate; pruning
                # happens per shard and is ledgered by SKIPPED events.
                expected = self._storing(data.get("tree"))
            if expected is not None and actual != expected:
                self._violate(
                    f"request {req} ({cls}) routed to shards "
                    f"{sorted(actual)} but its geometry overlaps "
                    f"{sorted(expected)}"
                )
        elif kind is EventKind.SHD_SUBREQUEST_SENT:
            req, shard = data.get("req"), data.get("shard")
            routed = self._routed.get(req)
            if routed is not None and shard not in routed[1]:
                self._violate(
                    f"request {req}: sub-request sent to shard {shard} "
                    f"outside its routed set {sorted(routed[1])}"
                )
            self._touched.setdefault(req, set()).add(shard)
        elif kind is EventKind.SHD_SHARD_SKIPPED:
            self.skips += 1
            req, shard = data.get("req"), data.get("shard")
            bound, kth = data.get("mindist"), data.get("kth")
            if bound is None or kth is None or not bound > kth:
                self._violate(
                    f"request {req} shard {shard}: skipped with mindist "
                    f"{bound} not strictly above the k-th bound {kth} — an "
                    f"equal-distance tie could have been pruned"
                )
            self._touched.setdefault(req, set()).add(shard)
        elif kind is EventKind.SHD_MERGED:
            self.merges += 1
            req, cls = data.get("req"), data.get("cls")
            rows = data.get("rows", 0)
            parts = data.get("parts", 0)
            duplicates = data.get("duplicates", 0)
            self.duplicates += duplicates
            if cls == "join":
                if duplicates:
                    self._violate(
                        f"request {req}: join merge dropped {duplicates} "
                        f"duplicate pair(s) — reference-point elimination "
                        f"failed"
                    )
                if rows != parts:
                    self._violate(
                        f"request {req}: join merged {rows} rows from "
                        f"{parts} shard rows — rows lost or invented"
                    )
            elif rows > parts:
                self._violate(
                    f"request {req} ({cls}): merged {rows} rows out of "
                    f"only {parts} shard rows"
                )
            routed = self._routed.get(req)
            if cls == "knn" and routed is not None:
                touched = self._touched.get(req, set())
                if touched != routed[1]:
                    self._violate(
                        f"request {req} (knn): candidates "
                        f"{sorted(routed[1])} but only {sorted(touched)} "
                        f"were queried or explicitly skipped"
                    )

    def stats(self) -> dict[str, int]:
        return {
            "shards_up": self.shards_up,
            "requests_routed": self.routed,
            "knn_skips": self.skips,
            "merges": self.merges,
            "duplicates": self.duplicates,
        }


def _conformance_checkers() -> list[InvariantChecker]:
    """Spec-compiled protocol monitors (one per registered spec).

    Imported lazily: :mod:`repro.analysis.protocol` subclasses
    :class:`InvariantChecker`, so a module-level import here would be a
    cycle.  Each monitor is vacuous on streams without its protocol's
    events, so the full set rides on every run.
    """
    from ..analysis.protocol import conformance_checkers

    return conformance_checkers()


def default_checkers() -> list[InvariantChecker]:
    """One fresh instance of every standard checker."""
    return [
        StealSoundnessChecker(),
        BufferCoherenceChecker(),
        DiskAccountingChecker(),
        ClockMonotonicityChecker(),
        # Vacuous without LSE_* recovery events, so it rides on every run.
        RecoveryAccountingChecker(),
        # And vacuous without SHD_* sharded-routing events.
        ShardAccountingChecker(),
        *_conformance_checkers(),
    ]


def service_checkers() -> list[InvariantChecker]:
    """Fresh checkers for a serving-engine (wall-clock) event stream.

    Covers the sharded tier too: the ``SHD_*`` routing geometry (vacuous
    on unsharded streams) and the spec monitors — the ``SVC_*`` request /
    cache ledger, the worker-call and worker-process life cycles of the
    ``FLT_*``/``SUP_*`` ledger, and sub-request settlement among them.
    """
    return [
        ClockMonotonicityChecker(),
        ShardAccountingChecker(),
        *_conformance_checkers(),
    ]


def run_checkers(
    events: Iterable[TraceEvent],
    checkers: Optional[list[InvariantChecker]] = None,
) -> list[Verdict]:
    """Replay *events* through *checkers* (default: all standard ones)."""
    active = checkers if checkers is not None else default_checkers()
    for event in events:
        for checker in active:
            checker.handle(event)
    return [checker.finish() for checker in active]

"""The shipped protocol specs and their planted mutations.

Seven protocols, each an explicit automaton with safety properties and
trace-event bindings:

* ``lease`` — per-task grant -> heartbeat -> {complete, expire ->
  requeue}, each edge naming the task's current lease id
  (:class:`repro.recovery.lease.LeaseTable` + result ledger);
* ``shard-settlement`` — per ``(request, shard)`` settle-exactly-once
  with replica failover (:class:`repro.shard.router.ShardRouter`);
* ``buffer-directory`` — per-page register/deregister/remote-fetch
  ownership (:class:`repro.buffer.global_buffer.GlobalDirectory`);
* ``pair-lifecycle`` — per ``(r, s)`` node pair of the parallel join:
  created -> enqueued <-> stolen -> dequeued -> executed, once, by its
  owner (:class:`repro.join.reassign.Workload`);
* ``service-ledger`` — the serving tier's request / cache / batch ledger
  as counters and end equations, its two online rules on one instance
  (:class:`repro.service.frontdoor.FrontDoor`);
* ``worker-call`` — per pool call id: open -> {completed, abandoned,
  failed -> answered by a retry or give-up}, a crash victim closing only
  as ``worker-died`` or abandoned (:class:`repro.service.workers.WorkerPool`);
* ``worker-process`` — per worker pid: live -> crashed -> live on reuse.

Each mutation in :data:`MUTATIONS` plants one realistic implementation
bug into a spec (drop the requeue edge, allow a double grant, fail a
sub-request that was never sent...).  The model checker must produce a
counterexample for every one of them — that is the evidence the checker
is strong enough for the unmutated proofs to mean something.
"""

from __future__ import annotations

from ...trace.events import EventKind
from .spec import (
    CounterBinding,
    EndInvariant,
    EventBinding,
    Mutation,
    ProtocolSpec,
    SafetyProperty,
    Transition,
)

__all__ = ["SPECS", "MUTATIONS", "get_spec"]


def _inc(counter: str, amount: int = 1):
    def effect(vars, actor, data):
        vars[counter] = vars.get(counter, 0) + amount

    return effect


# ---------------------------------------------------------------------------
# lease: queued -> leased -> {done, orphaned -> queued}
# ---------------------------------------------------------------------------
# A task holds at most one lease at a time, so the per-task automaton also
# states the per-lease-id law: a grant records the id, and a renewal,
# completion or expiry must name it (a closed lease id has no edge left).
# In the model ``data`` is empty and the id check always holds.
def _grant(v, a, d):
    v["grants"] += 1
    v["lease"] = int(d.get("lease", -1))


def _current_lease(v, a, d):
    return int(d.get("lease", v["lease"])) == v["lease"]


_LEASE = ProtocolSpec(
    name="lease",
    description=(
        "Per-task lease lifecycle: grant -> heartbeat -> {complete, "
        "expire -> requeue}, every edge naming the task's current lease "
        "id; grants reconcile with completions + expirations"
    ),
    states=("queued", "leased", "orphaned", "done"),
    initial="queued",
    vars={
        "grants": 0, "completions": 0, "expirations": 0, "requeues": 0,
        "lease": -1,
    },
    actors=2,
    transitions=(
        Transition(
            "grant",
            "queued",
            "leased",
            bound=lambda v, a, d: v["grants"] < 3,
            effect=_grant,
        ),
        Transition("renew", "leased", "leased", guard=_current_lease),
        Transition(
            "complete",
            "leased",
            "done",
            guard=_current_lease,
            effect=_inc("completions"),
        ),
        Transition(
            "expire",
            "leased",
            "orphaned",
            guard=_current_lease,
            effect=_inc("expirations"),
        ),
        Transition("requeue", "orphaned", "queued", effect=_inc("requeues")),
        # Late duplicates of an already-committed task are dropped by
        # the exactly-once ledger: lawful echoes, not explored edges.
        Transition("dup_done", "done", "done", model=False),
    ),
    properties=(
        SafetyProperty(
            "at_most_one_completion",
            "a task commits at most one completion",
            lambda shared, vars: vars["completions"] <= 1,
        ),
        SafetyProperty(
            "ledger_balance",
            "at quiescence every grant was settled: grants = "
            "completions + expirations",
            lambda shared, vars: vars["grants"]
            == vars["completions"] + vars["expirations"],
            on="deadlock",
        ),
        SafetyProperty(
            "orphan_requeued",
            "an expired task never wedges: every expiry is followed by "
            "a requeue",
            lambda shared, vars: shared != "orphaned",
            on="deadlock",
        ),
    ),
    key=lambda event: event.data.get("task"),
    bindings=(
        EventBinding(EventKind.LSE_GRANTED, ("grant",)),
        EventBinding(EventKind.LSE_RENEWED, ("renew",)),
        EventBinding(EventKind.LSE_COMPLETED, ("complete",)),
        EventBinding(EventKind.LSE_EXPIRED, ("expire",)),
        EventBinding(EventKind.LSE_REQUEUED, ("requeue",)),
        EventBinding(EventKind.LSE_DUP_DROPPED, ("dup_done",)),
    ),
    counters=(
        CounterBinding("grants", EventKind.LSE_GRANTED),
        CounterBinding("completions", EventKind.LSE_COMPLETED),
        CounterBinding("expirations", EventKind.LSE_EXPIRED),
        CounterBinding("requeues", EventKind.LSE_REQUEUED),
    ),
    end_invariants=(
        EndInvariant(
            "grants_settled",
            "grants = completions + expirations",
            lambda c: c["grants"] == c["completions"] + c["expirations"],
        ),
        EndInvariant(
            "expiry_requeues",
            "every expiry requeued its task",
            lambda c: c["expirations"] == c["requeues"],
        ),
    ),
    terminal_states=frozenset({"queued", "done"}),
)


# ---------------------------------------------------------------------------
# shard-settlement: per (request, shard) settle-exactly-once
# ---------------------------------------------------------------------------
_SETTLEMENT = ProtocolSpec(
    name="shard-settlement",
    description=(
        "Sharded sub-request settlement: every SENT settles as exactly "
        "one of DONE / FAILOVER / FAILED; a FAILOVER is always followed "
        "by another SENT; at most one DONE per (request, shard)"
    ),
    states=("idle", "inflight", "retry_pending", "done", "failed"),
    initial="idle",
    vars={"sent": 0, "completed": 0, "failovers": 0, "failures": 0},
    actors=1,
    transitions=(
        Transition("send", "idle", "inflight", effect=_inc("sent")),
        Transition(
            "resend",
            "retry_pending",
            "inflight",
            bound=lambda v, a, d: v["sent"] < 4,
            effect=_inc("sent"),
        ),
        Transition(
            "settle_done", "inflight", "done", effect=_inc("completed")
        ),
        Transition(
            "failover",
            "inflight",
            "retry_pending",
            bound=lambda v, a, d: v["failovers"] < 3,
            effect=_inc("failovers"),
        ),
        Transition("give_up", "inflight", "failed", effect=_inc("failures")),
    ),
    properties=(
        SafetyProperty(
            "at_most_one_done",
            "a (request, shard) sub-request completes at most once",
            lambda shared, vars: vars["completed"] <= 1,
        ),
        SafetyProperty(
            "settled_balance",
            "at quiescence every send was settled: sent = done + "
            "failovers + failed",
            lambda shared, vars: vars["sent"]
            == vars["completed"] + vars["failovers"] + vars["failures"],
            on="deadlock",
        ),
        SafetyProperty(
            "failover_resent",
            "a failover never wedges: the next replica's send follows",
            lambda shared, vars: shared != "retry_pending",
            on="deadlock",
        ),
    ),
    key=lambda event: (event.data.get("req"), event.data.get("shard")),
    bindings=(
        EventBinding(EventKind.SHD_SUBREQUEST_SENT, ("send", "resend")),
        EventBinding(EventKind.SHD_SUBREQUEST_DONE, ("settle_done",)),
        EventBinding(EventKind.SHD_FAILOVER, ("failover",)),
        EventBinding(EventKind.SHD_SUBREQUEST_FAILED, ("give_up",)),
    ),
    counters=(
        CounterBinding("sends", EventKind.SHD_SUBREQUEST_SENT),
        CounterBinding("dones", EventKind.SHD_SUBREQUEST_DONE),
        CounterBinding("failovers", EventKind.SHD_FAILOVER),
        CounterBinding("failures", EventKind.SHD_SUBREQUEST_FAILED),
    ),
    end_invariants=(
        EndInvariant(
            "fanout_settled",
            "sends = dones + failovers + failures across the stream",
            lambda c: c["sends"] == c["dones"] + c["failovers"] + c["failures"],
        ),
    ),
    terminal_states=frozenset({"done", "failed"}),
)


# ---------------------------------------------------------------------------
# buffer-directory: per-page register / deregister / remote fetch
# ---------------------------------------------------------------------------
def _dir_register_guard(v, a, d):
    return v["owner"] == -1


def _dir_reregister_guard(v, a, d):
    return v["owner"] == a


def _dir_deregister_guard(v, a, d):
    return v["owner"] == a


def _dir_fetch_guard(v, a, d):
    # At runtime the event names the owner it copied from; in the model
    # (data={}) the .get() falls back to the directory's own owner.
    return (
        v["owner"] != -1
        and v["owner"] != a
        and int(d.get("owner", v["owner"])) == v["owner"]
    )


def _dir_set_owner(v, a, d):
    v["owner"] = a


_DIRECTORY = ProtocolSpec(
    name="buffer-directory",
    description=(
        "Latched global-buffer directory (paper section 3.2): a page "
        "has at most one registered owner; only the owner deregisters "
        "(stale evictions must not drop a newer registration); remote "
        "fetches copy from the current owner"
    ),
    states=("absent", "resident"),
    initial="absent",
    vars={"owner": -1, "foreign_registers": 0, "stale_deregisters": 0},
    actors=3,
    transitions=(
        Transition(
            "load_register",
            "absent",
            "resident",
            guard=_dir_register_guard,
            effect=_dir_set_owner,
        ),
        # The owner reloading its own evicted-then-missed page re-registers.
        Transition(
            "reload_register",
            "resident",
            "resident",
            guard=_dir_reregister_guard,
        ),
        Transition(
            "deregister",
            "resident",
            "absent",
            guard=_dir_deregister_guard,
            effect=lambda v, a, d: v.__setitem__("owner", -1),
        ),
        Transition("fetch", "resident", "resident", guard=_dir_fetch_guard),
    ),
    properties=(
        SafetyProperty(
            "single_owner",
            "a resident page has exactly one owner; an absent page has "
            "none",
            lambda shared, vars: (shared == "resident")
            == (vars["owner"] != -1),
        ),
        SafetyProperty(
            "no_foreign_register",
            "no processor overwrites another owner's registration",
            lambda shared, vars: vars["foreign_registers"] == 0,
        ),
        SafetyProperty(
            "no_stale_deregister",
            "a stale eviction never drops a newer registration",
            lambda shared, vars: vars["stale_deregisters"] == 0,
        ),
    ),
    key=lambda event: event.data.get("page"),
    bindings=(
        EventBinding(
            EventKind.PAGE_REGISTERED, ("load_register", "reload_register")
        ),
        EventBinding(EventKind.PAGE_DEREGISTERED, ("deregister",)),
        EventBinding(EventKind.REMOTE_FETCH, ("fetch",)),
    ),
)


# ---------------------------------------------------------------------------
# pair-lifecycle: per (r, s) node pair of the parallel join
# ---------------------------------------------------------------------------
# A task-level pair is created, then enqueued at the processor it is assigned
# to; a child pair starts with its first enqueue.  The owner is the processor
# whose queue holds the pair.  A steal is fired by the owner (the victim) and
# names the thief, who alone may enqueue the pair on arrival (paper section
# 3.4).  In the model (data={}) the thief is the other actor.
def _is_owner(v, a, d):
    return v["owner"] == a


def _take_owner(v, a, d):
    v["owner"], v["thief"] = a, -1


def _thief(a, d):
    return int(d.get("thief", 1 - a))


def _steal_guard(v, a, d):
    return v["owner"] == a and _thief(a, d) != a


def _steal(v, a, d):
    v["thief"] = _thief(a, d)


_PAIRS = ProtocolSpec(
    name="pair-lifecycle",
    description=(
        "Parallel-join pair life cycle: created -> enqueued at its owner "
        "<-> stolen in transit to one thief -> dequeued -> executed -> done, "
        "every edge fired by the pair's owner; executed at most once, "
        "nothing left in transit"
    ),
    states=(
        "new", "created", "resident", "transit", "dequeued", "executing",
        "done",
    ),
    initial="new",
    vars={"owner": -1, "thief": -1, "executions": 0},
    actors=2,
    transitions=(
        Transition("create", "new", "created"),
        Transition("assign", "created", "resident", effect=_take_owner),
        Transition("spawn", "new", "resident", effect=_take_owner),
        Transition(
            "steal", "resident", "transit", guard=_steal_guard, effect=_steal
        ),
        Transition(
            "arrive",
            "transit",
            "resident",
            guard=lambda v, a, d: v["thief"] == a,
            effect=_take_owner,
        ),
        Transition("dequeue", "resident", "dequeued", guard=_is_owner),
        Transition(
            "start",
            "dequeued",
            "executing",
            guard=_is_owner,
            effect=_inc("executions"),
        ),
        Transition("end", "executing", "done", guard=_is_owner),
    ),
    properties=(
        SafetyProperty(
            "at_most_one_execution",
            "a pair of subtrees is executed at most once",
            lambda shared, vars: vars["executions"] <= 1,
        ),
        SafetyProperty(
            "nothing_in_transit",
            "at quiescence no stolen pair is still on its way to its thief",
            lambda shared, vars: shared != "transit",
            on="deadlock",
        ),
    ),
    key=lambda event: (event.data.get("r"), event.data.get("s")),
    bindings=(
        EventBinding(EventKind.TASK_CREATED, ("create",)),
        EventBinding(
            EventKind.PAIR_ENQUEUED, ("assign", "spawn", "arrive")
        ),
        EventBinding(EventKind.STEAL_TAKE, ("steal",)),
        EventBinding(EventKind.PAIR_DEQUEUED, ("dequeue",)),
        EventBinding(EventKind.EXEC_START, ("start",)),
        EventBinding(EventKind.EXEC_END, ("end",)),
    ),
    terminal_states=frozenset({"done"}),
)


# ---------------------------------------------------------------------------
# service-ledger: the serving tier's request, cache and batch ledger
# ---------------------------------------------------------------------------
# The SVC_* events carry no request id, so the ledger is counters and end
# equations; its two online rules run on one instance for the whole stream.
_TERMINAL = ("completed", "timeouts", "cancelled", "errors")

_LEDGER = ProtocolSpec(
    name="service-ledger",
    description=(
        "Serving ledger: submitted = admitted + rejected; after stop every "
        "admitted request has one outcome; a cache insert follows a miss; "
        "evictions + expirations <= inserts; lookups match admitted "
        "cacheable requests up to timeouts + cancellations; batches are "
        "non-empty"
    ),
    states=("serving",),
    initial="serving",
    vars={"misses": 0, "inserts": 0},
    actors=1,
    transitions=(
        Transition(
            "miss",
            "serving",
            "serving",
            bound=lambda v, a, d: v["misses"] < 2,
            effect=_inc("misses"),
        ),
        Transition(
            "insert",
            "serving",
            "serving",
            guard=lambda v, a, d: v["inserts"] < v["misses"],
            effect=_inc("inserts"),
        ),
        Transition(
            "batch",
            "serving",
            "serving",
            guard=lambda v, a, d: int(d.get("size", 1)) >= 1,
        ),
    ),
    properties=(
        SafetyProperty(
            "insert_follows_miss",
            "every cache insert follows a miss of its own",
            lambda shared, vars: vars["inserts"] <= vars["misses"],
        ),
    ),
    bindings=(
        EventBinding(EventKind.SVC_CACHE_MISS, ("miss",)),
        EventBinding(EventKind.SVC_CACHE_INSERT, ("insert",)),
        EventBinding(EventKind.SVC_BATCH_EXECUTED, ("batch",)),
    ),
    counters=(
        CounterBinding("submitted", EventKind.SVC_REQUEST_SUBMITTED),
        CounterBinding("admitted", EventKind.SVC_REQUEST_ADMITTED),
        CounterBinding("cacheable", EventKind.SVC_REQUEST_ADMITTED, "cache"),
        CounterBinding("rejected", EventKind.SVC_REQUEST_REJECTED),
        CounterBinding("completed", EventKind.SVC_REQUEST_COMPLETED),
        CounterBinding("timeouts", EventKind.SVC_REQUEST_TIMEOUT),
        CounterBinding("cancelled", EventKind.SVC_REQUEST_CANCELLED),
        CounterBinding("errors", EventKind.SVC_REQUEST_ERROR),
        CounterBinding("hits", EventKind.SVC_CACHE_HIT),
        CounterBinding("misses", EventKind.SVC_CACHE_MISS),
        CounterBinding("inserts", EventKind.SVC_CACHE_INSERT),
        CounterBinding("evictions", EventKind.SVC_CACHE_EVICT),
        CounterBinding("expirations", EventKind.SVC_CACHE_EXPIRE),
        CounterBinding("stops", EventKind.SVC_ENGINE_STOP),
    ),
    end_invariants=(
        EndInvariant(
            "admitted_or_rejected",
            "submitted = admitted + rejected",
            lambda c: c["submitted"] == c["admitted"] + c["rejected"],
        ),
        EndInvariant(
            "one_outcome_each",
            "after the engine stops, terminal outcomes = admitted",
            lambda c: not c["stops"]
            or sum(c[k] for k in _TERMINAL) == c["admitted"],
        ),
        EndInvariant(
            "entries_leave_once",
            "evictions + expirations <= inserts",
            lambda c: c["evictions"] + c["expirations"] <= c["inserts"],
        ),
        EndInvariant(
            "lookups_reconcile",
            "every admitted cacheable request looked the cache up once, "
            "except one that timed out or was cancelled before its lookup",
            lambda c: 0
            <= c["cacheable"] - c["hits"] - c["misses"]
            <= c["timeouts"] + c["cancelled"],
        ),
    ),
)


# ---------------------------------------------------------------------------
# worker-call: per call id of a worker pool
# ---------------------------------------------------------------------------
# A call is open from hand-off until it completes, fails typed or its
# awaiter abandons it.  Every attempt is a fresh call id, so a call fails
# at most once, and a retry inside the deadline budget or a give-up
# answers that failure.  A crash that names the call makes it a victim,
# closed only as ``worker-died`` or abandoned.
# In the model (data={}) a retry is in budget and a failure is worker-died.
def _in_budget(v, a, d):
    return (d.get("remaining_s") or 0.0) >= 0


def _died(v, a, d):
    return not d or d.get("error") == "worker-died"


_CALLS = ProtocolSpec(
    name="worker-call",
    description=(
        "Worker-call life cycle: a faulted call closes as completed, "
        "failed or abandoned; every failure is answered by a retry inside "
        "its deadline budget or a give-up; a crash victim closes only as "
        "worker-died or abandoned; give-ups <= error + timeout + "
        "cancellation outcomes"
    ),
    states=("open", "victim", "failing", "answered", "completed", "abandoned"),
    initial="open",
    vars={"victim": 0},
    actors=1,
    transitions=(
        Transition("inject", "open", "open"),
        Transition("complete", "open", "completed"),
        Transition("abandon", "open", "abandoned"),
        Transition("crash", "open", "victim", effect=_inc("victim")),
        Transition("abandon_victim", "victim", "abandoned"),
        Transition("fail", "open", "failing"),
        Transition("fail_victim", "victim", "failing", guard=_died),
        Transition("answer", "failing", "answered", guard=_in_budget),
    ),
    properties=(
        SafetyProperty(
            "victim_never_completes",
            "a call held by a crashed worker never completes",
            lambda shared, vars: not (shared == "completed" and vars["victim"]),
        ),
        SafetyProperty(
            "closed_and_answered",
            "at quiescence the call is closed and its failure answered",
            lambda shared, vars: shared in ("completed", "abandoned", "answered"),
            on="deadlock",
        ),
    ),
    # A crash of an idle worker names no call: no instance of this protocol.
    key=lambda event: event.data.get("call"),
    bindings=(
        EventBinding(EventKind.FLT_INJECT_CRASH, ("inject",)),
        EventBinding(EventKind.FLT_INJECT_HANG, ("inject",)),
        EventBinding(EventKind.FLT_INJECT_SLOW_IO, ("inject",)),
        EventBinding(EventKind.SUP_CALL_OK, ("complete",)),
        EventBinding(EventKind.SUP_CALL_ABANDONED, ("abandon", "abandon_victim")),
        EventBinding(
            EventKind.SUP_WORKER_CRASH_DETECTED, ("crash",), keyless=True
        ),
        EventBinding(EventKind.SUP_CALL_FAILED, ("fail", "fail_victim")),
        EventBinding(EventKind.SUP_CALL_RETRY, ("answer",)),
        EventBinding(EventKind.SUP_CALL_GIVEUP, ("answer",)),
    ),
    # No worker event names its request: the give-up law is counters.
    counters=(
        CounterBinding("giveups", EventKind.SUP_CALL_GIVEUP),
        CounterBinding("errors", EventKind.SVC_REQUEST_ERROR),
        CounterBinding("timeouts", EventKind.SVC_REQUEST_TIMEOUT),
        CounterBinding("cancelled", EventKind.SVC_REQUEST_CANCELLED),
    ),
    end_invariants=(
        EndInvariant(
            "giveups_surface",
            "give-ups <= error + timeout + cancellation outcomes (a batch "
            "give-up may surface as several, never as none)",
            lambda c: c["giveups"] <= c["errors"] + c["timeouts"] + c["cancelled"],
        ),
    ),
    terminal_states=frozenset({"completed", "abandoned", "answered"}),
)


# ---------------------------------------------------------------------------
# worker-process: per worker pid of a pool
# ---------------------------------------------------------------------------
# Every pid is live until its crash is reported.  A respawn names the new
# pid: a fresh one stays live, and one the OS reused for a dead worker
# comes back to life.  A crashed pid has no crash edge left.
_PROCS = ProtocolSpec(
    name="worker-process",
    description=(
        "Worker-process life cycle: a pid crashes at most once per life; "
        "only a respawn that reuses it brings it back"
    ),
    states=("live", "crashed"),
    initial="live",
    vars={"crashes": 0, "lives": 1},
    actors=1,
    transitions=(
        Transition("crash", "live", "crashed", effect=_inc("crashes")),
        Transition("spawn", "live", "live"),
        Transition(
            "reuse", "crashed", "live", bound=lambda v, a, d: v["lives"] < 3,
            effect=_inc("lives"),
        ),
    ),
    properties=(
        SafetyProperty(
            "one_crash_per_life",
            "a pid is reported crashed at most once per life",
            lambda shared, vars: vars["crashes"] <= vars["lives"],
        ),
    ),
    key=lambda event: event.data.get("pid"),
    bindings=(
        EventBinding(EventKind.SUP_WORKER_CRASH_DETECTED, ("crash",)),
        EventBinding(EventKind.SUP_WORKER_RESPAWNED, ("spawn", "reuse")),
    ),
)


SPECS: tuple[ProtocolSpec, ...] = (
    _LEASE,
    _SETTLEMENT,
    _DIRECTORY,
    _PAIRS,
    _LEDGER,
    _CALLS,
    _PROCS,
)


def get_spec(name: str) -> ProtocolSpec:
    for spec in SPECS:
        if spec.name == name:
            return spec
    raise KeyError(f"no protocol spec named {name!r}")


# ---------------------------------------------------------------------------
# Planted mutations: each must yield a counterexample
# ---------------------------------------------------------------------------
def _mut_double_grant(spec: ProtocolSpec) -> ProtocolSpec:
    return spec.replace_transitions(
        add=(
            Transition(
                "grant_dup",
                "leased",
                "leased",
                bound=lambda v, a, d: v["grants"] < 3,
                effect=_inc("grants"),
            ),
        )
    )


def _mut_drop_requeue(spec: ProtocolSpec) -> ProtocolSpec:
    return spec.replace_transitions(drop=("requeue",))


def _mut_fail_unsent(spec: ProtocolSpec) -> ProtocolSpec:
    return spec.replace_transitions(
        add=(
            Transition(
                "give_up_unsent", "idle", "failed", effect=_inc("failures")
            ),
        )
    )


def _mut_fail_after_failover(spec: ProtocolSpec) -> ProtocolSpec:
    return spec.replace_transitions(
        add=(
            Transition(
                "give_up_pending",
                "retry_pending",
                "failed",
                effect=_inc("failures"),
            ),
        )
    )


def _mut_register_overwrite(spec: ProtocolSpec) -> ProtocolSpec:
    def overwrite(v, a, d):
        if v["owner"] not in (-1, a):
            v["foreign_registers"] += 1
        v["owner"] = a

    return spec.replace_transitions(
        add=(
            Transition(
                "register_any",
                "resident",
                "resident",
                bound=lambda v, a, d: v["foreign_registers"] < 2,
                effect=overwrite,
            ),
        )
    )


def _mut_stale_deregister(spec: ProtocolSpec) -> ProtocolSpec:
    def stale(v, a, d):
        if v["owner"] != a:
            v["stale_deregisters"] += 1
        v["owner"] = -1

    return spec.replace_transitions(
        add=(
            Transition(
                "deregister_any",
                "resident",
                "absent",
                bound=lambda v, a, d: v["stale_deregisters"] < 2,
                effect=stale,
            ),
        )
    )


def _mut_drop_arrival(spec: ProtocolSpec) -> ProtocolSpec:
    return spec.replace_transitions(drop=("arrive",))


def _mut_rerun_done(spec: ProtocolSpec) -> ProtocolSpec:
    return spec.replace_transitions(
        add=(
            Transition(
                "requeue_done",
                "done",
                "resident",
                bound=lambda v, a, d: v["executions"] < 2,
                effect=_take_owner,
            ),
        )
    )


def _mut_insert_unmissed(spec: ProtocolSpec) -> ProtocolSpec:
    return spec.replace_transitions(
        add=(
            Transition(
                "insert_any",
                "serving",
                "serving",
                bound=lambda v, a, d: v["inserts"] < 2,
                effect=_inc("inserts"),
            ),
        )
    )


def _mut_victim_completes(spec: ProtocolSpec) -> ProtocolSpec:
    complete = Transition("complete_victim", "victim", "completed")
    return spec.replace_transitions(add=(complete,))


def _mut_drop_answer(spec: ProtocolSpec) -> ProtocolSpec:
    return spec.replace_transitions(drop=("answer",))


def _mut_crash_twice(spec: ProtocolSpec) -> ProtocolSpec:
    crash = Transition(
        "crash_again", "crashed", "crashed",
        bound=lambda v, a, d: v["crashes"] < 3, effect=_inc("crashes"),
    )
    return spec.replace_transitions(add=(crash,))


MUTATIONS: tuple[Mutation, ...] = (
    Mutation(
        "lease-double-grant",
        "a second lease is granted on an already-leased task",
        "lease",
        "ledger_balance",
        _mut_double_grant,
    ),
    Mutation(
        "lease-drop-requeue",
        "an expired task's requeue edge is dropped (orphan wedges)",
        "lease",
        "orphan_requeued",
        _mut_drop_requeue,
    ),
    Mutation(
        "settlement-fail-unsent",
        "a sub-request settles FAILED without ever being sent",
        "shard-settlement",
        "settled_balance",
        _mut_fail_unsent,
    ),
    Mutation(
        "settlement-fail-after-failover",
        "a sub-request settles FAILED from retry_pending, breaking the "
        "failover-then-resend promise",
        "shard-settlement",
        "settled_balance",
        _mut_fail_after_failover,
    ),
    Mutation(
        "directory-register-overwrite",
        "register stops checking ownership and overwrites another owner",
        "buffer-directory",
        "no_foreign_register",
        _mut_register_overwrite,
    ),
    Mutation(
        "directory-stale-deregister",
        "deregister stops checking ownership (stale eviction drops a "
        "newer registration)",
        "buffer-directory",
        "no_stale_deregister",
        _mut_stale_deregister,
    ),
    Mutation(
        "pair-lost-in-transit",
        "a stolen pair's arrival edge is dropped (the pair never reaches "
        "its thief)",
        "pair-lifecycle",
        "nothing_in_transit",
        _mut_drop_arrival,
    ),
    Mutation(
        "pair-steal-leaves-a-copy",
        "a finished pair is enqueued again, as when a steal leaves the "
        "stolen pair behind at its victim",
        "pair-lifecycle",
        "at_most_one_execution",
        _mut_rerun_done,
    ),
    Mutation(
        "ledger-insert-without-miss",
        "the cache inserts an answer no miss asked for",
        "service-ledger",
        "insert_follows_miss",
        _mut_insert_unmissed,
    ),
    Mutation(
        "call-victim-completes",
        "a call held by a crashed worker closes as a success",
        "worker-call",
        "victim_never_completes",
        _mut_victim_completes,
    ),
    Mutation(
        "call-failure-left-open",
        "the edge answering a call's failure is dropped (the request is "
        "left hanging)",
        "worker-call",
        "closed_and_answered",
        _mut_drop_answer,
    ),
    Mutation(
        "process-crashes-twice",
        "a crashed pid is reported crashed again without a respawn",
        "worker-process",
        "one_crash_per_life",
        _mut_crash_twice,
    ),
)

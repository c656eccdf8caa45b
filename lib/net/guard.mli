(** Admission control, connection deadlines, and graceful drain — the
    resource-governance front door shared by every partitioned server.

    A guard caps concurrent connections (overflow is rejected with a
    protocol-specific answer and closed), enforces header and idle
    deadlines as timers on its reactor's clock (slow-loris defense), and
    drains: stop accepting, finish in-flight connections under a
    deadline, then force-close stragglers.

    Deadline cuts use {!Chan.abort}, so the worker compartment sees EOF
    on read and a {e contained} fault on write — the listener survives.
    The idle deadline is also the stack's one hang detector: its cut
    additionally cancels the connection's serve fiber
    ({!Wedge_sim.Fiber.cancel}), so a worker hung anywhere — even parked
    on an internal channel — dies as a contained fault its supervisor
    can restart.

    Optionally, a per-backend {e circuit breaker} over reported worker
    outcomes, in one fixed configuration: closed → open on 3 straight
    failures, or on a failure rate of at least 0.5 over at least 6
    outcomes within 40 µs of simulated time.  Open sheds every admission
    ({!decision} [Shed]) for 5 µs, then half-open lets 2 probes through —
    both succeeding closes it, any failing reopens it.  Below the trip
    point, a window failure rate of at least 0.3 (again over at least 6
    outcomes) sheds every second admission (partial load shedding while
    the backend flaps). *)

type t
type conn

type breaker_state = Closed | Open | Half_open

type decision = Admitted of conn | Busy | Draining | Shed

type stats = {
  s_active : int;
  s_admitted : int;
  s_rejected_busy : int;
  s_rejected_draining : int;
  s_timed_out : int;  (** connections cut by a deadline or stall *)
  s_forced : int;  (** connections force-closed by {!drain} *)
  s_shed : int;  (** admissions shed by the breaker or brownout *)
  s_breaker_opened : int;  (** times the breaker tripped *)
}

val create :
  ?header_deadline_ns:int ->
  ?idle_deadline_ns:int ->
  ?breaker:bool ->
  ?trace:Wedge_sim.Trace.t ->
  reactor:Wedge_sim.Reactor.t ->
  max_conns:int ->
  unit ->
  t
(** [header_deadline_ns] bounds the time from admission to
    {!established} (e.g. handshake + first request line); its cut only
    aborts the connection.  [idle_deadline_ns] bounds the time without a
    delivered byte — since admission, the last delivered byte,
    {!established} or {!rearm} — and its cut also cancels the serve
    fiber {!accept_loop} runs the connection in.  For {!accept_loop}'s
    connections both deadlines start when that fiber does.  [breaker]
    (default [false]) arms the circuit breaker.  [trace] records
    admission decisions
    (["guard.admit"/"guard.reject.busy"/"guard.reject.draining"]), cuts
    (["guard.cut"]), drain spans, and breaker transitions
    (["guard.breaker.open"/"half_open"/"close"/"shed"]).

    [reactor] is the guard's clock and timer wheel: deadlines are timers
    on it (fire-and-re-check — O(1) per read, no per-read cancellation),
    the breaker ages on its clock, and admitted connections and the
    {!accept_loop} listener are attached to it, so it counts and audits
    their waits.
    @raise Invalid_argument when [max_conns <= 0]. *)

val admit : t -> Chan.ep -> decision
(** Claim a slot.  [Busy] when at [max_conns], [Draining] once {!drain}
    started, [Shed] when the breaker is open (or half-open beyond its
    probe budget, or brownout alternation fires); all are counted and the
    caller must reject + close.  The breaker is consulted {e before}
    capacity: shedding refuses work without burning a slot. *)

val report : conn -> ok:bool -> unit
(** Feed this connection's outcome to the breaker (idempotent per
    connection; no-op without a breaker).  Servers call it where they
    decide served-vs-degraded. *)

val breaker_state : t -> breaker_state option
val breaker_reactions : t -> int list
(** Trip latencies (first failure of a streak → open), oldest first —
    the MTTR benchmark's breaker reaction rows. *)

val breaker_summary : t -> string
(** Deterministic one-liner, e.g. ["closed opened=2 shed=5"]; ["-"]
    without a breaker. *)

val release : conn -> unit
(** Give the slot back; idempotent.  Always call (e.g. [Fun.protect
    ~finally]) or {!drain} will wait on a ghost. *)

val established : conn -> unit
(** The connection passed its handshake/greeting: the header deadline no
    longer applies and the idle clock restarts. *)

val rearm : conn -> unit
(** Restart the connection's idle clock.  A supervisor retrying the
    worker in the same serve fiber passes this as its [on_restart] hook,
    so the new attempt is not cut for its predecessor's silence. *)

val ep : conn -> Chan.ep

val overdue : conn -> bool
val cut : conn -> unit
(** Abort the connection (counted in [s_timed_out]); idempotent. *)

val endpoint : conn -> Wedge_kernel.Fd_table.endpoint
(** Deadline-aware descriptor target for the worker compartment: reads
    park for data, and return EOF once the connection is overdue or cut
    (a deadline timer aborts the channel, which wakes the park).  The
    endpoint's [ep_wait] parks {e before} the syscall trap (an idle
    connection charges zero syscall fuel), and the vectored [ep_readv]
    path carries the same deadline bookkeeping as reads. *)

val accept_loop :
  t ->
  Chan.listener ->
  reject:(decision -> Chan.ep -> unit) ->
  serve:(conn -> unit) ->
  unit
(** Accept until the listener shuts down.  Admitted connections are
    served in their own fiber — the one an idle cut cancels — with the
    slot auto-released; the deadlines start when that fiber does, so
    time queued behind other connections' work is not counted as a
    hang.  Rejected ones get [reject] (best-effort, exceptions
    swallowed) then close. *)

val drain : ?deadline_ns:int -> t -> Chan.listener -> unit
(** Stop accepting (shuts the listener down, resetting queued
    connections), park until in-flight connections release, and
    force-abort the remainder when [deadline_ns] of simulated time
    passes (a timer on the guard's reactor) or the world stalls.  A
    second stall after forcing forfeits the stragglers' slots, so the
    drain always terminates. *)

val active : t -> int
(** Connections currently holding a slot — O(1), maintained at
    admit/release (never a list walk). *)

val draining : t -> bool
val stats : t -> stats

val self_check : t -> string option
(** Internal-consistency audit for the invariant oracle: [None] when the
    O(1) active counter equals the live-connection list length, no
    released connection lingers on the list, and the counter respects
    [max_conns]; otherwise [Some description] of the drift. *)

val deadline_check : slack_ns:int -> t -> string option
(** Oracle invariant for the deadline timers: [Some description] when a
    live connection is overdue by more than [slack_ns] past its header or
    idle deadline without having been cut ({!accept_loop}'s connections
    count once their serve fiber has started).  The timers fire at the first
    scheduling step after the clock passes them; the slack covers a check
    that runs between steps, after one large clock charge. *)

val register_metrics : ?name:string -> Wedge_sim.Metrics.t -> t -> unit
(** Expose the admission counters (["guard.admitted"],
    ["guard.rejected_busy"], ["guard.rejected_draining"],
    ["guard.timed_out"], ["guard.forced"]) and the ["guard.active"]
    gauge.  [name] (default ["guard"]) keys the source. *)

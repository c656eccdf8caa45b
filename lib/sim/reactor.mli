(** Readiness reactor: epoll-style batched wakeups plus a timer wheel on
    the simulated clock.

    Every blocking wait in the stack registers interest on a {!handle}
    and {!Fiber.park}s — a blocked fiber costs the scheduler nothing per
    rotation; the producer {!signal}s the handle at the moment state
    changes and every waiter wakes in one batch.  Waits are
    {e level-triggered}: a woken waiter re-checks its readiness closure
    and re-parks if the wake was spurious, so signals can be coarse and
    can never be lost to a race.  A handle works from creation
    ({!unbound}); {!bind} decides which reactor counts and audits it.

    Deadlines are timers fired by {!tick} at scheduler sync points
    (wire {!hook} into {!Fiber.run}'s [on_switch]); when every fiber is
    parked, {!idle} (wired into [on_idle]) advances the simulated clock
    straight to the earliest armed timer — the epoll_wait-with-timeout
    analogue.

    Wake order (fiber id), timer order ((deadline, creation)) and every
    counter are deterministic functions of the schedule. *)

type t

type handle
(** One interest set — typically one direction of a channel, or a
    listener's accept queue. *)

val create : ?trace:Trace.t -> clock:Clock.t -> unit -> t
(** [trace] records ["reactor.wake"] counts and ["reactor.timer"]
    instants (only when tracing is enabled — the disarmed path stays
    free). *)

val clock : t -> Clock.t

val handle : t -> name:string -> handle
(** A fresh interest set bound to this reactor; [name] appears in audit
    messages. *)

val unbound : name:string -> handle
(** A fresh interest set no reactor counts or audits yet.  Waits and
    signals work on it exactly as on a bound one. *)

val bind : t -> handle -> unit
(** Let this reactor count the handle's parks and wakes and audit its
    waiters (those already parked included).  Idempotent: a handle stays
    with the first reactor it was bound to. *)

val handle_name : handle -> string

val wait :
  ?on_stall:(unit -> unit) -> handle -> what:string -> ready:(unit -> bool) -> unit
(** Park the calling fiber until [ready ()] — re-checked after every
    wake, re-parking on spurious ones.  Returns immediately on a dead
    handle (the caller's own closed/EOF state carries the answer) or
    when [ready] already holds.  A cancellation delivered while parked
    ({!Fiber.Cancelled}) removes the registration before propagating —
    no ghost waiters.  [on_stall] is the {!Fiber.park} stall action: it
    runs with the registration already removed, and the wait re-checks
    [ready] if it returns.  [what] names the condition in deadlock
    reports. *)

val signal : handle -> unit
(** Wake every waiter of this handle in one batch (fiber-id order).
    Cheap no-op with no waiters — producers signal unconditionally at
    every state change. *)

val kill : handle -> unit
(** Mark the handle dead and wake everyone; subsequent {!wait}s return
    immediately.  What {!Wedge_net.Chan.abort} drives. *)

val is_dead : handle -> bool

(** {2 Timers} *)

type timer_id

val at : t -> ns:int -> (unit -> unit) -> timer_id
(** Fire [f] once the simulated clock reaches absolute time [ns] (at the
    next {!tick} at or after it).  The callback runs in scheduler-hook
    context: it must not yield or park, but may {!signal}, {!kill},
    [Fiber.unpark], cancel fibers, or arm further timers. *)

val after : t -> ns:int -> (unit -> unit) -> timer_id
(** Relative form of {!at}. *)

val cancel_timer : t -> timer_id -> unit
(** Best-effort cancel (lazy removal; O(armed timers)).  Deadline
    re-arming should prefer the fire-and-re-check idiom — let the timer
    fire, find the deadline has moved, and arm a fresh one — which is
    O(1) per event. *)

val pending_timers : t -> int

val tick : t -> unit
(** Fire every timer due at the current simulated time.  Gated on the
    clock having moved (or a timer having been armed) since the last
    sweep, so an armed-but-quiet reactor costs one comparison per call. *)

val hook : t -> unit -> unit
(** [Fiber.run ~on_switch:(Reactor.hook r)] — {!tick} at every
    scheduling step.  Compose manually when an oracle hook is also
    armed. *)

val idle : t -> unit -> bool
(** [Fiber.run ~on_idle:(Reactor.idle r)] — advance the clock to the
    earliest armed timer and {!tick}; [false] when no timer is armed
    (the scheduler then reports the parked fibers as a deadlock). *)

val next_deadline : t -> int option
(** Earliest armed timer (absolute simulated ns on this reactor's
    clock), if any — the deadline {!idle} would sleep to. *)

val idle_multi : t list -> unit -> bool
(** Multi-shard [on_idle]: each reactor runs on its own clock, so the
    one whose earliest timer is the smallest {e relative} delay from its
    own now wakes first (ties break on list order).  Advances only that
    reactor's clock and {!tick}s only it; [false] when no reactor has an
    armed timer. *)

(** {2 Audit and observability} *)

type stats = {
  signals : int;  (** wake batches delivered *)
  wakeups : int;  (** fibers woken *)
  parks : int;  (** times a fiber parked on a handle *)
  timer_fires : int;
  idle_advances : int;  (** clock jumps to the next timer *)
  parked : int;  (** waiters currently registered *)
  timers : int;  (** timers currently armed *)
}

val stats : t -> stats

val self_check : t -> string option
(** Interest sets vs the scheduler's parked table, for the invariant
    oracle: no registered-and-parked waiter whose readiness already
    holds (lost wakeup), no waiters on dead handles (ghost registrations
    after abort/cut), no parked fiber without a registration (a wait on
    an {!unbound} handle counts as one).  [None] when consistent. *)

val self_check_multi : t list -> string option
(** {!self_check} over several reactors at once (one per shard): the
    parked-without-registration audit is global to the scheduler, so it
    must see the union of every armed reactor's interest sets. *)

val register_metrics : ?name:string -> Metrics.t -> t -> unit
(** Counters (["reactor.signals"/"wakeups"/"parks"/"timer_fires"/
    "idle_advances"]) and gauges (["reactor.parked"/"waiting_handles"/
    "timers"]). *)

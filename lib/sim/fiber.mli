(** Cooperative fibers (effects-based) for driving client/server/attacker
    interactions over simulated channels.

    Every blocking wait parks: the simulated network ({!Wedge_net.Chan})
    {!park}s a fiber when it reads from an empty channel, and a
    {!wait_until} join parks until its condition holds.  The scheduler
    round-robins runnable fibers until everything has finished.
    Compartment code itself runs to completion inside whichever fiber
    spawned it — blocking on I/O
    inside an sthread suspends the whole caller chain, which matches the
    paper's semantics (the parent blocks on [sthread_join], a callgate's
    caller blocks until the callgate terminates). *)

exception Deadlock of string
(** Raised by {!run} when every live fiber is blocked and no progress is
    possible: nothing is runnable, no timer can fire ([on_idle]) and no
    parked fiber declared a stall action (see {!park}).  The message
    names every blocked fiber and what it is waiting for, e.g.
    ["parked fibers, nothing runnable (blocked: fiber 0 awaiting
    channel data, fiber 2 awaiting incoming connection)"]. *)

exception Cancelled of string
(** Delivered inside a fiber at its next {!yield}, stall step or
    {!park} resume (a {!wait_until} join parks too) after {!cancel}
    marked it.  The engine registers this as a {e contained} fault
    class, so cancelling the fiber running a
    compartment kills only that compartment — the mechanism a guard's
    idle-deadline cut ({!Wedge_net.Guard}) uses to tear down a hung
    worker.  The mark is consumed on delivery:
    a supervisor restarting the victim does not see the retry die from
    the same stale cancellation. *)

(** Which runnable fiber runs next.  {!Round_robin} (the default) keeps
    the historical FIFO order byte-for-byte — every seeded replay test
    depends on it.  The other policies schedule from a pool and record
    the pool index picked at each step (the {e decision trace},
    {!last_decisions}); [Replay] feeds such a trace back, reproducing or
    shrinking a run exactly. *)
type policy =
  | Round_robin
  | Random of int  (** uniformly random runnable fiber, from the seed *)
  | Pct of {
      seed : int;
      change_prob : float;
          (** per-step probability that the highest-priority fiber is
              demoted below everyone else (the PCT change point).  Strict
              priority needs no anti-starvation rule: a blocked fiber,
              {!wait_until} joins included, is parked and never picked. *)
    }
  | Replay of int array
      (** replay recorded pool indices; exhausted or out-of-range entries
          fall back to index 0, so truncated traces still run *)

val run :
  ?faults:Wedge_fault.Fault_plan.t ->
  ?clock:Clock.t ->
  ?policy:policy ->
  ?on_switch:(unit -> unit) ->
  ?on_idle:(unit -> bool) ->
  (unit -> unit) ->
  unit
(** [run main] executes [main] as the first fiber and schedules every fiber
    it spawns, returning when all fibers have terminated.  When [faults] is
    given, every {!yield} rolls the plan at site ["fiber.yield"]; a fired
    fault raises {!Wedge_fault.Fault_plan.Injected} in the yielding fiber
    (crashing it mid-run unless a compartment boundary catches it).
    {!yield} additionally rolls site ["fiber.stall"]: kind [Delay ns]
    induces a hang — the fiber burns [ns] of simulated time (charged to
    [clock] when given) across several yields before resuming, unless a
    a hang cut cancels it mid-stall; any other kind raises like
    ["fiber.yield"].  [on_idle] runs when nothing is
    runnable but fibers are {!park}ed: it should advance the simulated
    world (fire the next reactor timer) and return [true], or return
    [false] to concede.  The stall rule then resolves every parked fiber
    that declared an [on_stall] action; only when there is none does the
    run die with {!Deadlock} naming the parked fibers.  [on_switch] runs
    before every scheduling step — the hook invariant oracles use to
    check kernel state at each context switch.  It must not yield or
    spawn; an exception it raises aborts the run (and propagates).
    @raise Deadlock if fibers block forever. *)

val last_decisions : unit -> int array
(** The decision trace of the most recently {e finished} run — one pool
    index per scheduling step under [Random]/[Pct]/[Replay], empty under
    [Round_robin].  Valid after both normal and exceptional termination,
    so a failing schedule can be replayed ([Replay]) and shrunk. *)

val spawn : (unit -> unit) -> unit
(** Add a new fiber.  Must be called from within {!run}. *)

val yield : unit -> unit
(** Give up the processor; the fiber resumes after other runnable fibers
    have had a turn.  No-op when called outside {!run} (so library code can
    yield unconditionally). *)

val wait_until : ?what:string -> (unit -> bool) -> unit
(** [wait_until cond] parks the caller until [cond ()] is true — a join
    primitive for drivers and tests.  I/O waits use [Reactor.wait]
    instead, which a signal wakes directly.  The scheduler re-checks
    every registered join after each step, so a join costs no steps of
    its own while it waits, but O(registered joins) per step.  [cond]
    runs in scheduler context: it must not yield, spawn or raise.  The
    joiner resumes at the back of the run queue, and re-parks if [cond]
    turned false again before it ran.
    @raise Deadlock from {!run} if the world stalls while it waits; [what]
    names the awaited condition in the exception message. *)

val park : ?on_stall:(unit -> unit) -> what:string -> unit -> unit
(** Take the calling fiber off the run queue until {!unpark}.  A parked
    fiber costs the scheduler {e nothing} per rotation — the one blocking
    primitive every wait ({!Reactor.wait}, {!wait_until}) is built on.
    A pending cancellation raises {!Cancelled} instead of parking; one set while
    parked ({!cancel} unparks its victim) raises at resume.

    [on_stall] declares what this wait does when the whole world stalls
    (nothing runnable, no timer can fire): the stall rule unparks every
    such fiber in fiber-id order and runs its action at resume, in the
    fiber — it may raise (a bounded writer's contained
    [Resource_exhausted]) or return (the caller re-checks its
    condition).  Library code sets it; a wait without one can only end
    in {!Deadlock}.  Must be called inside {!run}.
    @raise Deadlock when no scheduler is running. *)

val unpark : int -> unit
(** Make parked fiber [id] runnable again (no-op if it is not parked).
    Safe from any fiber and from the {!run} [on_switch]/[on_idle]
    hooks. *)

val is_parked : int -> bool
(** True while fiber [id] sits in the parked table. *)

val parked_count : unit -> int
val parked_ids : unit -> int list
(** Parked fiber ids, ascending, leaving out {!wait_until} joins (the
    scheduler wakes those; no reactor registration exists for them) —
    what the reactor's interest-set invariant audits against its waiter
    lists. *)

val cancel : ?reason:string -> int -> unit
(** Mark fiber [id] for cancellation: its next {!yield} or stall step
    raises {!Cancelled} [reason] inside it.  A {!park}ed victim,
    {!wait_until} joins included, is unparked so the mark is delivered at
    resume, and a cancelled join leaves no registration behind.  Safe to
    call from the {!run} [on_switch] and [on_idle] hooks (scheduler
    context) — where a guard's idle-deadline timer fires.  No-op outside {!run}; marking an already-marked
    fiber keeps the first reason. *)

val fiber_id : unit -> int
(** The id of the running fiber (main is 0); 0 outside {!run}. *)

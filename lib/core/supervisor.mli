(** Restart budgets and supervision trees for compartments.

    The engine contains a compartment crash (protection fault, SELinux
    denial, injected ENOMEM or channel fault) by terminating only that
    compartment; a supervisor decides what happens next.

    The {e flat} layer ({!supervise_sthread}, {!supervise_fork}) retries
    each faulted attempt up to [max_restarts] times with exponential
    backoff charged to the simulated clock; when the budget is exhausted
    the caller receives {!Gave_up} and degrades the one affected
    connection (HTTP 500, POP3 [-ERR], SSH disconnect) while the listener
    lives on.

    The {e tree} layer ({!node} / {!child} / [run_child_*]) adds named
    children with per-child {!health} state and one fixed restart-intensity
    budget: at most 5 faulted attempts per 10 µs of simulated time.
    Exceeding it escalates: the child is {!Quarantined} for 20 µs —
    further runs are refused outright, so the caller degrades immediately
    instead of burning a doomed spawn.  Siblings are never touched.  A
    child that stays clean for 10 µs has its fault history forgotten, so
    an early crash cannot inflate a long-lived worker's intensity forever.

    Kernel stats bumped: [supervisor.restart], [supervisor.gave_up],
    [supervisor.escalated], [supervisor.quarantine.refused],
    [supervisor.quarantine.lift], [supervisor.healthy_reset] — with
    matching trace instants for the state transitions. *)

val backoff_for : attempt:int -> int
(** The backoff charged after faulted attempt [attempt]: 100 ns doubled
    [attempt - 1] times, saturating (overflow-safely) at 1 s of simulated
    time. *)

type outcome =
  | Done of { value : int; attempts : int }
      (** The compartment terminated by exiting (any code, including
          nonzero protocol failures) on attempt [attempts]. *)
  | Gave_up of { attempts : int; last_fault : string }
      (** Every attempt faulted; [last_fault] is the final reason —
          prefixed ["escalated: "] when the intensity budget cut the
          retries short, ["quarantined: "] when the run was refused
          without an attempt ([attempts = 0]). *)

val supervise_sthread :
  ?max_restarts:int ->
  ?instr:Wedge_sim.Instr.t ->
  Engine.ctx ->
  Sc.t ->
  (Engine.ctx -> int -> int) ->
  int ->
  outcome
(** Run attempts, each a fresh default-deny sthread with grants [sc],
    until one exits or [max_restarts] (default 0) retries have faulted.
    A contained fault while creating the sthread (e.g. a resource quota
    hit) counts as a faulted attempt with reason prefix ["create: "] — it
    never propagates to the caller. *)

val supervise_fork : ?max_restarts:int -> Engine.ctx -> (Engine.ctx -> int) -> outcome
(** {!supervise_sthread} over {!Engine.fork} (the privsep baseline's
    slave). *)

(** {2 Supervision trees} *)

type health = Healthy | Degraded | Restarting | Quarantined
(** [Healthy]: no faults in the window.  [Degraded]: gave up (or still
    carrying window faults) but runnable.  [Restarting]: mid-retry, or
    just released from quarantine.  [Quarantined]: intensity budget
    exceeded; runs are refused until the quarantine expires. *)

type restart = Fresh | From_pool of Pool.t
(** Where a child's compartments come from.  [Fresh] boots every attempt
    the fork-priced way ({!Engine.sthread_create} / {!Engine.fork}).
    [From_pool] stamps every attempt from a frozen snapshot image
    ({!Pool.stamp}) at a flat cost independent of image size — so
    recovery after a quarantine escalation or a hang cut is O(1), the
    [sc] passed to {!run_child_sthread} riding along as the stamp's
    per-invocation extra grants.

    Quarantine throttles crash loops, and its length is priced against
    what a futile restart costs: a [From_pool] child serves a quarter of
    the quarantine (5 µs), because re-admitting it wastes a flat stamp
    rather than an O(pages) reboot.  Restart-intensity budgets thereby
    stop depending on image size. *)

type node
type child

val node : name:string -> Engine.ctx -> node
(** A supervision node under the fixed budget (see module doc). *)

val child : ?max_restarts:int -> ?restart:restart -> node -> name:string -> child
(** Register a named child.  [max_restarts] (default 0) bounds each run's
    retries; [restart] (default [Fresh]) selects fresh boots or pooled
    stamps.
    @raise Invalid_argument on a duplicate name within the node. *)

val run_child_sthread :
  ?on_restart:(unit -> unit) ->
  ?instr:Wedge_sim.Instr.t ->
  child ->
  Sc.t ->
  (Engine.ctx -> int -> int) ->
  int ->
  outcome
(** {!supervise_sthread} under the child's retries, plus tree
    accounting: every faulted attempt lands in the intensity window;
    exceeding the budget escalates (see module doc) and returns [Gave_up]
    with reason ["escalated: ..."].  While quarantined, returns [Gave_up {
    attempts = 0; last_fault = "quarantined: ..." }] without running
    anything.  Under [From_pool], each attempt is {!Pool.stamp} with [sc]
    as the extra grants; under [Fresh], {!Engine.sthread_create}.

    [on_restart] fires once per retry, after the backoff charge and
    before the next attempt — the hook for per-attempt repair work such
    as restarting the connection's idle clock, so the retry is not cut
    for its predecessor's silence ({!Wedge_net.Guard.rearm}). *)

val run_child_fork :
  ?on_restart:(unit -> unit) -> ?pool_extra:Sc.t -> child -> (Engine.ctx -> int) -> outcome
(** {!run_child_sthread} over {!Engine.fork}.  Under [From_pool], each
    attempt is a stamped sthread standing in for the fork, with
    [pool_extra] carrying the grants the fork would have inherited
    (typically the connection descriptor); [pool_extra] is ignored under
    [Fresh]. *)

val run_child_fn : ?on_restart:(unit -> unit) -> child -> (unit -> int) -> outcome
(** The same over a plain function in the caller's process — the shape
    of an accept loop: not a compartment, but restartable under the same
    budget when a contained fault leaks out of the serve path. *)

val child_health : child -> health

val quarantined_until : child -> int option
(** Simulated-clock instant the quarantine lifts, while quarantined. *)

val tree_to_string : node -> string
(** Deterministic one-line rendering: the node's health (its sickest
    child's) and each child's health and lifetime restarts, e.g.
    ["httpd[healthy]: listener=healthy/0, worker=degraded/3"]. *)

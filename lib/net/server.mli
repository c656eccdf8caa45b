(** One server signature, every serve path derived from it.

    The three partitioned servers (POP3, the Figure 2 httpd, the privsep
    sshd) differ only in how they split one connection into
    compartments.  Everything around that split — the guarded accept
    loop, one accept loop per shard, the declared supervision topology,
    the snapshot pool, and turning a supervised (or flat) worker outcome
    into "served" or "degraded" — is the same machinery.  A server
    implements {!S} once; {!Make} writes the rest. *)

type tree =
  Wedge_core.Supervisor.node * Wedge_core.Supervisor.child * Wedge_core.Supervisor.child
(** [(node, listener, worker)] — see {!Make.supervision_tree}. *)

(** What a server supplies. *)
module type S = sig
  type env
  (** What one shard of the server runs from: a booted environment, or
      just the trusted main context. *)

  val name : string
  (** Stat prefix and supervision-node name (["pop3"], ["httpd"],
      ["sshd"]): counters [<name>.rejected], [<name>.shed],
      [<name>.degraded]. *)

  val worker : string
  (** The per-connection compartment's child name (["worker"], or the
      privsep ["slave"]); the snapshot pool is named [<name>.<worker>]. *)

  val worker_policy : Wedge_core.Supervisor.policy
  (** Retry policy of the tree's worker child. *)

  val main : env -> Wedge_core.Wedge.ctx
  (** The trusted main context: supervision node owner, stat target,
      pool parent. *)

  val identity : env -> Wedge_core.Sc.t
  (** A fresh security context carrying the worker's boot identity —
      what {!Make.pool} freezes.  Per-connection grants ride in at stamp
      time. *)

  val reject : string option
  (** Reply to an over-capacity, draining or shed connection before it
      is closed; [None] closes silently. *)

  val serve_connection :
    supervised:Wedge_core.Supervisor.child option ->
    max_request_bytes:int option ->
    guard:Guard.conn ->
    env ->
    Chan.ep ->
    bool
  (** Serve one admitted connection, its worker under [supervised] when
      given; [true] unless the connection was degraded.
      [max_request_bytes] caps one request where the server has such a
      cap. *)
end

(** What {!Make} derives from it. *)
module type SERVE = sig
  type env

  val pool : env -> Wedge_core.Pool.t
  (** Freeze the worker's boot ({!S.identity}, heap warmed so the
      demand-mapped pages join the image) into a snapshot pool.  Pass to
      {!supervision_tree} for O(1) worker spawn and crash recovery. *)

  val supervision_tree : ?pool:Wedge_core.Pool.t -> env -> tree
  (** The declared topology: node {!S.name} with children ["listener"]
      (registered first, two accept-loop retries) and {!S.worker} (policy
      {!S.worker_policy}).  With [pool] every worker attempt is stamped
      from the frozen image instead of paying a fork-priced boot. *)

  val serve_loop :
    ?max_request_bytes:int -> ?supervision:tree -> env -> Guard.t -> Chan.listener -> unit
  (** Guarded accept loop: rejected connections get {!S.reject} and
      close (counter [<name>.rejected], breaker-shed ones [<name>.shed]);
      admitted ones run {!S.serve_connection} in their own fiber, the
      outcome reported to the guard's breaker.  With [supervision],
      workers run under the tree's worker child and the accept loop under
      ["listener"].  Returns once the listener shuts down — compose with
      {!Guard.drain}. *)

  val serve_sharded : ?max_request_bytes:int -> env array -> Shard.front -> unit
  (** Spawn one {!serve_loop} fiber per shard: shard [i] serves from
      [envs.(i)] behind the front door's shard-[i] guard and listener. *)
end

module Make (S : S) : SERVE with type env = S.env

(** {1 The worker-outcome dispatch} *)

type worker =
  | Sthread of Wedge_core.Sc.t * (Wedge_core.Wedge.ctx -> int -> int)
      (** A default-deny sthread with these grants. *)
  | Fork of Wedge_core.Sc.t * (Wedge_core.Wedge.ctx -> int)
      (** A forked child; the grants are what a pooled stand-in needs to
          match what the fork inherits (the connection descriptor). *)

val run_worker :
  name:string ->
  farewell:string option ->
  guard:Guard.conn option ->
  supervised:Wedge_core.Supervisor.child option ->
  policy:Wedge_core.Supervisor.policy ->
  Wedge_core.Wedge.ctx ->
  Chan.ep ->
  worker ->
  Wedge_kernel.Process.status * bool * int
(** Run one connection's worker under [supervised] (the tree child's
    policy and budget) or else the flat [policy], restarting the
    [guard]'s idle clock ({!Guard.rearm}) before each retry.  Returns [(status, degraded, attempts)]; on
    give-up the connection is {!degrade}d first. *)

val degrade : name:string -> farewell:string option -> Wedge_core.Wedge.ctx -> Chan.ep -> unit
(** Count [<name>.degraded] and send [farewell], if any, best-effort (the
    channel may already be reset). *)

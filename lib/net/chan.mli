(** Simulated duplex byte-stream channels (TCP-connection stand-ins).

    Reads park the calling {!Wedge_sim.Fiber} until data arrives or the
    peer closes; a read that blocks inside {!read} (rather than in
    {!wait_readable} before it) charges half a network round trip to the
    simulated clock when one is attached.  Endpoints convert to
    {!Wedge_kernel.Fd_table.endpoint}s so compartments reach the network
    only through descriptor permissions. *)

exception Refused of string
(** A connection attempt was refused: the listener's accept queue is at
    its backlog, or the listener is down (shut down / draining).  Part of
    the engine's contained-fault class (registered at link time), so a
    supervised compartment that reconnects after a drain dies contained —
    and restartable — rather than as a programming error. *)

type ep
(** One end of a duplex channel. *)

val pair :
  ?clock:Wedge_sim.Clock.t ->
  ?costs:Wedge_sim.Cost_model.t ->
  ?faults:Wedge_fault.Fault_plan.t ->
  ?trace:Wedge_sim.Trace.t ->
  ?capacity:int ->
  unit ->
  ep * ep
(** A connected pair of endpoints.  With [faults] attached, reads roll site
    ["chan.read"] and writes ["chan.write"]: [Drop]/[Truncate]/[Reset]
    tear the affected direction(s) down (readers see EOF; writers raise
    {!Wedge_fault.Fault_plan.Injected} — never a blocked peer, so fault
    injection cannot deadlock the cooperative scheduler), [Delay n]
    charges the attached clock, and [Crash] raises [Injected]
    immediately.

    [capacity] bounds in-flight bytes per direction: a writer at the high
    watermark parks and resumes once the reader drains to half.  If the
    whole world stalls while a writer is parked (the peer will never read,
    no timer will fire), the scheduler's stall rule tears the direction
    down and the write raises {!Wedge_kernel.Rlimit.Resource_exhausted}
    naming the bytes in flight — contained by the engine as a compartment
    fault, never a scheduler deadlock. *)

val read : ep -> int -> bytes
(** Up to [n] bytes; blocks until at least one byte or EOF; the empty result
    means the peer closed. *)

val read_exact : ep -> int -> bytes option
(** Exactly [n] bytes into one preallocated buffer, or [None] if the peer
    closes first or a faulted direction stops making progress (two
    consecutive empty reads without EOF terminate the loop). *)

val write : ep -> bytes -> unit
val write_string : ep -> string -> unit

val readv : ep -> Wedge_kernel.Vm.t -> (int * int) array -> int
(** [readv ep vm iovs] scatters buffered bytes into the [(addr, len)]
    runs in order through the checked kernel-copy path — one blocking
    wait, one fault-plan roll and one trace count for the whole vector,
    no intermediate buffers.  Returns the byte total; [0] means EOF.
    Bytes are consumed from the channel only after they land, so a
    protection fault on run [k] leaves runs [< k] delivered (a short
    readv) and the rest still buffered — never a torn run, never lost
    bytes. *)

val wait_readable : ep -> unit
(** Park until a read would make progress (data buffered, or EOF) — zero
    scheduler steps while idle.  The engine calls it (as the descriptor's
    [ep_wait]) before the syscall trap, so an idle descriptor burns no
    fuel. *)

val wait_rx : ?bytes:int -> ?on_stall:(unit -> unit) -> ep -> unit
(** {!wait_readable} generalized to a minimum byte count (default 1):
    returns once [bytes] are buffered or the direction closed.
    [on_stall] is the wait's {!Wedge_sim.Fiber.park} stall action. *)

val attach_reactor : Wedge_sim.Reactor.t -> ep -> unit
(** Let a reactor count and audit this connection's waits (both
    directions' interest sets).  Blocking itself is the same with or
    without one.  One call covers the peer endpoint too (the two ends
    share their dirs).  Idempotent. *)

val close : ep -> unit

val abort : ep -> unit
(** Forced teardown (RST): both directions die, pending bytes are lost;
    subsequent reads see EOF, writes raise a contained
    {!Wedge_fault.Fault_plan.Injected}.  What deadline enforcement and
    drain force-close use. *)

val is_eof : ep -> bool
val bytes_in_flight : ep -> int
(** Bytes buffered toward this endpoint. *)

val capacity : ep -> int option

val to_endpoint : ep -> Wedge_kernel.Fd_table.endpoint
(** Wrap as a descriptor target. *)

(** {2 Listeners} *)

type listener

val listener :
  ?clock:Wedge_sim.Clock.t ->
  ?costs:Wedge_sim.Cost_model.t ->
  ?faults:Wedge_fault.Fault_plan.t ->
  ?trace:Wedge_sim.Trace.t ->
  ?backlog:int ->
  ?capacity:int ->
  unit ->
  listener
(** [faults] is inherited by every accepted connection; {!connect} itself
    rolls site ["chan.connect"] (a fired fault refuses the connection by
    raising {!Wedge_fault.Fault_plan.Injected}).  [trace] records
    ["chan.connect"/"chan.accept"/"chan.refused"] instants and is
    inherited by every connection (["chan.read"/"chan.write"] counters,
    ["chan.abort"] instants).  [backlog] (default 128) caps the accept
    queue: overflow connects raise {!Refused}.  [capacity] is inherited
    by every connection's two directions. *)

val connect : listener -> ep
(** Client side of a fresh connection; the server side is queued for
    {!accept}.
    @raise Refused when the accept queue is at its backlog or the
    listener is down ([refused] counts both). *)

val accept : listener -> ep option
(** Parks until a connection arrives or the listener shuts down.  A
    connect burst wakes the acceptor once — the level-triggered re-check
    then drains the whole backlog without re-parking between
    connections. *)

val attach_listener : Wedge_sim.Reactor.t -> listener -> unit
(** Let a reactor count and audit the accept queue's waits, and
    auto-attach ({!attach_reactor}) every connection this listener mints
    from now on.  Idempotent. *)

val shutdown : listener -> unit
(** Stop accepting; still-queued (never-to-be-accepted) connections are
    reset so their clients see EOF rather than blocking forever. *)

val pending : listener -> int

val refused : listener -> int
(** Connects refused over this listener's lifetime (backlog overflow or
    down listener). *)

val register_metrics : ?name:string -> Wedge_sim.Metrics.t -> listener -> unit
(** Expose ["chan.refused"] (counter) and ["chan.pending"] (gauge) to a
    metrics registry.  [name] (default ["chan.listener"]) keys the source
    — pass distinct names to register several listeners. *)

(* Admission control and connection deadlines shared by every server.

   A guard sits between a listener and the per-connection compartments:
   it caps concurrent connections (overflow gets a protocol-specific
   rejection and an immediate close), enforces header/idle deadlines on
   the simulated clock so a slow-loris client is cut instead of pinning a
   worker forever, and offers [drain] — stop accepting, let in-flight
   connections finish under a deadline, then force-close stragglers.

   Cutting always goes through [Chan.abort]: the worker compartment sees
   EOF on read and a contained [Fault_plan.Injected] on write, both of
   which the engine maps to a compartment fault.  Never [Chan.close],
   whose [Invalid_argument] on a subsequent worker write would escape
   containment and kill the listener. *)

module Fiber = Wedge_sim.Fiber
module Clock = Wedge_sim.Clock
module Trace = Wedge_sim.Trace
module Metrics = Wedge_sim.Metrics
module Reactor = Wedge_sim.Reactor

(* ------------------------------------------------------------------ *)
(* Circuit breaker                                                     *)

(* Per-backend breaker over worker outcomes ([report]), one fixed
   configuration.  Closed → Open on either [streak] straight failures or a
   failure rate of at least [trip_rate] over [min_samples]+ outcomes
   inside [window_ns]; Open sheds every admission for [open_ns];
   Half_open lets [probes] probe connections through — all succeeding
   closes the breaker, any failing reopens it.  While still Closed but
   with the window failure rate at [brownout] or above, every second
   admission is shed (brownout): partial load shedding before the full
   trip. *)

type breaker_state = Closed | Open | Half_open

let streak = 3
let trip_rate = 0.5
let min_samples = 6
let window_ns = 40_000
let open_ns = 5_000
let probes = 2
let brownout = 0.3

type breaker = {
  mutable b_state : breaker_state;
  mutable b_events : (int * bool) list;  (* (ns, ok) outcomes, newest first *)
  mutable b_consecutive : int;  (* current failure streak *)
  mutable b_first_failure_ns : int;  (* streak start, -1 outside one *)
  mutable b_opened_at : int;
  mutable b_probes_admitted : int;
  mutable b_probe_successes : int;
  mutable b_brownout_tick : int;  (* alternator: shed every 2nd admit *)
  mutable b_opened : int;  (* times tripped, lifetime *)
  mutable b_shed : int;
  mutable b_reactions : int list;  (* first-failure -> open latency, newest first *)
}

type t = {
  max_conns : int;
  header_deadline_ns : int option;
  idle_deadline_ns : int option;
  trace : Trace.t;
  breaker : breaker option;
  reactor : Reactor.t;
      (* the guard's clock and timer wheel: deadlines are timers on it,
         the breaker ages on its clock, and admitted connections (and the
         accept loop's listener) are attached to it *)
  released : Reactor.handle;
      (* signalled at every [release]: what [drain] parks on *)
  mutable conns : conn list;
  mutable active_n : int;
      (* |conns|, maintained at admit/release so the admission check is
         O(1) — the list itself stays for drain/overdue iteration only *)
  mutable draining : bool;
  mutable admitted : int;
  mutable rejected_busy : int;
  mutable rejected_draining : int;
  mutable timed_out : int;
  mutable forced : int;
}

and conn = {
  g : t;
  ep : Chan.ep;
  opened_ns : int;
  mutable is_established : bool;
  mutable last_read_ns : int;
  mutable is_cut : bool;
  mutable is_released : bool;
      (* makes [release] idempotent without scanning the list to find
         out whether this conn was still in it *)
  mutable is_probe : bool;  (* admitted through a half-open breaker *)
  mutable is_reported : bool;  (* outcome already fed to the breaker *)
  mutable server : server;
}

(* Who serves a connection.  A caller of [admit] serves it itself, and
   its deadlines run from admission.  [accept_loop] admits a connection
   [Queued]; its deadlines start when the serve fiber does, and an idle
   cut cancels that fiber. *)
and server = Caller | Queued | Serve_fiber of int

type decision = Admitted of conn | Busy | Draining | Shed

type stats = {
  s_active : int;
  s_admitted : int;
  s_rejected_busy : int;
  s_rejected_draining : int;
  s_timed_out : int;
  s_forced : int;
  s_shed : int;
  s_breaker_opened : int;
}

let create ?header_deadline_ns ?idle_deadline_ns ?(breaker = false) ?(trace = Trace.null)
    ~reactor ~max_conns () =
  if max_conns <= 0 then invalid_arg "Guard.create: max_conns <= 0";
  let breaker =
    if not breaker then None
    else
      Some
        {
          b_state = Closed;
          b_events = [];
          b_consecutive = 0;
          b_first_failure_ns = -1;
          b_opened_at = 0;
          b_probes_admitted = 0;
          b_probe_successes = 0;
          b_brownout_tick = 0;
          b_opened = 0;
          b_shed = 0;
          b_reactions = [];
        }
  in
  {
    max_conns;
    header_deadline_ns;
    idle_deadline_ns;
    trace;
    breaker;
    reactor;
    released = Reactor.unbound ~name:"guard.released";
    conns = [];
    active_n = 0;
    draining = false;
    admitted = 0;
    rejected_busy = 0;
    rejected_draining = 0;
    timed_out = 0;
    forced = 0;
  }

let now t = Clock.now (Reactor.clock t.reactor)

(* Guard events carry pid 0: admission happens before any compartment
   exists for the connection. *)
let guard_pid = 0

(* Clock-driven breaker transition: an open breaker ages into half-open
   once [open_ns] has passed — checked lazily at every admission and
   report, so no timer fiber is needed. *)
let breaker_tick t b =
  if b.b_state = Open && now t - b.b_opened_at >= open_ns then begin
    b.b_state <- Half_open;
    b.b_probes_admitted <- 0;
    b.b_probe_successes <- 0;
    Trace.instant t.trace ~name:"guard.breaker.half_open" ~pid:guard_pid
  end

let prune_events t b =
  let n = now t in
  b.b_events <- List.filter (fun (ts, _) -> n - ts <= window_ns) b.b_events

(* Window failure rate; NaN-free: no samples means rate 0. *)
let failure_rate b =
  let total = List.length b.b_events in
  if total = 0 then 0.
  else
    float_of_int (List.length (List.filter (fun (_, ok) -> not ok) b.b_events))
    /. float_of_int total

let shed t b =
  b.b_shed <- b.b_shed + 1;
  Trace.instant t.trace ~name:"guard.breaker.shed" ~pid:guard_pid;
  Shed

(* What the breaker says about admitting one more connection:
   [`Admit is_probe] or [`Shed]. *)
let breaker_decision t =
  match t.breaker with
  | None -> `Admit false
  | Some b -> (
      breaker_tick t b;
      match b.b_state with
      | Open -> `Shed
      | Half_open ->
          if b.b_probes_admitted >= probes then `Shed
          else begin
            b.b_probes_admitted <- b.b_probes_admitted + 1;
            `Admit true
          end
      | Closed ->
          prune_events t b;
          if
            List.length b.b_events >= min_samples && failure_rate b >= brownout
          then begin
            (* Brownout: deterministic alternation, not a coin flip —
               every second admission is shed while the backend flaps. *)
            b.b_brownout_tick <- b.b_brownout_tick + 1;
            if b.b_brownout_tick mod 2 = 0 then `Shed else `Admit false
          end
          else `Admit false)

let idle_overdue c =
  match c.g.idle_deadline_ns with Some d -> now c.g - c.last_read_ns > d | None -> false

let overdue c =
  idle_overdue c
  ||
  match c.g.header_deadline_ns with
  | Some d when not c.is_established -> now c.g - c.opened_ns > d
  | _ -> false

let cut c =
  if not c.is_cut then begin
    c.is_cut <- true;
    c.g.timed_out <- c.g.timed_out + 1;
    Trace.instant c.g.trace ~name:"guard.cut" ~pid:guard_pid;
    Chan.abort c.ep
  end

(* An idle-deadline cut is a hang cut: besides the abort, the serve fiber
   is cancelled, which reclaims a worker parked on something other than
   this connection (the sshd slave mid-message on an internal channel) —
   it dies as a contained [Fiber.Cancelled] its supervisor can restart. *)
let hang_cut c =
  cut c;
  match c.server with
  | Serve_fiber id -> Fiber.cancel ~reason:"guard: connection idle past its deadline" id
  | Caller | Queued -> ()

(* Earliest instant at which [overdue] could flip true (deadlines use
   strict [>], hence the +1).  [None] once released/cut or when no
   deadline applies any more. *)
let next_deadline c =
  if c.is_released || c.is_cut then None
  else
    let hdr =
      match c.g.header_deadline_ns with
      | Some d when not c.is_established -> Some (c.opened_ns + d + 1)
      | _ -> None
    in
    let idle =
      match c.g.idle_deadline_ns with
      | Some d -> Some (c.last_read_ns + d + 1)
      | None -> None
    in
    match (hdr, idle) with
    | Some a, Some b -> Some (min a b)
    | (Some _ as x), None | None, x -> x

(* Fire-and-re-check deadline: one timer per connection, armed at the
   earliest candidate instant.  When it fires the deadline has either
   truly passed (cut — the channel abort wakes the parked worker to EOF;
   an idle deadline also cancels the serve fiber) or moved (bytes
   arrived, connection established, {!rearm}): arm a fresh timer at the
   new instant.  O(1) per event; no cancellation on the hot read path —
   timers on released/cut connections fire once into a no-op.  Being a
   timer, the deadline is also what [Reactor.idle] sleeps to when every
   fiber is parked, so a hang is cut even when nothing else moves the
   clock. *)
let rec arm_deadline c =
  match next_deadline c with
  | None -> ()
  | Some at ->
      ignore
        (Reactor.at c.g.reactor ~ns:at (fun () ->
             if not (c.is_released || c.is_cut) then
               if idle_overdue c then hang_cut c
               else if overdue c then cut c
               else arm_deadline c))

(* Admission without the deadline timer: [admit] arms it at once,
   [accept_loop] when the connection's serve fiber starts. *)
let claim t ep ~server =
  if t.draining then begin
    t.rejected_draining <- t.rejected_draining + 1;
    Trace.instant t.trace ~name:"guard.reject.draining" ~pid:guard_pid;
    Draining
  end
  else
    (* Breaker before capacity: shedding exists precisely to refuse work
       without burning a slot or a doomed compartment spawn. *)
    match breaker_decision t with
    | `Shed -> shed t (Option.get t.breaker)
    | `Admit is_probe ->
        if t.active_n >= t.max_conns then begin
          t.rejected_busy <- t.rejected_busy + 1;
          Trace.instant t.trace ~name:"guard.reject.busy" ~pid:guard_pid;
          Busy
        end
        else begin
          let n = now t in
          let c =
            {
              g = t;
              ep;
              opened_ns = n;
              is_established = false;
              last_read_ns = n;
              is_cut = false;
              is_released = false;
              is_probe;
              is_reported = false;
              server;
            }
          in
          t.conns <- c :: t.conns;
          t.active_n <- t.active_n + 1;
          t.admitted <- t.admitted + 1;
          Chan.attach_reactor t.reactor ep;
          Trace.instant t.trace ~name:"guard.admit" ~pid:guard_pid;
          Admitted c
        end

let admit t ep =
  let d = claim t ep ~server:Caller in
  (match d with Admitted c -> arm_deadline c | Busy | Draining | Shed -> ());
  d

(* Feed one connection's outcome to the breaker (idempotent per conn).
   Servers call this where they decide degraded-vs-served; unreported
   connections simply don't move the breaker. *)
let report c ~ok =
  match c.g.breaker with
  | None -> ()
  | Some b ->
      if not c.is_reported then begin
        c.is_reported <- true;
        let t = c.g in
        let n = now t in
        breaker_tick t b;
        b.b_events <- (n, ok) :: b.b_events;
        prune_events t b;
        if ok then begin
          b.b_consecutive <- 0;
          b.b_first_failure_ns <- -1;
          if b.b_state = Half_open && c.is_probe then begin
            b.b_probe_successes <- b.b_probe_successes + 1;
            if b.b_probe_successes >= probes then begin
              b.b_state <- Closed;
              b.b_events <- [];
              b.b_brownout_tick <- 0;
              Trace.instant t.trace ~name:"guard.breaker.close" ~pid:guard_pid
            end
          end
        end
        else begin
          b.b_consecutive <- b.b_consecutive + 1;
          if b.b_first_failure_ns < 0 then b.b_first_failure_ns <- n;
          let trip ~fresh_detection =
            b.b_state <- Open;
            b.b_opened_at <- n;
            b.b_opened <- b.b_opened + 1;
            (* Reaction time: first failure of this streak to the trip —
               the MTTR benchmark's breaker row.  Only a trip from
               [Closed] is a detection: a failed half-open probe reopens
               at the very instant its failure is recorded, so the
               zero-length "reaction" it used to push dragged the
               benchmark's p50 to 0 while the max stayed honest. *)
            if fresh_detection then
              b.b_reactions <- (n - b.b_first_failure_ns) :: b.b_reactions;
            b.b_consecutive <- 0;
            b.b_first_failure_ns <- -1;
            Trace.instant t.trace ~name:"guard.breaker.open" ~pid:guard_pid
          in
          match b.b_state with
          | Half_open ->
              (* A failed probe reopens immediately. *)
              trip ~fresh_detection:false
          | Closed ->
              if
                b.b_consecutive >= streak
                || (List.length b.b_events >= min_samples && failure_rate b >= trip_rate)
              then trip ~fresh_detection:true
          | Open -> ()
        end
      end

let breaker_state t = Option.map (fun b -> b.b_state) t.breaker

let breaker_reactions t =
  match t.breaker with None -> [] | Some b -> List.rev b.b_reactions

let breaker_summary t =
  match t.breaker with
  | None -> "-"
  | Some b ->
      Printf.sprintf "%s opened=%d shed=%d"
        (match b.b_state with Closed -> "closed" | Open -> "open" | Half_open -> "half-open")
        b.b_opened b.b_shed

let release c =
  (* Idempotent by flag, not by scanning: double releases (worker finally
     + drain force-clear) must be cheap no-ops, not O(n) list walks. *)
  if not c.is_released then begin
    c.is_released <- true;
    let g = c.g in
    g.conns <- List.filter (fun c' -> c' != c) g.conns;
    g.active_n <- g.active_n - 1;
    (* Freeing a slot wakes a parked drain. *)
    Reactor.signal g.released
  end

let established c =
  c.is_established <- true;
  c.last_read_ns <- now c.g

(* Restart the idle clock.  A supervisor retrying the worker in the same
   serve fiber (after a backoff, or a pooled restamp) passes this as its
   [on_restart] hook, so the new attempt is not cut for its
   predecessor's silence; the pending timer finds the deadline moved and
   re-arms. *)
let rearm c = c.last_read_ns <- now c.g

let ep c = c.ep

(* Deadline-aware reads, plain and vectored.  The worker parks for data
   or EOF; the deadline lives on the reactor's timer wheel, and a cut
   aborts the channel, which kills its interest sets and wakes this park
   to EOF.  The worker compartment thus never holds a slot past its
   deadline.  [readable] says whether the read may go ahead. *)
let readable c =
  if c.is_cut then false
  else if overdue c then begin
    cut c;
    false
  end
  else begin
    Chan.wait_readable c.ep;
    not c.is_cut
  end

(* Progress: delivered bytes restart the idle clock. *)
let delivered c n = if n > 0 then c.last_read_ns <- now c.g

let endpoint c =
  {
    Wedge_kernel.Fd_table.ep_read =
      (fun n ->
        if readable c then begin
          let b = Chan.read c.ep n in
          delivered c (Bytes.length b);
          b
        end
        else Bytes.empty);
    ep_write = (fun b -> Chan.write c.ep b);
    ep_close = (fun () -> Chan.close c.ep);
    ep_eof = (fun () -> c.is_cut || Chan.is_eof c.ep);
    ep_desc = "guarded-chan";
    (* The engine calls [ep_wait] before charging the syscall trap, so a
       parked worker burns zero fuel while its client is silent. *)
    ep_wait = (fun () -> if (not c.is_cut) && not (overdue c) then Chan.wait_readable c.ep);
    ep_readv =
      (fun vm iovs ->
        if readable c then begin
          let n = Chan.readv c.ep vm iovs in
          delivered c n;
          n
        end
        else 0);
  }

let accept_loop t l ~reject ~serve =
  (* The guard's reactor counts and audits the acceptor's waits and every
     connection the listener mints from now on. *)
  Chan.attach_listener t.reactor l;
  let rec loop () =
    match Chan.accept l with
    | None -> ()
    | Some ep ->
        (match claim t ep ~server:Queued with
        | Admitted c ->
            Fiber.spawn (fun () ->
                Fun.protect
                  ~finally:(fun () -> release c)
                  (fun () ->
                    (* The deadlines start with the worker: time queued
                       behind other connections' boots is not a hang. *)
                    c.server <- Serve_fiber (Fiber.fiber_id ());
                    rearm c;
                    arm_deadline c;
                    (* A contained fault escaping the serve path (e.g. a
                       hang cut's cancellation delivered outside any
                       compartment) kills this connection, never the
                       accept loop. *)
                    try serve c
                    with e when Wedge_core.Engine.fault_reason e <> None -> ()))
        | (Busy | Draining | Shed) as d ->
            (* Rejection is best-effort: a client that vanished before we
               answer must not take the accept loop down. *)
            (try reject d ep with _ -> ());
            (try Chan.close ep with _ -> ()));
        loop ()
  in
  loop ()

(* Drain state machine: accepting -> draining (listener down, in-flight
   finishing) -> forced (deadline timer or stall: every remaining
   connection aborted) -> drained.  The drainer parks on the release
   signal.  Termination is guaranteed by the scheduler's stall rule: a
   stall forces, and a second stall after forcing forfeits the slots —
   the workers have already been cut. *)
let drain ?deadline_ns t l =
  t.draining <- true;
  Trace.span_begin t.trace ~name:"guard.drain" ~pid:guard_pid;
  Chan.shutdown l;
  let forced = ref false in
  let force () =
    if not !forced then begin
      forced := true;
      Trace.instant t.trace ~name:"guard.drain.forced" ~pid:guard_pid;
      List.iter
        (fun c ->
          if not c.is_cut then begin
            c.is_cut <- true;
            t.forced <- t.forced + 1;
            Chan.abort c.ep
          end)
        t.conns
    end
  in
  (* Already-forced stragglers whose workers never ran their finally:
     their slots are forfeit — mark each released so a late [release]
     stays a no-op and the active count agrees with the emptied list. *)
  let forfeit () =
    List.iter (fun c -> c.is_released <- true) t.conns;
    t.conns <- [];
    t.active_n <- 0
  in
  Option.iter
    (fun d -> ignore (Reactor.after t.reactor ~ns:d (fun () -> if t.conns <> [] then force ())))
    deadline_ns;
  Reactor.wait t.released ~what:"guard drain"
    ~ready:(fun () -> t.conns = [])
    ~on_stall:(fun () -> if !forced then forfeit () else force ());
  Trace.span_end t.trace ~name:"guard.drain" ~pid:guard_pid

let active t = t.active_n
let draining t = t.draining

(* Internal-consistency audit for the invariant oracle: the O(1) counter
   must agree with the list it shadows, and a released connection must
   never linger in the list (release removes it under the same flag that
   makes it idempotent — drift between the two means a double-admit or a
   lost release). *)
let self_check t =
  let n = List.length t.conns in
  if t.active_n <> n then
    Some
      (Printf.sprintf "guard: active_n = %d but %d live connections" t.active_n n)
  else
    match List.find_opt (fun c -> c.is_released) t.conns with
    | Some _ -> Some "guard: released connection still on the live list"
    | None ->
        if t.active_n > t.max_conns then
          Some
            (Printf.sprintf "guard: active_n = %d exceeds max_conns = %d"
               t.active_n t.max_conns)
        else None

(* Oracle invariant for the deadline timers: no live connection whose
   deadlines have started stays overdue by more than [slack_ns] without
   being cut. *)
let deadline_check ~slack_ns t =
  let n = now t in
  List.find_map
    (fun c ->
      match next_deadline c with
      | Some at when c.server <> Queued && n - at >= slack_ns ->
          Some (Printf.sprintf "guard: connection overdue %d ns past its deadline, uncut" (n - at + 1))
      | _ -> None)
    t.conns

let stats t =
  {
    s_active = t.active_n;
    s_admitted = t.admitted;
    s_rejected_busy = t.rejected_busy;
    s_rejected_draining = t.rejected_draining;
    s_timed_out = t.timed_out;
    s_forced = t.forced;
    s_shed = (match t.breaker with Some b -> b.b_shed | None -> 0);
    s_breaker_opened = (match t.breaker with Some b -> b.b_opened | None -> 0);
  }

let register_metrics ?(name = "guard") m t =
  Metrics.register m ~name ~kind:Metrics.Counter (fun () ->
      [
        ("guard.admitted", t.admitted);
        ("guard.rejected_busy", t.rejected_busy);
        ("guard.rejected_draining", t.rejected_draining);
        ("guard.timed_out", t.timed_out);
        ("guard.forced", t.forced);
      ]
      @
      match t.breaker with
      | None -> []
      | Some b ->
          [
            ("guard.breaker.opened", b.b_opened);
            ("guard.breaker.shed", b.b_shed);
          ]);
  Metrics.register m ~name:(name ^ ".gauges") (fun () ->
      ("guard.active", t.active_n)
      ::
      (match t.breaker with
      | None -> []
      | Some b ->
          [
            ( "guard.breaker.state",
              match b.b_state with Closed -> 0 | Half_open -> 1 | Open -> 2 );
          ]))

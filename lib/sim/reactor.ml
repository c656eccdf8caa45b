(* Readiness reactor: the epoll-style core of every blocking wait.

   A blocked fiber never polls: it registers a waiter on a [handle] and
   [Fiber.park]s.  The producer side calls [signal] at the moment the
   state changes (bytes pushed, space drained, direction closed,
   connection queued, slot released) and every waiter of that handle
   wakes in one batch.  Waits are level-triggered: a woken waiter
   re-checks its [ready] closure and re-parks on a spurious wake, so a
   signal can never be lost to a race and never needs to be precise.

   A handle works from creation ([unbound]); [bind] only decides which
   reactor counts its parks and wakes and audits its interest set.  Waits
   on an unbound handle are neither counted nor audited — except that the
   audit must not mistake such a parked fiber for a leaked
   registration.

   Deadlines live on a timer wheel keyed by the simulated clock:
   [tick] — wired into the scheduler as its [on_switch] hook — fires
   every timer that has come due since the clock last moved.  When the
   whole system is parked (every connection idle, nothing runnable), the
   scheduler's [on_idle] hook calls [idle], which advances the clock
   straight to the next armed timer — exactly how a real event loop
   sleeps in epoll_wait until its earliest timeout.

   Everything is deterministic: waiters wake in fiber-id order, timers
   fire in (deadline, creation) order, and the counters below are pure
   functions of the schedule. *)

type waiter = {
  w_fiber : int;
  w_ready : unit -> bool;
}

type handle = {
  mutable h_id : int;  (* key in the bound reactor's [waiting] table *)
  h_name : string;
  mutable h_r : t option;  (* the reactor that counts and audits *)
  mutable h_dead : bool;
  mutable h_waiters : waiter list;  (* registration order, newest first *)
}

and timer = {
  tm_id : int;
  tm_at : int;  (* absolute simulated ns *)
  mutable tm_fire : (unit -> unit) option;  (* None = cancelled *)
}

and t = {
  r_clock : Clock.t;
  r_trace : Trace.t;
  mutable next_handle : int;
  mutable next_timer : int;
  mutable timers : timer list;  (* sorted by (tm_at, tm_id) *)
  waiting : (int, handle) Hashtbl.t;  (* handles with live waiters *)
  mutable last_now : int;  (* clock value at the last timer sweep *)
  mutable timers_dirty : bool;  (* a timer was armed since that sweep *)
  mutable c_signals : int;  (* wake batches delivered *)
  mutable c_wakeups : int;  (* fibers woken *)
  mutable c_parks : int;  (* times a fiber parked on a handle *)
  mutable c_timer_fires : int;
  mutable c_idle_advances : int;  (* clock jumps to the next timer *)
}

let create ?(trace = Trace.null) ~clock () =
  {
    r_clock = clock;
    r_trace = trace;
    next_handle = 0;
    next_timer = 0;
    timers = [];
    waiting = Hashtbl.create 64;
    last_now = -1;
    timers_dirty = false;
    c_signals = 0;
    c_wakeups = 0;
    c_parks = 0;
    c_timer_fires = 0;
    c_idle_advances = 0;
  }

let clock r = r.r_clock

(* Reactor events carry pid 0, like the wire: they belong to the event
   loop, not to any compartment. *)
let reactor_pid = 0

(* Fibers parked on unbound handles, for the audit's
   parked-without-registration check (fiber id -> handle). *)
let unbound_waiters : (int, handle) Hashtbl.t = Hashtbl.create 16

let unbound ~name =
  { h_id = -1; h_name = name; h_r = None; h_dead = false; h_waiters = [] }

(* Idempotent: a handle stays with the first reactor it was bound to.
   Waiters already parked join its interest set, so the audit sees them. *)
let bind r h =
  if Option.is_none h.h_r then begin
    h.h_id <- r.next_handle;
    r.next_handle <- r.next_handle + 1;
    h.h_r <- Some r;
    if h.h_waiters <> [] then begin
      Hashtbl.replace r.waiting h.h_id h;
      List.iter (fun w -> Hashtbl.remove unbound_waiters w.w_fiber) h.h_waiters
    end
  end

let handle r ~name =
  let h = unbound ~name in
  bind r h;
  h

let remove_waiter h w =
  h.h_waiters <- List.filter (fun x -> x != w) h.h_waiters;
  match h.h_r with
  | Some r -> if h.h_waiters = [] then Hashtbl.remove r.waiting h.h_id
  | None -> Hashtbl.remove unbound_waiters w.w_fiber

(* One wake batch: every waiter of the handle back on the run queue, in
   fiber-id order so the wake order is a pure function of who waited,
   not of list-splicing history. *)
let signal h =
  match h.h_waiters with
  | [] -> ()
  | ws ->
      h.h_waiters <- [];
      let ws = List.sort (fun a b -> compare a.w_fiber b.w_fiber) ws in
      (match h.h_r with
      | None -> List.iter (fun w -> Hashtbl.remove unbound_waiters w.w_fiber) ws
      | Some r ->
          r.c_signals <- r.c_signals + 1;
          r.c_wakeups <- r.c_wakeups + List.length ws;
          Hashtbl.remove r.waiting h.h_id;
          if Trace.enabled r.r_trace then
            Trace.count r.r_trace ~name:"reactor.wake" ~pid:reactor_pid
              ~value:(List.length ws));
      List.iter (fun w -> Fiber.unpark w.w_fiber) ws

let kill h =
  if not h.h_dead then begin
    h.h_dead <- true;
    signal h
  end

let is_dead h = h.h_dead

(* Level-triggered wait: park until [ready], re-checking on every wake.
   A dead handle never blocks — the caller's own state (closed flag, EOF)
   carries the final answer.  A cancellation delivered while parked (a
   guard's idle deadline cutting this fiber) or an exception from the stall action
   must not leave a ghost registration behind: the waiter entry is
   dropped before the action runs and on the exception path too. *)
let wait ?on_stall h ~what ~ready =
  while not (h.h_dead || ready ()) do
    let w = { w_fiber = Fiber.fiber_id (); w_ready = ready } in
    h.h_waiters <- w :: h.h_waiters;
    (match h.h_r with
    | Some r ->
        if not (Hashtbl.mem r.waiting h.h_id) then Hashtbl.replace r.waiting h.h_id h;
        r.c_parks <- r.c_parks + 1
    | None -> Hashtbl.replace unbound_waiters w.w_fiber h);
    let on_stall =
      match on_stall with
      | None -> None
      | Some f ->
          Some
            (fun () ->
              remove_waiter h w;
              f ())
    in
    (try Fiber.park ?on_stall ~what ()
     with e ->
       remove_waiter h w;
       raise e);
    (* A signal already removed us; a stray unpark did not. *)
    remove_waiter h w
  done

(* ------------------------------------------------------------------ *)
(* Timer wheel (simulated clock)                                       *)

type timer_id = int

let insert_timer r tm =
  r.timers_dirty <- true;
  let rec ins = function
    | [] -> [ tm ]
    | t :: rest as l ->
        if (tm.tm_at, tm.tm_id) < (t.tm_at, t.tm_id) then tm :: l
        else t :: ins rest
  in
  r.timers <- ins r.timers

let at r ~ns fire =
  let id = r.next_timer in
  r.next_timer <- id + 1;
  insert_timer r { tm_id = id; tm_at = ns; tm_fire = Some fire };
  id

let after r ~ns fire = at r ~ns:(Clock.now r.r_clock + ns) fire

let cancel_timer r id =
  List.iter (fun tm -> if tm.tm_id = id then tm.tm_fire <- None) r.timers

let pending_timers r =
  List.length
    (List.filter (fun tm -> match tm.tm_fire with Some _ -> true | None -> false)
       r.timers)

(* Fire everything due.  The sweep is gated on the clock having moved
   (or a timer having been armed) since the last one, so the hook's cost
   on a switch where nothing happened is one comparison — the off-path
   price of an armed reactor stays O(1), never O(timers). *)
let tick r =
  let now = Clock.now r.r_clock in
  if now <> r.last_now || r.timers_dirty then begin
    r.last_now <- now;
    r.timers_dirty <- false;
    let rec fire () =
      match r.timers with
      | tm :: rest when tm.tm_at <= now ->
          r.timers <- rest;
          (match tm.tm_fire with
          | Some f ->
              r.c_timer_fires <- r.c_timer_fires + 1;
              if Trace.enabled r.r_trace then
                Trace.instant r.r_trace ~name:"reactor.timer" ~pid:reactor_pid;
              f ()
          | None -> ());
          fire ()
      | _ -> ()
    in
    fire ()
  end

let hook r () = tick r

(* Earliest armed timer, if any — the deadline [idle] would sleep to. *)
let next_deadline r =
  let rec earliest = function
    | [] -> None
    | tm :: rest -> (
        match tm.tm_fire with Some _ -> Some tm.tm_at | None -> earliest rest)
  in
  earliest r.timers

(* The scheduler is idle with parked fibers: sleep until the earliest
   armed timer by advancing the simulated clock to it, then sweep.
   Returns false when no timer is armed — the scheduler then reports the
   parked fibers as deadlocked. *)
let idle r () =
  match next_deadline r with
  | None -> false
  | Some at ->
      let now = Clock.now r.r_clock in
      if at > now then begin
        Clock.charge r.r_clock (at - now);
        r.c_idle_advances <- r.c_idle_advances + 1
      end;
      tick r;
      true

(* Multi-reactor idle, for shards: each reactor runs on its own clock
   (shards are parallel machines), so absolute deadlines are not
   comparable across reactors.  The reactor whose earliest timer is the
   *smallest relative delay* from its own now is the one a real cluster
   would wake first; ties break on list order, so the choice is a pure
   function of the reactor states.  Advance only that shard's clock and
   sweep only it — the other shards' clocks must not move for a timer
   that is not theirs. *)
let idle_multi rs () =
  let best = ref None in
  List.iter
    (fun r ->
      match next_deadline r with
      | None -> ()
      | Some at ->
          let delay = max 0 (at - Clock.now r.r_clock) in
          (match !best with
          | Some (_, d) when d <= delay -> ()
          | _ -> best := Some (r, delay)))
    rs;
  match !best with
  | None -> false
  | Some (r, delay) ->
      if delay > 0 then begin
        Clock.charge r.r_clock delay;
        r.c_idle_advances <- r.c_idle_advances + 1
      end;
      tick r;
      true

(* ------------------------------------------------------------------ *)
(* Audit and observability                                             *)

type stats = {
  signals : int;
  wakeups : int;
  parks : int;
  timer_fires : int;
  idle_advances : int;
  parked : int;
  timers : int;
}

let waiter_count r =
  Hashtbl.fold (fun _ h n -> n + List.length h.h_waiters) r.waiting 0

let stats r =
  {
    signals = r.c_signals;
    wakeups = r.c_wakeups;
    parks = r.c_parks;
    timer_fires = r.c_timer_fires;
    idle_advances = r.c_idle_advances;
    parked = waiter_count r;
    timers = pending_timers r;
  }

(* Interest sets must agree with the scheduler's parked table at every
   sync point:
   - a waiter still registered and still parked whose [ready] is already
     true is a lost wakeup (someone changed state without signalling);
   - waiters on a dead handle are ghost registrations ([kill] wakes
     everyone, and [wait] never registers on a dead handle);
   - a parked fiber with no registration anywhere can never be woken by
     the reactor (a registration leaked on some exception path).
   A registered waiter that is NOT parked is fine — that is the window
   between an unpark (signal or cancel) and the fiber running its
   cleanup.

   The parked-without-registration check is global over the scheduler's
   parked table, so with several reactors armed (one per shard) it must
   see the union of every reactor's interest sets — a fiber parked on
   shard 2's reactor is not a leak just because shard 0's audit ran
   first.  [self_check_multi] takes that union; [self_check] is the
   single-reactor special case. *)
let check_handles r report =
  Hashtbl.iter
    (fun _ h ->
      if h.h_dead && h.h_waiters <> [] then
        report
          (Printf.sprintf "reactor: %d waiter(s) on dead handle %s"
             (List.length h.h_waiters) h.h_name)
      else
        List.iter
          (fun w ->
            if Fiber.is_parked w.w_fiber && w.w_ready () then
              report
                (Printf.sprintf
                   "reactor: lost wakeup — handle %s ready but fiber %d still \
                    parked"
                   h.h_name w.w_fiber))
          h.h_waiters)
    r.waiting

let self_check_multi rs =
  let problem = ref None in
  let report msg = if !problem = None then problem := Some msg in
  List.iter (fun r -> check_handles r report) rs;
  (match !problem with
  | Some _ -> ()
  | None ->
      let registered = Hashtbl.create 16 in
      List.iter
        (fun r ->
          Hashtbl.iter
            (fun _ h ->
              List.iter
                (fun w -> Hashtbl.replace registered w.w_fiber ())
                h.h_waiters)
            r.waiting)
        rs;
      let waits_unbound id =
        match Hashtbl.find_opt unbound_waiters id with
        | Some h -> List.exists (fun w -> w.w_fiber = id) h.h_waiters
        | None -> false
      in
      List.iter
        (fun id ->
          if not (Hashtbl.mem registered id || waits_unbound id) then
            report
              (Printf.sprintf
                 "reactor: fiber %d parked with no waiter registration" id))
        (Fiber.parked_ids ()));
  !problem

let self_check r = self_check_multi [ r ]

let register_metrics ?(name = "reactor") m r =
  Metrics.register m ~name ~kind:Metrics.Counter (fun () ->
      [
        ("reactor.signals", r.c_signals);
        ("reactor.wakeups", r.c_wakeups);
        ("reactor.parks", r.c_parks);
        ("reactor.timer_fires", r.c_timer_fires);
        ("reactor.idle_advances", r.c_idle_advances);
      ]);
  Metrics.register m ~name:(name ^ ".gauges") (fun () ->
      [
        ("reactor.parked", waiter_count r);
        ("reactor.waiting_handles", Hashtbl.length r.waiting);
        ("reactor.timers", pending_timers r);
      ])

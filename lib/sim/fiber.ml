open Effect
open Effect.Deep
module Fault_plan = Wedge_fault.Fault_plan
module Rng = Wedge_fault.Rng

type _ Effect.t += Yield : unit Effect.t
type _ Effect.t += Spawn : (unit -> unit) -> unit Effect.t

type _ Effect.t += Park : bool -> unit Effect.t
(* Like [Yield], but the continuation is NOT re-enqueued: the fiber goes
   into the parked table and runs again only when [unpark] moves it back
   to the run queue.  Every blocking wait in the stack is built on this —
   a blocked fiber costs the scheduler nothing until the event it waits
   for actually happens.  The flag says whether the fiber declared a
   stall action (see [resolve_stall]). *)

exception Deadlock of string

exception Cancelled of string
(* Delivered inside a fiber at its next yield (or stall step / wait-until
   spin) after [cancel] marked it.  A guard's idle-deadline cut uses this
   to tear down a hung compartment: the engine registers [Cancelled] as a contained
   fault class, so a cancelled worker dies like a crashed one — the
   listener and every other fiber keep running. *)

(* ------------------------------------------------------------------ *)
(* Scheduling policies                                                 *)

(* Round_robin keeps the historical FIFO queue, byte-for-byte: every
   seeded replay test in the suite depends on that order.  The other
   policies schedule from an array-backed pool of runnable fibers and
   record, per step, the pool index they picked — the decision trace.
   Feeding a trace back through [Replay] reproduces the run exactly,
   which is what exploration drivers use to shrink a failing schedule. *)
type policy =
  | Round_robin
  | Random of int  (** uniformly random runnable fiber, from the seed *)
  | Pct of {
      seed : int;
      change_prob : float;
          (** probability, per scheduling step, that the currently
              highest-priority fiber is demoted below everyone else — the
              PCT "priority change point" *)
    }
  | Replay of int array
      (** replay recorded pool indices; out of range / exhausted entries
          fall back to index 0, so truncated traces still run *)

let policy_to_string = function
  | Round_robin -> "round-robin"
  | Random seed -> Printf.sprintf "random:%d" seed
  | Pct { seed; change_prob } -> Printf.sprintf "pct:%d:%g" seed change_prob
  | Replay d -> Printf.sprintf "replay[%d]" (Array.length d)

type task = {
  t_id : int;
  t_run : unit -> unit;
}

let dummy_task = { t_id = -1; t_run = (fun () -> ()) }

type sched = {
  policy : policy;
  runq : (unit -> unit) Queue.t;  (* Round_robin *)
  mutable pool : task array;  (* every other policy *)
  mutable pool_n : int;
  rng : Rng.t;
  prio : (int, int) Hashtbl.t;  (* Pct: fiber id -> priority *)
  mutable demote_next : int;  (* strictly decreasing fresh minima *)
  mutable last_pick : int;  (* Pct anti-starvation state *)
  mutable picks_in_a_row : int;
  mutable stamp_at_pick : int;
  mutable replay_pos : int;
  mutable decisions : int list;  (* newest first *)
  on_switch : (unit -> unit) option;
  on_idle : (unit -> bool) option;
      (* called when nothing is runnable but fibers are parked; returns
         true when it made progress (advanced the clock to a timer, fired
         one) and the scheduler should look at the queue again *)
  mutable stamp : int;  (* bumped by [progress] *)
  mutable active : bool;
  mutable cur : int;  (* id of the running fiber *)
  mutable next_id : int;
  blocked : (int, string) Hashtbl.t;  (* fiber id -> awaited condition *)
  parked : (int, unit -> unit) Hashtbl.t;
      (* fiber id -> resume thunk; parked fibers are OFF the run queue
         entirely — [unpark] is the only way back *)
  stallable : (int, unit) Hashtbl.t;  (* parked fibers with a stall action *)
  stalled : (int, unit) Hashtbl.t;
      (* fibers unparked by [resolve_stall], whose stall action runs at
         resume *)
  cancelled : (int, string) Hashtbl.t;  (* fiber id -> cancel reason *)
  faults : Fault_plan.t option;
  clock : Clock.t option;  (* charged by induced stalls (site "fiber.stall") *)
}

let current : sched option ref = ref None
let in_scheduler () = !current <> None
let progress () = match !current with Some s -> s.stamp <- s.stamp + 1 | None -> ()
let stamp () = match !current with Some s -> s.stamp | None -> 0
let fiber_id () = match !current with Some s -> s.cur | None -> 0

(* Deliver a pending cancellation exactly once: the flag is consumed on
   raise, so a supervisor restarting the cancelled worker does not see the
   retry die instantly from the same stale mark. *)
let check_cancel s =
  match Hashtbl.find_opt s.cancelled s.cur with
  | Some reason ->
      Hashtbl.remove s.cancelled s.cur;
      raise (Cancelled reason)
  | None -> ()

let cancel_pending id =
  match !current with None -> false | Some s -> Hashtbl.mem s.cancelled id

(* An induced hang (site "fiber.stall", kind [Delay ns]): burn [ns] of
   simulated time across several yields.  Each resume checks for
   cancellation first, so a hang cut that cancels the stalled fiber turns
   the hang into a contained [Cancelled] death mid-stall; an uncut stall is
   transient — the fiber resumes where it left off. *)
let stall s total =
  let chunk = max 1 (total / 8) in
  let rec go remaining =
    if remaining > 0 then begin
      check_cancel s;
      (match s.clock with
      | Some c ->
          Clock.charge c (min chunk remaining);
          (* Advancing the clock is global progress: deadline-based guards
             must get to observe it rather than read the stall as a wedged
             system. *)
          progress ()
      | None -> ());
      perform Yield;
      go (remaining - chunk)
    end
  in
  go total;
  check_cancel s

let yield () =
  match !current with
  | None -> ()
  | Some s ->
      check_cancel s;
      (match Fault_plan.roll_opt s.faults ~site:"fiber.yield" with
      | Some k -> Fault_plan.fail ~site:"fiber.yield" k
      | None -> ());
      (match Fault_plan.roll_opt s.faults ~site:"fiber.stall" with
      | Some (Fault_plan.Delay ns) -> stall s ns
      | Some k -> Fault_plan.fail ~site:"fiber.stall" k
      | None -> ());
      perform Yield

let spawn f =
  match !current with
  | Some _ -> perform (Spawn f)
  | None -> invalid_arg "Fiber.spawn: not inside Fiber.run"

(* "never (blocked: fiber 0 awaiting never, fiber 2 awaiting channel data)" *)
let deadlock_message s what =
  let entries =
    Hashtbl.fold (fun id w acc -> (id, w) :: acc) s.blocked []
    |> List.sort compare
    |> List.map (fun (id, w) -> Printf.sprintf "fiber %d awaiting %s" id w)
  in
  Printf.sprintf "%s (blocked: %s)" what (String.concat ", " entries)

(* ------------------------------------------------------------------ *)
(* Pool scheduling (Random / Pct / Replay)                             *)

let pool_push s task =
  let n = Array.length s.pool in
  if s.pool_n = n then begin
    let bigger = Array.make (max 8 (2 * n)) dummy_task in
    Array.blit s.pool 0 bigger 0 n;
    s.pool <- bigger
  end;
  s.pool.(s.pool_n) <- task;
  s.pool_n <- s.pool_n + 1

let pool_take s i =
  let t = s.pool.(i) in
  s.pool_n <- s.pool_n - 1;
  s.pool.(i) <- s.pool.(s.pool_n);
  s.pool.(s.pool_n) <- dummy_task;
  t

let enqueue s ~id thunk =
  match s.policy with
  | Round_robin -> Queue.push thunk s.runq
  | _ -> pool_push s { t_id = id; t_run = thunk }

(* ------------------------------------------------------------------ *)
(* Park / unpark                                                       *)

let is_parked id =
  match !current with Some s -> Hashtbl.mem s.parked id | None -> false

let parked_count () =
  match !current with Some s -> Hashtbl.length s.parked | None -> 0

let parked_ids () =
  match !current with
  | None -> []
  | Some s ->
      Hashtbl.fold (fun id _ acc -> id :: acc) s.parked [] |> List.sort compare

let unpark_in s id =
  match Hashtbl.find_opt s.parked id with
  | None -> ()
  | Some thunk ->
      Hashtbl.remove s.parked id;
      Hashtbl.remove s.stallable id;
      s.stamp <- s.stamp + 1;
      enqueue s ~id thunk

(* Move a parked fiber back to the run queue.  Waking someone is global
   progress — a join spinning in [wait_until] must see the wake as
   forward motion. *)
let unpark id = match !current with None -> () | Some s -> unpark_in s id

(* The stall rule.  Nothing can run and no timer can fire: every parked
   fiber that declared a stall action is unparked, in fiber-id order,
   and runs its action at resume — a bounded writer whose peer never
   reads tears its direction down and raises a contained error, a drain
   forces its stragglers.  [false] when nobody declared one: the world
   is truly deadlocked.  The scheduler's idle path and [wait_until]'s
   no-progress branch both end here before raising [Deadlock]. *)
let resolve_stall s =
  let ids = Hashtbl.fold (fun id () acc -> id :: acc) s.stallable [] |> List.sort compare in
  List.iter
    (fun id ->
      Hashtbl.replace s.stalled id ();
      unpark_in s id)
    ids;
  ids <> []

let wait_until ?(what = "condition") cond =
  match !current with
  | None ->
      if not (cond ()) then
        raise (Deadlock (Printf.sprintf "%s (no scheduler running)" what))
  | Some s ->
      if not (cond ()) then begin
        let id = s.cur in
        Hashtbl.replace s.blocked id what;
        let finish () = Hashtbl.remove s.blocked id in
        let rec loop last_stamp spins =
          if not (cond ()) then begin
            check_cancel s;
            (* If we have spun through the run queue many times with no
               global progress, every other fiber is blocked too — but a
               blocked world with an armed reactor timer is asleep, not
               dead.  The queue never empties while this fiber spins, so
               the scheduler's own idle path can't run: consult [on_idle]
               and the stall rule here, and only declare deadlock once
               neither can move the world. *)
            if s.stamp = last_stamp && spins > 10_000 then begin
              let idled = match s.on_idle with Some f -> f () | None -> false in
              if not (idled || resolve_stall s) then begin
                let msg = deadlock_message s what in
                finish ();
                raise (Deadlock msg)
              end
            end;
            perform Yield;
            if s.stamp = last_stamp then loop last_stamp (spins + 1)
            else loop s.stamp 0
          end
        in
        (match loop s.stamp 0 with
        | () -> finish ()
        | exception e ->
            finish ();
            raise e)
      end

(* Park the calling fiber until [unpark].  Cancellation is delivered at
   both edges: a pending mark raises before the fiber ever leaves the
   queue, and a mark set while parked (a hang cut cancelling a hung
   worker — [cancel] unparks its victim) raises at resume.  [on_stall]
   runs at resume when the stall rule, not a wake, unparked the fiber. *)
let park ?on_stall ~what () =
  match !current with
  | None -> raise (Deadlock (Printf.sprintf "%s (no scheduler running)" what))
  | Some s ->
      check_cancel s;
      let id = s.cur in
      Hashtbl.replace s.blocked id what;
      let finish () = Hashtbl.remove s.blocked id in
      (match perform (Park (on_stall <> None)) with
      | () -> finish ()
      | exception e ->
          finish ();
          raise e);
      match on_stall with
      | Some f when Hashtbl.mem s.stalled id ->
          Hashtbl.remove s.stalled id;
          check_cancel s;
          f ()
      | _ -> check_cancel s

let cancel ?(reason = "cancelled") id =
  match !current with
  | None -> ()
  | Some s ->
      if not (Hashtbl.mem s.cancelled id) then Hashtbl.replace s.cancelled id reason;
      (* A parked victim would otherwise never observe the mark: wake it
         so [park]'s resume edge delivers [Cancelled] promptly. *)
      unpark id

(* Pct priorities are drawn at fiber creation; demotions assign fresh,
   strictly decreasing minima so the post-demotion order is total and
   deterministic. *)
let assign_prio s id =
  match s.policy with
  | Pct _ -> Hashtbl.replace s.prio id (1 + Rng.int s.rng 1_000_000)
  | _ -> ()

let pct_demote s id =
  Hashtbl.replace s.prio id s.demote_next;
  s.demote_next <- s.demote_next - 1

(* Strict priority alone livelocks against [wait_until]'s polling join: a
   top-priority fiber sitting in [wait_until] would be picked
   forever while the fiber able to unblock it never runs, and after 10_000
   fruitless spins the detector above would report a deadlock that is
   really a scheduling artifact.  Demoting a fiber that has been picked
   this many consecutive times without any global progress guarantees
   rotation long before the detector fires. *)
let starvation_limit = 64

let choose s =
  let n = s.pool_n in
  let i =
    match s.policy with
    | Round_robin -> assert false
    | Random _ -> Rng.int s.rng n
    | Replay d ->
        let i =
          if s.replay_pos < Array.length d then abs d.(s.replay_pos) mod n else 0
        in
        s.replay_pos <- s.replay_pos + 1;
        i
    | Pct { change_prob; _ } ->
        let best = ref 0 in
        let best_p = ref min_int in
        for j = 0 to n - 1 do
          let p =
            match Hashtbl.find_opt s.prio s.pool.(j).t_id with
            | Some p -> p
            | None -> 0
          in
          if p > !best_p then begin
            best := j;
            best_p := p
          end
        done;
        let id = s.pool.(!best).t_id in
        if change_prob > 0.0 && Rng.float s.rng < change_prob then pct_demote s id;
        if id = s.last_pick && s.stamp = s.stamp_at_pick then begin
          s.picks_in_a_row <- s.picks_in_a_row + 1;
          if s.picks_in_a_row >= starvation_limit then begin
            pct_demote s id;
            s.picks_in_a_row <- 0
          end
        end
        else begin
          s.last_pick <- id;
          s.picks_in_a_row <- 1;
          s.stamp_at_pick <- s.stamp
        end;
        !best
  in
  s.decisions <- i :: s.decisions;
  i

(* The decision trace of the most recently finished run (normal or
   exceptional) — Round_robin records nothing, pool policies record one
   index per scheduling step.  Survives the exception so a failing run can
   still be shrunk and replayed. *)
let last_run_decisions : int array ref = ref [||]
let last_decisions () = !last_run_decisions

let run ?faults ?clock ?(policy = Round_robin) ?on_switch ?on_idle main =
  if in_scheduler () then invalid_arg "Fiber.run: nested run";
  let seed = match policy with Random s -> s | Pct { seed; _ } -> seed | _ -> 0 in
  let s =
    {
      policy;
      runq = Queue.create ();
      pool = Array.make 8 dummy_task;
      pool_n = 0;
      rng = Rng.create seed;
      prio = Hashtbl.create 16;
      demote_next = 0;
      last_pick = -1;
      picks_in_a_row = 0;
      stamp_at_pick = -1;
      replay_pos = 0;
      decisions = [];
      on_switch;
      on_idle;
      stamp = 0;
      active = true;
      cur = 0;
      next_id = 1;
      blocked = Hashtbl.create 8;
      parked = Hashtbl.create 8;
      stallable = Hashtbl.create 8;
      stalled = Hashtbl.create 8;
      cancelled = Hashtbl.create 8;
      faults;
      clock;
    }
  in
  current := Some s;
  assign_prio s 0;
  let save_decisions () = last_run_decisions := Array.of_list (List.rev s.decisions) in
  let rec exec (f : unit -> unit) : unit =
    match_with f ()
      {
        retc = (fun () -> ());
        exnc =
          (fun e ->
            save_decisions ();
            current := None;
            raise e);
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Yield ->
                Some
                  (fun (k : (a, unit) continuation) ->
                    let id = s.cur in
                    enqueue s ~id (fun () ->
                        s.cur <- id;
                        continue k ()))
            | Spawn g ->
                Some
                  (fun (k : (a, unit) continuation) ->
                    let id = s.next_id in
                    s.next_id <- s.next_id + 1;
                    assign_prio s id;
                    enqueue s ~id (fun () ->
                        s.cur <- id;
                        exec g);
                    continue k ())
            | Park stall ->
                Some
                  (fun (k : (a, unit) continuation) ->
                    let id = s.cur in
                    if stall then Hashtbl.replace s.stallable id ();
                    Hashtbl.replace s.parked id (fun () ->
                        s.cur <- id;
                        continue k ()))
            | _ -> None);
      }
  in
  let finish () =
    s.active <- false;
    save_decisions ();
    current := None
  in
  let runnable () =
    match s.policy with Round_robin -> Queue.length s.runq | _ -> s.pool_n
  in
  let step () =
    match s.policy with
    | Round_robin -> (Queue.pop s.runq) ()
    | _ -> (pool_take s (choose s)).t_run ()
  in
  (* Nothing runnable but fibers are parked: the reactor hook gets one
     chance to fire due timers ([on_switch] — e.g. a just-signaled wake
     that raced the queue emptying), then [on_idle] may advance the
     simulated clock to the next armed timer and fire it (how a deadline
     cut reaches a system where every fiber is parked on I/O), then the
     stall rule resolves the waiters that declared a stall action.  If
     none of them wakes anyone, the parked fibers can never run again. *)
  let idle () =
    (match s.on_switch with Some f -> f () | None -> ());
    if runnable () = 0 then begin
      let progressed =
        match s.on_idle with Some f -> f () | None -> false
      in
      if runnable () = 0 && not (progressed || resolve_stall s) then
        raise (Deadlock (deadlock_message s "parked fibers, nothing runnable"))
    end
  in
  (try
     exec main;
     let rec drain () =
       if runnable () > 0 then begin
         (match s.on_switch with Some f -> f () | None -> ());
         (* The hook may have unparked or cancelled; re-check. *)
         if runnable () > 0 then step ();
         drain ()
       end
       else if Hashtbl.length s.parked > 0 then begin
         idle ();
         drain ()
       end
     in
     drain ()
   with e ->
     finish ();
     raise e);
  finish ()

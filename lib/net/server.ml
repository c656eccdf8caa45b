(* One server signature; the serve loops, supervision trees, pools and
   worker-outcome dispatch every partitioned server shares are written
   here once. *)

module W = Wedge_core.Wedge
module Supervisor = Wedge_core.Supervisor
module Process = Wedge_kernel.Process

type tree = Supervisor.node * Supervisor.child * Supervisor.child

module type S = sig
  type env

  val name : string
  val worker : string
  val worker_restarts : int
  val main : env -> W.ctx
  val identity : env -> Wedge_core.Sc.t
  val reject : string option

  val serve_connection :
    supervised:Supervisor.child option ->
    max_request_bytes:int option ->
    guard:Guard.conn ->
    env ->
    Chan.ep ->
    bool
end

module type SERVE = sig
  type env

  val pool : env -> Wedge_core.Pool.t
  val supervision_tree : ?pool:Wedge_core.Pool.t -> env -> tree

  val serve_loop :
    ?max_request_bytes:int -> ?supervision:tree -> env -> Guard.t -> Chan.listener -> unit

  val serve_sharded : ?max_request_bytes:int -> env array -> Shard.front -> unit
end

type worker =
  | Sthread of Wedge_core.Sc.t * (W.ctx -> int -> int)
  | Fork of Wedge_core.Sc.t * (W.ctx -> int)

let degrade ~name ~farewell main ep =
  W.stat main (name ^ ".degraded");
  match farewell with
  | Some msg -> ( try Chan.write_string ep msg with _ -> ())
  | None -> ()

let run_worker ~name ~farewell ~guard ~supervised ~max_restarts main ep worker =
  (* A retry must not be cut for its predecessor's silence: each one
     restarts the connection's idle clock. *)
  let on_restart = Option.map (fun c () -> Guard.rearm c) guard in
  let outcome =
    match (supervised, worker) with
    | Some child, Sthread (sc, body) -> Supervisor.run_child_sthread ?on_restart child sc body 0
    | None, Sthread (sc, body) -> Supervisor.supervise_sthread ~max_restarts main sc body 0
    | Some child, Fork (inherited, body) ->
        Supervisor.run_child_fork ?on_restart ~pool_extra:inherited child body
    | None, Fork (_, body) -> Supervisor.supervise_fork ~max_restarts main body
  in
  match outcome with
  | Supervisor.Done { value; attempts } -> (Process.Exited value, false, attempts)
  | Supervisor.Gave_up { attempts; last_fault } ->
      degrade ~name ~farewell main ep;
      (Process.Faulted last_fault, true, attempts)

module Make (S : S) = struct
  type env = S.env

  let rejected_stat = S.name ^ ".rejected"
  let shed_stat = S.name ^ ".shed"

  (* Freeze the worker's boot once, the heap warmed by one allocation
     round-trip so the demand-mapped heap pages (smalloc bookkeeping
     included) join the frozen image. *)
  let pool env =
    W.Pool.freeze ~name:(S.name ^ "." ^ S.worker)
      ~warm:(fun ctx ->
        let p = W.malloc ctx 64 in
        W.free ctx p)
      (S.main env) (S.identity env)

  let supervision_tree ?pool env =
    let node = Supervisor.node ~name:S.name (S.main env) in
    let listener = Supervisor.child ~max_restarts:2 node ~name:"listener" in
    let restart =
      match pool with Some p -> Supervisor.From_pool p | None -> Supervisor.Fresh
    in
    let worker = Supervisor.child ~max_restarts:S.worker_restarts ~restart node ~name:S.worker in
    (node, listener, worker)

  (* Under [supervision] the accept loop itself runs as the "listener"
     child: a contained fault leaking out of the serve path restarts the
     loop instead of killing the server. *)
  let serve_loop ?max_request_bytes ?supervision env guard listener =
    let main = S.main env in
    let supervised = Option.map (fun (_, _, worker) -> worker) supervision in
    let reject decision ep =
      W.stat main (match decision with Guard.Shed -> shed_stat | _ -> rejected_stat);
      Option.iter (Chan.write_string ep) S.reject
    in
    let serve c =
      Guard.report c
        ~ok:(S.serve_connection ~supervised ~max_request_bytes ~guard:c env (Guard.ep c))
    in
    let accept () =
      Guard.accept_loop guard listener ~reject ~serve;
      0
    in
    match supervision with
    | None -> ignore (accept ())
    | Some (_, listener_child, _) -> ignore (Supervisor.run_child_fn listener_child accept)

  let serve_sharded ?max_request_bytes envs front =
    Array.iteri
      (fun i env ->
        Wedge_sim.Fiber.spawn (fun () ->
            serve_loop ?max_request_bytes env (Shard.front_guard front i)
              (Shard.front_listener front i)))
      envs
end

(* pop3-churn: the Wedge-partitioned POP3 server (Fig. 1) behind a
   4-shard front door.  Every connection creates a handler compartment,
   crosses the login callgate, and does one request from the seeded
   90/9/1 STAT/LIST/RETR* mix; a rotation fiber replaces a cluster-wide
   session gtag during the load, so cross-shard TLB shootdowns run under
   churn.  No public-key crypto runs here. *)

open Harness
module Cost_model = Wedge_sim.Cost_model
module Shard = Wedge_net.Shard
module W = Wedge_core.Wedge
module Pop3_env = Wedge_pop3.Pop3_env
module Pop3_client = Wedge_pop3.Pop3_client
module Pop3_wedge = Wedge_pop3.Pop3_wedge

let shards = 4
let clients_per_shard = 16
let conns = 12_000
let rotations = 32

type inputs = { kind : int array; (* 0 STAT, 1 LIST, 2 RETR* *) user : int array }

let inputs ~seed =
  {
    kind = stratified ~seed ~n:conns [ 90; 10 ];
    user = stratified ~seed:(seed + 7919) ~n:conns [ 500 ];
  }

let users = Array.of_list Pop3_env.default_users

let mailbox_bytes (u : Pop3_env.user) =
  List.fold_left (fun acc m -> acc + String.length m) 0 u.Pop3_env.mails

(* One connection: login, one request checked against the installed
   mailbox, QUIT. *)
let run_conn inp front tr ~sid ~client:_ ~conn ~span ~now =
  let u = users.(inp.user.(conn)) in
  let op name f = op tr ~name ~conn ~parent:span ~now f in
  let cl = Pop3_client.connect (Chan.connect (Shard.front_listener front sid)) in
  let logged =
    op "app.pop3.login" (fun () ->
        Pop3_client.login cl ~user:u.Pop3_env.name ~password:u.Pop3_env.password)
  in
  let mails = u.Pop3_env.mails in
  let expect_list = List.mapi (fun i m -> (i + 1, String.length m)) mails in
  let v =
    if not logged then Wrong "login refused"
    else
      match inp.kind.(conn) with
      | 0 -> (
          match Pop3_client.stat cl with
          | Some (n, b) when n = List.length mails && b = mailbox_bytes u -> Good
          | Some (n, b) -> Wrong (Printf.sprintf "STAT %d %d" n b)
          | None -> Wrong "STAT failed")
      | 1 -> (
          match Pop3_client.list_mails cl with
          | Some l when l = expect_list -> Good
          | _ -> Wrong "LIST mismatch")
      | _ -> (
          match Pop3_client.list_mails cl with
          | Some l when l = expect_list ->
              op "app.pop3.retr" (fun () ->
                  List.fold_left
                    (fun v (i, m) ->
                      match Pop3_client.retr cl i with
                      | Some body when body = m -> v
                      | _ -> Wrong (Printf.sprintf "RETR %d body" i))
                    Good
                    (List.mapi (fun i m -> (i + 1, m)) mails))
          | _ -> Wrong "LIST mismatch")
  in
  Pop3_client.quit cl;
  v

(* Replace a cluster-wide gtag every [conns / rotations] connections,
   deleting the previous one from a rotating shard: each delete shoots
   down every peer shard. *)
let rotation_fiber fab load ~done_ =
  Fiber.spawn (fun () ->
      let step = conns / rotations in
      let prev = ref None in
      let retire sid = function
        | Some old when Shard.gtag_live old -> Shard.gtag_delete fab ~sid old
        | _ -> ()
      in
      for r = 1 to rotations do
        Fiber.wait_until ~what:"rotation point" (fun () -> load.served >= r * step);
        let g = Shard.gtag_new ~name:(Printf.sprintf "sess-%d" r) ~pages:1 fab in
        retire (r mod shards) !prev;
        prev := Some g
      done;
      retire 0 !prev;
      done_ := true)

let run inp tr =
  let (worlds, fab, front), setup =
    build (fun setup ->
        let worlds =
          Array.init shards (fun i ->
              let k =
                timed tr setup `Boot "setup.kernel" (fun () ->
                    Kernel.create ~costs:Cost_model.default ~shard:i ())
              in
              timed tr setup `Keygen "setup.env" (fun () ->
                  Pop3_env.install k Pop3_env.default_users);
              let app =
                timed tr setup `Boot "setup.boot" (fun () ->
                    let app = W.create_app ~image_pages:60 k in
                    W.boot app;
                    app)
              in
              (k, app))
        in
        timed tr setup `Fabric "setup.fabric" (fun () ->
            let fab = Shard.create worlds in
            ( worlds,
              fab,
              Shard.front ~costs:Cost_model.default ~backlog:64
                ~max_conns:(2 * clients_per_shard) fab )))
  in
  let sids = List.init shards Fun.id in
  let clock sid = (Shard.shard fab sid).Shard.kernel.Kernel.clock in
  let per_shard = Array.make shards [] in
  for c = conns - 1 downto 0 do
    let sid = Shard.route fab ~key:(Printf.sprintf "conn-%06d" c) in
    per_shard.(sid) <- c :: per_shard.(sid)
  done;
  let clients =
    List.concat_map
      (fun sid -> List.map (fun l -> (sid, l)) (deal clients_per_shard per_shard.(sid)))
      sids
  in
  let world =
    {
      apps = Array.to_list (Array.map snd worlds);
      reactors = Shard.reactors fab;
      guards = List.map (Shard.front_guard front) sids;
      listeners = List.map (Shard.front_listener front) sids;
      fabric = Some fab;
      expect_xshoot = rotations * (shards - 1);
    }
  in
  let mains = Array.map (fun (_, app) -> W.main_ctx app) worlds in
  measure tr setup world ~attempted:conns ~on_switch:(Shard.hook fab)
    ~on_idle:(Shard.idle fab) (fun load ->
      Shard.start fab;
      Pop3_wedge.serve_sharded mains front;
      let rot_done = ref false in
      rotation_fiber fab load ~done_:rot_done;
      let running =
        spawn_clients tr load ~clients ~clock_of:clock ~run_conn:(run_conn inp front tr)
      in
      Fiber.wait_until ~what:"pop3 churn drained" (fun () -> !running = 0 && !rot_done);
      Shard.front_drain front;
      Shard.stop fab)

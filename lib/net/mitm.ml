module Fiber = Wedge_sim.Fiber

type direction =
  | Client_to_server
  | Server_to_client

type action =
  | Forward
  | Replace of bytes
  | Drop

type t = {
  handler : direction -> bytes -> action;
  c2s_log : Buffer.t;
  s2c_log : Buffer.t;
  mutable client_side : Chan.ep option;
  mutable server_side : Chan.ep option;
  mutable running : bool;
}

let create ?(handler = fun _ _ -> Forward) () =
  {
    handler;
    c2s_log = Buffer.create 1024;
    s2c_log = Buffer.create 1024;
    client_side = None;
    server_side = None;
    running = false;
  }

exception Idle

(* Relay until EOF.  When the whole world stalls with this pump parked —
   neither end will ever speak again — the relay retires quietly. *)
let pump t dir src dst log =
  let rec loop () =
    Chan.wait_rx ~on_stall:(fun () -> raise Idle) src;
    let chunk = Chan.read src 4096 in
    if Bytes.length chunk = 0 then Chan.close dst
    else begin
      Buffer.add_bytes log chunk;
      (match t.handler dir chunk with
      | Forward -> Chan.write dst chunk
      | Replace b -> Chan.write dst b
      | Drop -> ());
      loop ()
    end
  in
  try loop () with Idle -> ()

let splice t ~client_side ~server_side =
  t.client_side <- Some client_side;
  t.server_side <- Some server_side;
  t.running <- true;
  Fiber.spawn (fun () -> pump t Client_to_server client_side server_side t.c2s_log);
  Fiber.spawn (fun () -> pump t Server_to_client server_side client_side t.s2c_log)

let inject t dir b =
  match (dir, t.server_side, t.client_side) with
  | Client_to_server, Some s, _ -> Chan.write s b
  | Server_to_client, _, Some c -> Chan.write c b
  | _ -> invalid_arg "Mitm.inject: not spliced"

let captured t = function
  | Client_to_server -> Buffer.contents t.c2s_log
  | Server_to_client -> Buffer.contents t.s2c_log

let stop t =
  (match t.client_side with Some c -> Chan.close c | None -> ());
  match t.server_side with Some s -> Chan.close s | None -> ()

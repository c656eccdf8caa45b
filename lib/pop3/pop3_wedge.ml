module W = Wedge_core.Wedge
module Prot = Wedge_kernel.Prot
module Fd_table = Wedge_kernel.Fd_table
module Vfs = Wedge_kernel.Vfs
module Kernel = Wedge_kernel.Kernel
module Chan = Wedge_net.Chan
module Guard = Wedge_net.Guard
module Server = Wedge_net.Server
module Lineio = Wedge_net.Lineio
module Tag = Wedge_mem.Tag

module Supervisor = Wedge_core.Supervisor
module Synth = Wedge_crowbar.Synth

type conn_debug = {
  uid_tag : Tag.t option;
  arg_tag : Tag.t option;
  mail_tag : Tag.t option;
  worker_status : Wedge_kernel.Process.status;
  degraded : bool;
  attempts : int;
}

(* uid block layout: u8 authed ++ u32 uid ++ u8 namelen ++ name *)
let read_uid_block gctx uid_block =
  if W.read_u8 gctx uid_block <> 1 then None
  else begin
    let uid = W.read_u32 gctx (uid_block + 1) in
    let n = W.read_u8 gctx (uid_block + 5) in
    Some (uid, W.read_string gctx (uid_block + 6) n)
  end

let write_uid_block gctx uid_block ~uid ~name =
  W.write_u8 gctx uid_block 1;
  W.write_u32 gctx (uid_block + 1) uid;
  W.write_u8 gctx (uid_block + 5) (String.length name);
  W.write_string gctx (uid_block + 6) name

(* Length-prefixed string in the mail buffer: u32 len ++ data *)
let write_buf ctx addr s =
  W.write_u32 ctx addr (String.length s);
  W.write_string ctx (addr + 4) s

let read_buf ctx addr =
  let n = W.read_u32 ctx addr in
  W.read_string ctx (addr + 4) n

(* ---------- login callgate (privileged: reads the password db) ---------- *)

let login_entry gctx ~trusted:uid_block ~arg =
  let ulen = W.read_u8 gctx arg in
  let user = W.read_string gctx (arg + 1) ulen in
  let plen = W.read_u8 gctx (arg + 1 + ulen) in
  let password = W.read_string gctx (arg + 2 + ulen) plen in
  match W.vfs_read gctx Pop3_env.passwd_path with
  | Error _ -> 0
  | Ok passwd -> (
      match Pop3_env.lookup_line ~passwd_file:passwd ~user with
      | None -> 0
      | Some line -> (
          match Pop3_env.check_password ~passwd_line:line ~user ~password with
          | Some uid ->
              write_uid_block gctx uid_block ~uid ~name:user;
              1
          | None -> 0))

(* ---------- mailbox callgate (serves only the authenticated uid) ---------- *)

let op_stat = 1
let op_list = 2
let op_retr = 3
let op_dele = 4

let mbox_entry ~mail_block gctx ~trusted:uid_block ~arg =
  match read_uid_block gctx uid_block with
  | None -> -1 (* not authenticated: refuse *)
  | Some (uid, name) -> (
      let vfs = (W.kernel (W.app_of gctx)).Kernel.vfs in
      let dir = Pop3_env.maildir name in
      let mail_path n = Printf.sprintf "%s/%d.eml" dir n in
      (* All file access under the mailbox owner's uid, not root: the gate
         cannot be talked into reading another user's spool. *)
      let read_mail n = Vfs.read_file vfs ~root:"/" ~uid (mail_path n) in
      let listing () =
        match Vfs.readdir vfs ~root:"/" ~uid dir with
        | Error _ -> []
        | Ok files ->
            List.filter_map
              (fun f ->
                match String.split_on_char '.' f with
                | [ n; "eml" ] -> int_of_string_opt n
                | _ -> None)
              files
            |> List.sort compare
      in
      let op = W.read_u8 gctx arg in
      let msgno = W.read_u32 gctx (arg + 1) in
      if op = op_stat then begin
        let entries = listing () in
        let total =
          List.fold_left
            (fun acc n -> match read_mail n with Ok b -> acc + String.length b | Error _ -> acc)
            0 entries
        in
        write_buf gctx mail_block (Printf.sprintf "%d %d" (List.length entries) total);
        1
      end
      else if op = op_list then begin
        let lines =
          List.filter_map
            (fun n ->
              match read_mail n with
              | Ok b -> Some (Printf.sprintf "%d %d" n (String.length b))
              | Error _ -> None)
            (listing ())
        in
        write_buf gctx mail_block (String.concat "\n" lines);
        1
      end
      else if op = op_retr then begin
        match read_mail msgno with
        | Ok body ->
            write_buf gctx mail_block body;
            1
        | Error _ -> 0
      end
      else if op = op_dele then
        match Vfs.unlink vfs ~root:"/" ~uid (mail_path msgno) with Ok () -> 1 | Error _ -> 0
      else -1)

(* ---------- the worker-side backend: everything through callgates ---------- *)

let worker_backend ctx ~login_gate ~mbox_gate ~arg_tag ~arg_block ~mail_block =
  let arg_perms = W.sc_create () in
  W.sc_mem_add arg_perms arg_tag Prot.R;
  let call_mbox op msgno =
    W.write_u8 ctx arg_block op;
    W.write_u32 ctx (arg_block + 1) msgno;
    W.cgate ctx mbox_gate ~perms:arg_perms ~arg:arg_block
  in
  {
    Pop3_proto.login =
      (fun ~user ~password ->
        if String.length user > 100 || String.length password > 100 then false
        else begin
          W.write_u8 ctx arg_block (String.length user);
          W.write_string ctx (arg_block + 1) user;
          W.write_u8 ctx (arg_block + 1 + String.length user) (String.length password);
          W.write_string ctx (arg_block + 2 + String.length user) password;
          W.cgate ctx login_gate ~perms:arg_perms ~arg:arg_block = 1
        end);
    stat =
      (fun () ->
        if call_mbox op_stat 0 = 1 then
          match String.split_on_char ' ' (read_buf ctx mail_block) with
          | [ n; total ] -> Some (int_of_string n, int_of_string total)
          | _ -> None
        else None);
    list_mails =
      (fun () ->
        if call_mbox op_list 0 = 1 then
          Some
            (read_buf ctx mail_block |> String.split_on_char '\n'
            |> List.filter_map (fun line ->
                   match String.split_on_char ' ' line with
                   | [ a; b ] -> (
                       match (int_of_string_opt a, int_of_string_opt b) with
                       | Some a, Some b -> Some (a, b)
                       | _ -> None)
                   | _ -> None))
        else None);
    retr = (fun n -> if call_mbox op_retr n = 1 then Some (read_buf ctx mail_block) else None);
    dele = (fun n -> call_mbox op_dele n = 1);
  }

(* ---------- master: assemble one connection's compartments ---------- *)

let farewell = Some "-ERR internal server error, closing\r\n"

let serve_connection ?exploit ?(restart_policy = Supervisor.policy ~max_restarts:1 ())
    ?supervised ?guard ?max_line ?synth main ep =
  (* Guard the master's own per-connection setup: an injected fault during
     tag creation must degrade this connection, not kill the accept loop. *)
  let created = ref [] in
  let fd_ref = ref None in
  let cleanup () =
    (match !fd_ref with
    | Some fd -> ( try W.fd_close main fd with _ -> ())
    | None -> ());
    Chan.close ep;
    List.iter (fun t -> try W.tag_delete main t with _ -> ()) !created
  in
  match
    (* Per-connection tagged memory. *)
    let uid_tag = W.tag_new ~name:"pop3.uid" ~pages:1 main in
    created := uid_tag :: !created;
    let arg_tag = W.tag_new ~name:"pop3.arg" ~pages:1 main in
    created := arg_tag :: !created;
    let mail_tag = W.tag_new ~name:"pop3.mail" ~pages:8 main in
    created := mail_tag :: !created;
    let uid_block = W.smalloc main 64 uid_tag in
    let arg_block = W.smalloc main 512 arg_tag in
    let mail_block = W.smalloc main 16384 mail_tag in
    W.write_u8 main uid_block 0;
    (* The connection descriptor, created by the master.  With a guard
       attached, reads go through the deadline-aware endpoint: a
       slow-loris client becomes EOF inside the handler, never a pinned
       fiber. *)
    let raw_ep =
      match guard with Some c -> Guard.endpoint c | None -> Chan.to_endpoint ep
    in
    let fd = W.add_endpoint main raw_ep Fd_table.perm_rw in
    fd_ref := Some fd;
    (* Callgates: login may write the uid block; mailbox may read it and fill
       the mail buffer.  Both inherit the master's root identity.  Under an
       enforced synthesized profile the contexts come from the profile
       instead of the hand-written grants. *)
    let conn_tags = [ uid_tag; arg_tag; mail_tag ] in
    let conn_fds = [ ("conn", fd) ] in
    let worker_sc =
      match Synth.sthread_sc synth ~name:"pop3.worker" ~tags:conn_tags ~fds:conn_fds main with
      | Some sc -> sc
      | None ->
          (* The client handler: default-deny plus exactly Figure 1's arrows. *)
          let sc = W.sc_create () in
          W.sc_mem_add sc arg_tag Prot.RW;
          W.sc_mem_add sc mail_tag Prot.R;
          W.sc_fd_add sc fd Fd_table.perm_rw;
          W.sc_set_uid sc 99;
          W.sc_set_root sc "/var/empty";
          sc
    in
    let login_cgsc =
      match Synth.gate_sc synth ~name:"pop3.login" ~tags:conn_tags main with
      | Some sc -> sc
      | None ->
          let sc = W.sc_create () in
          W.sc_mem_add sc uid_tag Prot.RW;
          sc
    in
    let login_gate =
      W.sc_cgate_add main worker_sc ~name:"pop3.login"
        ~entry:(Synth.wrap_gate synth ~name:"pop3.login" login_entry)
        ~cgsc:login_cgsc ~trusted:uid_block
    in
    let mbox_cgsc =
      match Synth.gate_sc synth ~name:"pop3.mailbox" ~tags:conn_tags main with
      | Some sc -> sc
      | None ->
          let sc = W.sc_create () in
          W.sc_mem_add sc uid_tag Prot.R;
          W.sc_mem_add sc mail_tag Prot.RW;
          sc
    in
    let mbox_gate =
      W.sc_cgate_add main worker_sc ~name:"pop3.mailbox"
        ~entry:(Synth.wrap_gate synth ~name:"pop3.mailbox" (mbox_entry ~mail_block))
        ~cgsc:mbox_cgsc ~trusted:uid_block
    in
    (uid_tag, arg_tag, mail_tag, arg_block, mail_block, fd, worker_sc, login_gate, mbox_gate)
  with
  | exception e when W.fault_reason e <> None ->
      let reason = Option.get (W.fault_reason e) in
      Server.degrade ~name:"pop3" ~farewell main ep;
      cleanup ();
      {
        uid_tag = None;
        arg_tag = None;
        mail_tag = None;
        worker_status = Wedge_kernel.Process.Faulted ("setup: " ^ reason);
        degraded = true;
        attempts = 0;
      }
  | uid_tag, arg_tag, mail_tag, arg_block, mail_block, fd, worker_sc, login_gate, mbox_gate ->
      let worker_body ctx _ =
            let io =
              Lineio.create ?max_line
                ~recv:(fun n -> W.fd_read ctx fd n)
                ~send:(fun b -> W.fd_write ctx fd b) ()
            in
            let backend =
              worker_backend ctx ~login_gate ~mbox_gate ~arg_tag ~arg_block ~mail_block
            in
            (* A successful login establishes the session: the guard's
               header deadline stops applying and its idle clock restarts. *)
            let backend =
              match guard with
              | None -> backend
              | Some c ->
                  {
                    backend with
                    Pop3_proto.login =
                      (fun ~user ~password ->
                        let ok = backend.Pop3_proto.login ~user ~password in
                        if ok then Guard.established c;
                        ok);
                  }
            in
            let exploit = Option.map (fun payload () -> payload ctx) exploit in
            Pop3_proto.serve io backend ~exploit;
            0
      in
      let worker_main =
        Synth.wrap_sthread synth ~name:"pop3.worker" ~fds:[ ("conn", fd) ] worker_body
      in
      let worker_status, degraded, attempts =
        Server.run_worker ~name:"pop3" ~farewell ~guard ~supervised ~policy:restart_policy
          main ep (Server.Sthread (worker_sc, worker_main))
      in
      cleanup ();
      {
        uid_tag = Some uid_tag;
        arg_tag = Some arg_tag;
        mail_tag = Some mail_tag;
        worker_status;
        degraded;
        attempts;
      }

include Server.Make (struct
  type env = W.ctx

  let name = "pop3"
  let worker = "worker"

  (* POP3 is line-oriented: a fresh handler can greet the client again. *)
  let worker_policy = Supervisor.policy ~max_restarts:1 ()
  let main ctx = ctx

  (* The handler's boot identity: uid 99 in an empty chroot. *)
  let identity _ =
    let sc = W.sc_create () in
    W.sc_set_uid sc 99;
    W.sc_set_root sc "/var/empty";
    sc

  let reject = Some "-ERR busy, try again later\r\n"

  let serve_connection ~supervised ~max_request_bytes ~guard main ep =
    not (serve_connection ?supervised ~guard ?max_line:max_request_bytes main ep).degraded
end)

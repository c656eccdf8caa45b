(** The Provos-style privilege-separation baseline (§5.2, [13]): a
    privileged {e monitor} (the main process) and an unprivileged {e slave}
    created by {b fork} — so the slave inherits a copy of the monitor's
    entire memory — which performs all network-facing work and requests
    fixed operations from the monitor over IPC.

    This baseline reproduces both weaknesses the paper contrasts against:
    - the monitor's getpwnam operation returns NULL for unknown users, so
      an exploited slave can probe for valid usernames at will
      (portable OpenSSH 4.7 behaviour);
    - the old S/Key path refuses to issue challenges for unknown users
      (the [Rembrandt 2002] leak, reachable without any exploit);
    - PAM scratch memory from a previous connection's authentication sits
      in the monitor's heap and is inherited by every forked slave
      ([Kuhn 2003]). *)

(** The monitor's IPC surface — what an exploited slave may invoke. *)
type monitor = {
  m_getpw : string -> string option;  (** shadow line or None: a username oracle *)
  m_authpass : user:string -> password:string -> bool;
  m_sign : client_nonce:bytes -> server_nonce:bytes -> string;
  m_decrypt : bytes -> bytes option;
  m_skey_challenge : user:string -> (int * string) option;  (** None leaks nonexistence *)
  m_skey_verify : user:string -> response:string -> bool;
  m_setuid : slave_pid:int -> uid:int -> unit;
}

val serve_connection :
  ?exploit:(Wedge_core.Wedge.ctx -> monitor -> unit) -> Sshd_env.t -> Wedge_net.Chan.ep -> unit
(** Fork a slave for one connection; [exploit] runs inside the slave with
    the monitor IPC available (the attacker controls the slave).

    Fault containment: a slave crash (injected or real) never kills the
    monitor — the slave is not retried (the encrypted stream died with
    it), the client is disconnected and [sshd.degraded] is counted.  The
    upload cap is the env's [max_upload_bytes]. *)

include Wedge_net.Server.SERVE with type env = Sshd_env.t
(** The serve paths of the privsep instance of {!Wedge_net.Server.S}:
    stats and tree node ["sshd"], child ["slave"] (no retries), a pooled
    slave keeping the monitor's identity (it drops privileges itself,
    exactly as a forked one does; the connection descriptor is granted at
    stamp time), rejected connections disconnected without a banner.
    Under a guard the slave reads through the deadline-aware endpoint and
    authentication success (any method — all go through the monitor's
    setuid) marks the session established.  [max_request_bytes] does not
    apply: sshd's caps live in {!Sshd_env}. *)

(** The Figure 2 partitioning: protect the private key and session-key
    generation.

    One worker sthread per connection encapsulates all untrusted code and
    terminates after a single request.  The RSA private key lives in tagged
    memory reachable only by the {e setup_session_key} callgate, which also
    generates the server's random contribution itself — an exploited worker
    can neither read the key nor usefully influence session-key generation.

    The worker {e does} receive the established session key (master secret
    and record keys), which is exactly the residual weakness the
    man-in-the-middle partitioning ({!Httpd_mitm}) removes. *)

type conn_debug = {
  conn_tag : Wedge_mem.Tag.t option;  (** callgate-private session state *)
  arg_tag : Wedge_mem.Tag.t option;   (** worker-visible argument buffer *)
  arg_block : int;  (** 0 when per-connection setup itself faulted *)
  worker_status : Wedge_kernel.Process.status;
  degraded : bool;  (** this connection was answered with a plaintext 500 *)
  attempts : int;   (** supervision attempts (0 when setup faulted) *)
}

val serve_connection :
  ?recycled:bool ->
  ?supervised:Wedge_core.Supervisor.child ->
  ?exploit_handshake:(Wedge_core.Wedge.ctx -> unit) ->
  ?exploit_request:(Wedge_core.Wedge.ctx -> unit) ->
  ?guard:Wedge_net.Guard.conn ->
  ?max_request_bytes:int ->
  ?worker_limits:Wedge_kernel.Rlimit.t ->
  ?synth:Wedge_crowbar.Synth.t ->
  Httpd_env.t ->
  Wedge_net.Chan.ep ->
  conn_debug
(** Serve one connection.  [recycled] backs the callgate with a long-lived
    sthread (§3.3).  [exploit_handshake] runs inside the worker right after
    the handshake (when the session key sits in worker-readable memory);
    [exploit_request] runs on a "/xploit" request.

    Fault containment: a crash anywhere in this connection — injected or
    real, in the worker sthread or in the monitor's own per-connection
    setup — degrades only this connection (plaintext 500, counters
    [httpd.degraded] / [supervisor.*] bumped) and never propagates to the
    caller, so an accept loop above survives any connection's death.
    A faulted worker is not retried — the TLS stream is consumed by the
    failed attempt; [supervised] runs the worker under a supervision-tree
    child instead (its policy and intensity budget apply).

    Resource governance: [guard] makes the worker read through the
    deadline-aware endpoint (slow-loris becomes EOF) and marks the
    connection established after the handshake; [max_request_bytes]
    answers oversized decrypted requests with a sealed 413;
    [worker_limits] arms per-sthread resource quotas (frames / fds /
    syscall fuel) on the worker compartment.

    Profile synthesis: [synth] threads a {!Wedge_crowbar.Synth} session
    through the connection — recording the worker (["httpd.worker"], fd
    role ["conn"]) and the callgate (["setup_session_key"]), or
    complaining/enforcing an installed profile; in enforce mode the
    profile's entries replace the hand-written security contexts. *)

include Wedge_net.Server.SERVE with type env = Httpd_env.t
(** The serve paths of the httpd instance of {!Wedge_net.Server.S}: stats
    and tree node ["httpd"], child ["worker"] (one retry), pooled
    identity uid 33 inside the docroot chroot (the env's worker SELinux
    context when set), rejections answered with a plaintext 503;
    [max_request_bytes] caps the decrypted request as in
    {!serve_connection}.  Shards share nothing but tags replicated
    through the fabric. *)

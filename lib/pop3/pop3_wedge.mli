(** The Wedge-partitioned POP3 server — Figure 1 of the paper, executable.

    Per connection:
    - a {e client handler} sthread parses commands.  It runs as uid 99 with
      an empty chroot, holds read-write on the argument tag, read-only on
      the mail buffer tag, the connection descriptor, and two callgates —
      nothing else;
    - a {e login} callgate (runs as root) verifies credentials against
      /etc/pop3.passwd and writes the authenticated uid into the uid tag,
      which the handler cannot even read;
    - a {e mailbox} callgate reads the uid tag and serves only that user's
      mail into the mail buffer.

    Authentication cannot be bypassed: the mailbox callgate refuses until
    the login callgate has written the uid, and only the login callgate
    holds write permission on that tag. *)

type conn_debug = {
  uid_tag : Wedge_mem.Tag.t option;
  arg_tag : Wedge_mem.Tag.t option;
  mail_tag : Wedge_mem.Tag.t option;
  worker_status : Wedge_kernel.Process.status;
  degraded : bool;  (** this connection was answered with [-ERR] *)
  attempts : int;  (** supervision attempts (0 when setup faulted) *)
}
(** Introspection for tests (tag identities to probe, final worker state).
    The tags are [None] when per-connection setup itself faulted before
    creating them. *)

val serve_connection :
  ?exploit:(Wedge_core.Wedge.ctx -> unit) ->
  ?restart_policy:Wedge_core.Supervisor.policy ->
  ?supervised:Wedge_core.Supervisor.child ->
  ?guard:Wedge_net.Guard.conn ->
  ?max_line:int ->
  ?synth:Wedge_crowbar.Synth.t ->
  Wedge_core.Wedge.ctx ->
  Wedge_net.Chan.ep ->
  conn_debug
(** Serve one connection from the master context ([main]); blocks until the
    session ends.  [exploit] runs inside the {e worker} compartment when
    triggered — the paper's attacker model.

    Fault containment: a crash anywhere in this connection degrades only
    this connection (best-effort [-ERR] farewell, [pop3.degraded] counter)
    and never reaches the caller.  [restart_policy] defaults to one retry —
    POP3 is line-oriented, so a fresh handler can greet the client again.
    [supervised] runs the handler under a supervision-tree child instead
    (its policy and intensity budget override [restart_policy]).

    Resource governance: [guard] makes the handler read through the
    deadline-aware endpoint and marks the session established on a
    successful login; [max_line] caps command-line length (overlong
    commands answer [-ERR command line too long] and close).

    Profile synthesis: [synth] threads a {!Wedge_crowbar.Synth} session
    through the connection — compartments ["pop3.worker"] (fd role
    ["conn"]), ["pop3.login"] and ["pop3.mailbox"]; in enforce mode the
    profile's entries replace the hand-written security contexts. *)

include Wedge_net.Server.SERVE with type env = Wedge_core.Wedge.ctx
(** The serve paths of the POP3 instance of {!Wedge_net.Server.S}: stats
    and tree node ["pop3"], child ["worker"] (one retry, like
    {!serve_connection}), pooled identity uid 99 in an empty chroot,
    rejections answered ["-ERR busy, try again later"];
    [max_request_bytes] caps the command line. *)

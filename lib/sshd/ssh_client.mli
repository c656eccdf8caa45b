(** SSH client for tests, examples and benchmarks.  Verifies the server's
    host identity against pinned keys (DSA signature over the key-exchange
    binding) before deriving transport keys. *)

type conn
(** An established (key-exchanged, not yet authenticated) session. *)

type auth =
  | Password of string
  | Pubkey of Wedge_crypto.Dsa.priv
  | Skey of string  (** the S/Key passphrase *)

val start :
  rng:Wedge_crypto.Drbg.t ->
  pinned_rsa:Wedge_crypto.Rsa.pub ->
  pinned_dsa:Wedge_crypto.Dsa.pub ->
  Wedge_net.Chan.ep ->
  (conn, string) result
(** Version exchange + key exchange + host verification. *)

val authenticate : conn -> user:string -> auth -> bool
val skey_challenge_for : conn -> user:string -> (int * string) option
(** Probe: request an S/Key challenge for a user (the username-oracle
    experiment, §5.2). *)

val skey_answer : conn -> response:string -> bool
val exec : conn -> string -> string option
(** Run a command, return the first Data reply. *)

val scp : conn -> path:string -> data:string -> string option
(** Upload [data] to [path]; the server's answer (["saved"], ["upload too
    large"], ...), or [None] when the session broke. *)

val scp_upload : conn -> path:string -> data:string -> bool
(** {!scp} answered ["saved"]. *)

val close : conn -> unit

val login :
  rng:Wedge_crypto.Drbg.t ->
  pinned_rsa:Wedge_crypto.Rsa.pub ->
  pinned_dsa:Wedge_crypto.Dsa.pub ->
  user:string ->
  auth ->
  Wedge_net.Chan.ep ->
  (conn, string) result
(** [start] + [authenticate]; [Error] also covers auth rejection. *)

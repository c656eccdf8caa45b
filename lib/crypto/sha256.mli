(** SHA-256 (FIPS 180-4), implemented from scratch.

    Used for password hashing, S/Key hash chains, the mini-SSL transcript
    hash and key derivation, and HMAC.  The man-in-the-middle defense of
    §5.1.2 rests on this function's non-invertibility: receive_finished
    hashes attacker-influenced data before it ever reaches send_finished. *)

type ctx

val init : unit -> ctx
val update : ctx -> bytes -> unit
(** Hashes in place: an update copies none of its input beyond the partial
    block it leaves pending. *)

val update_string : ctx -> string -> unit
val final : ctx -> bytes
(** 32-byte digest; the ctx must not be reused afterwards. *)

val digest : bytes -> bytes
val digest_string : string -> bytes
val hex : bytes -> string
(** Lowercase hex of any byte string (not just digests). *)

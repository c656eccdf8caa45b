(** RC4 stream cipher, standing in for the symmetric cipher of the
    SSL record layer.  State is serialisable so partitioned servers can
    keep cipher state in tagged memory shared between the SSL_read and
    SSL_write callgates and nowhere else (§5.1.2, Figure 5). *)

type t

val create : key:bytes -> t
val crypt : t -> bytes -> bytes
(** Encrypts or decrypts (XOR keystream); advances the state. *)

val copy : t -> t

val blit : src:t -> dst:t -> unit
(** Overwrite [dst]'s state with [src]'s, e.g. to commit a speculative copy. *)

val state_size : int
(** Bytes needed by {!serialize} (258). *)

val serialize : t -> bytes
val deserialize : bytes -> t

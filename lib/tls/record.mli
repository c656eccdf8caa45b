(** The mini-SSL record layer: per-direction RC4 encryption and
    HMAC-SHA256 integrity with sequence numbers.

    The complete cipher/MAC state serialises to a flat byte image so the
    partitioned server can keep it in tagged memory readable only by the
    SSL_read / SSL_write callgates (Figure 5): callgates load the state,
    process one record, and store the state back. *)

type keys

val derive : master:bytes -> client_random:bytes -> server_random:bytes -> side:[ `Client | `Server ] -> keys
(** Per-connection keys from the session master secret and both randoms;
    the two sides derive mirrored transmit/receive states. *)

val seal : keys -> bytes -> bytes
(** MAC (over sequence number and plaintext) then encrypt; advances the
    transmit sequence number. *)

val open_ : keys -> bytes -> bytes option
(** Decrypt and verify; [None] on MAC failure (the record must be dropped —
    this is what stops injected data in §5.1.2).  Advances the receive
    sequence number only on success. *)

val state_size : int
val to_bytes : keys -> bytes
val of_bytes : bytes -> keys

(** HMAC-SHA256 (RFC 2104).  The mini-SSL record layer's integrity
    protection: injected ciphertext without the MAC key is dropped, which
    is what confines a man-in-the-middle to the outside of an established
    session (§5.1.2). *)

val mac : key:bytes -> ?prefix:bytes -> bytes -> bytes
(** 32-byte tag over [prefix ‖ data] (default: no prefix), hashed as two
    updates rather than concatenated. *)

val verify : key:bytes -> ?prefix:bytes -> bytes -> tag:bytes -> bool
(** Constant-time comparison. *)

(** Table formatting and measurement helpers shared by the benchmark
    harness. *)

val hr : unit -> unit
(** Print a horizontal rule. *)

val header : string -> unit
(** Experiment banner. *)

val row3 : string -> string -> string -> unit
(** Aligned three-column row. *)

val row4 : string -> string -> string -> string -> unit

val us : int -> string
(** Nanoseconds rendered as microseconds. *)

val ns : int -> string
val ms : int -> string
val ratio : float -> string

val sim_time : Wedge_kernel.Kernel.t -> (unit -> 'a) -> 'a * int
(** Run under the simulated clock, returning elapsed simulated ns. *)

val wall_time : (unit -> 'a) -> 'a * float
(** Wall-clock seconds (best of three runs). *)

val wall_once : (unit -> 'a) -> 'a * float

val write_artifact : smoke:bool -> string -> (out_channel -> unit) -> unit
(** [write_artifact ~smoke name write] writes the artifact [name] (a
    [BENCH_*.json]) through [write] and prints where it went: into
    [Filename.get_temp_dir_name ()] for a smoke run, so a CI-sized run
    never overwrites the committed full-scale artifact, and into the
    current directory (the repo root under [dune exec]) otherwise. *)

val percentile : int list -> float -> int
(** [percentile sorted p] picks rank [ceil (p * (n-1))] from an already
    sorted sample list (clamped; 0 on an empty list).  The one percentile
    definition every artifact in this repo uses. *)

(** {2 Skewed request mix}

    A uniform request shape makes p50 == p99 — tail regressions become
    invisible.  These helpers give load harnesses a deterministic
    long-tailed mix: 90% small / 9% medium / 1% large, stratified (exact
    counts, every class represented) and shuffled by a seeded local LCG
    so the stream is identical across hosts and OCaml versions. *)

type shape = { sh_chunks : int; sh_chunk_bytes : int }

val shape_small : shape  (** 8 chunks x 8 B = 64 B *)

val shape_medium : shape  (** 16 chunks x 32 B = 512 B *)

val shape_large : shape  (** 64 chunks x 64 B = 4 KiB *)

val shape_bytes : shape -> int
val shape_label : shape -> string

val skewed_classes : seed:int -> n:int -> shape array
(** Per-connection shapes for a population of [n] connections. *)

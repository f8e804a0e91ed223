(** The incrementally maintained hash lanes over the state-key
    components: per process, two cached 63-bit lanes over its local
    components (observation log, op count, write-buffer contents,
    last-read pair, final value, views); over committed memory (and the
    modification-log store under the view models), two xor-composed
    lanes. [Mc.Fingerprint] composes them. See the implementation
    header for the soundness argument and the collision trade-off. *)

(** Cached local-component lanes of a process state, and their
    from-scratch recomputation (for incrementality tests). *)
val proc_lanes : Config.pstate -> int * int

val proc_lanes_scratch : Config.pstate -> int * int

(** Incrementally maintained committed-memory lanes, and their
    from-scratch recomputation. *)
val mem_lanes : Config.t -> int * int

val mem_lanes_scratch : Config.t -> int * int

(** Monotonic time, arbitrary origin: only differences of two readings
    mean anything. *)

(** Seconds. *)
val now_s : unit -> float

(** Nanoseconds as an [int] (63-bit: good for ~292 years). *)
val now_ns : unit -> int

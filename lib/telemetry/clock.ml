(** Monotonic time for span timers, sampler intervals and frontier
    sleep accounting.

    Reads [CLOCK_MONOTONIC] through bechamel's allocation-free stub, so
    a wall-clock step (NTP, a manual date change) cannot stretch or
    shrink a measured interval. The origin is arbitrary: every user
    only subtracts two readings, and no reading is meaningful on its
    own. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let now_s () = float_of_int (now_ns ()) *. 1e-9

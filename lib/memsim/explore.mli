(** The vocabulary of state-space exploration: the statistics and
    result record every explorer returns, and successor enumeration.
    The explorers are [Mc.run] and the lane-free reference
    [Fuzz.Reference]; see the implementation header for the
    deduplication soundness argument they share. *)

type stats = {
  states : int;  (** distinct states visited *)
  transitions : int;
  truncated : bool;
      (** a bound was hit; absence of violations then only holds up to
          the bound *)
  bound_hits : int;
      (** edges pruned by [reorder_bound]; 0 on a completed bounded run
          certifies saturation (the bounded system coincided with the
          unbounded one, so the verdict is exact). Always 0 unbounded. *)
}

type 'm violation = {
  message : string;
  path : Exec.elt list;  (** schedule from the root reproducing it *)
  monitor : 'm;
}

type 'm result = {
  stats : stats;
  violations : 'm violation list;  (** discovery order, capped *)
  deadlocks : Exec.elt list list;  (** paths to stuck non-final states *)
}

(** Elements that can produce a model step right now, including commits
    of finished processes' leftover buffers. *)
val successor_elts : Config.t -> Exec.elt list

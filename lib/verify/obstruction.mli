(** Weak obstruction-freedom (Section 2): from every reachable state in
    which all other processes are initial or final, a live process must
    finish running solo. Checked exhaustively at small scope. *)

open Memsim

type verdict = {
  lock_name : string;
  model : Memory_model.t;
  nprocs : int;
  holds : bool;
  counterexample : (Pid.t * Exec.elt list) option;
  stats : Explore.stats;
}

val pp_verdict : verdict Fmt.t

(** A clean run cut short by its state cap, which {!pp_verdict} prints
    as ["NO VIOLATION FOUND"]. *)
val inconclusive : verdict -> bool

val check :
  ?rounds:int -> ?max_states:int -> ?max_depth:int -> model:Memory_model.t ->
  Locks.Lock.factory -> nprocs:int -> verdict

(** The encoder (Section 5.2): grow the command stacks for a
    permutation π one command at a time (rules E1/E2a/E2b) until the
    last process of π reaches a final state. Lemma 5.1 invariants are
    asserted when [check_invariants] is set. [pi] must be a permutation
    of [cinit]'s processes [0 .. n-1]; anything else raises
    [Invalid_argument]. *)

open Memsim

type result = {
  pi : int array;  (** permutation: position → pid *)
  stacks : Cstack.t Pid.Map.t;  (** the code *)
  trace : Trace.t;  (** the encoded execution E_π *)
  final : Config.t;
  iterations : int;  (** total commands placed, m_π *)
}

exception Invariant_violation of { iteration : int; message : string }

(** [pi] holds each of [0 .. Array.length pi - 1] exactly once. *)
val is_permutation : int array -> bool

val encode :
  ?max_iterations:int -> ?check_invariants:bool -> cinit:Config.t ->
  pi:int array -> unit -> result

(** Decode the result's stacks from scratch; position [k]'s process
    must return [k] — the injectivity behind the counting argument. *)
val decode_returns : cinit:Config.t -> result -> int option array

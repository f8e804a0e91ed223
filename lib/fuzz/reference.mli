(** The exact reference explorer: a breadth-first search over states
    deduplicated on a structural key that uses no hash lanes, for
    checking [Mc] against an explorer that does not share its
    fingerprints. See the implementation header for what the key
    covers and how the counts line up with [Mc.run]. *)

open Memsim

(** The structural key of a configuration: committed memory, the
    modification-log store message by message (view models), and per
    process its op count, last read, final value, buffer entries, whole
    observation log, view and release view, written out in full. Two
    configurations have equal keys iff they agree on all of these. *)
val key : Config.t -> string

(** Explore every interleaving from a configuration, with the hooks of
    [Mc.run]: [monitor] folds over the steps of every explored edge,
    [check] runs once per claimed state, [on_final] once per claimed
    quiescent state. Violations are all recorded, in discovery order;
    the search stops, marked truncated, once [max_states] (default
    1,000,000) states are claimed. [bound_hits] is always 0. *)
val run :
  ?max_states:int ->
  ?check:(Config.t -> string option) ->
  monitor:('m -> Step.t -> ('m, string) result) ->
  init:'m ->
  ?on_final:(Config.t -> 'm -> unit) ->
  Config.t ->
  'm Explore.result

(** Reachable quiescent-state projections under [observe], sorted, plus
    the exploration result. *)
val reachable_outcomes :
  ?max_states:int ->
  observe:(Config.t -> 'a) ->
  Config.t ->
  'a list * unit Explore.result

(** A litmus test's outcome set under a model, as {!Litmus.Test.run}
    reports it (unbounded). *)
val litmus :
  ?max_states:int -> Litmus.Test.t -> model:Memory_model.t -> Litmus.Test.run

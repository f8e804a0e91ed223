(** [Mc] — the parallel, reduction-aware model checker.

    Facade over the subsystem's pieces:

    - {!Fingerprint}: 126-bit incremental state fingerprints over the
      {!Memsim.Statekey} lanes;
    - {!Visited}: sharded concurrent visited set of flat
      open-addressing tables with lock-free racy pre-checks;
    - {!Deque}: Chase–Lev lock-free work-stealing deque;
    - {!Frontier}: per-worker deques + distributed termination;
    - {!Por}: independence relation and safe-step selection;
    - {!Replay}: deterministic counterexample replay;
    - {!Engine} (included here): [Mc.run] and friends, the one
      explorer every check runs on, at [?engine:(`Parallel j)]
      domains ([`Parallel 1] by default). [Fuzz.Reference] is the
      lane-free explorer the parity suites check it against.

    Entry points:
    [Mc.run ~engine:(`Parallel jobs) ~por:true ...],
    [Mc.run_plain], [Mc.reachable_outcomes]. *)

module Fingerprint = Fingerprint
module Visited = Visited
module Deque = Deque
module Frontier = Frontier
module Por = Por
module Replay = Replay

include Engine

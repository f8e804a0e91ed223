(* Whether each corpus test's weak outcome ([Litmus.Cases.interesting_outcome])
   is allowed, per model, as the memory-model literature states it —
   written down here, not read back from the simulator.

   - SC, TSO, PSO: Lamport's SC; x86-TSO (Sewell et al., CACM 2010):
     only store->load reordering, multi-copy atomic, locked RMWs are
     full barriers; SPARC V9 PSO: stores also reorder with stores.
     Strong operations drain the buffer in every buffered model (the
     source paper's remark on strong primitives, Sections 1 and 6).
   - RMO: the source paper's operational RMO — PSO's write-side
     relaxation only ("in RMO or even PSO"), so its column equals PSO.
     Full SPARC RMO also reorders loads (LB, WRC and a reader-unfenced
     MP+fence become allowed); the simulator models the paper's RMO.
   - RA, SRA: Lahav, Giannarakis and Vafeiadis, "Taming
     release-acquire consistency" (POPL 2016), with SC fences as in
     RC11. Only cells whose verdict does not hinge on whether a plain
     write is itself a release are fixed: 2+2W separates RA (allowed)
     from SRA (forbidden); SB is allowed in both; coherence (CoRR),
     no-thin-air (LB) and fence-ordered tests are forbidden. MP, WRC
     and SB+rmw are left open ([None]): the literature forbids their
     weak outcomes for release writes and acquire RMWs, and allows
     them for relaxed writes, and the corpus programs do not say
     which the simulator's plain writes and swaps are. *)

open Memsim

(* Columns: SC, TSO, PSO, RMO, RA, SRA. *)
let table : (string * bool option list) list =
  let a = Some true and f = Some false and open_ = None in
  [
    ("SB", [ f; a; a; a; a; a ]);
    ("SB+fences", [ f; f; f; f; f; f ]);
    ("SB+rmw", [ f; f; f; f; open_; open_ ]);
    ("MP", [ f; f; a; a; open_; open_ ]);
    ("MP+fence", [ f; f; f; f; f; f ]);
    ("2+2W", [ f; f; a; a; a; f ]);
    ("LB", [ f; f; f; f; f; f ]);
    ("WRC", [ f; f; f; f; open_; open_ ]);
    ("IRIW", [ f; f; f; f; f; f ]);
    ("CoRR", [ f; f; f; f; f; f ]);
  ]

let columns =
  Memory_model.[ Sc; Tso; Pso; Rmo; Ra; Sra ]

(** [allowed test model]: [Some b] when the literature fixes whether
    the weak outcome of [test] is reachable under [model]. Raises
    [Not_found] for a test outside the table, so a corpus change is
    noticed rather than silently unchecked. *)
let allowed (test : Litmus.Test.t) model =
  let row = List.assoc test.Litmus.Test.name table in
  List.assoc model (List.combine columns row)

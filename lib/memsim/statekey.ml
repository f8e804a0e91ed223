(** The state-key lanes of the model checker.

    Deduplication soundness (see {!Explore}): programs are
    deterministic, so a process's local state is a function of its
    observation log; a sound state key is the committed memory plus,
    per process, its observation log, op count, write-buffer contents
    (in buffer order — FIFO order is semantic under TSO), last-read
    pair (which gates spin blocking), final value and views. Metrics,
    the CC known-value caches and the last-committer table affect only
    accounting and locality classification of {e future} steps' costs,
    never which steps exist, and are excluded.

    The key is carried incrementally as 63-bit hash lanes: two per
    process, cached in its [pstate] and refreshed only for the process
    an element actually stepped, in O(|wb| + 1), with the observation
    log folded in through O(1) rolling lanes; and two over committed
    memory (xor of one token per bound [(r, v)] entry), composed with
    the modification-log store's lanes under the view models.
    [Mc.Fingerprint.of_config] composes them into the 126-bit
    fingerprint of the parallel checker's visited set — by xor, so it
    can be {e updated} in O(1) from the dirty report of
    [Exec.exec_elt_d] instead of re-walked. Two distinct states collide
    only if both independent lanes collide (~2^-126 per pair).

    Two explorers keyed on these lanes agree even when a lane is wrong
    (both merge the same distinct states), so the parity suites compare
    [Mc] against [Fuzz.Reference], whose structural key writes every
    component out in full. *)

(** The cached local-component lanes of a process state. *)
let proc_lanes (st : Config.pstate) = (st.Config.lka, st.Config.lkb)

(** The same lanes recomputed from scratch (incrementality tests). *)
let proc_lanes_scratch (st : Config.pstate) =
  proc_lanes (Config.scratch_lanes st)

(* Compose the committed-memory lanes with the modification-log store
   lanes (view-based models; the store is part of shared memory as far
   as dedup is concerned). Xor keeps the composition updatable: the
   fingerprint update path recomputes mem lanes before/after any
   mem-dirty element, which covers store changes too. *)
let with_store_lanes (cfg : Config.t) (ha, hb) =
  match cfg.Config.store with
  | None -> (ha, hb)
  | Some s ->
      let sa, sb = Modlog.lanes s in
      (ha lxor sa, hb lxor sb)

(** The incrementally maintained shared-memory lanes: committed memory,
    xor the modification-log store under view-based models. *)
let mem_lanes (cfg : Config.t) =
  with_store_lanes cfg (Config.Mem.lanes cfg.Config.mem)

(** The same lanes recomputed from scratch (incrementality tests). *)
let mem_lanes_scratch (cfg : Config.t) =
  let mha, mhb = Config.Mem.lanes_scratch cfg.Config.mem in
  match cfg.Config.store with
  | None -> (mha, mhb)
  | Some s ->
      let sa, sb = Modlog.lanes_scratch s in
      (mha lxor sa, mhb lxor sb)

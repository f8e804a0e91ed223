(** System configurations.

    A configuration comprises the state of each process (its program
    continuation and write buffer), each register, and the bookkeeping
    needed to classify steps as local or remote (per-process known-value
    caches for the CC rule; the last committer of each register for the
    commit rule). Everything is immutable, so a configuration doubles as
    a free snapshot — the Section 5 machinery and the model checker rely
    on cheap speculative execution from saved configurations.

    Hot-path bookkeeping: each process state carries two cached 63-bit
    hash {e lanes} ([lka]/[lkb]) digesting exactly its state-key
    components (see {!Statekey}), refreshed in O(|wb| + 1) by
    {!set_pstate}; the observation log additionally keeps rolling lanes
    so appending an observation is O(1) however long the log grows.
    Committed memory is an int-array-backed {!Mem} value with xor-
    composable (Zobrist) lanes of its own. Because the configuration is
    persistent, an execution step refreshes the lanes of the {e one}
    dirtied process while every other process shares its previous,
    already-hashed state — this is the incremental-state-key contract
    the model checker's fingerprinting builds on. *)

module Int_set = Set.Make (Int)

(** Per-process CC cache: which values the process has written to, or
    read from, each register. Consulted on every read step (the
    read-locality rule) but {e never} a state-key component, so the
    representation is free to favor the membership test: a copy-on-write
    array indexed by dense register id, each cell a direct 63-bit
    bitmask over small non-negative values plus a spill set for values
    outside [0, 62]. Bakery tickets, flags and fuzz immediates all live
    in the bitmask; the spill set stays physically the shared empty set
    on those paths. The array grows on demand (registers are dense
    layout ids, so it tops out at nregs cells). *)
module Known = struct
  type cell = { mask : int; rest : Int_set.t }
  type t = cell array

  let empty_cell = { mask = 0; rest = Int_set.empty }
  let empty : t = [||]

  let[@inline] cell t r =
    if r < Array.length t then Array.unsafe_get t (r : Reg.t :> int)
    else empty_cell

  let[@inline] mem t r v =
    let c = cell t r in
    if v >= 0 && v < 63 then c.mask land (1 lsl v) <> 0
    else Int_set.mem v c.rest

  (* Copy-on-write insert; the caller ({!map_learn}) has already
     filtered out present values, so no same-map fast path here. *)
  let add t r v =
    let n = Array.length t in
    let t' =
      if r < n then Array.copy t
      else begin
        let a = Array.make (r + 1) empty_cell in
        Array.blit t 0 a 0 n;
        a
      end
    in
    let c = cell t r in
    t'.(r) <-
      (if v >= 0 && v < 63 then { c with mask = c.mask lor (1 lsl v) }
       else { c with rest = Int_set.add v c.rest });
    t'

  (** The cell's contents as a plain set (introspection, tests). *)
  let values t r =
    let c = cell t r in
    let s = ref c.rest in
    for v = 0 to 62 do
      if c.mask land (1 lsl v) <> 0 then s := Int_set.add v !s
    done;
    !s
end

(** Committed memory: a copy-on-write int array behind the historical
    map-like interface. [bound] distinguishes "committed at least once"
    from "still at the layout initial value" — the distinction is part
    of the state key (a commit of the initial value is an observable
    event: it resets nobody's cache but does bump the key's memory
    cardinality, exactly as the former [Reg.Map] binding did). The
    [ha]/[hb] lanes xor one {!Keyhash} token per bound [(r, v)] entry,
    maintained in O(1) per commit. *)
module Mem = struct
  type t = {
    values : int array;  (** committed value, or the layout init *)
    bound : Bytes.t;  (** [<> '\000'] once committed *)
    card : int;  (** number of bound registers *)
    ha : int;  (** xor of [Keyhash.token_a] over bound entries *)
    hb : int;
  }

  let make layout =
    let n = Layout.nregs layout in
    {
      values = Array.init n (Layout.init layout);
      bound = Bytes.make n '\000';
      card = 0;
      ha = 0;
      hb = 0;
    }

  let get t r = t.values.(r)
  let is_bound t r = Bytes.get t.bound r <> '\000'
  let cardinal t = t.card

  let set t r v =
    let values = Array.copy t.values in
    let old = values.(r) in
    values.(r) <- v;
    let was = is_bound t r in
    let bound =
      if was then t.bound
      else begin
        let b = Bytes.copy t.bound in
        Bytes.set b r '\001';
        b
      end
    in
    {
      values;
      bound;
      card = (if was then t.card else t.card + 1);
      ha =
        t.ha
        lxor (if was then Keyhash.token_a Keyhash.seed_a r old else 0)
        lxor Keyhash.token_a Keyhash.seed_a r v;
      hb =
        t.hb
        lxor (if was then Keyhash.token_b Keyhash.seed_b r old else 0)
        lxor Keyhash.token_b Keyhash.seed_b r v;
    }

  (** Bound entries in increasing register order — the exact memory
      part of the state key. *)
  let iter_bound f t =
    for r = 0 to Array.length t.values - 1 do
      if is_bound t r then f r t.values.(r)
    done

  (** Incrementally maintained lanes. *)
  let lanes t = (t.ha, t.hb)

  (** The same lanes recomputed from the bound entries — the reference
      the qcheck incrementality regression compares against. *)
  let lanes_scratch t =
    let ha = ref 0 and hb = ref 0 in
    iter_bound
      (fun r v ->
        ha := !ha lxor Keyhash.token_a Keyhash.seed_a r v;
        hb := !hb lxor Keyhash.token_b Keyhash.seed_b r v)
      t;
    (!ha, !hb)

  (** The lanes the memory would have if every bound register id were
      renamed through [map_reg] (values untouched) — the symmetry
      canonicalizer's view of committed memory under a process-id
      permutation. Xor composition makes the result independent of
      iteration order, so no sorting by renamed id is needed.
      Identity mapping reproduces {!lanes}. *)
  let lanes_mapped ~map_reg t =
    let ha = ref 0 and hb = ref 0 in
    iter_bound
      (fun r v ->
        let r' = map_reg r in
        ha := !ha lxor Keyhash.token_a Keyhash.seed_a r' v;
        hb := !hb lxor Keyhash.token_b Keyhash.seed_b r' v)
      t;
    (!ha, !hb)

  (** Componentwise equality (bound set and committed values). *)
  let equal a b =
    a.card = b.card
    && Bytes.equal a.bound b.bound
    && a.values = b.values
end

type pstate = {
  prog : Program.t;
  skipped : Program.t;
      (** [prog] with leading labels consumed — physically [== prog]
          when there are none, which is the exact pending-label test
          the executor and the label mask use. Every dispatch-side
          query (next_kind, is_final, POR footprints, blocked checks)
          reads this field, so label continuations are forced once per
          program install instead of once per query. Derived from
          [prog]; never a key component (state keys see [prog] only
          through [Program.Done]). *)
  wb : Wbuf.t;
  known : Known.t;
      (** CC cache: values this process has written to, or read from,
          each register. A read of [r] returning a known value is a
          cache hit (the paper's read-locality rule). *)
  last_read : (Reg.t * int) option;
      (** last step was a read of this register returning this value;
          used by spin detection (a repeat read of an unchanged register
          is a semantic self-loop). Reset by any other step. *)
  obs : int list;
      (** reversed log of every value this process has observed (read
          results; cas reads and outcomes). Programs are deterministic,
          so the observation log determines the process's entire local
          state — the model checker uses it as a sound state key. *)
  ops : int;
      (** number of operation steps this process has executed (not
          counting commits, which are system steps). Together with [obs]
          this pins the exact program position: between observations a
          deterministic program runs a fixed sequence of non-observing
          ops (writes, fences, returns), which [obs] alone cannot see. *)
  obs_len : int;  (** [List.length obs], maintained at append *)
  obs_ha : int;
      (** rolling lane over [obs] (oldest observation folded first),
          updated O(1) by {!observe} — the log itself never needs
          re-walking *)
  obs_hb : int;
  view : View.t;
      (** view-based models only: the process's current view — newest
          message it knows per location. Always {!View.empty} under
          write-buffer models, so the wbuf state-key stream is
          byte-identical to before the view backend existed. *)
  rel : View.t;
      (** view-based models only: the release view — this process's
          view at its last fence; the base every plain write attaches
          to its message. *)
  obs_regs : (int * int) Reg.Map.t option;
      (** [None] (the default) on the simulator hot path. [Some m]
          once {!track_obs_regs} has been called on the initial
          configuration: [m] maps each register this process has
          observed to rolling lanes over the {e per-register}
          subsequence of observed values, maintained alongside the
          plain rolling lanes. The symmetry canonicalizer keys local
          states on the xor of one token per (register, lane) pair —
          order-canonical {e across} registers (so a pid permutation,
          which reorders a process's interleaving of reads from
          different banks, maps digests to digests) while
          order-preserving {e within} each register. For a
          deterministic program the per-register subsequences
          reconstruct the global observation order (the program
          decides which register it reads next from the values so
          far), so the decomposition loses no discriminating power. *)
  mutable lka : int;
      (** cached lane [a] over this process's full state-key component
          (ops, last_read, final value, wb contents, obs); refreshed by
          {!set_pstate}, so any pstate stored in a configuration is
          consistent. Hand-built pstates may carry stale lanes until
          they pass through {!set_pstate}/{!step}. Mutable purely so
          {!refresh_lanes} can fill the lanes of a {e freshly built,
          not yet shared} record without copying it again — every
          writer owns the record it writes (and the fields are
          immediates, so no write barrier); pstates stored in a
          configuration are never mutated. *)
  mutable lkb : int;
  mutable ctr : Metrics.counters;
      (** this process's complexity counters. Stored here rather than
          in a separate per-configuration map so an execution step
          updates one map, not two; accounting only — never a state-key
          component (see {!Statekey}). Mutable under the same
          fresh-record-only discipline as the lanes. *)
}

type t = {
  model : Memory_model.t;
  layout : Layout.t;
  mem : Mem.t;  (** committed values; unbound = initial value *)
  store : Modlog.t option;
      (** [Some] iff the model is view-based: the per-location
          modification logs and the global SC-fence view. Under view
          models, [mem] is kept materialized at each location's log
          maximum (appends commit; RA mid-log insertions don't change
          the maximum), so [read_mem] and final-state observation work
          unchanged. *)
  procs : pstate array;
      (** index = pid (pids are dense [0 .. nprocs-1]). Copy-on-write,
          like [Mem] — an installed slot is never mutated, so sharing a
          configuration across exploration branches is safe. *)
  last_committer : int array;
      (** who committed to each register last (commit-locality rule);
          [-1] = nobody yet. Copy-on-write, like [Mem]. *)
  label_mask : int;
      (** bit [min p 62] set when process [p] may be poised at a
          [Label] — exact for [p < 62], sticky-conservative above (the
          62nd bit, once set, stays). Lets label flushing skip the
          per-process map lookups in the (overwhelmingly common)
          no-label case. Derived from [procs]; not a key component. *)
  buffered : bool;
      (** {!Memory_model.buffered} of [model], hoisted so the executor
          branches on a field instead of re-dispatching per step *)
  view_based : bool;  (** {!Memory_model.view_based} of [model], hoisted *)
  op_elts : (Pid.t * Reg.t option) array;
      (** [op_elts.(p) = (p, None)] — preallocated schedule elements,
          so successor enumeration allocates no tuples. Derived. *)
  commit_elts : (Pid.t * Reg.t option) array array;
      (** [commit_elts.(p).(r) = (p, Some r)] — ditto for commit (and
          view choice-index) elements, for [r < nregs]. Derived. *)
}

(* Refresh the cached local-state lanes from the other fields. The obs
   component enters through its rolling lanes, so this is O(|wb| + 1)
   regardless of how long the observation log is. *)
let refresh_lanes st =
  (* straight-line accumulation (no closure, no refs) of exactly the
     historical feed sequence — byte-identical lanes *)
  let a = Keyhash.mix_a Keyhash.seed_a st.ops
  and b = Keyhash.mix_b Keyhash.seed_b st.ops in
  let a, b =
    match st.last_read with
    | None -> (Keyhash.mix_a a 0, Keyhash.mix_b b 0)
    | Some (r, v) ->
        ( Keyhash.mix_a (Keyhash.mix_a (Keyhash.mix_a a 1) r) v,
          Keyhash.mix_b (Keyhash.mix_b (Keyhash.mix_b b 1) r) v )
  in
  let a, b =
    match st.prog with
    | Program.Done v ->
        (Keyhash.mix_a (Keyhash.mix_a a 1) v, Keyhash.mix_b (Keyhash.mix_b b 1) v)
    | _ -> (Keyhash.mix_a a 0, Keyhash.mix_b b 0)
  in
  let a = ref (Keyhash.mix_a a (Wbuf.size st.wb))
  and b = ref (Keyhash.mix_b b (Wbuf.size st.wb)) in
  if not (Wbuf.is_empty st.wb) then
    Wbuf.iter
      (fun (e : Wbuf.entry) ->
        a := Keyhash.mix_a (Keyhash.mix_a !a e.reg) e.value;
        b := Keyhash.mix_b (Keyhash.mix_b !b e.reg) e.value)
      st.wb;
  let a = Keyhash.mix_a !a st.obs_len and b = Keyhash.mix_b !b st.obs_len in
  let la = Keyhash.mix_a a st.obs_ha and lb = Keyhash.mix_b b st.obs_hb in
  (* view component, guarded so write-buffer pstates (both views always
     empty) keep byte-identical lanes to the pre-view-backend key *)
  if View.is_empty st.view && View.is_empty st.rel then begin
    st.lka <- la;
    st.lkb <- lb
  end
  else begin
    st.lka <-
      Keyhash.mix_a (Keyhash.mix_a la (View.digest_a st.view))
        (View.digest_a st.rel);
    st.lkb <-
      Keyhash.mix_b (Keyhash.mix_b lb (View.digest_b st.view))
        (View.digest_b st.rel)
  end;
  st

(** Recompute every cached lane from scratch — obs rolling lanes from
    the raw [obs] list, then [lka]/[lkb]. The reference implementation
    for the incrementality regression tests; never on the hot path. *)
let scratch_lanes st =
  let a = ref Keyhash.seed_a and b = ref Keyhash.seed_b in
  List.iter
    (fun v ->
      a := Keyhash.mix_a !a v;
      b := Keyhash.mix_b !b v)
    (List.rev st.obs);
  refresh_lanes
    { st with obs_len = List.length st.obs; obs_ha = !a; obs_hb = !b }

(** The local-state lanes this pstate would cache if every register id
    among its key components were renamed through [map_reg] — the
    symmetry canonicalizer's per-process view under a process-id
    permutation. Mirrors {!refresh_lanes} field for field, except for
    the observation component: with {!track_obs_regs} active the
    (order-sensitive, unattributed) rolling lanes are replaced by the
    per-register digest of [obs_regs], whose register ids [map_reg]
    renames — a permutation reorders how a process interleaves reads
    from different banks, so the ordered log does not transform, but
    the per-register subsequences do (and, programs being
    deterministic, they pin the very same local state). Without
    tracking, identity mapping reproduces [lka]/[lkb]. O(|wb| +
    #observed registers). Does not mutate. *)
let mapped_lanes ~map_reg st =
  let a = ref Keyhash.seed_a and b = ref Keyhash.seed_b in
  let feed x =
    a := Keyhash.mix_a !a x;
    b := Keyhash.mix_b !b x
  in
  feed st.ops;
  (match st.last_read with
  | None -> feed 0
  | Some (r, v) ->
      feed 1;
      feed (map_reg r);
      feed v);
  (match st.prog with
  | Program.Done v ->
      feed 1;
      feed v
  | _ -> feed 0);
  feed (Wbuf.size st.wb);
  Wbuf.iter
    (fun (e : Wbuf.entry) ->
      feed (map_reg e.reg);
      feed e.value)
    st.wb;
  feed st.obs_len;
  (* view component: register ids inside view digests are NOT renamed —
     symmetry reduction is rejected for view-based models ({!Mc}), so
     here both views are always empty and identity reproduces
     [lka]/[lkb], matching {!refresh_lanes}'s guard *)
  let view_mix (x, y) =
    if View.is_empty st.view && View.is_empty st.rel then (x, y)
    else
      ( Keyhash.mix_a (Keyhash.mix_a x (View.digest_a st.view))
          (View.digest_a st.rel),
        Keyhash.mix_b (Keyhash.mix_b y (View.digest_b st.view))
          (View.digest_b st.rel) )
  in
  match st.obs_regs with
  | None -> view_mix (Keyhash.mix_a !a st.obs_ha, Keyhash.mix_b !b st.obs_hb)
  | Some m ->
      (* per-register observation digest, one token per register,
         xor-composed: invariant under the across-register reorderings
         a pid permutation induces, remappable through [map_reg] *)
      let oa = ref 0 and ob = ref 0 in
      Reg.Map.iter
        (fun r (ha, hb) ->
          let r' = map_reg r in
          oa := !oa lxor Keyhash.token_a Keyhash.seed_a r' ha;
          ob := !ob lxor Keyhash.token_b Keyhash.seed_b r' hb)
        m;
      view_mix (Keyhash.mix_a !a !oa, Keyhash.mix_b !b !ob)

(* Label-mask maintenance: bit [min p 62] tracks whether [p] is poised
   at a [Label]. For p < 62 the bit is exact (set and cleared); 62 and
   above share the top bit, which is only ever set (sticky), keeping
   the mask conservative. *)
let label_bit p = 1 lsl (if p >= 62 then 62 else p)

let mask_with mask p (prog : Program.t) =
  if Program.at_label prog then mask lor label_bit p
  else if p >= 62 then mask
  else mask land lnot (label_bit p)

let initial_pstate prog =
  refresh_lanes
    {
      prog;
      skipped = Program.post_labels prog;
      wb = Wbuf.empty;
      known = Known.empty;
      last_read = None;
      obs = [];
      ops = 0;
      obs_len = 0;
      obs_ha = Keyhash.seed_a;
      obs_hb = Keyhash.seed_b;
      view = View.empty;
      rel = View.empty;
      obs_regs = None;
      lka = 0;
      lkb = 0;
      ctr = Metrics.zero;
    }

(** [make ~model ~layout programs] builds the initial configuration
    [C_init]: process [p] runs [programs.(p)], all buffers empty, all
    registers at their layout-declared initial values. Every program
    runs through {!Compile.share} (continuation sharing, the identity
    up to observation). *)
let make ~model ~layout programs =
  let nprocs = Layout.nprocs layout in
  if Array.length programs <> nprocs then
    Fmt.invalid_arg "Config.make: %d programs for %d processes"
      (Array.length programs) nprocs;
  let procs = Array.map (fun p -> initial_pstate (Compile.share p)) programs in
  let label_mask = ref 0 in
  Array.iteri (fun p st -> label_mask := mask_with !label_mask p st.prog) procs;
  let nregs = Layout.nregs layout in
  {
    model;
    layout;
    mem = Mem.make layout;
    store =
      (if Memory_model.view_based model then Some (Modlog.make ~layout)
       else None);
    procs;
    last_committer = Array.make nregs (-1);
    label_mask = !label_mask;
    buffered = Memory_model.buffered model;
    view_based = Memory_model.view_based model;
    op_elts = Array.init nprocs (fun p -> (p, None));
    commit_elts =
      Array.init nprocs (fun p -> Array.init nregs (fun r -> (p, Some r)));
  }

(** Per-process complexity counters, assembled from the process states
    (where they live since the hot-path overhaul — one map update per
    step instead of two). *)
let metrics t : Metrics.t =
  let m = ref Metrics.empty in
  Array.iteri (fun p st -> m := Pid.Map.add p st.ctr !m) t.procs;
  !m

let nprocs t = Layout.nprocs t.layout

let pstate t p =
  if p < 0 || p >= Array.length t.procs then
    Fmt.invalid_arg "Config.pstate: unknown process %d" p
  else t.procs.(p)

(* Copy-on-write slot update: never mutates the installed array. *)
let with_proc t p st =
  let procs = Array.copy t.procs in
  procs.(p) <- st;
  procs

let set_pstate t p st =
  (* cold-path installer for hand-built pstates: recompute the cached
     post-label program, so callers may update [prog] alone (the hot
     path, {!step}, trusts the executor to maintain [skipped]) *)
  let st =
    if st.skipped == st.prog && not (Program.at_label st.prog) then st
    else { st with skipped = Program.post_labels st.prog }
  in
  {
    t with
    procs = with_proc t p (refresh_lanes st);
    label_mask = mask_with t.label_mask p st.prog;
  }

(** Extend the per-register observation lanes with value [v] observed
    at [r] — a no-op ([None], no allocation) unless {!track_obs_regs}
    switched tracking on. Exposed so the executor can fuse it into its
    single-allocation pstate updates. *)
let obs_extend obs_regs r v =
  match obs_regs with
  | None -> None
  | Some m ->
      let ha, hb =
        match Reg.Map.find_opt r m with
        | Some lanes -> lanes
        | None -> (Keyhash.seed_a, Keyhash.seed_b)
      in
      Some (Reg.Map.add r (Keyhash.mix_a ha v, Keyhash.mix_b hb v) m)

(** Append the observation of value [v] at register [r] to the
    process's log, updating the rolling lanes in O(1) (plus the
    per-register lanes when tracking is on). The only way [obs] may
    grow. *)
let observe st r v =
  {
    st with
    obs = v :: st.obs;
    obs_len = st.obs_len + 1;
    obs_ha = Keyhash.mix_a st.obs_ha v;
    obs_hb = Keyhash.mix_b st.obs_hb v;
    obs_regs = obs_extend st.obs_regs r v;
  }

(** Switch on per-register observation tracking (see [obs_regs]) —
    for the symmetry canonicalizer, which needs observation digests
    that transform under register renaming. Only valid on a
    configuration whose processes have not observed anything yet (the
    raw log carries no register attribution to backfill from), i.e.
    in practice on [C_init] before exploration starts. Plain state
    keys and cached lanes are unaffected. *)
let track_obs_regs t =
  let procs =
    Array.map
      (fun st ->
        if st.obs <> [] then
          invalid_arg
            "Config.track_obs_regs: observation log not empty — tracking \
             must be enabled on the initial configuration";
        { st with obs_regs = Some Reg.Map.empty })
      t.procs
  in
  { t with procs }

(** [step t p ?commit ?store st ctr] applies one execution step of [p]
    in a single pass: installs [st] (lanes refreshed, counters set to
    the caller-prebuilt [ctr] — built once at the call site instead of
    through a per-step bump closure), installs the updated
    modification-log store when the step touched it ([store],
    view-based models only), and — when [commit = Some (r, v)] — lands
    [v] in committed memory and records [p] as [r]'s last committer.
    One configuration-record build per step ([commit] adds one more);
    the executor maintains [st.skipped], which this trusts. *)
let step t p ?commit ?store st ctr =
  (* [st] is the caller's freshly built successor state: fill its
     counters and lanes in place rather than copying it again *)
  st.ctr <- ctr;
  let procs = with_proc t p (refresh_lanes st) in
  let label_mask = mask_with t.label_mask p st.prog in
  match (commit, store) with
  | None, None -> { t with procs; label_mask }
  | None, Some s -> { t with procs; label_mask; store = Some s }
  | Some (r, v), _ ->
      let last_committer = Array.copy t.last_committer in
      last_committer.(r) <- p;
      let mem = Mem.set t.mem r v in
      (match store with
      | None -> { t with procs; label_mask; mem; last_committer }
      | Some s ->
          { t with procs; label_mask; mem; last_committer; store = Some s })

(** Committed value of register [r]. Under view-based models this is
    each location's log maximum (kept materialized by the executor). *)
let read_mem t r = Mem.get t.mem r

let store t = t.store

let store_exn t =
  match t.store with
  | Some s -> s
  | None ->
      Fmt.invalid_arg "Config.store_exn: %s is not view-based"
        (Memory_model.to_string t.model)

let wbuf t p = (pstate t p).wb
let program t p = (pstate t p).prog

(** [p]'s program with leading labels consumed — the cached
    [pstate.skipped], what every dispatch-side query should inspect. *)
let skipped t p = (pstate t p).skipped

let next_kind t p = Program.next_kind (skipped t p)
let is_final t p = Program.is_done (pstate t p).skipped
let final_value t p = Program.final_value (pstate t p).skipped

(** Number of processes in a final state — [NbFinal(C)] in the paper,
    which gates return steps in the decoder. *)
let nb_final t =
  Array.fold_left
    (fun acc st -> if Program.is_done st.prog then acc + 1 else acc)
    0 t.procs

let all_final t = nb_final t = nprocs t

(** All processes final {e and} all write buffers drained: nothing can
    change memory any more. The model checker only treats quiescent
    states as terminal, since a final process's leftover buffered
    writes can still be committed by the system. *)
let quiescent t =
  (* single short-circuiting pass: on the hot path almost every state
     has a running process, and the loop bails at the first one *)
  let n = Array.length t.procs in
  let rec go p =
    p >= n
    ||
    let st = t.procs.(p) in
    Program.is_done st.prog && Wbuf.is_empty st.wb && go (p + 1)
  in
  go 0

(** Total pending writes currently overtaken, across all processes —
    the "reorderings in flight" the bounded engines compare against
    their budget [K]. A configuration with in-flight 0 is
    SC-consistent so far: every committed write landed before any
    later operation of its owner executed. Derived from the buffers'
    stored counts, O(nprocs); never a state-key component (bounded
    engines fold the underlying flag bitsets into their keys
    themselves, see {!Wbuf.overtaken_bits}). *)
let reorders_in_flight t =
  Array.fold_left (fun acc st -> acc + Wbuf.overtaken st.wb) 0 t.procs

let known_values st r = Known.values st.known r

(** The known-cache with [v] recorded at [r] — physically the same
    value when already known. Exposed so the executor can fuse learning
    into its single-allocation pstate updates. *)
let[@inline] map_learn known r v =
  if Known.mem known r v then known else Known.add known r v

let learn st r v =
  if Known.mem st.known r v then st
  else { st with known = Known.add st.known r v }

(** Locality of a read of [r] by [p] (whose state is [st]) returning
    [v] from shared memory. The caller passes the pstate it already
    holds — the executor calls this once per read step. *)
let read_locality t p st r v =
  Step.locality
    ~dsm_local:(Layout.is_local t.layout p r)
    ~cc_local:(Known.mem st.known r v)

(** Read locality fused with the CC-cache learn: one cache probe serves
    both the [cc_local] membership test and the update. Returns the
    interned locality and the learned cache — physically the same value
    when [v] was already known (the common case, since [cc_local]
    {e means} known). *)
let read_learn t p st r v =
  let cc_local = Known.mem st.known r v in
  let known = if cc_local then st.known else Known.add st.known r v in
  (Step.locality ~dsm_local:(Layout.is_local t.layout p r) ~cc_local, known)

(** Locality of a commit to [r] by [p]: local on the CC side iff [p] was
    the last process to commit to [r]. *)
let commit_locality t p r =
  Step.locality
    ~dsm_local:(Layout.is_local t.layout p r)
    ~cc_local:(Pid.equal t.last_committer.(r) p)

(* Counters are not key components, so the cached lanes stay valid:
   update the pstate directly, no refresh. *)
let bump p f t =
  let st = pstate t p in
  { t with procs = with_proc t p { st with ctr = f st.ctr } }

let charge_rmr (loc : Step.locality) (c : Metrics.counters) =
  {
    c with
    Metrics.rmr = (c.Metrics.rmr + if Step.is_rmr loc then 1 else 0);
    rmr_dsm = (c.Metrics.rmr_dsm + if loc.Step.dsm_local then 0 else 1);
    rmr_cc = (c.Metrics.rmr_cc + if loc.Step.cc_local then 0 else 1);
  }

let pp_mem ppf t =
  let first = ref true in
  Fmt.pf ppf "{";
  Mem.iter_bound
    (fun r v ->
      if not !first then Fmt.comma ppf ();
      first := false;
      Fmt.pf ppf "%a=%d" (Layout.pp_reg t.layout) r v)
    t.mem;
  Fmt.pf ppf "}"

let pp ppf t =
  Fmt.pf ppf "mem=%a@," pp_mem t;
  (match t.store with
  | Some s -> Fmt.pf ppf "store=%a@," Modlog.pp s
  | None -> ());
  Array.iteri
    (fun p st ->
      if not (View.is_empty st.view) then
        Fmt.pf ppf "p%a: view=%a rel=%a@," Pid.pp p View.pp st.view View.pp
          st.rel;
      Fmt.pf ppf "p%a: wb=%a %s@," Pid.pp p Wbuf.pp st.wb
        (match Program.next_kind st.prog with
        | Program.Op_done -> "final"
        | Op_return v -> Fmt.str "ret(%d)" v
        | Op_read -> "@read"
        | Op_write -> "@write"
        | Op_fence -> "@fence"
        | Op_cas -> "@cas"
        | Op_spin -> "@spin"))
    t.procs

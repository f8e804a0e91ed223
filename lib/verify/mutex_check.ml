(** Exhaustive verification of lock properties.

    For small process counts, explores every interleaving of operation
    and commit steps under a given memory model and checks:

    - {e mutual exclusion}: never two processes between their
      ["cs:enter"]/["cs:exit"] labels;
    - {e deadlock-freedom}: no reachable stuck state in which some
      process has not finished (in the explored, label-collapsed state
      graph this includes livelocks, since blocked spins take no steps);
    - {e termination}: every maximal path ends with all processes done.

    A negative verdict comes with the schedule that reproduces it, which
    examples print as a human-readable counterexample trace. *)

open Memsim

type bound_mode = [ `K of int | `Deepen ]

type verdict = {
  lock_name : string;
  model : Memory_model.t;
  nprocs : int;
  rounds : int;
  holds : bool;
  symmetry : bool;
      (** checked under pid-symmetry reduction — see {!check}: [holds]
          then means "no violation in the symmetry-reduced subset" *)
  reorder_bound : int option;
      (** the (final) reorder bound the run was checked under; [None]
          means unbounded *)
  bound_exact : bool;
      (** the verdict is exact despite a bound: either a violation was
          found (bounded violations are real), or the run completed
          with zero bound hits — saturation — so the bounded system
          coincided with the unbounded one. Always true unbounded. *)
  deepen_levels : Mc.deepen_level list;
      (** per-level records when iterative deepening ran; else empty *)
  me_violation : Exec.elt list option;  (** schedule reaching an overlap *)
  deadlock : Exec.elt list option;
  lost_update : bool;  (** some run lost a counter increment *)
  stats : Explore.stats;
}

let pp_verdict ppf v =
  Fmt.pf ppf "%-24s %-4s n=%d rounds=%d: %s (%d states%s)" v.lock_name
    (Memory_model.to_string v.model)
    v.nprocs v.rounds
    (if v.holds then
       (* honest accounting: a clean pass below saturation, or one cut
          short by a state or depth cap, is a subset verdict and must
          never print as a plain OK — mirror the [--symmetry] wording
          discipline *)
       let subset = if v.symmetry then " (symmetry-reduced subset)" else "" in
       match v.reorder_bound with
       | Some k when not v.bound_exact ->
           Fmt.str "NO VIOLATION FOUND (reorder-bound %d subset)" k
       | _ when v.stats.Explore.truncated -> "NO VIOLATION FOUND" ^ subset
       | _ -> "OK" ^ subset
     else if v.me_violation <> None then "MUTUAL EXCLUSION VIOLATED"
     else if v.deadlock <> None then "DEADLOCK"
     else "LOST UPDATE")
    v.stats.Explore.states
    (if v.stats.Explore.truncated then ", truncated" else "")

let inconclusive v =
  v.holds
  && (v.stats.Explore.truncated
     || match v.reorder_bound with Some _ -> not v.bound_exact | None -> false)

(** Monitor: the set of processes currently inside a critical section;
    errors out the moment two overlap. Monitor state is a function of
    program positions, as {!Mc.run} requires. *)
let cs_monitor occupancy (step : Step.t) =
  match step with
  | Step.Note { p; text = "cs:enter" } ->
      if Pid.Set.is_empty occupancy then Ok (Pid.Set.add p occupancy)
      else
        Error
          (Fmt.str "processes %a and %a in the critical section together"
             (Fmt.list ~sep:Fmt.comma Pid.pp)
             (Pid.Set.elements occupancy) Pid.pp p)
  | Step.Note { p; text = "cs:exit" } -> Ok (Pid.Set.remove p occupancy)
  | Step.Note _ | Step.Read _ | Step.Write _ | Step.Fence _ | Step.Commit _
  | Step.Cas _ | Step.Rmw _ | Step.Return _ ->
      Ok occupancy

(** Build the standard checking workload: every process performs
    [rounds] lock passages whose critical section increments a shared
    counter (read, write, fence). The increment gives the section real
    steps — an empty section enters and exits atomically and could never
    be caught overlapping — and doubles as a second oracle: if mutual
    exclusion holds, the counter's final value is exactly the total
    number of passages; a lost update betrays an overlap even if the
    label monitor were blind to it. *)
let workload ~model (factory : Locks.Lock.factory) ~nprocs ~rounds =
  if rounds < 1 then
    Fmt.invalid_arg "Mutex_check.workload: rounds %d < 1" rounds;
  let builder = Layout.Builder.create ~nprocs in
  let lock = factory builder ~nprocs in
  let counter =
    Layout.Builder.alloc builder ~name:"chk" ~owner:Layout.no_owner ~init:0
  in
  let layout = Layout.Builder.freeze builder in
  let program p =
    let open Program in
    let rec go i =
      if i = 0 then return 0
      else
        let* () = lock.Locks.Lock.acquire p in
        let* () = label "cs:enter" in
        let* v = read counter in
        let* () = write counter (v + 1) in
        let* () = fence in
        let* () = label "cs:exit" in
        let* () = lock.Locks.Lock.release p in
        go (i - 1)
    in
    run (go rounds)
  in
  let programs = Array.init nprocs program in
  (lock, counter, Config.make ~model ~layout programs)

let check ?tel ?(rounds = 1) ?max_states ?max_depth ?expected_states
    ?report_visited ?(engine = `Parallel 1) ?(por = false) ?(symmetry = false)
    ?reorder_bound ?checkpoint ?resume ~model factory ~nprocs : verdict =
  if symmetry && reorder_bound <> None then
    invalid_arg "Mutex_check.check: ~symmetry and ~reorder_bound are exclusive";
  if (checkpoint <> None || resume <> None) && reorder_bound = Some `Deepen then
    invalid_arg "Mutex_check.check: ~checkpoint/~resume do not apply to `Deepen";
  let lock, counter, cfg = workload ~model factory ~nprocs ~rounds in
  let lost_update = ref false in
  let on_final final _ =
    if Config.read_mem final counter <> nprocs * rounds then
      lost_update := true
  in
  (* The checker's monitor is note-driven, so POR preserves its
     verdicts (see Mc.Por). Symmetry guarantees less: the passage loop
     is shared, but the lock factories embed pid-dependent tie-breaks
     (bakery's [slot < j]), so the workload is only near-symmetric,
     the quotient is not closed, and the reduced run explores a
     subset of the reachable state classes — a reported violation is
     a real reachable one, but an all-clear is an under-approximation,
     surfaced in the verdict as "OK (symmetry-reduced subset)" (see
     Mc.Symmetry). A reorder
     bound is the same kind of under-approximation, except it can
     {e certify its own completeness}: zero bound hits on a completed
     run means nothing was pruned and the verdict is exact. *)
  let result, bound, bound_exact, deepen_levels =
    match reorder_bound with
    | None ->
        let r =
          Mc.run ?tel ~engine ~por ~symmetry ?expected_states ?report_visited
            ?max_states ?max_depth ~max_violations:1 ?checkpoint ?resume
            ~monitor:cs_monitor ~init:Pid.Set.empty ~on_final cfg
        in
        (r, None, true, [])
    | Some (`K k) ->
        let r =
          Mc.run ?tel ~engine ~por ~symmetry ?expected_states ?report_visited
            ?max_states ?max_depth ~max_violations:1 ~reorder_bound:k
            ?checkpoint ?resume ~monitor:cs_monitor ~init:Pid.Set.empty
            ~on_final cfg
        in
        let exact =
          r.Explore.violations <> []
          || (r.Explore.stats.Explore.bound_hits = 0
             && not r.Explore.stats.Explore.truncated)
        in
        (r, Some k, exact, [])
    | Some `Deepen ->
        let (`Parallel jobs) = engine in
        let d =
          Mc.deepen ?tel ~jobs ~por ?expected_states ?report_visited
            ?max_states ?max_depth ~max_violations:1 ~monitor:cs_monitor
            ~init:Pid.Set.empty ~on_final cfg
        in
        let exact = d.Mc.saturated || d.Mc.result.Explore.violations <> [] in
        (d.Mc.result, Some d.Mc.final_bound, exact, d.Mc.levels)
  in
  let me_violation =
    match result.Explore.violations with
    | [] -> None
    | v :: _ -> Some v.Explore.path
  in
  let deadlock =
    match result.Explore.deadlocks with [] -> None | d :: _ -> Some d
  in
  {
    lock_name = lock.Locks.Lock.name;
    model;
    nprocs;
    rounds;
    symmetry;
    reorder_bound = bound;
    bound_exact;
    deepen_levels;
    holds = me_violation = None && deadlock = None && not !lost_update;
    me_violation;
    deadlock;
    lost_update = !lost_update;
    stats = result.Explore.stats;
  }

(** Replay a counterexample schedule and render its step trace. Labels
    pending at the end of the schedule (the explorer consumes them at
    state entry, before any further element) are flushed so the trace
    shows the same notes the monitor saw. *)
let replay ~model factory ~nprocs ~rounds (path : Exec.elt list) :
    Trace.t * Config.t =
  let _, _, cfg = workload ~model factory ~nprocs ~rounds in
  Mc.Replay.run cfg path

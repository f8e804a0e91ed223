(** The model-checking engine: work-stealing parallel exploration with
    optional partial-order and symmetry reduction. At one domain it is
    the repository's sequential explorer too.

    Architecture:

    - each worker owns a Chase–Lev deque in the {!Frontier}: it walks
      its own frontier depth-first (bottom of the deque, plus the task
      in its hand) and steals from a sibling's top only when dry — no
      lock and no shared queue on the common path, which is what made
      the former injection-queue design scale negatively with domains;
    - states are deduplicated {e at creation}: an expansion executes
      its edges, normalizes each child (label flushing), monitors the
      pending notes, and then claims the children one at a time with
      {!Visited.add} — a lock-free racy probe of the child's shard,
      then the shard lock only for a child that probe did not find.
      Only claim winners become tasks, so duplicate states — the
      majority, on lock workloads — never travel through the deques
      at all;
    - each task carries its fingerprint, updated in O(1) per edge and
      per flushed label from [Exec.exec_elt_d]'s dirty reports;
    - with [por], each expansion first looks for a persistent-singleton
      safe step ({!Por}); finding one prunes every sibling
      interleaving;
    - with [symmetry], the visited set is keyed on {!Symmetry.canon}
      — the minimum fingerprint over process-id permutations — so one
      representative per pid orbit is expanded. Paths and
      configurations are never canonicalized, so counterexamples
      replay verbatim ({!Replay}) and need no de-canonicalization;
    - verdict paths are just the recorded [Exec.elt] schedules; they
      replay deterministically regardless of domain count or visit
      order.

    Counts ([`Parallel j], [por:false], [symmetry:false]): on any run
    that completes within its bounds, the states, transitions,
    deadlocks and verdict {e sets} do not depend on [j] or on visit
    order — every distinct normalized state is claimed exactly once
    and expanded exactly once, and one transition is counted per
    successor element of each expanded state. The structural
    reference explorer [Fuzz.Reference] counts the same way, without
    the fingerprints, and the parity suites compare the two. Once a
    bound truncates the run, visit order determines which part of the
    graph was seen, so truncated runs agree only on the [truncated]
    flag.

    Hooks under parallelism: [monitor] must be a pure function (it is
    threaded through tasks on every domain); [check] must be pure;
    [on_final] and violation recording are serialized internally, so
    an [on_final] that mutates shared state needs no extra locking. *)

open Memsim

type engine = [ `Parallel of int ]

type 'm task = {
  cfg : Config.t;  (** normalized: labels flushed *)
  fp : Fingerprint.t;  (** [Fingerprint.of_config cfg], carried incrementally *)
  m : 'm;
  rev_path : Exec.elt list;  (** newest element first *)
  depth : int;
}

(* Tail-recursive rather than a fold: no closure or interim [Ok] is
   allocated on the per-edge path. *)
let rec monitor_steps monitor m = function
  | [] -> Ok m
  | s :: rest -> (
      match monitor m s with
      | Ok m -> monitor_steps monitor m rest
      | Error _ as e -> e)

(** A frontier-consistent cut of a running j=1 exploration, in plain
    data (no closures, no monitor values): everything a killed run
    needs to restart from where it was. [ck_visited] holds the claim
    keys verbatim (canonical under symmetry, budget-mixed under a
    bound — whatever the run was keying on); [ck_pending] holds the
    {e paths} of the claimed-but-unexpanded tasks, in-hand task first
    and then the deque in pop order, so a resume reconstructs tasks by
    deterministic replay and continues in the exact exploration order
    of the uninterrupted run. Violations and deadlocks found so far
    travel as (message, path) / path — their monitor values are
    rebuilt by replay on resume. *)
type checkpoint = {
  ck_states : int;
  ck_transitions : int;
  ck_bound_hits : int;
  ck_pending : Exec.elt list list;
  ck_visited : Fingerprint.t list;
  ck_violations : (string * Exec.elt list) list;
  ck_deadlocks : Exec.elt list list;
}

(** Rebuild the task a schedule-element path leads to, mirroring the
    engine's root and child construction step for step (same label
    flushing, same incremental fingerprints, same monitor threading) —
    checkpoint resume reconstructs pending tasks from their recorded
    paths. Raises [Invalid_argument] if the monitor rejects along the
    way: a checkpoint never stores a violating pending path, so that
    means the checkpoint does not belong to this workload. *)
let replay_task (type m)
    ~(monitor : m -> Step.t -> (m, string) Stdlib.result) ~(init : m)
    (cfg0 : Config.t) (path : Exec.elt list) : m task =
  let fail msg = Fmt.invalid_arg "Mc.replay_task: monitor rejects: %s" msg in
  let root =
    let notes, cfg, dirtied = Exec.flush_labels_d cfg0 in
    let fp =
      List.fold_left
        (fun fp p ->
          Fingerprint.update fp ~before:cfg0 ~after:cfg
            (Exec.dirty_of p ~mem:false))
        (Fingerprint.of_config cfg0)
        dirtied
    in
    match monitor_steps monitor init notes with
    | Error msg -> fail msg
    | Ok m -> { cfg; fp; m; rev_path = []; depth = 0 }
  in
  List.fold_left
    (fun t elt ->
      let steps, cfg', d = Exec.exec_elt_d t.cfg elt in
      match monitor_steps monitor t.m steps with
      | Error msg -> fail msg
      | Ok m -> (
          let fp = Fingerprint.update t.fp ~before:t.cfg ~after:cfg' d in
          let notes, ncfg, dirtied = Exec.flush_labels_d cfg' in
          let fp =
            List.fold_left
              (fun fp p ->
                Fingerprint.update fp ~before:cfg' ~after:ncfg
                  (Exec.dirty_of p ~mem:false))
              fp dirtied
          in
          match monitor_steps monitor m notes with
          | Error msg -> fail msg
          | Ok m ->
              {
                cfg = ncfg;
                fp;
                m;
                rev_path = elt :: t.rev_path;
                depth = t.depth + 1;
              }))
    root path

let run_parallel (type m) ~tel ~jobs ~por ~symmetry ~expected_states
    ~report_visited ~max_states ~max_depth ~max_violations ~max_deadlocks
    ~(bound : int option) ~(on_boundary : (m task -> unit) option)
    ~(visited_in : Visited.t option) ~(seeds : m task list option)
    ~(checkpoint : (int * (checkpoint -> unit)) option)
    ~(resume : checkpoint option) ~(check : Config.t -> string option)
    ~(monitor : m -> Step.t -> (m, string) Stdlib.result) ~(init : m)
    ~(on_final : Config.t -> m -> unit) (cfg0 : Config.t) : m Explore.result =
  if jobs < 1 then Fmt.invalid_arg "Mc.run: `Parallel %d" jobs;
  (match checkpoint with
  | Some _ when jobs <> 1 ->
      (* a checkpoint is a frontier-consistent cut: at j=1 the cut is
         simply "in-hand task + own deque", exact and deterministic;
         with thieves in flight no such cut exists without stopping
         the world *)
      invalid_arg "Mc.run: ~checkpoint requires `Parallel 1"
  | Some (every, _) when every < 1 ->
      Fmt.invalid_arg "Mc.run: checkpoint interval %d" every
  | _ -> ());
  (match (resume, seeds) with
  | Some _, Some _ -> invalid_arg "Mc.run: ~resume and ~seeds are exclusive"
  | _ -> ());
  if symmetry && Memory_model.view_based cfg0.Config.model then
    (* the canonicalizer would have to rename register and message ids
       inside views, message bases and logs under a pid permutation —
       not implemented, so refuse loudly rather than merge unsoundly *)
    Fmt.invalid_arg
      "Mc.run: ~symmetry:true is not supported under %s (view-based state is \
       not pid-permutation-canonicalizable yet)"
      (Memory_model.to_string cfg0.Config.model);
  (match bound with
  | Some _ when Memory_model.view_based cfg0.Config.model ->
      (* the budget meters overtaken buffer entries, which view-based
         models don't have *)
      Fmt.invalid_arg
        "Mc.run: ~reorder_bound is not supported under %s (view-based models \
         have no write buffer to meter)"
        (Memory_model.to_string cfg0.Config.model)
  | Some k when k < 0 -> Fmt.invalid_arg "Mc.run: reorder_bound %d" k
  | Some _ when symmetry ->
      (* the budget term is keyed by raw pids, which a pid permutation
         scrambles; composing the two reductions soundly would need the
         canonicalizer to permute the flag bitsets along with the orbit
         — not implemented, so refuse loudly rather than under-explore *)
      invalid_arg "Mc.run: ~symmetry:true and ~reorder_bound are exclusive"
  | _ -> ());
  (* Telemetry is always wired: with no hub supplied we bump a private
     one nobody reads. Counters are plain int adds on pre-allocated
     padded cells (Telemetry.Cells), so the disabled case costs a few
     nanoseconds per expansion — the zero-cost-when-off discipline
     DESIGN.md §6d pins with the bench-smoke throughput guard. *)
  let tel =
    match tel with
    | Some h ->
        if Telemetry.Hub.workers h < jobs then
          Fmt.invalid_arg
            "Mc.run: telemetry hub has %d worker slots, `Parallel %d needs %d"
            (Telemetry.Hub.workers h) jobs jobs;
        h
    | None -> Telemetry.Hub.create ~workers:jobs ()
  in
  let c_expand = Telemetry.Hub.counter tel "expansions" in
  let c_children = Telemetry.Hub.counter tel "children" in
  let c_dedup = Telemetry.Hub.counter tel "dedup_hits" in
  let c_por = Telemetry.Hub.counter tel "por_prunes" in
  let c_sym = Telemetry.Hub.counter tel "sym_remaps" in
  let c_bound = Telemetry.Hub.counter tel "bound_hits" in
  (* [visited_in] lets the deepening driver resume a bounded run with
     the previous levels' claims intact — keys carry the budget term,
     so they stay valid across levels. *)
  let visited =
    match visited_in with
    | Some v -> v
    | None -> Visited.create ?expected_states ()
  in
  (* Symmetry needs observation digests that transform under register
     renaming: switch on per-register observation tracking at the root
     (every explored state descends from it), so {!Symmetry.canon} can
     remap each process's per-register lanes instead of the ordered —
     and permutation-scrambled — raw log. Plain fingerprints are
     untouched; without symmetry nothing changes at all. *)
  let cfg0 = if symmetry then Config.track_obs_regs cfg0 else cfg0 in
  let sym = if symmetry then Some (Symmetry.create cfg0) else None in
  (* A resume restarts mid-run: counters continue from the cut (so
     caps and final totals match the uninterrupted run), the visited
     set gets the recorded claims back verbatim, and the recorded
     verdicts are reconstructed below. *)
  (match resume with
  | None -> ()
  | Some c ->
      List.iter (fun fp -> ignore (Visited.add visited fp)) c.ck_visited);
  let frontier : m task Frontier.t = Frontier.create ~workers:jobs in
  let states =
    Atomic.make (match resume with Some c -> c.ck_states | None -> 0)
  and transitions =
    Atomic.make (match resume with Some c -> c.ck_transitions | None -> 0)
  in
  let truncated = Atomic.make false in
  let bound_hits =
    Atomic.make (match resume with Some c -> c.ck_bound_hits | None -> 0)
  in
  let note_boundary =
    match on_boundary with None -> fun (_ : m task) -> () | Some f -> f
  in
  (* Live gauges: polled by the sampler domain, never by workers. All
     reads are racy-safe (atomics, plain shard counts). *)
  List.iter
    (fun (name, cells) -> Telemetry.Hub.attach tel name cells)
    (Frontier.counters frontier);
  Telemetry.Hub.gauge tel "states" (fun () ->
      float_of_int (Atomic.get states));
  Telemetry.Hub.gauge tel "transitions" (fun () ->
      float_of_int (Atomic.get transitions));
  Telemetry.Hub.gauge tel "frontier" (fun () ->
      float_of_int (Frontier.pending frontier));
  Telemetry.Hub.gauge tel "visited" (fun () ->
      float_of_int (Visited.approx_size visited));
  Telemetry.Hub.gauge tel "visited_skew" (fun () ->
      (Visited.approx_stats visited).Visited.skew);
  (* one mutex serializes the mutating hooks and verdict stores; they
     fire far less often than states are expanded *)
  let sync = Mutex.create () in
  (* Reconstruct recorded verdicts: the checkpoint carries plain
     (message, path) pairs; the monitor value at failure time is the
     state just before the violating element, rebuilt by replay. *)
  let restored_violations =
    match resume with
    | None -> []
    | Some c ->
        List.map
          (fun (message, path) ->
            let m =
              match path with
              | [] -> init
              | _ ->
                  let n = List.length path - 1 in
                  let prefix = List.filteri (fun i _ -> i < n) path in
                  (replay_task ~monitor ~init cfg0 prefix).m
            in
            { Explore.message; path; monitor = m })
          c.ck_violations
  in
  let violations = ref restored_violations
  and nviolations = Atomic.make (List.length restored_violations) in
  let deadlocks =
    ref (match resume with Some c -> c.ck_deadlocks | None -> [])
  in
  let ndeadlocks = ref (List.length !deadlocks) in
  let worker_exn = Atomic.make None in
  let record_violation v =
    Mutex.lock sync;
    if Atomic.get nviolations < max_violations then begin
      Atomic.incr nviolations;
      violations := !violations @ [ v ]
    end;
    Mutex.unlock sync
  in
  let record_deadlock path =
    Mutex.lock sync;
    if !ndeadlocks < max_deadlocks then begin
      incr ndeadlocks;
      deadlocks := path :: !deadlocks
    end;
    Mutex.unlock sync
  in
  (* Visited-set key of a normalized child: its fingerprint, or its
     canonical (orbit-minimal) fingerprint under symmetry. A canonical
     key differing from the plain fingerprint means the state was
     folded onto another orbit representative — counted as a remap, the
     observable trace of the symmetry reduction at work. *)
  let key w (c : m task) =
    let fp =
      match sym with
      | None -> c.fp
      | Some s ->
          let cfp = Symmetry.canon s c.cfg in
          if not (Fingerprint.equal cfp c.fp) then
            Telemetry.Cells.incr c_sym ~worker:w;
          cfp
    in
    match bound with
    | None -> fp
    | Some _ ->
        (* the budget (flag bitsets) is part of the bounded state: two
           paths to the same semantic state with different reorderings
           in flight have different admissible futures. Flag-free
           states mix the zero term, keeping their plain keys. *)
        Fingerprint.mix fp (Fingerprint.budget_term c.cfg)
  in
  (* Bounded admissibility of an edge, judged on its successor: more
     reorderings in flight than the budget excludes the edge from the
     bounded transition system. *)
  let admissible cfg' =
    match bound with
    | None -> true
    | Some k -> Config.reorders_in_flight cfg' <= k
  in
  (* POR edge selection: a single safe step when one exists, the full
     expansion otherwise. Probing a candidate means executing it;
     failed probes are recycled into the full expansion so no element
     is executed twice. Each edge carries its dirty report so child
     fingerprints are O(1) updates. (Without POR the expansion loop
     executes elements directly — every element is an edge.) *)
  let select_edges cfg elts =
    let exec e = Exec.exec_elt_d cfg e in
    let nbound = ref 0 in
    let edges =
      (let rec probe probed = function
          | [] -> `Full probed
          | p :: ps ->
              let e : Exec.elt = (p, None) in
              let ((_, cfg', _) as res) = exec e in
              (* the budget-aware filter already vouches for the
                 candidate's admissibility; the successor check stays
                 as defense in depth — an over-budget ample candidate
                 cannot stand for its siblings and falls back to the
                 full (filtered) expansion, where it is pruned like any
                 other inadmissible edge *)
              if Por.invisible_after cfg' p && admissible cfg' then
                `Ample (e, res)
              else probe ((e, res) :: probed) ps
        in
       match probe [] (Por.ample_candidates ?bound cfg) with
       | `Ample (e, res) -> [ (e, res) ]
       | `Full probed ->
           List.filter_map
             (fun e ->
               let ((_, cfg', _) as res) =
                 match List.assoc_opt e probed with
                 | Some res -> res
                 | None -> exec e
               in
               if admissible cfg' then Some (e, res)
               else begin
                 incr nbound;
                 None
               end)
             elts)
    in
    (edges, !nbound)
  in
  (* Expand one claimed, normalized task: fire its hooks, execute and
     monitor every chosen edge, normalize and monitor each child, then
     claim the children in the visited set. Returns the claim winners
     in exploration order (first child first); only they become
     tasks. Every element is executed and its notes monitored, and
     each distinct normalized state is claimed once, at creation. *)
  let expand w (t : m task) : m task list =
    if
      Atomic.get states >= max_states
      || Atomic.get nviolations >= max_violations
    then begin
      Atomic.set truncated true;
      Frontier.stop frontier;
      []
    end
    else begin
      Telemetry.Cells.incr c_expand ~worker:w;
      let cfg = t.cfg in
      (match check cfg with
      | Some message ->
          record_violation
            { Explore.message; path = List.rev t.rev_path; monitor = t.m }
      | None -> ());
      if Config.quiescent cfg then begin
        Mutex.lock sync;
        (try on_final cfg t.m
         with e ->
           Mutex.unlock sync;
           raise e);
        Mutex.unlock sync;
        []
      end
      else if t.depth >= max_depth then begin
        Atomic.set truncated true;
        []
      end
      else begin
        let elts = Explore.successor_elts cfg in
        if elts = [] then begin
          record_deadlock (List.rev t.rev_path);
          []
        end
        else begin
          (* Build one normalized, note-monitored candidate per edge.
             Dedup happens after, so duplicate children still have
             their edge steps and flush notes monitored (violations on
             duplicate paths are real verdicts). *)
          let child elt ((steps, cfg', d) : Step.t list * Config.t * Exec.dirty)
              =
            match monitor_steps monitor t.m steps with
            | Error message ->
                record_violation
                  {
                    Explore.message;
                    path = List.rev (elt :: t.rev_path);
                    monitor = t.m;
                  };
                None
            | Ok m -> (
                let fp = Fingerprint.update t.fp ~before:cfg ~after:cfg' d in
                let notes, ncfg, dirtied = Exec.flush_labels_d cfg' in
                (* carry the fingerprint across normalization: each
                   flushed pid changed its pstate exactly once, so
                   folding per-pid updates is exact *)
                let fp =
                  List.fold_left
                    (fun fp p ->
                      Fingerprint.update fp ~before:cfg' ~after:ncfg
                        (Exec.dirty_of p ~mem:false))
                    fp dirtied
                in
                match monitor_steps monitor m notes with
                | Error message ->
                    record_violation
                      {
                        Explore.message;
                        path = List.rev (elt :: t.rev_path);
                        monitor = m;
                      };
                    None
                | Ok m' ->
                    Some
                      {
                        cfg = ncfg;
                        fp;
                        m = m';
                        rev_path = elt :: t.rev_path;
                        depth = t.depth + 1;
                      })
          in
          let record_bound_hits n =
            if n > 0 then begin
              ignore (Atomic.fetch_and_add bound_hits n);
              Telemetry.Cells.add c_bound ~worker:w n;
              (* a pruned edge makes this a boundary state: the
                 deepening driver re-seeds it at the next level, where
                 already-admitted children dedup away and the newly
                 admitted ones get claimed *)
              note_boundary t
            end
          in
          let candidates =
            (* one atomic add per expansion, not one per edge; in the
               common non-POR case every element is an edge, so no
               intermediate edge list is materialized *)
            match (por, bound) with
            | false, None ->
                let n = List.length elts in
                ignore (Atomic.fetch_and_add transitions n);
                Telemetry.Cells.add c_children ~worker:w n;
                List.filter_map
                  (fun elt -> child elt (Exec.exec_elt_d cfg elt))
                  elts
            | false, Some _ ->
                (* execute first, admit after: an over-budget edge is
                   excluded from the bounded transition system — never
                   counted as a transition, never monitored *)
                let nbound = ref 0 in
                let admitted =
                  List.filter_map
                    (fun elt ->
                      let ((_, cfg', _) as res) = Exec.exec_elt_d cfg elt in
                      if admissible cfg' then Some (elt, res)
                      else begin
                        incr nbound;
                        None
                      end)
                    elts
                in
                record_bound_hits !nbound;
                let n = List.length admitted in
                ignore (Atomic.fetch_and_add transitions n);
                Telemetry.Cells.add c_children ~worker:w n;
                List.filter_map (fun (elt, res) -> child elt res) admitted
            | true, _ ->
                let edges, nbound = select_edges cfg elts in
                record_bound_hits nbound;
                let n = List.length edges in
                ignore (Atomic.fetch_and_add transitions n);
                Telemetry.Cells.add c_children ~worker:w n;
                (* an ample step prunes every sibling interleaving;
                   bound-pruned edges are not POR prunes *)
                Telemetry.Cells.add c_por ~worker:w
                  (List.length elts - n - nbound);
                List.filter_map (fun (elt, res) -> child elt res) edges
          in
          match candidates with
          | [] -> []
          | [ c ] ->
              if Visited.add visited (key w c) then begin
                Atomic.incr states;
                [ c ]
              end
              else begin
                Telemetry.Cells.incr c_dedup ~worker:w;
                []
              end
          | _ ->
              (* {!Visited.add} is atomic per fingerprint (racy
                 pre-check, locked re-check), so a duplicate within the
                 same expansion still wins at most once *)
              let ntotal = ref 0 and nclaimed = ref 0 in
              let claimed =
                List.filter
                  (fun c ->
                    incr ntotal;
                    Visited.add visited (key w c)
                    && begin
                         incr nclaimed;
                         true
                       end)
                  candidates
              in
              if !nclaimed > 0 then
                ignore (Atomic.fetch_and_add states !nclaimed);
              Telemetry.Cells.add c_dedup ~worker:w (!ntotal - !nclaimed);
              claimed
        end
      end
    end
  in
  (* Worker [w]: depth-first with the next task "in hand" — the first
     child continues immediately, the siblings go to the bottom of our
     own deque (in reverse, so the earliest sibling is popped back
     first and one domain walks the graph in depth-first claim order).
     Thieves steal shallow tasks from the top on their own; no
     explicit sharing heuristic is needed. Children are registered
     before their parent completes, so [pending] reaches zero only
     when the whole graph is drained. *)
  (* Checkpoint emission (j=1 only, enforced above): fires at drive
     entry, where the cut is exact — [t] is in hand and not yet
     expanded, everything else pending sits in our own deque, and all
     other registered tasks have completed. Interval is measured in
     claimed states since the last emission. *)
  let emit_checkpoint =
    match checkpoint with
    | None -> fun (_ : m task) -> ()
    | Some (every, emit) ->
        let last = ref (match resume with Some c -> c.ck_states | None -> 0) in
        fun (t : m task) ->
          let s = Atomic.get states in
          if s - !last >= every then begin
            last := s;
            let pending = t :: Frontier.snapshot frontier ~worker:0 in
            let fps = ref [] in
            Visited.iter visited (fun fp -> fps := fp :: !fps);
            emit
              {
                ck_states = s;
                ck_transitions = Atomic.get transitions;
                ck_bound_hits = Atomic.get bound_hits;
                ck_pending =
                  List.map (fun (t : m task) -> List.rev t.rev_path) pending;
                ck_visited = !fps;
                ck_violations =
                  List.map
                    (fun (v : m Explore.violation) ->
                      (v.Explore.message, v.Explore.path))
                    !violations;
                ck_deadlocks = !deadlocks;
              }
          end
  in
  let rec drive w (t : m task) =
    emit_checkpoint t;
    let children = expand w t in
    match children with
    | [] ->
        Frontier.complete frontier;
        seek w
    | c :: rest ->
        Frontier.register frontier (1 + List.length rest);
        if rest <> [] then Frontier.inject frontier ~worker:w (List.rev rest);
        Frontier.complete frontier;
        drive w c
  and seek w =
    match Frontier.next frontier ~worker:w with
    | Some t -> drive w t
    | None -> ()
  in
  let guarded_worker w () =
    try seek w
    with e ->
      (* fail loudly but never leave sibling domains blocked *)
      ignore (Atomic.compare_and_set worker_exn None (Some e));
      Frontier.stop frontier
  in
  (* The root is normalized, monitored and claimed like any other
     state. With [seeds] (a deepening resume) the root was claimed at
     level 0 — the seeds are already-claimed boundary tasks to
     re-expand. *)
  let tasks =
    match (seeds, resume) with
    | Some tasks, _ -> tasks
    | None, Some c ->
        (* the recorded pending tasks, rebuilt by deterministic replay
           in the recorded (pop) order — already claimed, so they are
           re-expanded like deepening seeds, not re-counted *)
        List.map (replay_task ~monitor ~init cfg0) c.ck_pending
    | None, None -> (
        let notes, cfg, dirtied = Exec.flush_labels_d cfg0 in
        let fp =
          List.fold_left
            (fun fp p ->
              Fingerprint.update fp ~before:cfg0 ~after:cfg
                (Exec.dirty_of p ~mem:false))
            (Fingerprint.of_config cfg0)
            dirtied
        in
        match monitor_steps monitor init notes with
        | Error message ->
            record_violation { Explore.message; path = []; monitor = init };
            []
        | Ok m ->
            let t = { cfg; fp; m; rev_path = []; depth = 0 } in
            ignore (Visited.add visited (key 0 t));
            Atomic.incr states;
            [ t ])
  in
  (match tasks with
  | [] -> ()
  | first :: rest ->
      Frontier.register frontier (1 + List.length rest);
      if jobs = 1 then (
        (* run in the calling domain: deterministic depth-first claim
           order — extra seeds go to our own deque, reversed so the
           earliest is popped back first *)
        if rest <> [] then Frontier.inject frontier ~worker:0 (List.rev rest);
        try drive 0 first
        with e ->
          Frontier.stop frontier;
          raise e)
      else begin
        (* Minor collections are stop-the-world across domains, and
           with more domains than cores the rendezvous inherits
           scheduling latency; a larger minor heap makes collections
           rarer, which is where oversubscribed runs lose most of
           their time. Scoped to the parallel section — restored
           before returning so sequential callers keep the default
           locality-friendly nursery. *)
        let gc = Gc.get () in
        Gc.set
          {
            gc with
            Gc.minor_heap_size = max gc.Gc.minor_heap_size (4 * 1024 * 1024);
          };
        let finally () = Gc.set gc in
        Fun.protect ~finally (fun () ->
            if rest <> [] then
              Frontier.inject frontier ~worker:0 (List.rev rest);
            Frontier.push frontier ~worker:0 first;
            let domains =
              Array.init (jobs - 1) (fun i ->
                  Domain.spawn (guarded_worker (i + 1)))
            in
            guarded_worker 0 ();
            Array.iter Domain.join domains);
        match Atomic.get worker_exn with Some e -> raise e | None -> ()
      end);
  Option.iter (fun f -> f (Visited.stats visited)) report_visited;
  {
    Explore.stats =
      {
        Explore.states = Atomic.get states;
        transitions = Atomic.get transitions;
        truncated = Atomic.get truncated;
        bound_hits = Atomic.get bound_hits;
      };
    violations = !violations;
    deadlocks = !deadlocks;
  }

let run (type m) ?tel ?(engine : engine = `Parallel 1) ?(por = false)
    ?(symmetry = false) ?expected_states ?report_visited
    ?(max_states = 1_000_000) ?(max_depth = 100_000) ?(max_violations = 3)
    ?(max_deadlocks = max_int) ?reorder_bound ?checkpoint ?resume
    ?(check = fun (_ : Config.t) -> None)
    ~(monitor : m -> Step.t -> (m, string) Stdlib.result) ~(init : m)
    ?(on_final = fun (_ : Config.t) (_ : m) -> ()) (cfg0 : Config.t) :
    m Explore.result =
  if max_states < 1 then
    Fmt.invalid_arg "Mc.run: max_states %d < 1" max_states;
  let (`Parallel jobs) = engine in
  run_parallel ~tel ~jobs ~por ~symmetry ~expected_states ~report_visited
    ~max_states ~max_depth ~max_violations ~max_deadlocks ~bound:reorder_bound
    ~on_boundary:None ~visited_in:None ~seeds:None ~checkpoint ~resume ~check
    ~monitor ~init ~on_final cfg0

(** Exploration without a monitor: just reachability. *)
let run_plain ?tel ?engine ?por ?symmetry ?expected_states ?max_states
    ?max_depth ?max_deadlocks ?reorder_bound ?on_final cfg =
  let on_final = Option.map (fun f cfg (_ : unit) -> f cfg) on_final in
  run ?tel ?engine ?por ?symmetry ?expected_states ?max_states ?max_depth
    ?max_deadlocks ?reorder_bound
    ~monitor:(fun () _ -> Ok ())
    ~init:() ?on_final cfg

(** Reachable quiescent-state projections under [observe], sorted, plus
    the exploration result; [on_final] mutation is serialized by the
    engine. *)
let reachable_outcomes ?tel ?engine ?por ?symmetry ?max_states ?max_depth
    ?reorder_bound ~observe cfg =
  let outcomes = Hashtbl.create 16 in
  let result =
    run_plain ?tel ?engine ?por ?symmetry ?max_states ?max_depth ?reorder_bound
      ~on_final:(fun final -> Hashtbl.replace outcomes (observe final) ())
      cfg
  in
  let all = Hashtbl.fold (fun k () acc -> k :: acc) outcomes [] in
  (List.sort compare all, result)

(* ------------------------------------------------------------------ *)
(* Iterative deepening over the reorder bound.                         *)

type deepen_level = {
  bound : int;
  states : int;  (** newly claimed at this level *)
  transitions : int;
  bound_hits : int;
  violations : int;
}

type 'm deepen_result = {
  result : 'm Explore.result;
      (** cumulative states/transitions/bound_hits across levels;
          violations and truncation from the level that ended the
          search *)
  final_bound : int;
  saturated : bool;
      (** the last level recorded zero bound hits on a complete run —
          the explored union equals the unbounded reachable set and
          the verdict is exact *)
  levels : deepen_level list;  (** in ascending bound order *)
}

(** Iterative deepening: explore at [bound_from], and while the run is
    violation-free, complete, and recorded bound hits, widen the bound
    by [bound_step] and resume — sharing the visited set (keys carry
    the budget term, so claims stay valid) and re-expanding only the
    {e boundary} tasks, the states that had at least one edge pruned.
    Already-admitted children dedup away; newly admitted ones get
    claimed and explored. Stops at the first level with a violation,
    at saturation (zero bound hits — verdict exact), at truncation, or
    at [max_bound].

    Per-level [states] counts newly claimed states only, so the sum
    over levels equals the cumulative count; [transitions] may double-
    count edges re-executed while re-expanding boundary tasks. *)
let deepen (type m) ?tel ?(jobs = 1) ?(por = false) ?expected_states
    ?report_visited ?(max_states = 1_000_000) ?(max_depth = 100_000)
    ?(max_violations = 3) ?(max_deadlocks = max_int) ?(bound_from = 0)
    ?(bound_step = 1) ?(max_bound = 62)
    ?(check = fun (_ : Config.t) -> None)
    ~(monitor : m -> Step.t -> (m, string) Stdlib.result) ~(init : m)
    ?(on_final = fun (_ : Config.t) (_ : m) -> ()) (cfg0 : Config.t) :
    m deepen_result =
  if max_states < 1 then
    Fmt.invalid_arg "Mc.deepen: max_states %d < 1" max_states;
  if bound_from < 0 || bound_step < 1 || max_bound < bound_from then
    Fmt.invalid_arg "Mc.deepen: bound_from %d, bound_step %d, max_bound %d"
      bound_from bound_step max_bound;
  if Memory_model.view_based cfg0.Config.model then
    Fmt.invalid_arg
      "Mc.deepen: iterative deepening is reorder-bounded exploration, which \
       is not supported under %s (view-based models have no write buffer to \
       meter)"
      (Memory_model.to_string cfg0.Config.model);
  let visited = Visited.create ?expected_states () in
  let cum_states = ref 0 and cum_transitions = ref 0 in
  let cum_hits = ref 0 in
  let cum_deadlocks = ref [] in
  let levels = ref [] in
  let rec go k seeds =
    (* boundary collection: called from worker domains, so locked *)
    let bmutex = Mutex.create () in
    let boundary = ref [] in
    let on_boundary t =
      Mutex.lock bmutex;
      boundary := t :: !boundary;
      Mutex.unlock bmutex
    in
    let r =
      run_parallel ~tel ~jobs ~por ~symmetry:false ~expected_states
        ~report_visited:None ~max_states:(max_states - !cum_states) ~max_depth
        ~max_violations ~max_deadlocks ~bound:(Some k)
        ~on_boundary:(Some on_boundary) ~visited_in:(Some visited) ~seeds
        ~checkpoint:None ~resume:None ~check ~monitor ~init ~on_final cfg0
    in
    cum_states := !cum_states + r.Explore.stats.Explore.states;
    cum_transitions := !cum_transitions + r.Explore.stats.Explore.transitions;
    cum_hits := !cum_hits + r.Explore.stats.Explore.bound_hits;
    cum_deadlocks := r.Explore.deadlocks @ !cum_deadlocks;
    levels :=
      {
        bound = k;
        states = r.Explore.stats.Explore.states;
        transitions = r.Explore.stats.Explore.transitions;
        bound_hits = r.Explore.stats.Explore.bound_hits;
        violations = List.length r.Explore.violations;
      }
      :: !levels;
    let finish ~saturated =
      Option.iter (fun f -> f (Visited.stats visited)) report_visited;
      {
        result =
          {
            Explore.stats =
              {
                Explore.states = !cum_states;
                transitions = !cum_transitions;
                truncated = r.Explore.stats.Explore.truncated;
                bound_hits = !cum_hits;
              };
            violations = r.Explore.violations;
            deadlocks = !cum_deadlocks;
          };
        final_bound = k;
        saturated;
        levels = List.rev !levels;
      }
    in
    if r.Explore.violations <> [] then finish ~saturated:false
    else if r.Explore.stats.Explore.truncated then finish ~saturated:false
    else if r.Explore.stats.Explore.bound_hits = 0 then finish ~saturated:true
    else if k >= max_bound then finish ~saturated:false
    else
      (* Deterministic resume at any [jobs]: the mutex-guarded
         collection order is racy under work stealing, so seed the
         next level in sorted bounded-key order. Tasks noted at one
         level carry distinct bounded keys (the claim key: canonical
         fingerprint mixed with the budget term), so the order is
         total and discovery-independent — level records become
         reproducible across [--jobs] (pinned by the j∈{1,4}
         byte-identity test). At jobs = 1 the sort is a permutation of
         the already-deterministic prune order, changing counts not at
         all (the explored closure per level is order-independent). *)
      let bounded_key (t : m task) =
        Fingerprint.mix t.fp (Fingerprint.budget_term t.cfg)
      in
      let seeds =
        List.sort
          (fun a b -> Fingerprint.compare (bounded_key a) (bounded_key b))
          !boundary
      in
      go (min max_bound (k + bound_step)) (Some seeds)
  in
  go bound_from None

(** Deepening counterpart of {!reachable_outcomes}: the outcome set is
    accumulated across levels (each level adds its newly reached
    quiescent states). *)
let deepen_outcomes ?tel ?jobs ?por ?max_states ?max_depth ?bound_from
    ?bound_step ?max_bound ~observe cfg =
  let outcomes = Hashtbl.create 16 in
  let d =
    deepen ?tel ?jobs ?por ?max_states ?max_depth ?bound_from ?bound_step
      ?max_bound
      ~monitor:(fun () _ -> Ok ())
      ~init:()
      ~on_final:(fun final () -> Hashtbl.replace outcomes (observe final) ())
      cfg
  in
  let all = Hashtbl.fold (fun k () acc -> k :: acc) outcomes [] in
  (List.sort compare all, d)

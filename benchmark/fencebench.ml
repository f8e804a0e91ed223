(* fencebench — fencelab's benchmark. One workload per run:

     fencebench.exe --workload W --seed N --seconds S --trace 0|1

   --trace 0 times whole passes over the workload's fixed inputs
   through the library's public entry points and prints the end-to-end
   metrics; --trace 1 makes one untraced and one traced pass (check-j1
   also one pass at two domains) and prints the per-layer metrics.
   Either way the last line of stdout is one JSON object {correct,
   attempted, failed, metrics}; progress and check failures go to
   stderr. README.md lists the inputs, the metrics and what each
   should move. *)

open Memsim
module MC = Verify.Mutex_check

(* ------------------------------------------------------------------ *)
(* Fixed parameters                                                    *)

(* Per-exploration state cap of the lock checks: above tournament
   n=3 PSO (1,356,589 states), so every fenced check completes. *)
let check_cap = 4_000_000

(* `fencelab synth`'s default oracle cap, used both by the synthesis
   and by the benchmark's confirming checks. *)
let synth_cap = 400_000

(* Generated programs: 3 processes, with the fuzz smoke run's length,
   registers and values. Sizes
   are heavy-tailed in the seed (from under 100 states to past the
   cap), so a pass does not explore a fixed number of them: it walks
   the seed's program stream, each exploration capped at [gen_cap]
   states and at what is left of [gen_budget], until the budget is
   spent. Every pass, whatever the seed, visits [gen_budget] states. *)
let gen_params = { Fuzz.Gen.procs = 3; len = 7; nregs = 3; values = 3 }
let gen_cap = 50_000
let gen_budget = 400_000
let gen_pool = 96

(* Caps of the nesting checks' own explorations (RA, and the fully
   fenced program under RA/SRA, often run past the pass's cap); a
   comparison that needs a capped exploration is skipped. *)
let nest_cap = 50_000
let fenced_cap = 20_000
let gen_models = Memory_model.[ Pso; Sra ]

(* Set-up is repeated this many times per run; setup_s is the median
   round. *)
let setup_rounds = 31

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)

let log fmt = Fmt.epr (fmt ^^ "@.")
let secs ns = float_of_int ns *. 1e-9

let timed f =
  let t0 = Spans.now_ns () in
  let r = f () in
  (r, secs (Spans.now_ns () - t0))

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let sum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs
let ratio a b = if b = 0. then 0. else a /. b

(* The process's resident high-water mark (VmHWM), in MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> find ()
    | exception End_of_file -> 0.
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

let model_name = Memory_model.to_string

(* ------------------------------------------------------------------ *)
(* Lock checks                                                         *)

type lock_input = { lock : string; model : Memory_model.t; nprocs : int }

let lock_name i = Printf.sprintf "%s %s n=%d" i.lock (model_name i.model) i.nprocs

let factory name =
  match Locks.Registry.find name with
  | Some f -> f
  | None -> invalid_arg ("unknown lock " ^ name)

let check_inputs =
  Memory_model.
    [
      { lock = "bakery"; model = Pso; nprocs = 3 };
      { lock = "tournament"; model = Pso; nprocs = 3 };
      { lock = "bakery"; model = Tso; nprocs = 3 };
      { lock = "peterson-unfenced"; model = Pso; nprocs = 2 };
    ]

let view_lock_inputs =
  List.concat_map
    (fun (lock, nprocs) ->
      List.map (fun model -> { lock; model; nprocs }) Memory_model.[ Ra; Sra ])
    [ ("bakery", 2); ("tournament", 2); ("ttas", 3) ]

(* The one lock built without its fences: it must be caught. *)
let broken i = i.lock = "peterson-unfenced"

let build_lock i = MC.workload ~model:i.model (factory i.lock) ~nprocs:i.nprocs ~rounds:1

let run_lock ?tel ?report_visited ~jobs i =
  MC.check ?tel ?report_visited ~engine:(`Parallel jobs) ~max_states:check_cap
    ~model:i.model (factory i.lock) ~nprocs:i.nprocs

(* Most processes inside the critical section at once along a replayed
   schedule, counted from the trace's own enter/exit notes. *)
let cs_peak i path =
  let trace, _ = MC.replay ~model:i.model (factory i.lock) ~nprocs:i.nprocs ~rounds:1 path in
  let occ = ref 0 and peak = ref 0 in
  List.iter
    (function
      | Step.Note { text = "cs:enter"; _ } ->
          incr occ;
          peak := max !peak !occ
      | Step.Note { text = "cs:exit"; _ } -> decr occ
      | _ -> ())
    trace;
  !peak

let complete (v : MC.verdict) = not v.MC.stats.Explore.truncated

(* A fenced lock must hold on a complete exploration; the unfenced one
   must be caught with a schedule that replays to two processes in the
   critical section. *)
let lock_ok i (v : MC.verdict) =
  if broken i then
    (not v.MC.holds)
    && match v.MC.me_violation with Some p -> cs_peak i p >= 2 | None -> false
  else
    v.MC.holds && complete v && v.MC.me_violation = None && v.MC.deadlock = None
    && not v.MC.lost_update

let counts (v : MC.verdict) = (v.MC.stats.Explore.states, v.MC.stats.Explore.transitions)

(* Complete runs of the same input must agree on states and
   transitions; early-stopped runs are exempt (their counts depend on
   which domain finds the violation first). *)
let agree ~what inputs a b =
  List.concat
    (List.map2
       (fun i (va, vb) ->
         if complete va && complete vb && counts va <> counts vb then
           let (sa, ta), (sb, tb) = (counts va, counts vb) in
           [
             Printf.sprintf "%s: %s %d states/%d transitions vs %d/%d"
               (lock_name i) what sa ta sb tb;
           ]
         else [])
       inputs (List.combine a b))

let lock_failures inputs vs =
  List.fold_left2
    (fun n i v ->
      if lock_ok i v then n
      else begin
        log "FAILED %s: %a" (lock_name i) MC.pp_verdict v;
        n + 1
      end)
    0 inputs vs

(* ------------------------------------------------------------------ *)
(* Litmus corpus and generated programs                                *)

let observe regs (test : Litmus.Test.t) final =
  {
    Litmus.Test.returns =
      List.init (Config.nprocs final) (fun p ->
          Option.value ~default:(-1) (Config.final_value final p));
    finals = List.map (Config.read_mem final) (test.Litmus.Test.observed regs);
  }

let corpus = List.concat_map (fun t -> List.map (fun m -> (t, m)) Memory_model.all) Litmus.Cases.all

let run_litmus ?max_states test model =
  Litmus.Test.run ~engine:(`Parallel 1) ?max_states test ~model

type views_out = {
  v_locks : MC.verdict list;
  v_gens : (int * Memory_model.t * int * Litmus.Test.run) list;
      (** program, model, the exploration's cap, result *)
  v_corpus : Litmus.Test.run list;
}

(* Program [k] of seed [s] has generator seed [1000 s + k]. *)
let gen_pool_of seed =
  Array.init gen_pool (fun k ->
      let g = Fuzz.Gen.generate ~seed:((seed * 1000) + k) gen_params in
      (g, Fuzz.Gen.compile g))

(* The seed's program stream, in order, until the state budget is
   spent; deterministic, so every pass explores the same programs. *)
let gen_pass pool =
  let rec go k spent acc =
    if spent >= gen_budget || k >= Array.length pool then List.rev acc
    else
      let spent, acc =
        List.fold_left
          (fun (spent, acc) m ->
            let cap = min gen_cap (gen_budget - spent) in
            if cap <= 0 then (spent, acc)
            else
              let r = run_litmus ~max_states:cap (snd pool.(k)) m in
              (spent + r.Litmus.Test.stats.Explore.states, (k, m, cap, r) :: acc))
          (spent, acc) gen_models
      in
      go (k + 1) spent acc
  in
  go 0 0 []

let subset a b = List.for_all (fun o -> List.mem o b) a
let run_complete (r : Litmus.Test.run) = not r.Litmus.Test.stats.Explore.truncated

(* Outcomes of [test] under [model], or [None] when capped. *)
let outcomes ~cap test model =
  let r = run_litmus ~max_states:cap test model in
  if run_complete r then Some r.Litmus.Test.outcomes else None

(* Model nesting on one generated program, from its complete PSO and
   SRA runs: SC ⊆ TSO ⊆ PSO, SC ⊆ SRA ⊆ RA, and the fully fenced
   program collapses RA and SRA onto SC. Returns the failing model's
   name, if any; comparisons needing a capped exploration are skipped. *)
let nesting_failures (g, test) ~pso ~sra =
  let fail = ref [] in
  let need name ok = if not ok then fail := name :: !fail in
  let plain = outcomes ~cap:nest_cap test in
  let sc = plain Memory_model.Sc in
  (match (sc, plain Memory_model.Tso) with
  | Some sc, Some tso -> need "PSO" (subset sc tso && subset tso pso)
  | _ -> ());
  (match (sc, plain Memory_model.Ra) with
  | Some sc, Some ra -> need "SRA" (subset sc sra && subset sra ra)
  | _ -> ());
  let fenced = outcomes ~cap:fenced_cap (Fuzz.Gen.compile (Fuzz.Gen.saturate_full g)) in
  (match (fenced Memory_model.Sc, fenced Memory_model.Ra, fenced Memory_model.Sra) with
  | Some sc, Some ra, Some sra -> need "SRA" (sc = ra && sc = sra)
  | _ -> ());
  !fail

let litmus_ok (r : Litmus.Test.run) =
  run_complete r
  &&
  match Literature.allowed r.Litmus.Test.test r.Litmus.Test.model with
  | None -> true
  | Some allowed ->
      Litmus.Test.admits r (Litmus.Cases.interesting_outcome r.Litmus.Test.test) = allowed

let run_key (r : Litmus.Test.run) =
  (r.Litmus.Test.outcomes, r.Litmus.Test.stats)

(* ------------------------------------------------------------------ *)
(* Fence synthesis                                                     *)

let synth_inputs =
  List.concat_map
    (fun fam -> List.map (fun m -> (fam, m, 2)) Memory_model.all)
    Synth.Family.all
  @ [ (Synth.Family.bakery, Memory_model.Pso, 3) ]

let synth_name (p : Synth.Oracle.problem) =
  Printf.sprintf "%s %s n=%d" p.Synth.Oracle.name (model_name p.Synth.Oracle.model)
    p.Synth.Oracle.nprocs

let masked (fam : Synth.Oracle.family) mask : Locks.Lock.factory =
 fun b ~nprocs ->
  Locks.Lock.with_fence_mask ~keep:(Synth.Sites.mem mask)
    ~acquire_sites:fam.Synth.Oracle.acquire_sites (fam.Synth.Oracle.base b ~nprocs)

(* A reported result is right when the fully fenced placement is
   correct, and every minimal placement holds on a complete one-domain
   Mc check under the synthesis cap while dropping any one of its
   fences yields a violation. *)
let synth_ok fam (r : Synth.Runner.result) =
  let p = r.Synth.Runner.problem in
  let check mask =
    MC.check ~engine:(`Parallel 1) ~max_states:synth_cap ~model:p.Synth.Oracle.model
      (masked fam mask) ~nprocs:p.Synth.Oracle.nprocs
  in
  let violates (v : MC.verdict) =
    v.MC.me_violation <> None || v.MC.deadlock <> None || v.MC.lost_update
  in
  let confirm m =
    let v = check m in
    let holds = v.MC.holds && complete v in
    if not holds then
      log "FAILED %s: minimal placement %a not confirmed: %a" (synth_name p)
        (Synth.Sites.pp p.Synth.Oracle.nsites) m MC.pp_verdict v;
    holds
    && List.for_all
         (fun s ->
           (not (Synth.Sites.mem m s))
           || violates (check (Synth.Sites.diff m (Synth.Sites.add Synth.Sites.empty s))))
         (List.init p.Synth.Oracle.nsites Fun.id)
  in
  List.mem (Synth.Sites.full p.Synth.Oracle.nsites) r.Synth.Runner.correct
  && r.Synth.Runner.minimal <> []
  && List.for_all confirm r.Synth.Runner.minimal

let synth_key (r : Synth.Runner.result) =
  (r.Synth.Runner.correct, r.Synth.Runner.minimal, r.Synth.Runner.stats)

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)

type ('i, 'o) spec = {
  setup : unit -> 'i;  (** builds every input *)
  pass : 'i -> 'o;  (** one timed pass: first exploration to last verdict *)
  ops : 'o -> int;
  check : first:('o * int) option -> 'o -> int * string list;
      (** failed operations and run-level inconsistencies; with
          [~first:(o1, failed1)] the pass is compared with the fully
          checked first pass and its failed count *)
}

type workload = W : ('i, 'o) spec -> workload

let check_spec =
  {
    setup = (fun () -> List.iter (fun i -> ignore (build_lock i)) check_inputs);
    pass = (fun () -> List.map (run_lock ~jobs:1) check_inputs);
    ops = List.length;
    check =
      (fun ~first vs ->
        let failed = lock_failures check_inputs vs in
        match first with
        | Some (f, _) -> (failed, agree ~what:"pass differs from first:" check_inputs vs f)
        | None -> (failed, []));
  }

let views_spec ~seed =
  {
    setup =
      (fun () ->
        List.iter (fun i -> ignore (build_lock i)) view_lock_inputs;
        List.iter (fun (t, m) -> ignore (Litmus.Test.configure t ~model:m)) corpus;
        let pool = gen_pool_of seed in
        Array.iter
          (fun (_, t) -> List.iter (fun m -> ignore (Litmus.Test.configure t ~model:m)) gen_models)
          pool;
        pool);
    pass =
      (fun pool ->
        let v_locks = List.map (run_lock ~jobs:1) view_lock_inputs in
        let v_gens = gen_pass pool in
        let v_corpus = List.map (fun (t, m) -> run_litmus t m) corpus in
        { v_locks; v_gens; v_corpus });
    ops = (fun o -> List.length o.v_locks + List.length o.v_gens + List.length o.v_corpus);
    check =
      (fun ~first o ->
        match first with
        | Some (f, failed) ->
            let same =
              List.map counts o.v_locks = List.map counts f.v_locks
              && List.map (fun (k, m, _, r) -> (k, m, run_key r)) o.v_gens
                 = List.map (fun (k, m, _, r) -> (k, m, run_key r)) f.v_gens
              && List.map run_key o.v_corpus = List.map run_key f.v_corpus
            in
            (failed, if same then [] else [ "views-flat: pass differs from first" ])
        | None ->
            let failed = ref (lock_failures view_lock_inputs o.v_locks) in
            List.iter
              (fun (r : Litmus.Test.run) ->
                if not (litmus_ok r) then begin
                  log "FAILED litmus %s under %s: %a" r.Litmus.Test.test.Litmus.Test.name
                    (model_name r.Litmus.Test.model) Litmus.Test.pp_run r;
                  incr failed
                end)
              o.v_corpus;
            let pool = gen_pool_of seed in
            let sra_of k =
              List.find_map
                (fun (k', m, _, r) -> if k' = k && m = Memory_model.Sra then Some r else None)
                o.v_gens
            in
            List.iter
              (fun (k, m, _, pso) ->
                match (m, sra_of k) with
                | Memory_model.Pso, Some sra when run_complete pso && run_complete sra ->
                    List.iter
                      (fun m ->
                        log "FAILED generated %s: nesting under %s"
                          (Fuzz.Gen.name (fst pool.(k))) m;
                        incr failed)
                      (nesting_failures pool.(k) ~pso:pso.Litmus.Test.outcomes
                         ~sra:sra.Litmus.Test.outcomes)
                | _ -> ())
              o.v_gens;
            (!failed, []));
  }

let synth_spec =
  {
    setup =
      (fun () ->
        List.map
          (fun ((fam : Synth.Oracle.family), model, nprocs) ->
            ignore (MC.workload ~model fam.Synth.Oracle.base ~nprocs ~rounds:1);
            (fam, Synth.Oracle.lock_problem ~max_states:synth_cap ~model fam ~nprocs))
          synth_inputs);
    pass =
      (fun problems ->
        List.map (fun (fam, p) -> (fam, Synth.Runner.run ~strategy:`Cegar p)) problems);
    ops = List.length;
    check =
      (fun ~first rs ->
        match first with
        | Some (f, failed) ->
            let same = List.map (fun (_, r) -> synth_key r) rs = List.map (fun (_, r) -> synth_key r) f in
            (failed, if same then [] else [ "synth-cegar: pass differs from first" ])
        | None ->
            (List.length (List.filter (fun (fam, r) -> not (synth_ok fam r)) rs), []));
  }

(* ------------------------------------------------------------------ *)
(* End-to-end run (--trace 0)                                          *)

let num v =
  if not (Float.is_finite v) then "0"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  let field (name, unit, v) =
    Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (num v) unit
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", " (List.map field metrics))

let setup_median spec =
  median
    (List.init setup_rounds (fun _ -> snd (timed spec.setup)))

(* Passes run back to back until the next one would end after
   [seconds]. No collection is forced anywhere: on OCaml 5.1 every
   [Gc.full_major] loosens the pacing of the collections after it, and
   31 of them tripled synth-cegar's peak RSS. peak_rss_mb is the
   high-water mark after set-up and the first pass — what one check of
   the inputs costs; later passes only add allocator slack. Outputs
   are checked after the last pass, outside the timed region. *)
let untraced (W spec) ~seconds =
  let setup_s = setup_median spec in
  let inputs = spec.setup () in
  let start = Spans.now_ns () in
  let peak = ref 0. in
  let rec loop acc longest =
    let o, dt = timed (fun () -> spec.pass inputs) in
    (match acc with [] -> peak := peak_rss_mb () | _ :: _ -> ());
    log "pass %d: %.3f s" (List.length acc + 1) dt;
    let acc = (o, dt) :: acc and longest = Float.max longest dt in
    if secs (Spans.now_ns () - start) +. longest <= float_of_int seconds then loop acc longest
    else List.rev acc
  in
  let passes = loop [] 0. in
  let first = fst (List.hd passes) in
  let (failed1, errors1), check_s = timed (fun () -> spec.check ~first:None first) in
  log "checks: %.3f s" check_s;
  let checked =
    List.map (fun (o, _) -> spec.check ~first:(Some (first, failed1)) o) (List.tl passes)
  in
  let failed = failed1 + sum fst checked in
  let errors = errors1 @ List.concat_map snd checked in
  List.iter (log "ERROR %s") errors;
  print_result ~correct:(errors = [])
    ~attempted:(sum (fun (o, _) -> spec.ops o) passes)
    ~failed
    [
      ("wall_s", "s", median (List.map snd passes));
      ("setup_s", "s", setup_s);
      ("peak_rss_mb", "MiB", !peak);
    ]

(* ------------------------------------------------------------------ *)
(* Traced run (--trace 1)                                              *)

(* Every per-layer metric, in BENCHMARK.json's order; a layer a
   workload does not exercise reads 0 there (see README.md). *)
let per_layer =
  [
    ("memsim.successors.calls", "count");
    ("memsim.successors.ns", "ns");
    ("memsim.step.calls", "count");
    ("memsim.step.ns", "ns");
    ("memsim.step.minor_words", "words");
    ("memsim.flush.ns", "ns");
    ("memsim.build.ms", "ms");
    ("mc.states_per_s", "1/s");
    ("mc.key.calls", "count");
    ("mc.key.ns", "ns");
    ("mc.visited.probes", "count");
    ("mc.visited.ns", "ns");
    ("mc.visited.fresh_ratio", "ratio");
    ("mc.visited.words_per_state", "words");
    ("mc.visited.skew", "ratio");
    ("mc.frontier.ns", "ns");
    ("mc.frontier.steals", "count");
    ("mc.frontier.sleeps", "count");
    ("mc.frontier.sleep_ms", "ms");
    ("verify.monitor.ns", "ns");
    ("litmus.run.ms", "ms");
    ("synth.oracle.calls", "count");
    ("synth.oracle.s", "s");
    ("synth.oracle.states", "count");
    ("synth.cost.s", "s");
    ("synth.search.s", "s");
    ("synth.pruned_ratio", "ratio");
    ("gc.minor_words_per_state", "words");
    ("gc.promoted_words_per_state", "words");
    ("gc.minor_collections", "count");
    ("gc.major_collections", "count");
    ("gc.pause_ms", "ms");
    ("gc.pause_max_ms", "ms");
    ("trace.overhead_ratio", "ratio");
    ("trace.span_coverage", "ratio");
  ]

(* GC activity and pauses of the untraced pass, which runs the real
   entry points with no span inside them. *)
type window = {
  wall : float;
  minor_words : float;
  promoted : float;
  minors : int;
  majors : int;
  pauses : Pauses.totals;
}

let measured f =
  let s0 = Gc.quick_stat () in
  let (r, wall), pauses = Pauses.measure (fun () -> timed f) in
  let s1 = Gc.quick_stat () in
  if pauses.Pauses.lost > 0 then
    log "warning: %d runtime events lost; pause totals are low" pauses.Pauses.lost;
  ( r,
    {
      wall;
      minor_words = s1.Gc.minor_words -. s0.Gc.minor_words;
      promoted = s1.Gc.promoted_words -. s0.Gc.promoted_words;
      minors = s1.Gc.minor_collections - s0.Gc.minor_collections;
      majors = s1.Gc.major_collections - s0.Gc.major_collections;
      pauses;
    } )

let gc_metrics w ~states =
  let st = float_of_int states in
  [
    ("mc.states_per_s", ratio st w.wall);
    ("gc.minor_words_per_state", ratio w.minor_words st);
    ("gc.promoted_words_per_state", ratio w.promoted st);
    ("gc.minor_collections", float_of_int w.minors);
    ("gc.major_collections", float_of_int w.majors);
    ("gc.pause_ms", float_of_int w.pauses.Pauses.total_ns *. 1e-6);
    ("gc.pause_max_ms", float_of_int w.pauses.Pauses.max_ns *. 1e-6);
  ]

(* One replica exploration per job, each timed on its own; the traced
   wall is their sum. A job returns the replica's result and whether it
   agrees with Mc's one-domain run of the same input. *)
let replica_pass jobs =
  Spans.reset ();
  let wall = ref 0. and errors = ref [] in
  let states = ref 0 and probes = ref 0 and fresh = ref 0 and words = ref 0 in
  List.iter
    (fun (name, job) ->
      let ((r : Replica.result), agrees), dt = timed job in
      wall := !wall +. dt;
      if not agrees then
        errors := Printf.sprintf "%s: replica and Mc at j=1 disagree" name :: !errors;
      states := !states + r.Replica.states;
      probes := !probes + r.Replica.probes;
      fresh := !fresh + r.Replica.fresh;
      words := !words + Obj.reachable_words (Obj.repr r.Replica.visited))
    jobs;
  let ns (l : Spans.layer) = float_of_int l.Spans.ns in
  let calls (l : Spans.layer) = float_of_int l.Spans.calls in
  let covered =
    List.fold_left
      (fun acc l -> acc +. ns l)
      0.
      Replica.[ successors; step; flush; key; visited; frontier; monitor_l ]
  in
  let metrics =
    Replica.
      [
        ("memsim.successors.calls", calls successors);
        ("memsim.successors.ns", ns successors);
        ("memsim.step.calls", calls step);
        ("memsim.step.ns", ns step);
        ("memsim.step.minor_words", float_of_int step.Spans.words);
        ("memsim.flush.ns", ns flush);
        ("mc.key.calls", calls key);
        ("mc.key.ns", ns key);
        ("mc.visited.probes", float_of_int !probes);
        ("mc.visited.ns", ns visited);
        ("mc.visited.fresh_ratio", ratio (float_of_int !fresh) (float_of_int !probes));
        ("mc.visited.words_per_state", ratio (float_of_int !words) (float_of_int !states));
        ("mc.frontier.ns", ns frontier);
        ("verify.monitor.ns", ns monitor_l);
        ("trace.span_coverage", ratio (covered *. 1e-9) !wall);
      ]
  in
  (metrics, !wall, List.rev !errors)

let replica_lock i (v : MC.verdict) () =
  let _, counter, cfg = build_lock i in
  let lost = ref false in
  let r =
    Replica.run ~max_states:check_cap ~max_violations:1 ~monitor:MC.cs_monitor
      ~init:Pid.Set.empty
      ~on_final:(fun c _ -> if Config.read_mem c counter <> i.nprocs then lost := true)
      cfg
  in
  ( r,
    (r.Replica.states, r.Replica.transitions) = counts v
    && r.Replica.truncated = v.MC.stats.Explore.truncated
    && (r.Replica.violations <> []) = (v.MC.me_violation <> None)
    && (r.Replica.deadlocks > 0) = (v.MC.deadlock <> None)
    && !lost = v.MC.lost_update )

let replica_litmus ?(max_states = 1_000_000) test model (mc : Litmus.Test.run) () =
  let regs, cfg = Litmus.Test.configure test ~model in
  let outs = Hashtbl.create 16 in
  let r =
    Replica.run ~max_states ~monitor:(fun () _ -> Ok ()) ~init:()
      ~on_final:(fun c () -> Hashtbl.replace outs (observe regs test c) ())
      cfg
  in
  let outcomes = List.sort compare (Hashtbl.fold (fun o () acc -> o :: acc) outs []) in
  ( r,
    r.Replica.states = mc.Litmus.Test.stats.Explore.states
    && r.Replica.transitions = mc.Litmus.Test.stats.Explore.transitions
    && r.Replica.truncated = mc.Litmus.Test.stats.Explore.truncated
    && outcomes = mc.Litmus.Test.outcomes )

type traced = {
  metrics : (string * float) list;
  attempted : int;
  failed : int;
  errors : string list;
}

let span_file workload =
  Filename.concat (Sys.getenv "OCAML_RUNTIME_EVENTS_DIR") ("spans-" ^ workload ^ ".ndjson")

let build_ms spec = [ ("memsim.build.ms", setup_median spec *. 1e3) ]

(* check-j1's traced run: the untraced one-domain pass, the replica
   pass, and then the same inputs once more at two domains, each run
   reading the engine's own telemetry hub and visited-set statistics.
   The frontier's steals and sleeps exist only there; the two-domain
   verdicts get the lock checks, and complete runs must agree with the
   one-domain counts. *)
let trace_check ~jobs2 () =
  let spec = check_spec in
  let build = build_ms spec in
  let vs, w = measured (fun () -> spec.pass ()) in
  let failed, errors = spec.check ~first:None vs in
  let jobs = List.map2 (fun i v -> (lock_name i, replica_lock i v)) check_inputs vs in
  let layers, wall, mismatches = replica_pass jobs in
  let runs =
    List.map
      (fun i ->
        let hub = Telemetry.Hub.create ~workers:jobs2 () in
        let stats = ref None in
        let v = run_lock ~tel:hub ~report_visited:(fun s -> stats := Some s) ~jobs:jobs2 i in
        (v, hub, !stats))
      check_inputs
  in
  let vs2 = List.map (fun (v, _, _) -> v) runs in
  let counter hub name = Option.value ~default:0 (Telemetry.Hub.read_int hub name) in
  let total name = sum (fun (_, hub, _) -> counter hub name) runs in
  let skew =
    List.fold_left
      (fun acc (v, _, s) ->
        match s with
        | Some s when complete v -> Float.max acc s.Mc.Visited.skew
        | _ -> acc)
      0. runs
  in
  {
    metrics =
      build @ layers
      @ gc_metrics w ~states:(sum (fun v -> fst (counts v)) vs)
      @ [
          ("mc.visited.skew", skew);
          ("mc.frontier.steals", float_of_int (total "steals"));
          ("mc.frontier.sleeps", float_of_int (total "sleeps"));
          ("mc.frontier.sleep_ms", float_of_int (total "sleep_ns") *. 1e-6);
          ("trace.overhead_ratio", ratio wall w.wall);
        ];
    attempted = 3 * spec.ops vs;
    failed = (2 * failed) + lock_failures check_inputs vs2;
    errors =
      errors @ mismatches
      @ agree ~what:(Printf.sprintf "j=%d vs j=1:" jobs2) check_inputs vs2 vs;
  }

let trace_views ~seed () =
  let spec = views_spec ~seed in
  let build = build_ms spec in
  let pool = spec.setup () in
  (* the pass of [views_spec], with the time inside Litmus.Test.run
     (corpus and generated programs) kept apart *)
  let (o, litmus_s), w =
    measured (fun () ->
        let v_locks = List.map (run_lock ~jobs:1) view_lock_inputs in
        let (v_gens, v_corpus), litmus_s =
          timed (fun () ->
              let g = gen_pass pool in
              (g, List.map (fun (t, m) -> run_litmus t m) corpus))
        in
        ({ v_locks; v_gens; v_corpus }, litmus_s))
  in
  let failed, errors = spec.check ~first:None o in
  let jobs =
    List.map2 (fun i v -> (lock_name i, replica_lock i v)) view_lock_inputs o.v_locks
    @ List.map
        (fun (k, m, cap, r) ->
          ( Printf.sprintf "%s %s" (Fuzz.Gen.name (fst pool.(k))) (model_name m),
            replica_litmus ~max_states:cap (snd pool.(k)) m r ))
        o.v_gens
    @ List.map2
        (fun (t, m) r ->
          (Printf.sprintf "%s %s" t.Litmus.Test.name (model_name m), replica_litmus t m r))
        corpus o.v_corpus
  in
  let layers, wall, mismatches = replica_pass jobs in
  let states =
    sum (fun v -> fst (counts v)) o.v_locks
    + sum (fun (_, _, _, r) -> r.Litmus.Test.stats.Explore.states) o.v_gens
    + sum (fun r -> r.Litmus.Test.stats.Explore.states) o.v_corpus
  in
  {
    metrics =
      build @ layers @ gc_metrics w ~states
      @ [
          ("litmus.run.ms", litmus_s *. 1e3);
          ("trace.overhead_ratio", ratio wall w.wall);
        ];
    attempted = 2 * spec.ops o;
    failed = 2 * failed;
    errors = errors @ mismatches;
  }

let trace_synth () =
  let spec = synth_spec in
  let build = build_ms spec in
  let problems = spec.setup () in
  let rs, w = measured (fun () -> spec.pass problems) in
  let failed, errors = spec.check ~first:None rs in
  Spans.reset ();
  let oracle = Spans.layer "synth.oracle" and cost = Spans.layer "synth.cost" in
  let oracle_states = ref 0 in
  let wrap (p : Synth.Oracle.problem) =
    {
      p with
      Synth.Oracle.check =
        (fun m ->
          let v = Spans.span oracle (fun () -> p.Synth.Oracle.check m) in
          oracle_states := !oracle_states + v.Synth.Oracle.states;
          v);
      cost = (fun m -> Spans.span cost (fun () -> p.Synth.Oracle.cost m));
    }
  in
  let traced, wall =
    timed (fun () ->
        List.map (fun (fam, p) -> (fam, Synth.Runner.run ~strategy:`Cegar (wrap p))) problems)
  in
  let again = spec.check ~first:(Some (rs, failed)) traced in
  let stat f = sum (fun (_, r) -> f r.Synth.Runner.stats) rs in
  let oracle_s = secs oracle.Spans.ns and cost_s = secs cost.Spans.ns in
  {
    metrics =
      build
      @ gc_metrics w ~states:(stat (fun s -> s.Synth.Runner.oracle_states))
      @ [
          (* the oracle's own exploration rate: no span inside a call *)
          ("mc.states_per_s", ratio (float_of_int !oracle_states) oracle_s);
          ("synth.oracle.calls", float_of_int oracle.Spans.calls);
          ("synth.oracle.s", oracle_s);
          ("synth.oracle.states", float_of_int !oracle_states);
          ("synth.cost.s", cost_s);
          ("synth.search.s", wall -. oracle_s -. cost_s);
          ( "synth.pruned_ratio",
            ratio
              (float_of_int
                 (stat (fun s -> s.Synth.Runner.pruned_closure + s.Synth.Runner.pruned_cex)))
              (float_of_int (stat (fun s -> s.Synth.Runner.candidates))) );
          ("trace.overhead_ratio", ratio wall w.wall);
          ("trace.span_coverage", ratio (oracle_s +. cost_s) wall);
        ];
    attempted = 2 * spec.ops rs;
    failed = failed + fst again;
    errors = errors @ snd again;
  }

let traced workload run =
  let t = run () in
  Spans.write (span_file workload);
  List.iter (log "ERROR %s") t.errors;
  (* later entries override earlier ones (mc.states_per_s on synth) *)
  let value name =
    List.fold_left (fun acc (n, v) -> if n = name then v else acc) 0. t.metrics
  in
  print_result ~correct:(t.errors = []) ~attempted:t.attempted ~failed:t.failed
    (List.map (fun (name, unit) -> (name, unit, value name)) per_layer)

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)

let usage =
  "fencebench.exe --workload check-j1|views-flat|synth-cegar --seed N \
   --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W workload to run");
      ("--seed", Arg.Set_int seed, "N generated-program seed (views-flat)");
      ("--seconds", Arg.Set_int seconds, "S measuring time of an end-to-end run");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or the traced per-layer split");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let fail msg =
    prerr_endline msg;
    prerr_endline usage;
    exit 2
  in
  if !seconds < 1 then fail "--seconds must be at least 1";
  if !trace = 1 && Sys.getenv_opt "OCAML_RUNTIME_EVENTS_DIR" = None then
    fail "--trace 1 needs OCAML_RUNTIME_EVENTS_DIR (run.py sets it)";
  (* never more domains than the machine has *)
  let jobs2 = min 2 (Domain.recommended_domain_count ()) in
  match (!trace, !workload) with
  | 0, "check-j1" -> untraced (W check_spec) ~seconds:!seconds
  | 0, "views-flat" -> untraced (W (views_spec ~seed:!seed)) ~seconds:!seconds
  | 0, "synth-cegar" -> untraced (W synth_spec) ~seconds:!seconds
  | 1, "check-j1" -> traced "check-j1" (trace_check ~jobs2)
  | 1, "views-flat" -> traced "views-flat" (trace_views ~seed:!seed)
  | 1, "synth-cegar" -> traced "synth-cegar" trace_synth
  | _ -> fail "unknown --workload or --trace value"

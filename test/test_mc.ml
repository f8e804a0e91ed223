(* Parallel model-checker tests: exact agreement of Mc.run with the
   structural reference explorer Fuzz.Reference (states, transitions,
   outcomes, verdicts) with POR off, verdict preservation with states <=
   unreduced under POR, replay determinism of counterexample paths
   across domain counts, and a qcheck cross-check on random small
   programs. The reference keys states on their full contents, not on
   Mc's hash lanes, so a lane that drops a key component shows up here
   as a state-count mismatch. *)

open Memsim

let lock name = Option.get (Locks.Registry.find name)

let check_stats_equal label (a : Explore.stats) (b : Explore.stats) =
  Alcotest.(check int) (label ^ ": states") a.Explore.states b.Explore.states;
  Alcotest.(check int)
    (label ^ ": transitions")
    a.Explore.transitions b.Explore.transitions;
  Alcotest.(check bool)
    (label ^ ": truncated")
    a.Explore.truncated b.Explore.truncated

(* ------------------------------------------------------------------ *)
(* Litmus parity: every case, every model, engines agree exactly       *)
(* ------------------------------------------------------------------ *)

let litmus_parity_engines () =
  List.iter
    (fun test ->
      List.iter
        (fun model ->
          let reference = Fuzz.Reference.litmus test ~model in
          List.iter
            (fun jobs ->
              let label =
                Fmt.str "%s/%a jobs=%d" test.Litmus.Test.name Memory_model.pp
                  model jobs
              in
              let r = Litmus.Test.run ~engine:(`Parallel jobs) test ~model in
              Alcotest.(check bool)
                (label ^ ": outcomes") true
                (r.Litmus.Test.outcomes = reference.Litmus.Test.outcomes);
              check_stats_equal label reference.Litmus.Test.stats
                r.Litmus.Test.stats)
            [ 1; 2 ])
        Memory_model.all)
    Litmus.Cases.all

let litmus_por_preserves_outcomes () =
  List.iter
    (fun test ->
      List.iter
        (fun model ->
          let reference = Fuzz.Reference.litmus test ~model in
          let r =
            Litmus.Test.run ~engine:(`Parallel 2) ~por:true test ~model
          in
          let label =
            Fmt.str "%s/%a por" test.Litmus.Test.name Memory_model.pp model
          in
          Alcotest.(check bool)
            (label ^ ": outcomes") true
            (r.Litmus.Test.outcomes = reference.Litmus.Test.outcomes);
          Alcotest.(check bool)
            (label ^ ": states <=") true
            (r.Litmus.Test.stats.Explore.states
            <= reference.Litmus.Test.stats.Explore.states))
        Memory_model.all)
    Litmus.Cases.all

(* ------------------------------------------------------------------ *)
(* Lock-check parity                                                   *)
(* ------------------------------------------------------------------ *)

(* (holds, mutual exclusion violated, deadlock, lost update) *)
let verdict_shape (v : Verify.Mutex_check.verdict) =
  ( v.Verify.Mutex_check.holds,
    v.Verify.Mutex_check.me_violation <> None,
    v.Verify.Mutex_check.deadlock <> None,
    v.Verify.Mutex_check.lost_update )

(* The reference side of a lock check: Mutex_check's workload,
   occupancy monitor and lost-update oracle, explored by the structural
   reference explorer. Returns the verdict shape and the stats. *)
let reference_check ~model name ~nprocs =
  let _, counter, cfg =
    Verify.Mutex_check.workload ~model (lock name) ~nprocs ~rounds:1
  in
  let lost_update = ref false in
  let r =
    Fuzz.Reference.run ~monitor:Verify.Mutex_check.cs_monitor
      ~init:Pid.Set.empty
      ~on_final:(fun final _ ->
        if Config.read_mem final counter <> nprocs then lost_update := true)
      cfg
  in
  let violated = r.Explore.violations <> []
  and deadlocked = r.Explore.deadlocks <> [] in
  ( ( (not violated) && (not deadlocked) && not !lost_update,
      violated,
      deadlocked,
      !lost_update ),
    r.Explore.stats )

(* The n=2 lock matrix. gt:2 reaches the 1M-state cap under RA and
   SRA, so the view models check the other three locks. *)
let lock_parity_cases =
  List.concat_map
    (fun name ->
      List.map
        (fun model -> (name, model))
        [ Memory_model.Sc; Memory_model.Tso; Memory_model.Pso ])
    [ "bakery"; "peterson"; "tournament"; "gt:2" ]
  @ List.concat_map
      (fun name ->
        List.map
          (fun model -> (name, model))
          [ Memory_model.Ra; Memory_model.Sra ])
      [ "bakery"; "peterson"; "tournament" ]

let locks_parity_engines () =
  List.iter
    (fun (name, model) ->
      let shape, stats = reference_check ~model name ~nprocs:2 in
      List.iter
        (fun jobs ->
          let label =
            Fmt.str "%s/%a n=2 jobs=%d" name Memory_model.pp model jobs
          in
          let v =
            Verify.Mutex_check.check ~engine:(`Parallel jobs) ~model
              (lock name) ~nprocs:2
          in
          Alcotest.(check bool)
            (label ^ ": verdict") true
            (verdict_shape v = shape);
          check_stats_equal label stats v.Verify.Mutex_check.stats)
        [ 1; 2 ])
    lock_parity_cases

(* The acceptance-scope case: 3-process bakery, the structural reference
   vs the 1-domain engine, exact agreement. Slow (~700k states per
   explorer) but the one that matters. *)
let bakery3_parity () =
  let model = Memory_model.Pso in
  let shape, stats = reference_check ~model "bakery" ~nprocs:3 in
  let v =
    Verify.Mutex_check.check ~engine:(`Parallel 1) ~model (lock "bakery")
      ~nprocs:3
  in
  Alcotest.(check bool) "bakery n=3: verdict" true (verdict_shape v = shape);
  check_stats_equal "bakery n=3" stats v.Verify.Mutex_check.stats

let locks_por_preserves_verdicts () =
  let strict_reduction = ref false in
  List.iter
    (fun name ->
      List.iter
        (fun model ->
          let shape, stats = reference_check ~model name ~nprocs:2 in
          let v =
            Verify.Mutex_check.check ~engine:(`Parallel 2) ~por:true ~model
              (lock name) ~nprocs:2
          in
          let label = Fmt.str "%s/%a por" name Memory_model.pp model in
          Alcotest.(check bool)
            (label ^ ": verdict") true
            (verdict_shape v = shape);
          Alcotest.(check bool)
            (label ^ ": states <=") true
            (v.Verify.Mutex_check.stats.Explore.states <= stats.Explore.states);
          if v.Verify.Mutex_check.stats.Explore.states < stats.Explore.states
          then strict_reduction := true)
        [ Memory_model.Tso; Memory_model.Pso ])
    [ "bakery"; "peterson"; "tournament"; "gt:2" ];
  (* the reduction must actually bite somewhere, not just be a no-op *)
  Alcotest.(check bool) "POR reduced some check" true !strict_reduction

(* Verdicts on broken variants survive POR too: a reduced exploration
   must still find the mutual-exclusion violation. *)
let por_still_finds_violations () =
  List.iter
    (fun (name, model) ->
      let v =
        Verify.Mutex_check.check ~engine:(`Parallel 2) ~por:true ~model
          (lock name) ~nprocs:2
      in
      Alcotest.(check bool) (name ^ ": still broken") false
        v.Verify.Mutex_check.holds)
    [
      ("peterson-unfenced", Memory_model.Pso);
      ("peterson-batched", Memory_model.Pso);
      ("peterson-unfenced", Memory_model.Tso);
    ]

(* ------------------------------------------------------------------ *)
(* Counterexample replay determinism                                   *)
(* ------------------------------------------------------------------ *)

let replay_deterministic () =
  let model = Memory_model.Pso in
  List.iter
    (fun jobs ->
      let v =
        Verify.Mutex_check.check ~engine:(`Parallel jobs) ~model
          (lock "peterson-unfenced") ~nprocs:2
      in
      let path =
        match v.Verify.Mutex_check.me_violation with
        | Some p -> p
        | None -> Alcotest.failf "jobs=%d: no violation path" jobs
      in
      (* the recorded schedule, replayed on a fresh configuration,
         reproduces the violating trace — and does so identically on
         every replay *)
      let _, _, cfg =
        Verify.Mutex_check.workload ~model
          (lock "peterson-unfenced")
          ~nprocs:2 ~rounds:1
      in
      let steps1, final1 = Mc.Replay.run cfg path in
      let steps2, final2 = Mc.Replay.run cfg path in
      Alcotest.(check string)
        (Fmt.str "jobs=%d: final state stable" jobs)
        (Fuzz.Reference.key final1) (Fuzz.Reference.key final2);
      Alcotest.(check int)
        (Fmt.str "jobs=%d: trace length stable" jobs)
        (List.length steps1) (List.length steps2);
      match
        Mc.Replay.monitor_verdict ~monitor:Verify.Mutex_check.cs_monitor
          ~init:Pid.Set.empty steps1
      with
      | Error _ -> ()
      | Ok _ ->
          Alcotest.failf "jobs=%d: replayed path does not violate" jobs)
    [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Deadlock capping                                                    *)
(* ------------------------------------------------------------------ *)

let max_deadlocks_caps () =
  let open Program in
  (* p0 branches on a racy read of r3, so two distinct stuck states are
     reachable (r2 = 0 or 1); p1 publishes r3 and then blocks *)
  let cfg =
    Config.make ~model:Memory_model.Pso
      ~layout:(Layout.flat ~nprocs:2 ~nregs:4)
      [|
        run
          (let* v = read 3 in
           let* () = write 2 v in
           let* () = fence in
           let* _ = await 0 (fun v -> v = 1) in
           return 0);
        run
          (let* () = write 3 1 in
           let* () = fence in
           let* _ = await 1 (fun v -> v = 1) in
           return 0);
      |]
  in
  let full = Mc.run_plain cfg in
  Alcotest.(check bool)
    "multiple deadlock paths" true
    (List.length full.Explore.deadlocks >= 2);
  let capped = Mc.run_plain ~max_deadlocks:1 cfg in
  Alcotest.(check int)
    "capped to one" 1
    (List.length capped.Explore.deadlocks);
  (* same stuck states are still visited; only the path log is capped *)
  check_stats_equal "capped run stats" full.Explore.stats capped.Explore.stats

(* A cap below one state would report a clean truncated run after one
   state, and a workload of no passages would check nothing: both are
   rejected where they enter. *)
let nonpositive_bounds_rejected () =
  let _, _, cfg =
    Verify.Mutex_check.workload ~model:Memory_model.Pso (lock "peterson")
      ~nprocs:2 ~rounds:1
  in
  Alcotest.check_raises "Mc.run" (Invalid_argument "Mc.run: max_states 0 < 1")
    (fun () -> ignore (Mc.run_plain ~max_states:0 cfg));
  Alcotest.check_raises "Mc.deepen"
    (Invalid_argument "Mc.deepen: max_states -3 < 1") (fun () ->
      ignore
        (Mc.deepen ~max_states:(-3) ~monitor:(fun () _ -> Ok ()) ~init:() cfg));
  Alcotest.check_raises "Mutex_check.workload"
    (Invalid_argument "Mutex_check.workload: rounds -2 < 1") (fun () ->
      ignore
        (Verify.Mutex_check.workload ~model:Memory_model.Pso (lock "bakery")
           ~nprocs:2 ~rounds:(-2)))

(* ------------------------------------------------------------------ *)
(* Random programs: engines agree (qcheck)                             *)
(* ------------------------------------------------------------------ *)

type rop = R of int | W of int * int | F | C of int * int

let show_rop = function
  | R r -> Printf.sprintf "R%d" r
  | W (r, v) -> Printf.sprintf "W(%d,%d)" r v
  | F -> "F"
  | C (r, u) -> Printf.sprintf "C(%d,0->%d)" r u

let arb_rops =
  QCheck.(
    make
      ~print:(fun (a, b) ->
        String.concat ";" (List.map show_rop a)
        ^ " || "
        ^ String.concat ";" (List.map show_rop b))
      Gen.(
        let ops =
          list_size (0 -- 4)
            (frequency
               [
                 (3, map2 (fun r v -> W (r, v)) (0 -- 1) (1 -- 2));
                 (3, map (fun r -> R r) (0 -- 1));
                 (1, return F);
                 (1, map2 (fun r u -> C (r, u)) (0 -- 1) (1 -- 2));
               ])
        in
        pair ops ops))

let program_of ops : Program.t =
  let open Program in
  let rec go = function
    | [] -> return 0
    | R r :: rest -> read r >>= fun _ -> go rest
    | W (r, v) :: rest -> write r v >>= fun () -> go rest
    | F :: rest -> fence >>= fun () -> go rest
    | C (r, u) :: rest -> cas r ~expect:0 ~update:u >>= fun _ -> go rest
  in
  run (go ops)

let config_of ~model (a, b) =
  Config.make ~model
    ~layout:(Layout.flat ~nprocs:2 ~nregs:2)
    [| program_of a; program_of b |]

let observe final =
  ( Config.read_mem final 0,
    Config.read_mem final 1,
    List.init (Config.nprocs final) (fun p -> (Config.pstate final p).Config.obs)
  )

let prop_engines_agree =
  QCheck.Test.make ~name:"random programs: engines agree" ~count:40 arb_rops
    (fun progs ->
      List.for_all
        (fun model ->
          let ref_out, ref_res =
            Fuzz.Reference.reachable_outcomes ~observe (config_of ~model progs)
          in
          let mc_out, mc_res =
            Mc.reachable_outcomes ~engine:(`Parallel 2) ~observe
              (config_of ~model progs)
          in
          let por_out, por_res =
            Mc.reachable_outcomes ~engine:(`Parallel 2) ~por:true ~observe
              (config_of ~model progs)
          in
          ref_out = mc_out
          && ref_res.Explore.stats.Explore.states
             = mc_res.Explore.stats.Explore.states
          && ref_res.Explore.stats.Explore.transitions
             = mc_res.Explore.stats.Explore.transitions
          && ref_out = por_out
          && por_res.Explore.stats.Explore.states
             <= ref_res.Explore.stats.Explore.states)
        Memory_model.all)

(* ------------------------------------------------------------------ *)
(* Fingerprint sanity                                                  *)
(* ------------------------------------------------------------------ *)

let fingerprint_matches_key_equality () =
  (* equal keys => equal fingerprints; and across a real exploration,
     distinct keys never collided (else the parity tests above would
     have caught the state-count mismatch) — here just spot-check both
     directions on a handful of configurations *)
  let model = Memory_model.Pso in
  let mk () =
    Config.make ~model
      ~layout:(Layout.flat ~nprocs:2 ~nregs:2)
      [|
        program_of [ W (0, 1); F ];
        program_of [ R 0; W (1, 2) ];
      |]
  in
  let a = mk () and b = mk () in
  Alcotest.(check bool)
    "equal configs, equal fingerprints" true
    (Mc.Fingerprint.equal (Mc.Fingerprint.of_config a)
       (Mc.Fingerprint.of_config b));
  let _, a' = Exec.exec_elt a (0, None) in
  Alcotest.(check bool)
    "distinct configs, distinct fingerprints" false
    (Mc.Fingerprint.equal (Mc.Fingerprint.of_config a)
       (Mc.Fingerprint.of_config a'))

let suite =
  ( "mc",
    [
      Alcotest.test_case "litmus parity (1/2 domains)" `Quick
        litmus_parity_engines;
      Alcotest.test_case "litmus POR preserves outcomes" `Quick
        litmus_por_preserves_outcomes;
      Alcotest.test_case "lock parity (1/2 domains)" `Quick
        locks_parity_engines;
      Alcotest.test_case "bakery n=3 parity (acceptance)" `Slow bakery3_parity;
      Alcotest.test_case "POR preserves lock verdicts" `Quick
        locks_por_preserves_verdicts;
      Alcotest.test_case "POR still finds violations" `Quick
        por_still_finds_violations;
      Alcotest.test_case "replay deterministic (1/2/4 domains)" `Quick
        replay_deterministic;
      Alcotest.test_case "max_deadlocks caps the path log" `Quick
        max_deadlocks_caps;
      Alcotest.test_case "non-positive caps and rounds rejected" `Quick
        nonpositive_bounds_rejected;
      QCheck_alcotest.to_alcotest prop_engines_agree;
      Alcotest.test_case "fingerprint equality" `Quick
        fingerprint_matches_key_equality;
    ] )

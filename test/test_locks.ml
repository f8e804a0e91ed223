(* Lock algorithms: exact complexity counts (the Section 3 claims),
   exhaustive correctness at small scope, randomized stress at larger
   scope, and the fence-ablation matrix (E8) as regression pins. *)

open Memsim

let lock name = Option.get (Locks.Registry.find name)

let cost name ~nprocs =
  Fencelab.Experiment.passage_cost ~model:Memory_model.Pso (lock name) ~nprocs

(* --- exact complexity ------------------------------------------------ *)

let bakery_fences_constant () =
  List.iter
    (fun n ->
      Alcotest.(check int)
        (Fmt.str "bakery fences at n=%d" n)
        4
        (cost "bakery" ~nprocs:n).Fencelab.Experiment.fences)
    [ 2; 8; 32; 128 ]

let bakery_rmrs_linear () =
  (* sequential worst passage: scan n tickets (n-1 changed) + n-1 wait
     registers = 2(n-1) combined RMRs *)
  List.iter
    (fun n ->
      Alcotest.(check int)
        (Fmt.str "bakery rmr at n=%d" n)
        (2 * (n - 1))
        (cost "bakery" ~nprocs:n).Fencelab.Experiment.rmr)
    [ 2; 4; 8; 16; 64 ]

let gt_fences_linear_in_height () =
  List.iter
    (fun f ->
      Alcotest.(check int)
        (Fmt.str "gt:%d fences" f)
        (4 * f)
        (cost (Fmt.str "gt:%d" f) ~nprocs:64).Fencelab.Experiment.fences)
    [ 1; 2; 3; 6 ]

let gt1_equals_bakery () =
  (* GT_1 is the Bakery algorithm structurally: identical fences and
     read pattern. Its RMR count is >= the top-level bakery's only
     because interior tree nodes live in no process's segment, while
     the paper's Bakery puts C[i], T[i] in process i's segment. *)
  List.iter
    (fun n ->
      let b = cost "bakery" ~nprocs:n in
      let g = cost "gt:1" ~nprocs:n in
      Alcotest.(check int) "fences" b.Fencelab.Experiment.fences
        g.Fencelab.Experiment.fences;
      Alcotest.(check bool) "rmr dominated" true
        (g.Fencelab.Experiment.rmr >= b.Fencelab.Experiment.rmr);
      Alcotest.(check int) "same CC misses" b.Fencelab.Experiment.rmr_cc
        g.Fencelab.Experiment.rmr_cc)
    [ 4; 16 ]

let gt_rmrs_follow_equation_2 () =
  (* measured r stays within a small constant of f * n^(1/f) *)
  List.iter
    (fun (n, f) ->
      let c = cost (Fmt.str "gt:%d" f) ~nprocs:n in
      let predicted = Fencelab.Tradeoff.gt_rmrs ~nprocs:n ~height:f in
      let ratio = float_of_int c.Fencelab.Experiment.rmr /. predicted in
      Alcotest.(check bool)
        (Fmt.str "n=%d f=%d ratio %.2f in [0.5, 4]" n f ratio)
        true
        (ratio >= 0.5 && ratio <= 4.))
    [ (64, 2); (64, 3); (256, 2); (256, 4); (1024, 5) ]

let tournament_is_logarithmic () =
  List.iter
    (fun n ->
      let c = cost "tournament" ~nprocs:n in
      let log_n = Fencelab.Tradeoff.floor_log_n ~nprocs:n in
      Alcotest.(check bool)
        (Fmt.str "fences ~ 4 log n at n=%d" n)
        true
        (float_of_int c.Fencelab.Experiment.fences <= (4. *. log_n) +. 4.);
      Alcotest.(check bool)
        (Fmt.str "rmr O(log n) at n=%d" n)
        true
        (float_of_int c.Fencelab.Experiment.rmr <= 8. *. (log_n +. 1.)))
    [ 4; 16; 64; 256 ]

let measured_costs_respect_lower_bound () =
  (* Equation (1): no correct read/write lock may beat the tradeoff *)
  List.iter
    (fun (name, ns) ->
      List.iter
        (fun n ->
          let c = cost name ~nprocs:n in
          Alcotest.(check bool)
            (Fmt.str "%s at n=%d" name n)
            true
            (Fencelab.Tradeoff.respects_lower_bound ~nprocs:n
               ~fences:c.Fencelab.Experiment.fences
               ~rmrs:c.Fencelab.Experiment.rmr ()))
        ns)
    [
      ("bakery", [ 4; 16; 64; 256 ]);
      ("tournament", [ 4; 16; 64; 256 ]);
      ("gt:2", [ 16; 64; 256 ]);
      ("gt:3", [ 64; 256 ]);
    ]

(* --- exhaustive correctness ------------------------------------------ *)

let cap = 600_000

let exhaustive_me name model ~nprocs expected =
  let v =
    Verify.Mutex_check.check ~max_states:cap ~model (lock name) ~nprocs
  in
  Alcotest.(check bool)
    (Fmt.str "%s %a n=%d" name Memory_model.pp model nprocs)
    expected v.Verify.Mutex_check.holds

let correct_locks_hold_everywhere () =
  List.iter
    (fun name ->
      List.iter
        (fun model -> exhaustive_me name model ~nprocs:2 true)
        Memory_model.all)
    [ "bakery"; "tournament"; "peterson"; "ttas"; "gt:1"; "clh"; "anderson";
      "filter" ]

let queue_locks_are_constant_cost () =
  (* CLH and Anderson: O(1) fences and O(1) RMRs per passage at every n
     — the strong-primitive escape from the read/write tradeoff *)
  List.iter
    (fun name ->
      List.iter
        (fun n ->
          let c = cost name ~nprocs:n in
          Alcotest.(check int)
            (Fmt.str "%s fences at n=%d" name n)
            2 c.Fencelab.Experiment.fences;
          Alcotest.(check bool)
            (Fmt.str "%s rmr at n=%d" name n)
            true
            (c.Fencelab.Experiment.rmr <= 4))
        [ 2; 16; 128 ])
    [ "clh"; "anderson" ]

let filter_is_deliberately_suboptimal () =
  List.iter
    (fun n ->
      let c = cost "filter" ~nprocs:n in
      Alcotest.(check int)
        (Fmt.str "filter fences at n=%d" n)
        ((2 * (n - 1)) + 1)
        c.Fencelab.Experiment.fences;
      (* still obeys the lower bound (it is a floor, not a frontier) *)
      Alcotest.(check bool) "respects Equation (1)" true
        (Fencelab.Tradeoff.respects_lower_bound ~nprocs:n
           ~fences:c.Fencelab.Experiment.fences
           ~rmrs:c.Fencelab.Experiment.rmr ()))
    [ 4; 16; 64 ]

let anderson_boolean_variant_breaks_under_pso () =
  (* the naive two-write release reorders under PSO and erases a baton:
     exhaustive exploration finds the deadlock at n=2, 2 rounds *)
  let check model expected =
    let v =
      Verify.Mutex_check.check ~rounds:2 ~max_states:cap ~model
        Locks.Anderson.boolean_variant ~nprocs:2
    in
    Alcotest.(check bool)
      (Fmt.str "anderson-boolean under %a" Memory_model.pp model)
      expected v.Verify.Mutex_check.holds
  in
  check Memory_model.Sc true;
  check Memory_model.Tso true;
  check Memory_model.Pso false;
  check Memory_model.Rmo false

let batched_peterson_separates_models () =
  exhaustive_me "peterson-batched" Memory_model.Sc ~nprocs:2 true;
  exhaustive_me "peterson-batched" Memory_model.Tso ~nprocs:2 true;
  exhaustive_me "peterson-batched" Memory_model.Pso ~nprocs:2 false;
  exhaustive_me "peterson-batched" Memory_model.Rmo ~nprocs:2 false

let unfenced_peterson_breaks_under_buffering () =
  exhaustive_me "peterson-unfenced" Memory_model.Sc ~nprocs:2 true;
  exhaustive_me "peterson-unfenced" Memory_model.Tso ~nprocs:2 false;
  exhaustive_me "peterson-unfenced" Memory_model.Pso ~nprocs:2 false

let bakery_ablation_matrix () =
  (* which of the four fences is load-bearing, per model; this is the
     E8 table as a regression pin. f1 guards the store→load edge
     (breaks TSO already), f2 guards the ticket-publication
     write→write edge (breaks only write-reordering models), f3 and
     the release fence only delay conservative commits (safe). *)
  (* columns follow [Memory_model.all]: SC TSO PSO RMO RA SRA. The
     view models behave like the write-reordering buffer models except
     that f2 is load-bearing under BOTH: without a fence between the
     choosing-flag and ticket writes nothing orders cross-location
     writes — SRA only totally orders writes per location, so it is
     not TSO. *)
  let expect =
    [
      ("full", [ true; true; true; true; true; true ]);
      ("no-f1", [ true; false; false; false; false; false ]);
      ("no-f2", [ true; true; false; false; false; false ]);
      ("no-f3", [ true; true; true; true; true; true ]);
      ("no-release-fence", [ true; true; true; true; true; true ]);
      ("unfenced", [ true; false; false; false; false; false ]);
    ]
  in
  List.iter
    (fun spec ->
      let expected = List.assoc spec.Locks.Variants.label expect in
      List.iter2
        (fun model exp ->
          let v =
            Verify.Mutex_check.check ~max_states:cap ~model
              (Locks.Variants.bakery_variant spec)
              ~nprocs:2
          in
          Alcotest.(check bool)
            (Fmt.str "bakery-%s under %a" spec.Locks.Variants.label
               Memory_model.pp model)
            exp v.Verify.Mutex_check.holds)
        Memory_model.all expected)
    Locks.Variants.all_specs

let counterexamples_replay () =
  let v =
    Verify.Mutex_check.check ~max_states:cap ~model:Memory_model.Pso
      (lock "peterson-batched") ~nprocs:2
  in
  match v.Verify.Mutex_check.me_violation with
  | None -> Alcotest.fail "expected a counterexample"
  | Some path ->
      let trace, _ =
        Verify.Mutex_check.replay ~model:Memory_model.Pso
          (lock "peterson-batched") ~nprocs:2 ~rounds:1 path
      in
      (* the replayed trace must show two cs:enter without an
         intervening cs:exit *)
      let overlap =
        List.fold_left
          (fun (inside, seen) s ->
            match s with
            | Step.Note { text = "cs:enter"; _ } -> (inside + 1, max seen (inside + 1))
            | Step.Note { text = "cs:exit"; _ } -> (inside - 1, seen)
            | _ -> (inside, seen))
          (0, 0) trace
        |> snd
      in
      Alcotest.(check int) "two processes inside" 2 overlap

(* --- stress ----------------------------------------------------------- *)

let stress_all_locks () =
  List.iter
    (fun (name, nprocs) ->
      let r =
        Verify.Stress.run ~seeds:15 ~rounds:2 ~model:Memory_model.Pso
          (lock name) ~nprocs
      in
      Alcotest.(check (list (pair int string)))
        (Fmt.str "%s n=%d" name nprocs)
        [] r.Verify.Stress.failures)
    [
      ("bakery", 6); ("tournament", 8); ("gt:2", 9); ("gt:3", 8); ("ttas", 5);
      ("peterson", 2); ("clh", 7); ("anderson", 7); ("filter", 4);
    ]

let stress_contended_tso () =
  let r =
    Verify.Stress.run ~seeds:10 ~rounds:3 ~model:Memory_model.Tso
      (lock "peterson-batched") ~nprocs:2
  in
  Alcotest.(check (list (pair int string))) "batched holds under TSO stress" []
    r.Verify.Stress.failures

let locks_are_weakly_obstruction_free () =
  (* the paper's liveness hypothesis (Section 2), checked exhaustively:
     deadlock-freedom implies it, so every correct lock must pass *)
  List.iter
    (fun name ->
      let v =
        Verify.Obstruction.check ~model:Memory_model.Pso ~max_states:cap
          (lock name) ~nprocs:2
      in
      Alcotest.(check bool) name true v.Verify.Obstruction.holds)
    [ "bakery"; "peterson"; "tournament"; "clh"; "anderson"; "ttas"; "filter" ]

let obstruction_checker_catches_handshakes () =
  (* a bogus "lock" whose acquire waits for the OTHER process to show
     up: solo runs never finish, so it is not weakly obstruction-free *)
  let handshake : Locks.Lock.factory =
   fun builder ~nprocs ->
    let open Program in
    let flags =
      Layout.Builder.alloc_array builder ~name:"hs" ~len:nprocs
        ~owner:(fun _ -> Layout.no_owner)
        ~init:0
    in
    {
      Locks.Lock.name = "handshake";
      nprocs;
      intended_model = Memory_model.Sc;
      acquire =
        (fun p ->
          let* () = write flags.(p) 1 in
          let* () = fence in
          let* _ = await flags.((p + 1) mod nprocs) (fun v -> v = 1) in
          return ());
      release = (fun _ -> Program.return ());
    }
  in
  let v =
    Verify.Obstruction.check ~model:Memory_model.Pso ~max_states:cap handshake
      ~nprocs:2
  in
  Alcotest.(check bool) "handshake strands" false v.Verify.Obstruction.holds;
  Alcotest.(check bool) "counterexample produced" true
    (v.Verify.Obstruction.counterexample <> None)

(* A clean run cut short by its state cap has not shown the property:
   the verdict says what it saw, as Mutex_check's does, never "weakly
   obstruction-free". *)
let obstruction_truncated_says_so () =
  let v =
    Verify.Obstruction.check ~model:Memory_model.Pso ~max_states:2_000
      (lock "bakery") ~nprocs:3
  in
  Alcotest.(check bool) "truncated" true
    v.Verify.Obstruction.stats.Explore.truncated;
  let rendered = Fmt.str "%a" Verify.Obstruction.pp_verdict v in
  let contains sub =
    let n = String.length sub in
    let rec at i =
      i + n <= String.length rendered
      && (String.sub rendered i n = sub || at (i + 1))
    in
    at 0
  in
  Alcotest.(check bool) "says no violation found" true
    (contains ": NO VIOLATION FOUND (");
  Alcotest.(check bool) "says truncated" true (contains " states, truncated)");
  Alcotest.(check bool) "never claims the property" false
    (contains "weakly obstruction-free")

let registry_resolves () =
  List.iter
    (fun name ->
      Alcotest.(check bool) name true (Locks.Registry.find name <> None))
    [ "bakery"; "tournament"; "ttas"; "peterson"; "gt:1"; "gt:5"; "clh";
      "anderson"; "anderson-boolean"; "filter" ];
  Alcotest.(check bool) "bogus" true (Locks.Registry.find "gt:0" = None);
  Alcotest.(check bool) "unknown" true (Locks.Registry.find "nope" = None)

let suite =
  ( "locks",
    [
      Alcotest.test_case "bakery: constant fences" `Quick bakery_fences_constant;
      Alcotest.test_case "bakery: linear RMRs (2(n-1))" `Quick bakery_rmrs_linear;
      Alcotest.test_case "gt: 4f fences" `Quick gt_fences_linear_in_height;
      Alcotest.test_case "gt:1 = bakery" `Quick gt1_equals_bakery;
      Alcotest.test_case "gt: Equation (2) RMRs" `Quick gt_rmrs_follow_equation_2;
      Alcotest.test_case "tournament: Theta(log n)" `Quick tournament_is_logarithmic;
      Alcotest.test_case "measured costs respect Equation (1)" `Quick
        measured_costs_respect_lower_bound;
      Alcotest.test_case "correct locks hold at n=2, all models" `Slow
        correct_locks_hold_everywhere;
      Alcotest.test_case "queue locks are O(1)/O(1)" `Quick
        queue_locks_are_constant_cost;
      Alcotest.test_case "filter lock is deliberately suboptimal" `Quick
        filter_is_deliberately_suboptimal;
      Alcotest.test_case "anderson boolean variant deadlocks under PSO" `Slow
        anderson_boolean_variant_breaks_under_pso;
      Alcotest.test_case "batched peterson separates TSO from PSO" `Slow
        batched_peterson_separates_models;
      Alcotest.test_case "unfenced peterson breaks under buffering" `Slow
        unfenced_peterson_breaks_under_buffering;
      Alcotest.test_case "bakery fence-ablation matrix" `Slow bakery_ablation_matrix;
      Alcotest.test_case "counterexamples replay" `Quick counterexamples_replay;
      Alcotest.test_case "stress: all locks, PSO" `Slow stress_all_locks;
      Alcotest.test_case "stress: batched under TSO" `Quick stress_contended_tso;
      Alcotest.test_case "locks are weakly obstruction-free" `Slow
        locks_are_weakly_obstruction_free;
      Alcotest.test_case "obstruction checker catches handshakes" `Quick
        obstruction_checker_catches_handshakes;
      Alcotest.test_case "truncated obstruction check is no verdict" `Quick
        obstruction_truncated_says_so;
      Alcotest.test_case "registry resolves names" `Quick registry_resolves;
    ] )

(* Incremental state keys: the cached lanes carried in pstates and
   committed memory, and the xor-composed fingerprint updated from
   dirty reports, must agree with their from-scratch recomputations at
   every reachable configuration. Programs draw from the full
   operation alphabet (including labels and the strong primitives) so
   every dirty-report branch of the executor is exercised. *)

open Memsim

type op = W of int * int | R of int | F | C of int | S of int | A of int | L

let show_op = function
  | W (r, v) -> Printf.sprintf "W(%d,%d)" r v
  | R r -> Printf.sprintf "R%d" r
  | F -> "F"
  | C r -> Printf.sprintf "C%d" r
  | S r -> Printf.sprintf "S%d" r
  | A r -> Printf.sprintf "A%d" r
  | L -> "L"

let arb_ops =
  QCheck.(
    make
      ~print:(fun l -> String.concat ";" (List.map show_op l))
      Gen.(
        list_size (0 -- 8)
          (frequency
             [
               (4, map2 (fun r v -> W (r, v)) (0 -- 3) (0 -- 9));
               (3, map (fun r -> R r) (0 -- 3));
               (2, return F);
               (1, map (fun r -> C r) (0 -- 3));
               (1, map (fun r -> S r) (0 -- 3));
               (1, map (fun r -> A r) (0 -- 3));
               (1, return L);
             ])))

let build_program ops =
  let rec go i = function
    | [] -> Program.Ret 0
    | W (r, v) :: rest -> Program.Write (r, v, fun () -> go (i + 1) rest)
    | R r :: rest -> Program.Read (r, fun _ -> go (i + 1) rest)
    | F :: rest -> Program.Fence (fun () -> go (i + 1) rest)
    | C r :: rest -> Program.Cas (r, 0, i + 1, fun _ -> go (i + 1) rest)
    | S r :: rest -> Program.Swap (r, i + 10, fun _ -> go (i + 1) rest)
    | A r :: rest -> Program.Faa (r, 1, fun _ -> go (i + 1) rest)
    | L :: rest ->
        Program.Label (Printf.sprintf "l%d" i, fun () -> go (i + 1) rest)
  in
  go 0 ops

(* A schedule as raw (pid, register option) elements; invalid elements
   (commits with nothing committable) are exactly the no-op/fallback
   paths we want covered. *)
let arb_sched =
  QCheck.(
    list_of_size Gen.(0 -- 40) (pair (int_bound 1) (option (int_bound 3))))

let arb_case = QCheck.(pair (pair arb_ops arb_ops) (pair arb_sched (int_bound 3)))

let make_cfg (ops0, ops1) model_ix =
  let model = List.nth Memory_model.all model_ix in
  Config.make ~model
    ~layout:(Layout.flat ~nprocs:2 ~nregs:4)
    [| build_program ops0; build_program ops1 |]

let lanes_consistent cfg =
  Statekey.mem_lanes cfg = Statekey.mem_lanes_scratch cfg
  && List.for_all
       (fun p ->
         let st = Config.pstate cfg p in
         Statekey.proc_lanes st = Statekey.proc_lanes_scratch st)
       [ 0; 1 ]

(* Cached lanes = scratch lanes along any schedule, under every model. *)
let prop_lanes_incremental_eq_scratch =
  QCheck.Test.make ~name:"cached lanes = from-scratch lanes" ~count:300
    arb_case (fun ((ops0, ops1), (sched, model_ix)) ->
      let cfg0 = make_cfg (ops0, ops1) model_ix in
      lanes_consistent cfg0
      && List.for_all Fun.id
           (let cfg = ref cfg0 in
            List.map
              (fun e ->
                let _, cfg' = Exec.exec_elt !cfg e in
                cfg := cfg';
                lanes_consistent cfg')
              sched))

(* Fingerprints updated edge by edge from dirty reports stay equal to
   the fingerprint recomputed from the configuration — the exact
   invariant the parallel checker's visited set rests on. Includes the
   label-flush normalization the engine performs before expanding. *)
let prop_fingerprint_update_eq_of_config =
  QCheck.Test.make ~name:"incremental fingerprint = of_config" ~count:300
    arb_case (fun ((ops0, ops1), (sched, model_ix)) ->
      let cfg0 = make_cfg (ops0, ops1) model_ix in
      let ok = ref true in
      let cfg = ref cfg0 and fp = ref (Mc.Fingerprint.of_config cfg0) in
      let check () = Mc.Fingerprint.equal !fp (Mc.Fingerprint.of_config !cfg) in
      List.iter
        (fun e ->
          (* normalize as the engine does, carrying the fingerprint *)
          let _, cfgn, dirtied = Exec.flush_labels_d !cfg in
          fp :=
            List.fold_left
              (fun fp p ->
                Mc.Fingerprint.update fp ~before:!cfg ~after:cfgn
                  { Exec.proc = Some p; mem = false })
              !fp dirtied;
          cfg := cfgn;
          ok := !ok && check ();
          let _, cfg', d = Exec.exec_elt_d !cfg e in
          fp := Mc.Fingerprint.update !fp ~before:!cfg ~after:cfg' d;
          cfg := cfg';
          ok := !ok && check ())
        sched;
      !ok)

(* The structural reference key distinguishes configurations that
   differ in committed memory or in a buffer without consulting any
   hash: every component is written out. *)
let key_is_stable_and_memory_exact () =
  let cfg = make_cfg ([ W (0, 1); F ], []) 2 (* PSO *) in
  let k0 = Fuzz.Reference.key cfg in
  Alcotest.(check string) "key is deterministic" k0 (Fuzz.Reference.key cfg);
  let _, cfg1 = Exec.exec cfg [ (0, None) ] in
  Alcotest.(check bool) "write changes the key" false
    (String.equal k0 (Fuzz.Reference.key cfg1));
  let _, cfg2 = Exec.exec cfg1 [ (0, Some 0) ] in
  Alcotest.(check bool) "commit changes the key" false
    (String.equal (Fuzz.Reference.key cfg1) (Fuzz.Reference.key cfg2))

let suite =
  ( "statekey",
    [
      Alcotest.test_case "key stable, memory exact" `Quick
        key_is_stable_and_memory_exact;
      QCheck_alcotest.to_alcotest prop_lanes_incremental_eq_scratch;
      QCheck_alcotest.to_alcotest prop_fingerprint_update_eq_of_config;
    ] )

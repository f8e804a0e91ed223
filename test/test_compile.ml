(* Continuation sharing, the one program-execution path: a side-by-side
   walk of [Compile.share p] against the raw tree [p] over generated
   programs, every registered lock's passages and the litmus corpus;
   fence masking (full and empty masks, marker notes); and the
   post-label forcing-count pin. *)

open Memsim
module P = Program

(* ------------------------------------------------------------------ *)
(* Sharing is the identity: shared tree vs raw tree                    *)
(* ------------------------------------------------------------------ *)

(* Observed values offered at every read, spin, swap and fetch-and-add;
   spin rounds observe every tuple over them. *)
let values = [ 0; 1; 2 ]

let rec tuples n =
  if n = 0 then [ [] ]
  else List.concat_map (fun t -> List.map (fun v -> v :: t) values) (tuples (n - 1))

(* Walk the shared tree [s] and the raw tree [r] side by side down every
   path of at most [depth] nodes: each observation takes every value of
   [values], a cas both outcomes, and a spin continues only on the
   values its predicate accepts (the predicates must agree on all of
   them). Both trees must show the same node kinds, registers,
   operands, labels and return values; the first difference fails with
   its path. A value the program never sees may make a continuation
   raise (a lock indexing an array by it): then both must raise the
   same exception, and the path ends there. Returns the number of
   return nodes compared, so callers can tell that the walk was deep
   enough to reach them. *)
let rec walk ~depth path (s : P.t) (r : P.t) =
  let fail what =
    Alcotest.failf "%s differs after [%s]" what
      (String.concat "; " (List.rev path))
  in
  let next step ks kr =
    let force k = try Ok (k ()) with e -> Error (Printexc.to_string e) in
    if depth <= 1 then 0
    else
      match (force ks, force kr) with
      | Ok s, Ok r -> walk ~depth:(depth - 1) (step :: path) s r
      | Error a, Error b when a = b -> 0
      | _ -> fail ("exception at " ^ step)
  in
  let each vs f = List.fold_left (fun n v -> n + f v) 0 vs in
  match (s, r) with
  | Done a, Done b | Ret a, Ret b ->
      if a <> b then fail "return value";
      1
  | Read (ra, ka), Read (rb, kb) ->
      if ra <> rb then fail "read register";
      each values (fun v -> next (Fmt.str "read x%d=%d" ra v) (fun () -> ka v) (fun () -> kb v))
  | Write (ra, va, ka), Write (rb, vb, kb) ->
      if ra <> rb || va <> vb then fail "write";
      next (Fmt.str "write x%d:=%d" ra va) ka kb
  | Fence ka, Fence kb -> next "fence" ka kb
  | Cas (ra, ea, ua, ka), Cas (rb, eb, ub, kb) ->
      if ra <> rb || ea <> eb || ua <> ub then fail "cas";
      each [ false; true ] (fun ok ->
          next (Fmt.str "cas x%d=%b" ra ok) (fun () -> ka ok) (fun () -> kb ok))
  | Swap (ra, va, ka), Swap (rb, vb, kb) ->
      if ra <> rb || va <> vb then fail "swap";
      each values (fun v -> next (Fmt.str "swap x%d=%d" ra v) (fun () -> ka v) (fun () -> kb v))
  | Faa (ra, da, ka), Faa (rb, db, kb) ->
      if ra <> rb || da <> db then fail "faa";
      each values (fun v -> next (Fmt.str "faa x%d=%d" ra v) (fun () -> ka v) (fun () -> kb v))
  | Spin (ra, pa, ka), Spin (rb, pb, kb) ->
      if ra <> rb then fail "spin register";
      each values (fun v ->
          if pa v <> pb v then fail "spin predicate";
          if pa v then next (Fmt.str "spin x%d=%d" ra v) (fun () -> ka v) (fun () -> kb v) else 0)
  | Spinv (rsa, preva, pa, ka), Spinv (rsb, prevb, pb, kb) ->
      if rsa <> rsb || preva <> prevb then fail "spin round";
      each (tuples (List.length rsa)) (fun vs ->
          if pa vs <> pb vs then fail "spin-round predicate";
          if pa vs then
            next
              (Fmt.str "round %a" Fmt.(Dump.list int) vs)
              (fun () -> ka vs) (fun () -> kb vs)
          else 0)
  | Label (la, ka), Label (lb, kb) ->
      if la <> lb then fail "label";
      next ("label " ^ la) ka kb
  | _ -> fail "node kind"

(* Walk one program; its shared and raw trees must agree and the walk
   must reach at least one return. *)
let check_shared ~depth what (p : P.t) =
  let returns = walk ~depth [] (Compile.share p) p in
  if returns = 0 then
    Alcotest.failf "%s: no return within %d nodes" what depth

let share_locks () =
  let factories =
    List.filter_map
      (fun name -> Option.map (fun f -> (name, f)) (Locks.Registry.find name))
      (Locks.Registry.names @ [ "gt:1"; "gt:2" ])
  in
  List.iter
    (fun nprocs ->
      List.iter
        (fun (name, factory) ->
          let builder = Layout.Builder.create ~nprocs in
          (* a lock that rejects this process count (Peterson is
             2-process, the tournament needs a power of two) has no
             passage to check *)
          match factory builder ~nprocs with
          | exception Invalid_argument _ -> ()
          | lock ->
              for p = 0 to nprocs - 1 do
                check_shared ~depth:40
                  (Fmt.str "%s n=%d p%d" name nprocs p)
                  (Locks.Lock.passages lock p ~rounds:1)
              done)
        factories)
    [ 2; 3 ]

let share_litmus () =
  List.iter
    (fun (t : Litmus.Test.t) ->
      Array.iteri
        (fun p prog ->
          check_shared ~depth:40 (Fmt.str "%s p%d" t.Litmus.Test.name p) prog)
        (t.Litmus.Test.programs (Array.init t.Litmus.Test.nregs Fun.id)))
    Litmus.Cases.all

let prop_share_generated =
  QCheck.Test.make ~name:"sharing = raw tree: generated" ~count:50
    QCheck.(int_bound 10_000)
    (fun seed ->
      let params = { Fuzz.Gen.procs = 3; len = 7; nregs = 3; values = 3 } in
      let t = Fuzz.Gen.compile (Fuzz.Gen.generate ~seed params) in
      Array.iteri
        (fun p prog -> check_shared ~depth:40 (Fmt.str "seed %d p%d" seed p) prog)
        (t.Litmus.Test.programs (Array.init t.Litmus.Test.nregs Fun.id));
      true)

(* ------------------------------------------------------------------ *)
(* Fence masking                                                       *)
(* ------------------------------------------------------------------ *)

let fence_masks () =
  let prog =
    {
      Fuzz.Gen.seed = 0;
      params = Fuzz.Gen.default_params;
      nregs = 2;
      procs =
        [|
          [ Fuzz.Gen.Write (0, 1); Fuzz.Gen.Fence; Fuzz.Gen.Read 1 ];
          [ Fuzz.Gen.Write (1, 1); Fuzz.Gen.Fence; Fuzz.Gen.Read 0 ];
        |];
    }
  in
  let test = Fuzz.Gen.compile prog in
  let run t model = (Litmus.Test.run t ~model).Litmus.Test.outcomes in
  let full = Litmus.Test.with_fence_mask ~keep:(fun _ -> true) test in
  Alcotest.(check bool) "full mask is the identity" true
    (run full Memory_model.Tso = run test Memory_model.Tso);
  let none = Litmus.Test.with_fence_mask ~keep:(fun _ -> false) test in
  Alcotest.(check bool) "empty mask equals the stripped program" true
    (run none Memory_model.Tso
    = run (Fuzz.Gen.compile (Fuzz.Gen.strip_fences prog)) Memory_model.Tso)

let mask_markers () =
  (* every site gets its marker label before the fence position, kept
     (site 1) or dropped (site 0), in execution order *)
  let prog =
    {
      Fuzz.Gen.seed = 0;
      params = Fuzz.Gen.default_params;
      nregs = 1;
      procs = [| [ Fuzz.Gen.Write (0, 1); Fuzz.Gen.Fence; Fuzz.Gen.Write (0, 2); Fuzz.Gen.Fence ] |];
    }
  in
  let marker i = Fmt.str "site:%d" i in
  let masked =
    Litmus.Test.with_fence_mask ~marker ~keep:(fun i -> i = 1)
      (Fuzz.Gen.compile prog)
  in
  let _regs, cfg = Litmus.Test.configure masked ~model:Memory_model.Sc in
  let trace, _ = Scheduler.sequential cfg in
  let steps = Trace.steps trace in
  Alcotest.(check (list string)) "marker notes, both sites in order"
    [ "site:0"; "site:1" ]
    (List.filter_map
       (function Step.Note { text; _ } -> Some text | _ -> None)
       steps);
  Alcotest.(check int) "only the kept site fences" 1
    (List.length
       (List.filter (function Step.Fence _ -> true | _ -> false) steps))

(* ------------------------------------------------------------------ *)
(* Post-label caching: forcing-count pin                               *)
(* ------------------------------------------------------------------ *)

let label_forced_once () =
  (* a label continuation that counts its forcings. Sharing memoizes
     it: the first force (caching the post-label program at pstate
     construction) builds the node, and every later one — the
     Note-emitting flush, blocked checks, kind dispatch, keying —
     returns it, so it runs exactly once per run. *)
  let forced = ref 0 in
  let t =
    {
      Litmus.Test.name = "label-force-count";
      description = "";
      nregs = 1;
      programs =
        (fun r ->
          [|
            P.Write
              ( r.(0),
                1,
                fun () ->
                  P.Label
                    ( "count",
                      fun () ->
                        incr forced;
                        P.Read (r.(0), fun _ -> P.Ret 0) ) );
          |]);
      observed = (fun _ -> []);
    }
  in
  let r = Litmus.Test.run t ~model:Memory_model.Sc in
  Alcotest.(check int) "single completed run" 1
    (List.length r.Litmus.Test.outcomes);
  Alcotest.(check int) "label continuation forced exactly once" 1 !forced

let suite =
  ( "compile",
    [
      Alcotest.test_case "sharing = raw tree: lock passages" `Quick share_locks;
      Alcotest.test_case "sharing = raw tree: litmus corpus" `Quick share_litmus;
      QCheck_alcotest.to_alcotest prop_share_generated;
      Alcotest.test_case "full and empty fence masks" `Quick fence_masks;
      Alcotest.test_case "mask markers follow site order" `Quick mask_markers;
      Alcotest.test_case "post-label forcing count is pinned" `Quick
        label_forced_once;
    ] )

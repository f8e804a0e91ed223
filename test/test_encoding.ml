(* The Section 5 machinery: encoder/decoder round trips, Lemma 5.1
   invariants (asserted inside the encoder), injectivity of the codes,
   bit-codec properties, and the Theorem 4.2 quantities. *)

open Memsim

let lock name = Option.get (Locks.Registry.find name)

let all_permutations n =
  let rec perms = function
    | [] -> [ [] ]
    | l ->
        List.concat_map
          (fun x -> List.map (fun p -> x :: p) (perms (List.filter (( <> ) x) l)))
          l
  in
  List.map Array.of_list (perms (List.init n Fun.id))

let encode_count lock_name pi =
  let _, cinit =
    Objects.Count.configure (lock lock_name) ~model:Memory_model.Pso
      ~nprocs:(Array.length pi)
  in
  (cinit, Encoding.Encoder.encode ~cinit ~pi ())

(* --- round trips ------------------------------------------------------ *)

let roundtrip_all_small_permutations () =
  (* every π for n ≤ 4, over the Bakery-based Count: encoding converges
     with all Lemma 5.1 invariants checked, and decoding the stacks
     reproduces an execution in which position k returns k *)
  List.iter
    (fun n ->
      List.iter
        (fun pi ->
          let cinit, r = encode_count "bakery" pi in
          let returns = Encoding.Encoder.decode_returns ~cinit r in
          Array.iteri
            (fun k v ->
              Alcotest.(check (option int))
                (Fmt.str "n=%d position %d" n k)
                (Some k) v)
            returns)
        (all_permutations n))
    [ 1; 2; 3; 4 ]

let roundtrip_through_bits () =
  (* serialize to real bits, deserialize, decode: the full pipeline *)
  List.iter
    (fun (lock_name, n, seed) ->
      let pi = Fencelab.Experiment.random_permutation ~seed n in
      let cinit, r = encode_count lock_name pi in
      let bits = Encoding.Bitcodec.encode_stacks ~nprocs:n r.Encoding.Encoder.stacks in
      let stacks = Encoding.Bitcodec.decode_stacks ~nprocs:n bits in
      (* structural equality of codes (S sets are runtime-only) *)
      for p = 0 to n - 1 do
        let orig =
          Option.value ~default:Encoding.Cstack.empty
            (Pid.Map.find_opt p r.Encoding.Encoder.stacks)
        in
        let got =
          Option.value ~default:Encoding.Cstack.empty (Pid.Map.find_opt p stacks)
        in
        Alcotest.(check bool)
          (Fmt.str "%s p%d stack" lock_name p)
          true
          (List.for_all2 Encoding.Command.same_code
             (Encoding.Cstack.to_list orig) (Encoding.Cstack.to_list got))
      done;
      let returns =
        Encoding.Encoder.decode_returns ~cinit
          { r with Encoding.Encoder.stacks }
      in
      Array.iteri
        (fun k v ->
          Alcotest.(check (option int)) (Fmt.str "%s pos %d" lock_name k) (Some k) v)
        returns)
    [ ("bakery", 6, 1); ("bakery", 8, 2); ("tournament", 6, 3); ("gt:2", 8, 4) ]

let codes_are_injective () =
  (* distinct permutations yield distinct bit strings — the heart of the
     counting argument *)
  let n = 3 in
  let codes =
    List.map
      (fun pi ->
        let _, r = encode_count "bakery" pi in
        let bits =
          Encoding.Bitcodec.encode_stacks ~nprocs:n r.Encoding.Encoder.stacks
        in
        Bytes.to_string bits.Encoding.Bitcodec.data)
      (all_permutations n)
  in
  Alcotest.(check int) "6 distinct codes" 6
    (List.length (List.sort_uniq compare codes))

(* --- Theorem 4.2 quantities ------------------------------------------ *)

let bits_exceed_information_floor () =
  List.iter
    (fun n ->
      let worst = ref 0 in
      List.iter
        (fun seed ->
          let pi = Fencelab.Experiment.random_permutation ~seed n in
          let _, r = encode_count "bakery" pi in
          let rep = Encoding.Bound.report_of r in
          worst := max !worst rep.Encoding.Bound.bits)
        [ 0; 1; 2 ];
      Alcotest.(check bool)
        (Fmt.str "bits(%d) >= log2 %d!" n n)
        true
        (float_of_int !worst >= Encoding.Bound.log2_factorial n))
    [ 4; 8; 12 ]

let census_tracks_beta_and_rho () =
  (* Lemma 5.11: commands per process ~ 4 per fence + O(1); Lemmas
     5.3/5.7: parameter mass bounded by RMRs (up to the paper's
     constants, here generously 4x) *)
  List.iter
    (fun (lock_name, n) ->
      let pi = Fencelab.Experiment.random_permutation ~seed:5 n in
      let _, r = encode_count lock_name pi in
      let rep = Encoding.Bound.report_of r in
      let c = rep.Encoding.Bound.census in
      Alcotest.(check bool)
        (Fmt.str "%s: commands <= 4 beta" lock_name)
        true
        (c.Encoding.Bound.total_commands <= 4 * rep.Encoding.Bound.beta);
      Alcotest.(check bool)
        (Fmt.str "%s: sum of values <= 4(rho + beta + n)" lock_name)
        true
        (c.Encoding.Bound.total_value
        <= 4 * (rep.Encoding.Bound.rho + rep.Encoding.Bound.beta + n)))
    [ ("bakery", 8); ("tournament", 8); ("gt:2", 9) ]

let formula_between_floor_and_code () =
  (* β(log(ρ/β)+1) is the analytic form the theorem lower-bounds; per
     process it must sit above (a constant fraction of) log n *)
  List.iter
    (fun n ->
      let pi = Fencelab.Experiment.random_permutation ~seed:9 n in
      let _, r = encode_count "bakery" pi in
      let rep = Encoding.Bound.report_of r in
      let per_process = rep.Encoding.Bound.formula /. float_of_int n in
      Alcotest.(check bool)
        (Fmt.str "per-process product at n=%d" n)
        true
        (per_process >= 0.25 *. Fencelab.Tradeoff.floor_log_n ~nprocs:n))
    [ 4; 8; 16 ]

(* --- the hidden-commit path ------------------------------------------ *)

(* A Count variant whose processes first scribble a blind write into a
   common register: later processes' scribbles sit in their buffers
   while earlier processes overwrite the register, so the encoder must
   hide them — exercising wait-hidden-commit (decoder rule D1b). *)
let scribbling_count ~nprocs =
  let open Program in
  let builder = Layout.Builder.create ~nprocs in
  (* the tournament lock owns no registers, so a later-position process
     with a smaller pid starts stepping before earlier positions finish
     (no wait-local-finish gate) and its scribble lingers in its buffer
     while earlier processes overwrite the register — the hidden-commit
     situation *)
  let lk = (lock "tournament") builder ~nprocs in
  let scratch =
    Layout.Builder.alloc builder ~name:"scratch" ~owner:Layout.no_owner ~init:0
  in
  let c = Layout.Builder.alloc builder ~name:"C" ~owner:Layout.no_owner ~init:0 in
  let layout = Layout.Builder.freeze builder in
  let program p =
    run
      (let* () = write scratch (p + 1) in
       let* () = fence in
       let* () = lk.Locks.Lock.acquire p in
       let* v = read c in
       let* () = write c (v + 1) in
       let* () = fence in
       let* () = lk.Locks.Lock.release p in
       return v)
  in
  Config.make ~model:Memory_model.Pso ~layout (Array.init nprocs program)

let encoder_covers_all_object_families () =
  (* Theorem 4.2 applies to every ordering algorithm; run the encoder
     over the counter-, F&I- and queue-based constructions *)
  List.iter
    (fun (c : Objects.Constructions.t) ->
      List.iter
        (fun seed ->
          let pi = Fencelab.Experiment.random_permutation ~seed 5 in
          let r =
            Encoding.Encoder.encode ~cinit:c.Objects.Constructions.cinit ~pi ()
          in
          let returns =
            Encoding.Encoder.decode_returns
              ~cinit:c.Objects.Constructions.cinit r
          in
          Array.iteri
            (fun k v ->
              Alcotest.(check (option int))
                (Fmt.str "%s seed %d pos %d" c.Objects.Constructions.name seed k)
                (Some k) v)
            returns)
        [ 0; 1 ])
    (Objects.Constructions.all (lock "bakery") ~model:Memsim.Memory_model.Pso
       ~nprocs:5)

let hidden_commits_are_exercised () =
  let n = 4 in
  let hidden_total = ref 0 in
  List.iter
    (fun pi ->
      let cinit = scribbling_count ~nprocs:n in
      let r = Encoding.Encoder.encode ~cinit ~pi () in
      let census = Encoding.Bound.census_of_stacks r.Encoding.Encoder.stacks in
      hidden_total := !hidden_total + census.Encoding.Bound.hidden;
      (* and the construction still identifies the permutation *)
      let returns = Encoding.Encoder.decode_returns ~cinit r in
      Array.iteri
        (fun k v -> Alcotest.(check (option int)) "position" (Some k) v)
        returns)
    (all_permutations n);
  Alcotest.(check bool) "wait-hidden-commit used somewhere" true
    (!hidden_total > 0)

(* --- bit codec -------------------------------------------------------- *)

let gamma_roundtrip =
  QCheck.Test.make ~name:"elias gamma round-trips" ~count:1000
    QCheck.(int_range 1 1_000_000)
    (fun v ->
      let w = Encoding.Bitcodec.writer () in
      Encoding.Bitcodec.put_gamma w v;
      let bits = Encoding.Bitcodec.finish w in
      let r = Encoding.Bitcodec.reader bits in
      Encoding.Bitcodec.get_gamma r = v
      && bits.Encoding.Bitcodec.nbits = Encoding.Bitcodec.gamma_length v)

let arb_command =
  QCheck.(
    map
      (fun (tag, k) ->
        let k = 1 + abs k in
        match tag mod 5 with
        | 0 -> Encoding.Command.Proceed
        | 1 -> Encoding.Command.Commit
        | 2 -> Encoding.Command.Wait_hidden_commit k
        | 3 -> Encoding.Command.Wait_read_finish (k, Pid.Set.empty)
        | _ -> Encoding.Command.Wait_local_finish (k, Pid.Set.empty))
      (pair int small_int))

let command_roundtrip =
  QCheck.Test.make ~name:"command codec round-trips" ~count:500 arb_command
    (fun c ->
      let w = Encoding.Bitcodec.writer () in
      Encoding.Bitcodec.put_command w c;
      let r = Encoding.Bitcodec.reader (Encoding.Bitcodec.finish w) in
      Encoding.Command.same_code c (Encoding.Bitcodec.get_command r))

let stacks_roundtrip =
  QCheck.Test.make ~name:"stack-map codec round-trips" ~count:200
    QCheck.(list_of_size Gen.(0 -- 8) (list_of_size Gen.(0 -- 6) arb_command))
    (fun stacks_list ->
      let nprocs = List.length stacks_list in
      let stacks =
        List.fold_left
          (fun (i, m) cmds -> (i + 1, Pid.Map.add i (Encoding.Cstack.of_list cmds) m))
          (0, Pid.Map.empty) stacks_list
        |> snd
      in
      let bits = Encoding.Bitcodec.encode_stacks ~nprocs stacks in
      let stacks' = Encoding.Bitcodec.decode_stacks ~nprocs bits in
      List.for_all
        (fun p ->
          let a =
            Option.value ~default:Encoding.Cstack.empty (Pid.Map.find_opt p stacks)
          in
          let b =
            Option.value ~default:Encoding.Cstack.empty (Pid.Map.find_opt p stacks')
          in
          Encoding.Cstack.size a = Encoding.Cstack.size b
          && List.for_all2 Encoding.Command.same_code
               (Encoding.Cstack.to_list a) (Encoding.Cstack.to_list b))
        (List.init nprocs Fun.id))

let bit_primitives () =
  let w = Encoding.Bitcodec.writer () in
  Encoding.Bitcodec.put_bits w 0b1011 ~width:4;
  Encoding.Bitcodec.put_bits w 0b0 ~width:1;
  Encoding.Bitcodec.put_bits w 0b111111111 ~width:9;
  let bits = Encoding.Bitcodec.finish w in
  Alcotest.(check int) "bit count" 14 bits.Encoding.Bitcodec.nbits;
  let r = Encoding.Bitcodec.reader bits in
  Alcotest.(check int) "first" 0b1011 (Encoding.Bitcodec.get_bits r ~width:4);
  Alcotest.(check int) "middle" 0 (Encoding.Bitcodec.get_bits r ~width:1);
  Alcotest.(check int) "last" 0b111111111 (Encoding.Bitcodec.get_bits r ~width:9);
  Alcotest.check_raises "out of bits" (Invalid_argument "Bitcodec: out of bits")
    (fun () -> ignore (Encoding.Bitcodec.get_bit r))

(* --- command/stack units ---------------------------------------------- *)

let command_values () =
  Alcotest.(check int) "proceed" 1 (Encoding.Command.value Encoding.Command.Proceed);
  Alcotest.(check int) "commit" 1 (Encoding.Command.value Encoding.Command.Commit);
  Alcotest.(check int) "hidden" 7
    (Encoding.Command.value (Encoding.Command.Wait_hidden_commit 7));
  let s =
    Encoding.Cstack.of_list
      [ Encoding.Command.Proceed; Encoding.Command.Wait_hidden_commit 3 ]
  in
  Alcotest.(check int) "stack value" 4 (Encoding.Cstack.value s)

let stack_discipline () =
  let s = Encoding.Cstack.empty in
  let s = Encoding.Cstack.push Encoding.Command.Commit s in
  let s = Encoding.Cstack.push_bottom Encoding.Command.Proceed s in
  Alcotest.(check bool) "top" true
    (Encoding.Cstack.top s = Some Encoding.Command.Commit);
  let c, s = Encoding.Cstack.pop s in
  Alcotest.(check bool) "popped top" true (c = Encoding.Command.Commit);
  Alcotest.(check bool) "bottom remains" true
    (Encoding.Cstack.top s = Some Encoding.Command.Proceed)

(* The code is indexed by positions of a permutation of the processes:
   a repeated, missing or foreign pid is a caller error, not a broken
   Lemma 5.1 invariant. *)
let encode_rejects_non_permutations () =
  let _, cinit =
    Objects.Count.configure (lock "bakery") ~model:Memory_model.Pso ~nprocs:3
  in
  List.iter
    (fun pi ->
      match Encoding.Encoder.encode ~cinit ~pi () with
      | _ ->
          Alcotest.failf "accepted [%a]" Fmt.(array ~sep:semi int) pi
      | exception Invalid_argument _ -> ())
    [ [| 0; 0; 1 |]; [| 0; 1; 9 |]; [| 2; 1 |]; [| 0; 1; 2; 3 |]; [||] ]

let suite =
  ( "encoding",
    [
      Alcotest.test_case "round trip: all permutations n<=4" `Slow
        roundtrip_all_small_permutations;
      Alcotest.test_case "round trip through bits" `Slow roundtrip_through_bits;
      Alcotest.test_case "codes are injective (n=3)" `Quick codes_are_injective;
      Alcotest.test_case "bits exceed log2 n!" `Quick bits_exceed_information_floor;
      Alcotest.test_case "census tracks beta and rho" `Quick
        census_tracks_beta_and_rho;
      Alcotest.test_case "per-process product above log n" `Quick
        formula_between_floor_and_code;
      Alcotest.test_case "hidden commits exercised" `Slow
        hidden_commits_are_exercised;
      Alcotest.test_case "encoder covers all object families" `Slow
        encoder_covers_all_object_families;
      QCheck_alcotest.to_alcotest gamma_roundtrip;
      QCheck_alcotest.to_alcotest command_roundtrip;
      QCheck_alcotest.to_alcotest stacks_roundtrip;
      Alcotest.test_case "bit primitives" `Quick bit_primitives;
      Alcotest.test_case "command values" `Quick command_values;
      Alcotest.test_case "stack discipline" `Quick stack_discipline;
      Alcotest.test_case "encode rejects a non-permutation" `Quick
        encode_rejects_non_permutations;
    ] )

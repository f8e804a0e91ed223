(* Frontier machinery tests: Chase–Lev deque semantics (owner LIFO,
   thief FIFO, growth, cross-domain conservation), distributed
   termination of the work-stealing frontier with 1 and 8 workers, and
   the flat visited set's claims (zero lanes, growth, a two-domain
   race). *)

open Mc

(* ------------------------------------------------------------------ *)
(* Deque: single-owner semantics                                       *)
(* ------------------------------------------------------------------ *)

let deque_lifo_fifo () =
  let d = Deque.create () in
  Alcotest.(check (option int)) "empty pop" None (Deque.pop d);
  Alcotest.(check (option int)) "empty steal" None (Deque.steal d);
  for i = 1 to 100 do
    Deque.push d i
  done;
  Alcotest.(check int) "size hint" 100 (Deque.size_hint d);
  (* owner takes the newest, thieves the oldest *)
  Alcotest.(check (option int)) "pop is LIFO" (Some 100) (Deque.pop d);
  Alcotest.(check (option int)) "steal is FIFO" (Some 1) (Deque.steal d);
  Alcotest.(check (option int)) "steal advances" (Some 2) (Deque.steal d);
  (* drain the rest from the owner side: 99 down to 3 *)
  for expect = 99 downto 3 do
    Alcotest.(check (option int))
      (Printf.sprintf "drain %d" expect)
      (Some expect) (Deque.pop d)
  done;
  Alcotest.(check (option int)) "drained pop" None (Deque.pop d);
  Alcotest.(check (option int)) "drained steal" None (Deque.steal d)

(* Growth: push far past the initial capacity, interleaving steals so
   top is non-zero when the buffer doubles (the wrap-around case). *)
let deque_growth () =
  let d = Deque.create () in
  let n = 10_000 in
  let sum = ref 0 in
  for i = 1 to n do
    Deque.push d i;
    if i mod 3 = 0 then
      match Deque.steal d with
      | Some v -> sum := !sum + v
      | None -> Alcotest.fail "steal from non-empty deque"
  done;
  let rec drain () =
    match Deque.pop d with
    | Some v ->
        sum := !sum + v;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check int) "every element seen once" (n * (n + 1) / 2) !sum

(* Conservation under real concurrency: one owner domain pushes and
   pops, three thieves steal; every element is consumed exactly once. *)
let deque_concurrent_steal () =
  let d = Deque.create () in
  let n = 20_000 and nthieves = 3 in
  let produced_done = Atomic.make false in
  let owner () =
    let taken = ref [] in
    for i = 1 to n do
      Deque.push d i;
      (* occasional owner pops keep the bottom end contended *)
      if i mod 7 = 0 then
        match Deque.pop d with
        | Some v -> taken := v :: !taken
        | None -> ()
    done;
    let rec drain () =
      match Deque.pop d with
      | Some v ->
          taken := v :: !taken;
          drain ()
      | None -> ()
    in
    drain ();
    Atomic.set produced_done true;
    (* thieves may still hold unconsumed races; one final drain after
       they exit happens below on the collected lists *)
    !taken
  in
  let thief () =
    let taken = ref [] in
    let rec loop misses =
      match Deque.steal d with
      | Some v ->
          taken := v :: !taken;
          loop 0
      | None ->
          if Atomic.get produced_done && Deque.size_hint d <= 0 then !taken
          else loop (misses + 1)
    in
    loop 0
  in
  let thieves = List.init nthieves (fun _ -> Domain.spawn thief) in
  let own = owner () in
  let stolen = List.concat_map Domain.join thieves in
  let all = List.sort compare (own @ stolen) in
  Alcotest.(check int) "total count" n (List.length all);
  Alcotest.(check (list int)) "each element exactly once"
    (List.init n (fun i -> i + 1))
    all

(* ------------------------------------------------------------------ *)
(* Frontier: termination protocol                                      *)
(* ------------------------------------------------------------------ *)

(* Explore a synthetic binary tree of the given depth through the
   frontier: each task of depth d > 0 spawns two tasks of depth d - 1.
   Every worker follows the engine's discipline — register children
   before completing the parent — and the run must process exactly
   2^(depth+1) - 1 tasks and then terminate every worker, however the
   work got distributed. *)
let run_tree ~workers ~depth =
  let f : int Frontier.t = Frontier.create ~workers in
  let processed = Atomic.make 0 in
  Frontier.register f 1;
  Frontier.push f ~worker:0 depth;
  let worker w () =
    let rec loop () =
      match Frontier.next f ~worker:w with
      | None -> ()
      | Some d ->
          Atomic.incr processed;
          if d > 0 then begin
            Frontier.register f 2;
            Frontier.inject f ~worker:w [ d - 1; d - 1 ]
          end;
          Frontier.complete f;
          loop ()
    in
    loop ()
  in
  let mates = List.init (workers - 1) (fun i -> Domain.spawn (worker (i + 1))) in
  worker 0 ();
  List.iter Domain.join mates;
  (* drained: every worker now sees the end immediately *)
  for w = 0 to workers - 1 do
    Alcotest.(check (option int))
      (Printf.sprintf "worker %d sees termination" w)
      None (Frontier.next f ~worker:w)
  done;
  Atomic.get processed

let frontier_terminates_1_worker () =
  Alcotest.(check int) "2^11 - 1 tasks" 2047 (run_tree ~workers:1 ~depth:10)

let frontier_terminates_8_workers () =
  Alcotest.(check int) "2^13 - 1 tasks" 8191 (run_tree ~workers:8 ~depth:12)

(* A stopped frontier releases sleepers and refuses further work even
   with tasks pending — the bound-hit abort path. *)
let frontier_stop_releases () =
  let f : int Frontier.t = Frontier.create ~workers:4 in
  Frontier.register f 2;
  Frontier.inject f ~worker:0 [ 1; 2 ];
  (* workers 1..3 sleep (their deques are empty and stealing may find
     work, so give them real tasks to contend for), then stop aborts *)
  let mates =
    List.init 3 (fun i ->
        Domain.spawn (fun () ->
            let rec loop acc =
              match Frontier.next f ~worker:(i + 1) with
              | None -> acc
              | Some _ ->
                  Frontier.complete f;
                  loop (acc + 1)
            in
            loop 0))
  in
  Frontier.stop f;
  let consumed = List.fold_left (fun a d -> a + Domain.join d) 0 mates in
  Alcotest.(check bool) "stopped" true (Frontier.is_stopped f);
  Alcotest.(check (option int)) "owner sees stop" None
    (Frontier.next f ~worker:0);
  (* whatever was consumed before the stop landed is fine; the point is
     everyone exited *)
  Alcotest.(check bool) "consumed within bounds" true
    (consumed >= 0 && consumed <= 2)

(* ------------------------------------------------------------------ *)
(* Visited: flat open-addressing claims                                *)
(* ------------------------------------------------------------------ *)

let fp i = { Fingerprint.a = (i * 0x9e3779b9) lxor 0x5bd1e995; b = i }

(* Fingerprints with a zero lane can only be claimed on the locked
   path ((0, 0) lives in a per-shard flag, not in a slot), so the
   tests mix them in with ordinary ones. *)
let zero_lane_fps n =
  { Fingerprint.a = 0; b = 0 }
  :: List.concat_map
       (fun i -> [ { Fingerprint.a = 0; b = i }; { Fingerprint.a = i; b = 0 } ])
       (List.init n (fun i -> i + 1))

let sorted_members v =
  let acc = ref [] in
  Visited.iter v (fun x -> acc := x :: !acc);
  List.sort Fingerprint.compare !acc

let visited_claims () =
  let v = Visited.create ~shards:8 ~expected_states:1_000 () in
  Alcotest.(check bool) "first add wins" true (Visited.add v (fp 0));
  Alcotest.(check bool) "second add loses" false (Visited.add v (fp 0));
  let wins = List.map (Visited.add v) [ fp 1; fp 1; fp 2; fp 0; fp 3 ] in
  Alcotest.(check (list bool))
    "fresh won once, dup and visited lost"
    [ true; false; true; false; true ]
    wins;
  Alcotest.(check bool) "claimed entries are members" true
    (Visited.mem v (fp 1) && Visited.mem v (fp 2) && Visited.mem v (fp 3));
  Alcotest.(check bool) "unseen is not a member" false (Visited.mem v (fp 42));
  Alcotest.(check int) "size counts distinct" 4 (Visited.size v);
  let s = Visited.stats v in
  Alcotest.(check int) "stats shards" 8 s.Visited.shards;
  Alcotest.(check int) "stats entries" 4 s.Visited.entries;
  Alcotest.(check bool) "max >= mean >= 0" true
    (float_of_int s.Visited.max_occupancy >= s.Visited.mean_occupancy
    && s.Visited.mean_occupancy >= 0.);
  Alcotest.(check bool) "skew >= 1 when non-empty" true (s.Visited.skew >= 1.);
  (* zero lanes, (0, 0) included, claim and answer like any other *)
  let zs = zero_lane_fps 3 in
  Alcotest.(check bool) "zero-lane first adds win" true
    (List.for_all (Visited.add v) zs);
  Alcotest.(check bool) "zero-lane second adds lose" false
    (List.exists (Visited.add v) zs);
  Alcotest.(check bool) "zero-lane entries are members" true
    (List.for_all (Visited.mem v) zs);
  Alcotest.(check bool) "unseen zero-lane is not a member" false
    (Visited.mem v { Fingerprint.a = 0; b = 9 }
    || Visited.mem v { Fingerprint.a = 9; b = 0 });
  Alcotest.(check int) "size with zero lanes" (4 + List.length zs)
    (Visited.size v);
  (* growth from the smallest table: one shard, no size hint *)
  let g = Visited.create ~shards:1 () in
  let fps = List.init 10_000 fp @ zs in
  Alcotest.(check bool) "every insert across growth wins" true
    (List.for_all (Visited.add g) fps);
  Alcotest.(check bool) "every entry survives growth" true
    (List.for_all (Visited.mem g) fps && not (List.exists (Visited.add g) fps));
  Alcotest.(check int) "size after growth" (List.length fps) (Visited.size g);
  Alcotest.(check bool) "iter yields exactly the inserted set" true
    (sorted_members g = List.sort Fingerprint.compare fps)

(* Two domains racing the same claims over a two-shard set that starts
   at its smallest tables and must double several times mid-race, with
   zero-lane fingerprints and (0, 0) among them: each fingerprint is
   won exactly once across both, and [size] and [iter] are exact after
   the join. *)
let visited_claim_race () =
  let v = Visited.create ~shards:2 () in
  let fps = Array.of_list (List.init 20_000 fp @ zero_lane_fps 500) in
  let claim () = Array.map (Visited.add v) fps in
  let other = Domain.spawn claim in
  let mine = claim () in
  let theirs = Domain.join other in
  Array.iteri
    (fun i _ ->
      if mine.(i) = theirs.(i) then
        Alcotest.failf "fp %d won %s" i (if mine.(i) then "twice" else "never"))
    fps;
  Alcotest.(check int) "size exact" (Array.length fps) (Visited.size v);
  Alcotest.(check bool) "iter exact" true
    (sorted_members v = List.sort Fingerprint.compare (Array.to_list fps))

let suite =
  ( "frontier",
    [
      Alcotest.test_case "deque: owner LIFO, thief FIFO" `Quick deque_lifo_fifo;
      Alcotest.test_case "deque: growth conserves elements" `Quick deque_growth;
      Alcotest.test_case "deque: concurrent steal conserves" `Quick
        deque_concurrent_steal;
      Alcotest.test_case "frontier: terminates with 1 worker" `Quick
        frontier_terminates_1_worker;
      Alcotest.test_case "frontier: terminates with 8 workers" `Quick
        frontier_terminates_8_workers;
      Alcotest.test_case "frontier: stop releases sleepers" `Quick
        frontier_stop_releases;
      Alcotest.test_case "visited: batched claims" `Quick visited_claims;
      Alcotest.test_case "visited: racing batches split wins" `Quick
        visited_claim_race;
    ] )

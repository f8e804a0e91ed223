(* The serve daemon: wire-format golden bytes (job/ack/checkpoint),
   kill-mid-job resume equivalence, and pool backpressure.

   The resume test is the tentpole's acceptance pin: a check job
   killed after its first checkpoint and resumed from the file must
   finish with the same verdict and the EXACT same cumulative
   state/transition counts as an uninterrupted `Parallel 1 run — the
   checkpoint is a frontier-consistent cut and replay is
   deterministic, so resumed exploration is the uninterrupted
   exploration, not merely an equivalent one. *)

open Memsim

let tmpfile name = Filename.concat (Filename.get_temp_dir_name ()) name

let read_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* --- JSON ---------------------------------------------------------- *)

let json_roundtrip () =
  let cases =
    [
      {|{"job":"check","id":"c1","nprocs":2}|};
      {|[1,-2,null,true,false,"a\"b\\c\nd"]|};
      {|{"nested":{"list":[{"x":1},{"y":[]}],"s":""},"f":1.5}|};
      {|  {  "ws" : [ 1 , 2 ] }  |};
    ]
  in
  List.iter
    (fun s ->
      match Serve.Json.parse s with
      | Error e -> Alcotest.failf "parse %s: %s" s e
      | Ok v -> (
          (* print/parse is the identity on the printed form *)
          let printed = Serve.Json.to_string v in
          match Serve.Json.parse printed with
          | Error e -> Alcotest.failf "reparse %s: %s" printed e
          | Ok v' ->
              Alcotest.(check string)
                (Fmt.str "roundtrip %s" s) printed
                (Serve.Json.to_string v')))
    cases;
  List.iter
    (fun s ->
      match Serve.Json.parse s with
      | Ok _ -> Alcotest.failf "accepted malformed %S" s
      | Error _ -> ())
    [ "{"; "[1,]"; "{\"a\":}"; "nul"; "\"unterminated"; "{} trailing"; "" ]

(* --- wire-format golden bytes -------------------------------------- *)

let job_golden () =
  let job =
    {
      Serve.Job.id = "c1";
      spec =
        Serve.Job.Check
          {
            lock = "bakery";
            model = Memory_model.Pso;
            nprocs = 2;
            rounds = 1;
            max_states = 1_000_000;
            por = false;
            reorder_bound = None;
          };
    }
  in
  Alcotest.(check string)
    "job record bytes"
    {|{"job":"check","id":"c1","lock":"bakery","model":"PSO","nprocs":2,"rounds":1,"max_states":1000000,"por":false,"reorder_bound":null}|}
    (Serve.Json.to_string (Serve.Job.to_json job));
  (* decoding round-trips, including from a spec with defaults elided *)
  (match Serve.Job.of_line (Serve.Json.to_string (Serve.Job.to_json job)) with
  | Ok j ->
      Alcotest.(check string)
        "roundtrip"
        (Serve.Json.to_string (Serve.Job.to_json job))
        (Serve.Json.to_string (Serve.Job.to_json j))
  | Error e -> Alcotest.fail e);
  (match Serve.Job.of_line {|{"job":"check","id":"x","lock":"ttas","model":"TSO","nprocs":3}|} with
  | Ok { Serve.Job.spec = Serve.Job.Check { rounds; max_states; _ }; _ } ->
      Alcotest.(check int) "default rounds" 1 rounds;
      Alcotest.(check int) "default max_states" 1_000_000 max_states
  | Ok _ -> Alcotest.fail "wrong kind"
  | Error e -> Alcotest.fail e);
  (* rejections name the problem *)
  List.iter
    (fun line ->
      match Serve.Job.of_line line with
      | Ok _ -> Alcotest.failf "accepted %s" line
      | Error _ -> ())
    [
      {|{"id":"x"}|};
      {|{"job":"mystery","id":"x"}|};
      {|{"job":"check","id":"x","lock":"bakery","model":"NOPE","nprocs":2}|};
      {|{"job":"check","id":"x","lock":"bakery","model":"PSO","nprocs":"two"}|};
      "not json at all";
      (* non-positive counts would loop forever or check nothing *)
      {|{"job":"check","id":"x","lock":"bakery","model":"PSO","nprocs":2,"rounds":-1}|};
      {|{"job":"check","id":"x","lock":"bakery","model":"PSO","nprocs":2,"max_states":0}|};
      {|{"job":"synth","id":"x","family":"bakery","model":"PSO","nprocs":2,"rounds":0}|};
      {|{"job":"synth","id":"x","family":"bakery","model":"PSO","nprocs":2,"max_states":-5}|};
      {|{"job":"fuzz","id":"x","count":-1}|};
    ]

let ack_golden () =
  let path = tmpfile "serve_ack_golden.ndjson" in
  let sink = Telemetry.Sink.create path in
  let job =
    {
      Serve.Job.id = "c1";
      spec =
        Serve.Job.Litmus { test = Some "SB"; model = None; reorder_bound = None };
    }
  in
  Telemetry.Sink.emit sink ~kind:"ack" (Serve.Job.ack_fields job);
  Telemetry.Sink.close sink;
  Alcotest.(check string)
    "ack record bytes"
    "{\"type\":\"ack\",\"job_id\":\"c1\",\"job\":\"litmus\"}\n"
    (read_file path);
  Sys.remove path

let checkpoint_golden () =
  let ck =
    {
      Mc.ck_states = 7;
      ck_transitions = 12;
      ck_bound_hits = 0;
      ck_pending = [ [ (0, None); (1, Some 3) ]; [] ];
      ck_visited = [ { Mc.Fingerprint.a = 17; b = -4 } ];
      ck_violations = [ ("overlap", [ (1, None) ]) ];
      ck_deadlocks = [ [ (0, Some 2) ] ];
    }
  in
  let bytes = Serve.Json.to_string (Serve.Checkpoint.to_json ck) in
  Alcotest.(check string)
    "checkpoint record bytes"
    {|{"type":"checkpoint","states":7,"transitions":12,"bound_hits":0,"pending":[[[0,null],[1,3]],[]],"visited":[[17,-4]],"violations":[{"message":"overlap","path":[[1,null]]}],"deadlocks":[[[0,2]]]}|}
    bytes;
  (* file roundtrip through the atomic save path *)
  let path = tmpfile "serve_ckpt_golden.ckpt" in
  Serve.Checkpoint.save ~path ck;
  (match Serve.Checkpoint.load ~path with
  | Error e -> Alcotest.fail e
  | Ok ck' ->
      Alcotest.(check string)
        "load(save(ck)) = ck" bytes
        (Serve.Json.to_string (Serve.Checkpoint.to_json ck')));
  Sys.remove path;
  match Serve.Checkpoint.load ~path:(path ^ ".missing") with
  | Ok _ -> Alcotest.fail "loaded a missing checkpoint"
  | Error _ -> ()

(* --- kill-mid-job resume equivalence ------------------------------- *)

exception Killed

let resume_equivalence () =
  let factory = Option.get (Locks.Registry.find "bakery") in
  let model = Memory_model.Pso in
  (* leg 1: the uninterrupted `Parallel 1 reference *)
  let v0 =
    Verify.Mutex_check.check ~engine:(`Parallel 1) ~model factory ~nprocs:2
  in
  let dir = Filename.get_temp_dir_name () in
  let ckpt = Filename.concat dir "serve_resume_eq.ckpt" in
  if Sys.file_exists ckpt then Sys.remove ckpt;
  (* leg 2: same job, killed right after the first checkpoint lands —
     the exception unwinds out of the engine exactly like a daemon
     death after the cut is safely on disk *)
  (try
     ignore
       (Verify.Mutex_check.check ~engine:(`Parallel 1)
          ~checkpoint:
            ( 400,
              fun c ->
                Serve.Checkpoint.save ~path:ckpt c;
                raise Killed )
          ~model factory ~nprocs:2);
     Alcotest.fail "kill did not fire (checkpoint interval too large?)"
   with Killed -> ());
  Alcotest.(check bool) "checkpoint file exists" true (Sys.file_exists ckpt);
  (* leg 3: resume from the file and finish *)
  let resume =
    match Serve.Checkpoint.load ~path:ckpt with
    | Ok c -> c
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check bool)
    "cut is mid-run" true
    (resume.Mc.ck_states > 0
    && resume.Mc.ck_states < v0.Verify.Mutex_check.stats.Explore.states);
  let v1 =
    Verify.Mutex_check.check ~engine:(`Parallel 1) ~resume ~model factory
      ~nprocs:2
  in
  Sys.remove ckpt;
  (* identical verdict and EXACT state/transition counts: the resumed
     exploration is the uninterrupted one, continued *)
  Alcotest.(check bool)
    "verdict" v0.Verify.Mutex_check.holds v1.Verify.Mutex_check.holds;
  Alcotest.(check int)
    "states" v0.Verify.Mutex_check.stats.Explore.states
    v1.Verify.Mutex_check.stats.Explore.states;
  Alcotest.(check int)
    "transitions" v0.Verify.Mutex_check.stats.Explore.transitions
    v1.Verify.Mutex_check.stats.Explore.transitions

(* Same equivalence through the Job layer: Job.run finds the orphaned
   checkpoint on its own (the restarted-daemon path) and removes it on
   completion. *)
let job_level_resume () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Fmt.str "serve_job_resume_%d" (Unix.getpid ()))
  in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let job =
    {
      Serve.Job.id = "jr1";
      spec =
        Serve.Job.Check
          {
            lock = "bakery";
            model = Memory_model.Pso;
            nprocs = 2;
            rounds = 1;
            max_states = 1_000_000;
            por = false;
            reorder_bound = None;
          };
    }
  in
  let uninterrupted = Serve.Job.run job in
  let killed = ref false in
  (try
     ignore
       (Serve.Job.run ~checkpoint:(400, dir)
          ~on_checkpoint:(fun () ->
            killed := true;
            raise Killed)
          job)
   with Killed -> ());
  Alcotest.(check bool) "first checkpoint fired" true !killed;
  let ckpt = Filename.concat dir "jr1.ckpt" in
  Alcotest.(check bool) "orphan checkpoint left" true (Sys.file_exists ckpt);
  let resumed = Serve.Job.run ~checkpoint:(400, dir) job in
  Alcotest.(check bool)
    "checkpoint removed on completion" false (Sys.file_exists ckpt);
  Alcotest.(check bool) "ok" uninterrupted.Serve.Job.ok resumed.Serve.Job.ok;
  let states (o : Serve.Job.outcome) =
    match List.assoc_opt "states" o.Serve.Job.fields with
    | Some (Telemetry.Sink.I n) -> n
    | _ -> Alcotest.fail "no states field"
  in
  Alcotest.(check int) "states" (states uninterrupted) (states resumed);
  Sys.rmdir dir

(* --- backpressure -------------------------------------------------- *)

let backpressure () =
  let window = 2 in
  let pool = Serve.Pool.create ~window in
  let ran = Atomic.make 0 in
  for _ = 1 to 9 do
    (* jobs slow enough that the submitter catches up against the
       window and has to block — queue depth is then pinned at the
       cap, never beyond it *)
    Serve.Pool.submit pool (fun () ->
        Unix.sleepf 0.02;
        ignore (Atomic.fetch_and_add ran 1))
  done;
  Serve.Pool.drain pool;
  Alcotest.(check int) "all jobs ran" 9 (Atomic.get ran);
  let depth = Serve.Pool.max_queue_depth pool in
  Alcotest.(check bool)
    (Fmt.str "max queue depth %d <= window %d" depth window)
    true
    (depth <= window);
  Serve.Pool.shutdown pool;
  (match Serve.Pool.submit pool (fun () -> ()) with
  | () -> Alcotest.fail "submit after shutdown succeeded"
  | exception Invalid_argument _ -> ());
  (* a raising job is contained and reported *)
  let pool = Serve.Pool.create ~window:1 in
  let seen = ref None in
  Serve.Pool.submit pool
    ~on_error:(fun e -> seen := Some (Printexc.to_string e))
    (fun () -> failwith "boom");
  Serve.Pool.submit pool (fun () -> ());
  Serve.Pool.shutdown pool;
  match !seen with
  | Some msg ->
      Alcotest.(check bool) "error reported" true
        (String.length msg > 0)
  | None -> Alcotest.fail "job exception swallowed without report"

(* --- daemon over a spool ------------------------------------------- *)

let spool_processing () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Fmt.str "serve_spool_%d" (Unix.getpid ()))
  in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let oc = open_out (Filename.concat dir "batch.job") in
  output_string oc
    ({|{"job":"litmus","id":"s1","test":"SB","model":"TSO"}|} ^ "\n"
   ^ "this line is not a job\n"
   ^ {|{"job":"check","id":"s2","lock":"ttas","model":"SC","nprocs":2}|}
   ^ "\n");
  close_out oc;
  let stats = Filename.concat dir "serve.ndjson" in
  let r = Serve.Daemon.run ~window:2 ~stats_out:stats (`Spool dir) in
  Alcotest.(check int) "accepted" 2 r.Serve.Daemon.accepted;
  Alcotest.(check int) "rejected" 1 r.Serve.Daemon.rejected;
  Alcotest.(check int) "skipped" 0 r.Serve.Daemon.skipped;
  (* ttas under SC holds; both jobs ok *)
  Alcotest.(check int) "failed" 0 r.Serve.Daemon.failed;
  Alcotest.(check int) "exit code" 1 (Serve.Daemon.exit_code r);
  Alcotest.(check bool)
    "done markers" true
    (Sys.file_exists (Filename.concat dir "s1.done")
    && Sys.file_exists (Filename.concat dir "s2.done"));
  (* a second pass skips everything: completed jobs are idempotent *)
  let r2 = Serve.Daemon.run ~window:2 (`Spool dir) in
  Alcotest.(check int) "second pass accepted" 0 r2.Serve.Daemon.accepted;
  Alcotest.(check int) "second pass skipped" 2 r2.Serve.Daemon.skipped;
  Array.iter
    (fun f -> Sys.remove (Filename.concat dir f))
    (Sys.readdir dir);
  Sys.rmdir dir

(* --- atlas --------------------------------------------------------- *)

let atlas_shape () =
  let atlas = Serve.Atlas.run ~nprocs:[ 2; 4; 8 ] () in
  (* heights 1..ceil(log2 n): 1 + 2 + 3 points *)
  Alcotest.(check int) "points" 6 (List.length atlas.Serve.Atlas.points);
  List.iter
    (fun (p : Serve.Atlas.point) ->
      Alcotest.(check bool)
        (Fmt.str "n=%d f=%d has positive costs" p.Serve.Atlas.nprocs
           p.Serve.Atlas.height)
        true
        (p.Serve.Atlas.fences > 0 && p.Serve.Atlas.rmr > 0
        && p.Serve.Atlas.count_rmr >= p.Serve.Atlas.rmr
        && p.Serve.Atlas.count_fences >= p.Serve.Atlas.fences);
      (* the three accounting rules: combined counts an RMR when
         either rule does, so it is bounded by each pure rule's count
         plus the other's — sanity: combined <= dsm + cc *)
      Alcotest.(check bool)
        "combined <= dsm + cc" true
        (p.Serve.Atlas.rmr <= p.Serve.Atlas.rmr_dsm + p.Serve.Atlas.rmr_cc))
    atlas.Serve.Atlas.points;
  (* frontier: nonempty per n, Pareto (no dominating pair survives) *)
  List.iter
    (fun (n, pts) ->
      Alcotest.(check bool) (Fmt.str "frontier n=%d nonempty" n) true (pts <> []);
      List.iter
        (fun (p : Serve.Atlas.point) ->
          List.iter
            (fun (q : Serve.Atlas.point) ->
              if p != q then
                Alcotest.(check bool)
                  "no strict domination in frontier" false
                  (q.Serve.Atlas.fences <= p.Serve.Atlas.fences
                  && q.Serve.Atlas.rmr <= p.Serve.Atlas.rmr
                  && (q.Serve.Atlas.fences < p.Serve.Atlas.fences
                     || q.Serve.Atlas.rmr < p.Serve.Atlas.rmr)))
            pts)
        pts)
    atlas.Serve.Atlas.frontier;
  (* deterministic: two runs print identical JSON *)
  let atlas' = Serve.Atlas.run ~nprocs:[ 2; 4; 8 ] () in
  Alcotest.(check string)
    "atlas is deterministic"
    (Serve.Json.to_string (Serve.Atlas.to_json atlas))
    (Serve.Json.to_string (Serve.Atlas.to_json atlas'))

let suite =
  ( "serve",
    [
      Alcotest.test_case "json: parse/print roundtrip + rejections" `Quick
        json_roundtrip;
      Alcotest.test_case "wire: job record golden bytes" `Quick job_golden;
      Alcotest.test_case "wire: ack record golden bytes" `Quick ack_golden;
      Alcotest.test_case "wire: checkpoint golden bytes + file roundtrip"
        `Quick checkpoint_golden;
      Alcotest.test_case
        "kill-mid-job resume: verdict and exact counts match uninterrupted"
        `Slow resume_equivalence;
      Alcotest.test_case "job-level orphan resume through Job.run" `Slow
        job_level_resume;
      Alcotest.test_case "pool: backpressure bounds queue depth" `Quick
        backpressure;
      Alcotest.test_case "daemon: spool pass, rejects, done markers" `Slow
        spool_processing;
      Alcotest.test_case "atlas: shape, accounting, Pareto, determinism"
        `Slow atlas_shape;
    ] )

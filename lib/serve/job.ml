(** Job specs and their execution.

    The wire format is one JSON object per line:
    [{"job":"check","id":"c1","lock":"bakery","model":"PSO",...}].
    Decoding is total ([Error], never an exception) so one malformed
    line cannot take the daemon down; execution funnels each kind to
    the same library entry point its CLI subcommand uses, tagging
    every NDJSON record with the job's [id]. *)

open Memsim

type spec =
  | Check of {
      lock : string;
      model : Memory_model.t;
      nprocs : int;
      rounds : int;
      max_states : int;
      por : bool;
      reorder_bound : int option;
    }
  | Litmus of {
      test : string option;
      model : Memory_model.t option;
      reorder_bound : int option;
    }
  | Fuzz of { seed : int; count : int; model : Memory_model.t option }
  | Synth of {
      family : string;
      model : Memory_model.t;
      nprocs : int;
      rounds : int;
      max_states : int;
    }
  | Atlas of {
      model : Memory_model.t;
      nprocs : int list;
      out : string option;
    }

type t = { id : string; spec : spec }

let kind t =
  match t.spec with
  | Check _ -> "check"
  | Litmus _ -> "litmus"
  | Fuzz _ -> "fuzz"
  | Synth _ -> "synth"
  | Atlas _ -> "atlas"

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

let get_model j =
  let* s = Json.get_string j in
  match Memory_model.of_string s with
  | Some m -> Ok m
  | None -> Error (Fmt.str "unknown memory model %S" s)

(* An optional count that must be at least 1, [default] when absent. *)
let positive_field j name ~default =
  let* v = Json.field_opt j name Json.get_int in
  match v with
  | None -> Ok default
  | Some n when n >= 1 -> Ok n
  | Some n -> Error (Fmt.str "%S must be a positive integer, got %d" name n)

let of_json (j : Json.t) : (t, string) result =
  let* id = Json.field j "id" Json.get_string in
  let* kind = Json.field j "job" Json.get_string in
  let* spec =
    match kind with
    | "check" ->
        let* lock = Json.field j "lock" Json.get_string in
        let* model = Json.field j "model" get_model in
        let* nprocs = Json.field j "nprocs" Json.get_int in
        let* rounds = positive_field j "rounds" ~default:1 in
        let* max_states = positive_field j "max_states" ~default:1_000_000 in
        let* por = Json.field_opt j "por" Json.get_bool in
        let* reorder_bound = Json.field_opt j "reorder_bound" Json.get_int in
        Ok
          (Check
             {
               lock;
               model;
               nprocs;
               rounds;
               max_states;
               por = Option.value ~default:false por;
               reorder_bound;
             })
    | "litmus" ->
        let* test = Json.field_opt j "test" Json.get_string in
        let* model = Json.field_opt j "model" get_model in
        let* reorder_bound = Json.field_opt j "reorder_bound" Json.get_int in
        Ok (Litmus { test; model; reorder_bound })
    | "fuzz" ->
        let* seed = Json.field_opt j "seed" Json.get_int in
        let* count = positive_field j "count" ~default:50 in
        let* model = Json.field_opt j "model" get_model in
        Ok (Fuzz { seed = Option.value ~default:0 seed; count; model })
    | "synth" ->
        let* family = Json.field j "family" Json.get_string in
        let* model = Json.field j "model" get_model in
        let* nprocs = Json.field j "nprocs" Json.get_int in
        let* rounds = positive_field j "rounds" ~default:1 in
        let* max_states = positive_field j "max_states" ~default:400_000 in
        Ok (Synth { family; model; nprocs; rounds; max_states })
    | "atlas" ->
        let* model = Json.field_opt j "model" get_model in
        let* nprocs_json = Json.field j "nprocs" Json.get_list in
        let* nprocs =
          List.fold_right
            (fun x acc ->
              let* acc = acc in
              let* n = Json.get_int x in
              Ok (n :: acc))
            nprocs_json (Ok [])
        in
        let* out = Json.field_opt j "out" Json.get_string in
        Ok
          (Atlas
             {
               model = Option.value ~default:Memory_model.Pso model;
               nprocs;
               out;
             })
    | k -> Error (Fmt.str "unknown job kind %S" k)
  in
  Ok { id; spec }

let of_line line =
  match Json.parse line with
  | Error e -> Error (Fmt.str "bad JSON: %s" e)
  | Ok j -> of_json j

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

let model_json m = Json.String (Memory_model.to_string m)

let to_json (t : t) : Json.t =
  let base = [ ("job", Json.String (kind t)); ("id", Json.String t.id) ] in
  Json.Obj
    (base
    @
    match t.spec with
    | Check c ->
        [
          ("lock", Json.String c.lock);
          ("model", model_json c.model);
          ("nprocs", Json.Int c.nprocs);
          ("rounds", Json.Int c.rounds);
          ("max_states", Json.Int c.max_states);
          ("por", Json.Bool c.por);
          ( "reorder_bound",
            match c.reorder_bound with None -> Json.Null | Some k -> Json.Int k
          );
        ]
    | Litmus l ->
        [
          ( "test",
            match l.test with None -> Json.Null | Some s -> Json.String s );
          ( "model",
            match l.model with None -> Json.Null | Some m -> model_json m );
          ( "reorder_bound",
            match l.reorder_bound with None -> Json.Null | Some k -> Json.Int k
          );
        ]
    | Fuzz f ->
        [
          ("seed", Json.Int f.seed);
          ("count", Json.Int f.count);
          ( "model",
            match f.model with None -> Json.Null | Some m -> model_json m );
        ]
    | Synth s ->
        [
          ("family", Json.String s.family);
          ("model", model_json s.model);
          ("nprocs", Json.Int s.nprocs);
          ("rounds", Json.Int s.rounds);
          ("max_states", Json.Int s.max_states);
        ]
    | Atlas a ->
        [
          ("model", model_json a.model);
          ("nprocs", Json.List (List.map (fun n -> Json.Int n) a.nprocs));
          ("out", match a.out with None -> Json.Null | Some s -> Json.String s);
        ])

let ack_fields t =
  Telemetry.Sink.[ ("job_id", S t.id); ("job", S (kind t)) ]

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

type outcome = {
  ok : bool;
  summary : string;
  fields : (string * Telemetry.Sink.value) list;
}

let emit sink ~kind fields =
  Option.iter (fun s -> Telemetry.Sink.emit s ~kind fields) sink

let run ?sink ?checkpoint ?on_checkpoint (t : t) : outcome =
  let on_checkpoint = Option.value ~default:(fun () -> ()) on_checkpoint in
  let tag fields = ("job_id", Telemetry.Sink.S t.id) :: fields in
  match t.spec with
  | Check c -> (
      match Locks.Registry.find c.lock with
      | None ->
          {
            ok = false;
            summary = Fmt.str "unknown lock %S" c.lock;
            fields = tag [ ("error", S (Fmt.str "unknown lock %S" c.lock)) ];
          }
      | Some factory ->
          (* checkpointing pins the engine at `Parallel 1 — the only
             configuration with an exact frontier cut; without a
             checkpoint dir the job still runs on one Mc domain so its
             counts match the resume test's uninterrupted leg *)
          let ckpt_path, resume, ck =
            match checkpoint with
            | None -> (None, None, None)
            | Some (every, dir) ->
                let path = Filename.concat dir (t.id ^ ".ckpt") in
                let resume =
                  if Sys.file_exists path then
                    match Checkpoint.load ~path with
                    | Ok c ->
                        emit sink ~kind:"resume"
                          (tag
                             [
                               ("states", I c.Mc.ck_states);
                               ("pending", I (List.length c.Mc.ck_pending));
                             ]);
                        Some c
                    | Error e ->
                        emit sink ~kind:"resume_error" (tag [ ("error", S e) ]);
                        None
                  else None
                in
                let emit_ck (cut : Mc.checkpoint) =
                  Checkpoint.save ~path cut;
                  emit sink ~kind:"checkpoint"
                    (tag
                       [
                         ("states", I cut.Mc.ck_states);
                         ("transitions", I cut.Mc.ck_transitions);
                         ("pending", I (List.length cut.Mc.ck_pending));
                       ]);
                  on_checkpoint ()
                in
                (Some path, resume, Some (every, emit_ck))
          in
          let v =
            Verify.Mutex_check.check ~engine:(`Parallel 1) ~por:c.por
              ~rounds:c.rounds ~max_states:c.max_states
              ?reorder_bound:(Option.map (fun k -> `K k) c.reorder_bound)
              ?checkpoint:ck ?resume ~model:c.model factory ~nprocs:c.nprocs
          in
          Option.iter
            (fun p -> if Sys.file_exists p then Sys.remove p)
            ckpt_path;
          {
            ok = v.Verify.Mutex_check.holds;
            summary = Fmt.str "%a" Verify.Mutex_check.pp_verdict v;
            fields =
              tag
                [
                  ("lock", S c.lock);
                  ("model", S (Memory_model.to_string c.model));
                  ("nprocs", I c.nprocs);
                  ("holds", B v.Verify.Mutex_check.holds);
                  ("states", I v.Verify.Mutex_check.stats.Explore.states);
                  ( "transitions",
                    I v.Verify.Mutex_check.stats.Explore.transitions );
                  ("truncated", B v.Verify.Mutex_check.stats.Explore.truncated);
                ];
          })
  | Litmus l -> (
      let models, sweeping =
        match l.model with
        | Some m -> ([ m ], false)
        | None -> (Memory_model.all, true)
      in
      let reorder_bound = Option.map (fun k -> `K k) l.reorder_bound in
      let tests =
        match l.test with
        | None -> Litmus.Cases.all
        | Some name ->
            List.filter
              (fun tc ->
                String.lowercase_ascii tc.Litmus.Test.name
                = String.lowercase_ascii name)
              Litmus.Cases.all
      in
      match tests with
      | [] ->
          {
            ok = false;
            summary = "unknown litmus test";
            fields = tag [ ("error", S "unknown litmus test") ];
          }
      | tests ->
          let states = ref 0 and runs = ref 0 and skipped = ref 0 in
          List.iter
            (fun tc ->
              List.iter
                (fun model ->
                  match
                    if sweeping then
                      Litmus.Test.skip_reason ?reorder_bound model
                    else None
                  with
                  | Some reason ->
                      incr skipped;
                      emit sink ~kind:"skip"
                        (tag
                           [
                             ("test", S tc.Litmus.Test.name);
                             ("model", S (Memory_model.to_string model));
                             ("reason", S reason);
                           ])
                  | None ->
                      let r =
                        Litmus.Test.run ?reorder_bound tc ~model
                      in
                      incr runs;
                      states := !states + r.Litmus.Test.stats.Explore.states)
                models)
            tests;
          {
            ok = true;
            summary =
              Fmt.str "litmus: %d runs, %d skipped, %d states" !runs !skipped
                !states;
            fields =
              tag
                [
                  ("runs", I !runs);
                  ("skipped", I !skipped);
                  ("states", I !states);
                ];
          })
  | Fuzz f ->
      let config =
        match f.model with
        | None -> Fuzz.Oracle.default_config
        | Some model -> { Fuzz.Oracle.default_config with model }
      in
      let summary = Fuzz.run ~config ~seed:f.seed ~count:f.count () in
      let findings = List.length summary.Fuzz.findings in
      {
        ok = findings = 0;
        summary = Fmt.str "%a" Fuzz.pp_summary summary;
        fields =
          tag
            [
              ("seed", I f.seed);
              ("count", I f.count);
              ("checked", I summary.Fuzz.checked);
              ("violations", I findings);
            ];
      }
  | Synth s -> (
      match Synth.Family.find s.family with
      | None ->
          {
            ok = false;
            summary = Fmt.str "unknown family %S" s.family;
            fields = tag [ ("error", S (Fmt.str "unknown family %S" s.family)) ];
          }
      | Some fam ->
          let p =
            Synth.Oracle.lock_problem ~rounds:s.rounds
              ~max_states:s.max_states ~model:s.model fam ~nprocs:s.nprocs
          in
          let r = Synth.Runner.run ~jobs:1 ~strategy:`Cegar p in
          {
            ok = true;
            summary =
              Fmt.str "synth %s: %d minimal, frontier %d" p.Synth.Oracle.name
                (List.length r.Synth.Runner.minimal)
                (List.length r.Synth.Runner.frontier);
            fields =
              tag
                [
                  ("subject", S p.Synth.Oracle.name);
                  ("model", S (Memory_model.to_string s.model));
                  ("minimal", I (List.length r.Synth.Runner.minimal));
                  ("frontier_size", I (List.length r.Synth.Runner.frontier));
                ];
          })
  | Atlas a ->
      let atlas = Atlas.run ~model:a.model ~nprocs:a.nprocs () in
      let out = Option.value ~default:(t.id ^ ".atlas.json") a.out in
      let oc = open_out out in
      output_string oc (Json.to_string (Atlas.to_json atlas));
      output_char oc '\n';
      close_out oc;
      {
        ok = true;
        summary =
          Fmt.str "atlas: %d points over %d process counts -> %s"
            (List.length atlas.Atlas.points)
            (List.length a.nprocs) out;
        fields =
          tag
            [
              ("model", S (Memory_model.to_string a.model));
              ("points", I (List.length atlas.Atlas.points));
              ("out", S out);
            ];
      }

(* A one-domain replica of Mc's expansion loop ([Mc.run ~engine:(`Parallel 1)]
   without reductions or bounds), assembled only from public layer
   functions so that every call into a layer can be timed from here:

   - memsim: [Explore.successor_elts], [Exec.exec_elt_d] (step, with
     its minor words), [Exec.flush_labels_d];
   - mc: [Fingerprint.of_config]/[update] (key), [Visited.add] (the
     visited probe), [Frontier.register]/[inject]/[next]/[complete];
   - verify: the monitor the caller passes ([Mutex_check.cs_monitor]
     on lock checks).

   It claims, expands and counts exactly as the engine does, so its
   states and transitions must equal [Mc]'s on every input — the
   traced pass fails otherwise. *)

open Memsim
module Fp = Mc.Fingerprint

let successors = Spans.layer "memsim.successors"
let step = Spans.layer "memsim.step"
let flush = Spans.layer "memsim.flush"
let key = Spans.layer "mc.key"
let visited = Spans.layer "mc.visited"
let frontier = Spans.layer "mc.frontier"
let monitor_l = Spans.layer "verify.monitor"
let expand_l = Spans.layer "expand"

type 'm task = {
  cfg : Config.t;
  fp : Fp.t;
  m : 'm;
  rev_path : Exec.elt list;
  depth : int;
}

type result = {
  states : int;
  transitions : int;
  truncated : bool;
  violations : Exec.elt list list;  (** discovery order *)
  deadlocks : int;
  probes : int;
  fresh : int;
  visited : Mc.Visited.t;
}

let rec monitor_steps monitor m = function
  | [] -> Ok m
  | s :: rest -> (
      match monitor m s with
      | Ok m -> monitor_steps monitor m rest
      | Error _ as e -> e)

let timed_monitor monitor m steps =
  let t0 = Spans.now_ns () in
  let r = monitor_steps monitor m steps in
  Spans.stop monitor_l t0;
  r

(* Normalize a configuration (flush pending labels), carrying its
   fingerprint across the flushed processes. *)
let normalize fp cfg =
  let t0 = Spans.now_ns () in
  let notes, ncfg, dirtied = Exec.flush_labels_d cfg in
  Spans.stop flush t0;
  let fp =
    List.fold_left
      (fun fp p ->
        let t0 = Spans.now_ns () in
        let fp =
          Fp.update fp ~before:cfg ~after:ncfg (Exec.dirty_of p ~mem:false)
        in
        Spans.stop key t0;
        fp)
      fp dirtied
  in
  (notes, ncfg, fp)

let run (type m) ?(max_states = 1_000_000) ?(max_depth = 100_000)
    ?(max_violations = 3) ~(monitor : m -> Step.t -> (m, string) Stdlib.result)
    ~(init : m) ~(on_final : Config.t -> m -> unit) (cfg0 : Config.t) : result =
  let set = Mc.Visited.create () in
  let fr : m task Mc.Frontier.t = Mc.Frontier.create ~workers:1 in
  let states = ref 0 and transitions = ref 0 and truncated = ref false in
  let violations = ref [] and nviolations = ref 0 and deadlocks = ref 0 in
  let probes = ref 0 and fresh = ref 0 and expansions = ref 0 in
  let record_violation path =
    if !nviolations < max_violations then begin
      incr nviolations;
      violations := path :: !violations
    end
  in
  let claim (c : m task) =
    incr probes;
    let t0 = Spans.now_ns () in
    let won = Mc.Visited.add set c.fp in
    Spans.stop visited t0;
    if won then begin
      incr fresh;
      incr states
    end;
    won
  in
  let child (t : m task) elt =
    let t0 = Spans.now_ns () and w0 = Gc.minor_words () in
    let steps, cfg', d = Exec.exec_elt_d t.cfg elt in
    Spans.stop_words step t0 w0;
    match timed_monitor monitor t.m steps with
    | Error _ ->
        record_violation (List.rev (elt :: t.rev_path));
        None
    | Ok m -> (
        let t0 = Spans.now_ns () in
        let fp = Fp.update t.fp ~before:t.cfg ~after:cfg' d in
        Spans.stop key t0;
        let notes, ncfg, fp = normalize fp cfg' in
        match timed_monitor monitor m notes with
        | Error _ ->
            record_violation (List.rev (elt :: t.rev_path));
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
  let expand (t : m task) =
    if !states >= max_states || !nviolations >= max_violations then begin
      truncated := true;
      Mc.Frontier.stop fr;
      []
    end
    else if Config.quiescent t.cfg then begin
      on_final t.cfg t.m;
      []
    end
    else if t.depth >= max_depth then begin
      truncated := true;
      []
    end
    else begin
      let t0 = Spans.now_ns () in
      let elts = Explore.successor_elts t.cfg in
      Spans.stop successors t0;
      match elts with
      | [] ->
          incr deadlocks;
          []
      | _ ->
          transitions := !transitions + List.length elts;
          List.filter claim (List.filter_map (child t) elts)
    end
  in
  let timed_frontier f =
    let t0 = Spans.now_ns () in
    let r = f () in
    Spans.stop frontier t0;
    r
  in
  let rec drive t =
    incr expansions;
    Spans.open_parent expand_l !expansions;
    let children = expand t in
    Spans.close_parent ();
    match children with
    | [] ->
        timed_frontier (fun () -> Mc.Frontier.complete fr);
        seek ()
    | c :: rest ->
        timed_frontier (fun () ->
            Mc.Frontier.register fr (1 + List.length rest);
            if rest <> [] then Mc.Frontier.inject fr ~worker:0 (List.rev rest);
            Mc.Frontier.complete fr);
        drive c
  and seek () =
    match timed_frontier (fun () -> Mc.Frontier.next fr ~worker:0) with
    | Some t -> drive t
    | None -> ()
  in
  let t0 = Spans.now_ns () in
  let fp0 = Fp.of_config cfg0 in
  Spans.stop key t0;
  let notes, cfg, fp = normalize fp0 cfg0 in
  (match timed_monitor monitor init notes with
  | Error _ -> record_violation []
  | Ok m ->
      let root = { cfg; fp; m; rev_path = []; depth = 0 } in
      ignore (claim root);
      timed_frontier (fun () -> Mc.Frontier.register fr 1);
      drive root);
  {
    states = !states;
    transitions = !transitions;
    truncated = !truncated;
    violations = List.rev !violations;
    deadlocks = !deadlocks;
    probes = !probes;
    fresh = !fresh;
    visited = set;
  }

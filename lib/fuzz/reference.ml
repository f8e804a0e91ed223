(** The exact reference explorer: a plain breadth-first search that
    deduplicates on a structural key, independent of the hash lanes
    [Mc] keys on.

    [Mc] identifies states by fingerprints composed from lanes cached in
    every [pstate] and in committed memory. Two explorers that share
    those lanes agree even when a lane is wrong: a lane that drops a key
    component merges the same distinct states in both. Here every
    component that [Config.refresh_lanes] and the memory lanes digest is
    written out in full, so two states share a key only if they are
    equal in every component, and on a complete run [Mc] (without
    reductions) and this explorer claim the same states, count the same
    transitions and reach the same quiescent states unless a lane is
    wrong.

    Under the view models (RA/SRA) the key names messages by their ids,
    as the lanes do. A key that identified messages up to renaming would
    merge more states, so it can be checked against this explorer on
    outcome sets and verdicts, not on counts.

    The search steps with the executor's public functions only
    ([Explore.successor_elts], [Exec.exec_elt], [Exec.flush_labels]) and
    counts as [Mc.run] does: a state is claimed when it is created
    (after its labels are flushed), one transition is counted per
    successor element of an expanded state, and a run stops, marked
    truncated, when it would expand a state after [max_states] claims. *)

open Memsim

(* Zigzag varint: small values take one byte. Each varint delimits
   itself and every variable-length part of the key is preceded by its
   length, so equal keys mean equal components. *)
let add_int b i =
  let rec go u =
    if u land lnot 0x7f = 0 then Buffer.add_char b (Char.unsafe_chr u)
    else begin
      Buffer.add_char b (Char.unsafe_chr (u land 0x7f lor 0x80));
      go (u lsr 7)
    end
  in
  go ((i lsl 1) lxor (i asr 62))

let add_view b v =
  add_int b (View.cardinal v);
  View.iter
    (fun r mid ->
      add_int b r;
      add_int b mid)
    v

let key (cfg : Config.t) =
  let b = Buffer.create 128 in
  let add = add_int b in
  add (Config.Mem.cardinal cfg.Config.mem);
  Config.Mem.iter_bound
    (fun r v ->
      add r;
      add v)
    cfg.Config.mem;
  (match cfg.Config.store with
  | None -> ()
  | Some s ->
      for r = 0 to Layout.nregs cfg.Config.layout - 1 do
        add (Modlog.nmsgs s r);
        for pos = 0 to Modlog.nmsgs s r - 1 do
          let m = Modlog.msg_at s r pos in
          add m.Modlog.mid;
          add m.Modlog.value;
          add (Bool.to_int m.Modlog.rmw);
          add_view b m.Modlog.base
        done
      done;
      add_view b (Modlog.sc s));
  Array.iter
    (fun (st : Config.pstate) ->
      add st.Config.ops;
      (match st.Config.last_read with
      | None -> add 0
      | Some (r, v) ->
          add 1;
          add r;
          add v);
      (match st.Config.prog with
      | Program.Done v ->
          add 1;
          add v
      | _ -> add 0);
      add (Wbuf.size st.Config.wb);
      Wbuf.iter
        (fun (e : Wbuf.entry) ->
          add e.Wbuf.reg;
          add e.Wbuf.value)
        st.Config.wb;
      add st.Config.obs_len;
      List.iter add st.Config.obs;
      add_view b st.Config.view;
      add_view b st.Config.rel)
    cfg.Config.procs;
  Buffer.contents b

let rec monitor_steps monitor m = function
  | [] -> Ok m
  | s :: rest -> (
      match monitor m s with
      | Ok m -> monitor_steps monitor m rest
      | Error _ as e -> e)

let run (type m) ?(max_states = 1_000_000)
    ?(check = fun (_ : Config.t) -> None)
    ~(monitor : m -> Step.t -> (m, string) result) ~(init : m)
    ?(on_final = fun (_ : Config.t) (_ : m) -> ()) (cfg0 : Config.t) :
    m Explore.result =
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 4096 in
  let queue : (Config.t * m * Exec.elt list) Queue.t = Queue.create () in
  let states = ref 0 and transitions = ref 0 and truncated = ref false in
  let violations = ref [] and deadlocks = ref [] in
  let violation message rev_path m =
    violations :=
      { Explore.message; path = List.rev rev_path; monitor = m } :: !violations
  in
  (* normalize a state reached along [rev_path] with monitor [m], and
     claim it if its key is new *)
  let arrive m rev_path cfg =
    let notes, cfg = Exec.flush_labels cfg in
    match monitor_steps monitor m notes with
    | Error message -> violation message rev_path m
    | Ok m ->
        let k = key cfg in
        if not (Hashtbl.mem seen k) then begin
          Hashtbl.add seen k ();
          incr states;
          Queue.add (cfg, m, rev_path) queue
        end
  in
  arrive init [] cfg0;
  while (not !truncated) && not (Queue.is_empty queue) do
    let cfg, m, rev_path = Queue.pop queue in
    if !states >= max_states then truncated := true
    else begin
      Option.iter (fun message -> violation message rev_path m) (check cfg);
      if Config.quiescent cfg then on_final cfg m
      else
        match Explore.successor_elts cfg with
        | [] -> deadlocks := List.rev rev_path :: !deadlocks
        | elts ->
            List.iter
              (fun elt ->
                incr transitions;
                let steps, cfg' = Exec.exec_elt cfg elt in
                match monitor_steps monitor m steps with
                | Error message -> violation message (elt :: rev_path) m
                | Ok m' -> arrive m' (elt :: rev_path) cfg')
              elts
    end
  done;
  {
    Explore.stats =
      {
        Explore.states = !states;
        transitions = !transitions;
        truncated = !truncated;
        bound_hits = 0;
      };
    violations = List.rev !violations;
    deadlocks = List.rev !deadlocks;
  }

let reachable_outcomes ?max_states ~observe cfg =
  let outcomes = Hashtbl.create 16 in
  let result =
    run ?max_states
      ~monitor:(fun () _ -> Ok ())
      ~init:()
      ~on_final:(fun final () -> Hashtbl.replace outcomes (observe final) ())
      cfg
  in
  let all = Hashtbl.fold (fun o () acc -> o :: acc) outcomes [] in
  (List.sort compare all, result)

let litmus ?max_states test ~model =
  let regs, cfg = Litmus.Test.configure test ~model in
  let outcomes, result =
    reachable_outcomes ?max_states ~observe:(Litmus.Test.outcome test regs) cfg
  in
  {
    Litmus.Test.test;
    model;
    outcomes;
    stats = result.Explore.stats;
    reorder_bound = None;
    bound_exact = true;
  }

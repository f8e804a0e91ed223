(** Weak obstruction-freedom (Section 2 of the paper).

    An algorithm is weakly obstruction-free if from every reachable
    configuration in which every process other than [p] is in its
    initial or final state, [p] reaches a final state in every
    [p]-only schedule. The paper notes deadlock-freedom implies it; it
    is the liveness hypothesis the lower bound needs.

    We check it by exhaustive exploration: at every distinct reachable
    state, for every live process [p], if all other processes are
    initial (no operation steps taken, empty buffer) or final (returned,
    buffer drained), then [p] must terminate running solo. With spins
    primitive, solo termination is decidable exactly. *)

open Memsim

type verdict = {
  lock_name : string;
  model : Memory_model.t;
  nprocs : int;
  holds : bool;
  counterexample : (Pid.t * Exec.elt list) option;
      (** the stranded process and the schedule reaching the state *)
  stats : Explore.stats;
}

let pp_verdict ppf v =
  Fmt.pf ppf "%-24s %-4s n=%d: %s (%d states%s)" v.lock_name
    (Memory_model.to_string v.model)
    v.nprocs
    (match v.counterexample with
    | Some (p, _) -> Fmt.str "NOT OBSTRUCTION-FREE (p%d strands)" p
    | None when v.stats.Explore.truncated ->
        (* a clean run cut short by its cap has not shown the property:
           say what it saw, as Mutex_check.pp_verdict does *)
        "NO VIOLATION FOUND"
    | None -> "weakly obstruction-free")
    v.stats.Explore.states
    (if v.stats.Explore.truncated then ", truncated" else "")

let inconclusive v = v.holds && v.stats.Explore.truncated

let initial_or_final cfg q =
  let st = Config.pstate cfg q in
  (st.Config.ops = 0 && Wbuf.is_empty st.Config.wb)
  || (Config.is_final cfg q && Wbuf.is_empty st.Config.wb)

let stranded cfg =
  let n = Config.nprocs cfg in
  let rec find p =
    if p >= n then None
    else if
      (not (Config.is_final cfg p))
      && List.for_all
           (fun q -> Pid.equal p q || initial_or_final cfg q)
           (List.init n Fun.id)
      && not (Exec.terminates_solo cfg p)
    then Some p
    else find (p + 1)
  in
  find 0

let check ?(rounds = 1) ?max_states ?max_depth ~model
    (factory : Locks.Lock.factory) ~nprocs : verdict =
  let lock, _, cfg = Mutex_check.workload ~model factory ~nprocs ~rounds in
  let result =
    Mc.run ?max_states ?max_depth ~max_violations:1
      ~check:(fun cfg ->
        Option.map
          (fun p -> Fmt.str "process %d cannot finish solo" p)
          (stranded cfg))
      ~monitor:(fun () _ -> Ok ())
      ~init:() cfg
  in
  (* [check] must be pure, so the stranded process is recovered from
     the violation path: replaying it reaches the checked state *)
  let counterexample =
    match result.Explore.violations with
    | [] -> None
    | v :: _ -> (
        let _, final = Mc.Replay.run cfg v.Explore.path in
        match stranded final with
        | Some p -> Some (p, v.Explore.path)
        | None ->
            failwith
              "Obstruction.check: the violation path replays to no \
               stranded process")
  in
  {
    lock_name = lock.Locks.Lock.name;
    model;
    nprocs;
    holds = counterexample = None;
    counterexample;
    stats = result.Explore.stats;
  }

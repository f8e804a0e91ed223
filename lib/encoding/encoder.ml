(** The encoder: from a permutation to command stacks (Section 5.2).

    Given an ordering algorithm's initial configuration and a
    permutation [π], the construction grows stack sequences
    [S_0, S_1, ...] one command at a time: decode [S_i] fully, find the
    last permutation position [τ_i] with a non-empty stack, pick the
    process [p_ℓ] to extend (rule (3): move to the next position once
    the current one has finished), and append at the {e bottom} of its
    stack

    - [wait-local-finish(λ)] if this is its first command and λ earlier
      processes touched its memory segment (E1);
    - [proceed] if it is not stuck at a fence over a non-empty buffer
      (E2a);
    - otherwise (E2b) one of [wait-hidden-commit(γ)] /
      [wait-read-finish(ζ)] / [commit], by splitting the decoded
      execution at the point [E* | E**] where [p_ℓ]'s stack first
      emptied and counting, in the postfix [E**], the γ buffered
      registers that earlier processes overwrite (those commits can
      hide [p_ℓ]'s) and the ζ earlier processes that read buffered
      registers (they must finish before [p_ℓ] may commit).

    The construction ends when the last process of π reaches a final
    state; Lemma 5.1's invariants are asserted along the way when
    [check_invariants] is set (the default in tests). *)

open Memsim

type result = {
  pi : int array;  (** permutation: position → pid *)
  stacks : Cstack.t Pid.Map.t;  (** the code: final stack per process *)
  trace : Trace.t;  (** the encoded execution [E_π] *)
  final : Config.t;
  iterations : int;  (** total commands placed = m_π *)
}

exception
  Invariant_violation of { iteration : int; message : string }

let fail_invariant iteration fmt =
  Fmt.kstr (fun message -> raise (Invariant_violation { iteration; message })) fmt

(* Suffix of [trace] after its first [n] model steps. *)
let after_model_steps n trace =
  let rec go n = function
    | [] -> []
    | s :: rest ->
        if n = 0 then s :: rest
        else go (if Step.is_model_step s then n - 1 else n) rest
  in
  go n trace

let stack_of stacks p =
  match Pid.Map.find_opt p stacks with None -> Cstack.empty | Some s -> s

(* Largest position with a non-empty stack, -1 if none. *)
let tau pi stacks =
  let rec go k best =
    if k = Array.length pi then best
    else go (k + 1) (if Cstack.is_empty (stack_of stacks pi.(k)) then best else k)
  in
  go 0 (-1)

let check_lemma_invariants ~iteration pi stacks cfg t =
  let n = Array.length pi in
  for k = 0 to n - 1 do
    let p = pi.(k) in
    (* (I1) *)
    if Cstack.is_empty (stack_of stacks p) <> (k > t) then
      fail_invariant iteration "(I1): stack emptiness of position %d vs τ=%d" k t;
    (* (I2) *)
    if k < t && Config.final_value cfg p <> Some k then
      fail_invariant iteration
        "(I2): position %d (p%d) should be final with value %d" k p k;
    if k > t && (Config.pstate cfg p).Config.ops <> 0 then
      fail_invariant iteration "(I2): position %d (p%d) should be initial" k p
  done

let is_permutation pi =
  let sorted = Array.copy pi in
  Array.sort compare sorted;
  sorted = Array.init (Array.length pi) Fun.id

let encode ?(max_iterations = 2_000_000) ?(check_invariants = true) ~cinit
    ~(pi : int array) () : result =
  let n = Array.length pi in
  if n <> Config.nprocs cinit || not (is_permutation pi) then
    Fmt.invalid_arg "Encoder.encode: pi %a does not permute the %d processes"
      Fmt.(brackets (array ~sep:semi int))
      pi (Config.nprocs cinit);
  let layout = cinit.Config.layout in
  let all_but p =
    List.init n Fun.id |> List.filter (fun q -> not (Pid.equal q p)) |> Pid.Set.of_list
  in
  let rec iterate i stacks =
    if i > max_iterations then
      fail_invariant i "encoder did not converge within %d iterations"
        max_iterations;
    let trace, ext_end, _ = Decoder.run (Decoder.make cinit stacks) in
    let cfg = ext_end.Decoder.cfg in
    if Config.is_final cfg pi.(n - 1) then begin
      (* construction complete; all processes must have returned their
         position (this is what makes the code injective over π) *)
      if check_invariants then
        Array.iteri
          (fun k p ->
            if Config.final_value cfg p <> Some k then
              fail_invariant i "final: position %d (p%d) returned %a, wanted %d"
                k p
                Fmt.(option ~none:(any "none") int)
                (Config.final_value cfg p) k)
          pi;
      { pi; stacks; trace; final = cfg; iterations = i }
    end
    else begin
      let t = tau pi stacks in
      if check_invariants then check_lemma_invariants ~iteration:i pi stacks cfg t;
      let l =
        if t = -1 || Config.is_final cfg pi.(t) then t + 1 else t
      in
      let pl = pi.(l) in
      let cmd =
        if Cstack.is_empty (stack_of stacks pl) then begin
          let accessors = Trace.segment_accessors layout ~segment_of:pl trace in
          let lambda = Pid.Set.cardinal accessors in
          if lambda > 0 then Command.Wait_local_finish (lambda, Pid.Set.empty)
          else Command.Proceed
          (* an empty-stack process cannot be poised at a fence with a
             non-empty buffer, so E2a applies when E1 does not *)
        end
        else if
          Config.next_kind cfg pl <> Program.Op_fence
          || Wbuf.is_empty (Config.wbuf cfg pl)
        then Command.Proceed (* E2a *)
        else begin
          (* E2b: split E_i where p_ℓ's stack first became empty *)
          let _, _, split =
            Decoder.run ~watch:pl (Decoder.make cinit stacks)
          in
          let split =
            match split with
            | Some s -> s
            | None ->
                fail_invariant i
                  "(I6): p%d's stack never emptied during E_%d" pl i
          in
          let postfix = after_model_steps split trace in
          let buffered = Wbuf.regs (Config.wbuf cfg pl) in
          let among = all_but pl in
          let gamma =
            Reg.Set.cardinal (Trace.committed_regs ~among buffered postfix)
          in
          let zeta =
            Pid.Set.cardinal (Trace.shared_readers ~among buffered postfix)
          in
          if gamma > 0 then Command.Wait_hidden_commit gamma
          else if zeta > 0 then Command.Wait_read_finish (zeta, Pid.Set.empty)
          else Command.Commit
        end
      in
      let stacks =
        Pid.Map.add pl (Cstack.push_bottom cmd (stack_of stacks pl)) stacks
      in
      iterate (i + 1) stacks
    end
  in
  iterate 0 Decoder.empty_stacks

(** Decode a result's stacks from scratch and return the reconstructed
    return values by position — the round-trip check: position [k]'s
    process must return [k], which identifies π. *)
let decode_returns ~cinit (r : result) : int option array =
  let _, ext, _ = Decoder.run (Decoder.make cinit r.stacks) in
  Array.map (fun p -> Config.final_value ext.Decoder.cfg p) r.pi

(** Process programs as resumable, purely functional step trees.

    A process executes [read]/[write]/[fence]/[return] operations (plus
    the comparison primitive [cas], per the paper's Section 6 remark that
    the lower bound survives comparison primitives). The simulator needs
    to (a) suspend a process between steps, (b) snapshot a configuration
    and replay it — the Section 5 decoder speculatively runs a process
    solo from a snapshot — and (c) keep algorithm code readable. A free
    monad over the operation signature gives all three: a program value
    {e is} the process's continuation, it is immutable, and algorithms
    are written in direct style with [let*].

    [Label] is a zero-cost annotation (e.g. ["cs:enter"]) consumed
    transparently by the executor: it occupies no schedule slot and
    leaves every complexity measure untouched, so instrumented and plain
    programs have identical fence/RMR counts. *)

type t =
  | Done of int  (** final state with a return value *)
  | Ret of int
      (** poised to execute [return(v)]; the return step itself is an
          observable event (decoding rule D2b hinges on it), after which
          the process is [Done v] *)
  | Read of Reg.t * (int -> t)
  | Write of Reg.t * int * (unit -> t)
  | Fence of (unit -> t)
  | Cas of Reg.t * int * int * (bool -> t)
      (** [Cas (r, expect, update, k)] *)
  | Swap of Reg.t * int * (int -> t)
      (** fetch-and-store: atomically install the value, yield the old
          one. Like [Cas], a strong primitive with an implicit barrier. *)
  | Faa of Reg.t * int * (int -> t)
      (** fetch-and-add: atomically add, yield the previous value. *)
  | Spin of Reg.t * (int -> bool) * (int -> t)
      (** [Spin (r, pred, k)]: busy-wait until a read of [r] satisfies
          [pred]. Kept primitive rather than desugared into a read loop:
          under the CC accounting a re-read of an unchanged register is
          served from the cache and costs nothing, so the only
          {e observable} steps of a spin are its reads of {e new}
          values — which is exactly how the executor realises it. A spin
          whose predicate fails on the current (already observed) value
          is {e blocked}: it takes no step at all until someone commits
          to [r]. This collapses spin loops to finitely many steps,
          which both the model checker and the Section 5 decoder's
          solo-termination test rely on. *)
  | Spinv of Reg.t list * int list option * (int list -> bool) * (int list -> t)
      (** [Spinv (regs, prev, pred, k)]: busy-wait until one {e round} of
          reads of [regs] (in order, as ordinary fine-grained read
          steps) satisfies [pred]. [prev] holds the observations of the
          last failed round: while the currently visible values equal
          [prev] the process is blocked — re-running the round would
          reproduce exactly the same local state, so skipping it is a
          semantic no-op (and a CC cache hit costing nothing). The
          executor unrolls each round into plain {!Read} nodes, so
          commits by other processes interleave freely {e within} a
          round; only round starts are elided. *)
  | Label of string * (unit -> t)

(** Direct-style layer: ['a m] is a program fragment producing ['a]. *)
type 'a m = ('a -> t) -> t

let return (x : 'a) : 'a m = fun k -> k x
let ( let* ) (m : 'a m) (f : 'a -> 'b m) : 'b m = fun k -> m (fun a -> f a k)
let ( >>= ) = ( let* )

let read r : int m = fun k -> Read (r, k)
let write r v : unit m = fun k -> Write (r, v, fun () -> k ())
let fence : unit m = fun k -> Fence (fun () -> k ())
let cas r ~expect ~update : bool m = fun k -> Cas (r, expect, update, k)
let swap r v : int m = fun k -> Swap (r, v, k)
let faa r ~add : int m = fun k -> Faa (r, add, k)
let label s : unit m = fun k -> Label (s, fun () -> k ())

(** Spin on a single register until [pred] holds on its value; evaluates
    to the value that satisfied the predicate. *)
let await r pred : int m = fun k -> Spin (r, pred, k)

(** Spin until one read round over two registers satisfies [pred];
    evaluates to the satisfying pair. *)
let await2 r1 r2 pred : (int * int) m =
 fun k ->
  let unpack f = function
    | [ a; b ] -> f a b
    | _ -> invalid_arg "Program.await2: arity"
  in
  Spinv ([ r1; r2 ], None, unpack pred, unpack (fun a b -> k (a, b)))

(** Spin until one read round over a register list satisfies [pred];
    evaluates to the satisfying observations. *)
let await_many regs pred : int list m =
 fun k ->
  if regs = [] then invalid_arg "Program.await_many: no registers";
  Spinv (regs, None, pred, k)

(** Sequence a unit action over a list. *)
let rec iter_m (f : 'a -> unit m) = function
  | [] -> return ()
  | x :: rest ->
      let* () = f x in
      iter_m f rest

(** Left fold in program space. *)
let rec fold_m (f : 'acc -> 'a -> 'acc m) acc = function
  | [] -> return acc
  | x :: rest ->
      let* acc = f acc x in
      fold_m f acc rest

(** Close a program fragment into a runnable program; the fragment's
    result becomes the process's return value. *)
let run (m : int m) : t = m (fun x -> Ret x)

(** Run a unit fragment and return [v]. *)
let run_unit (m : unit m) ~returns : t = m (fun () -> Ret returns)

type op_kind =
  | Op_read
  | Op_write
  | Op_fence
  | Op_cas
  | Op_spin
  | Op_return of int
  | Op_done

(** Kind of the operation the program is poised to execute, skipping
    labels (which the executor consumes for free). *)
let rec next_kind = function
  | Done _ -> Op_done
  | Ret v -> Op_return v
  | Read _ -> Op_read
  | Write _ -> Op_write
  | Fence _ -> Op_fence
  | Cas _ | Swap _ | Faa _ -> Op_cas
  | Spin _ | Spinv _ -> Op_spin
  | Label (_, k) -> next_kind (k ())

let rec skip_labels ~emit = function
  | Label (s, k) ->
      emit s;
      skip_labels ~emit (k ())
  | p -> p

(** Is the program poised at a (pending) label? *)
let at_label = function Label _ -> true | _ -> false

(** [skip_labels] without emission. Physically the argument itself
    when there is no leading label — so [post_labels t != t] is an
    exact pending-label test for any [t] this returns. *)
let post_labels t = skip_labels ~emit:ignore t

let is_done = function Done _ -> true | _ -> false
let final_value = function Done v -> Some v | _ -> None

(* ------------------------------------------------------------------ *)
(* Fence masking — the synthesis subsystem's input contract            *)
(* ------------------------------------------------------------------ *)

(* Lazily rewrite the fence structure of a step tree. Fences are
   numbered from [base] in execution order along the current path; the
   [i]-th fence is kept iff [keep i], and a dropped fence contributes
   no node (hence no step, no schedule slot, no cost). With [marker],
   every site — kept or dropped — is preceded by the zero-cost label
   [marker i], placed *before* the fence position so a replayed trace
   shows the crossing while the write buffer still holds whatever the
   fence would have flushed. [stop] is a physically unique boundary
   label (compared with [==], so user labels can never collide): the
   walk unwraps it and leaves everything behind it untouched, which is
   what scopes the rewrite to one fragment of a larger program.

   The rewrite is extensional: with [keep = Fun.const true] and no
   [marker] the rewritten tree executes step-for-step identically to
   the original. Site numbering is per-path; every program in this
   repository (locks, litmus corpus, fuzz programs) executes its fences
   in fixed program-text order, which is the intended contract. *)
let mask_walk ?marker ?stop ~keep base t =
  let mark i rest =
    match marker with Some m -> Label (m i, fun () -> rest) | None -> rest
  in
  let rec walk i t =
    match t with
    | Label (s, k) when (match stop with Some b -> s == b | None -> false) ->
        k ()
    | Label (s, k) -> Label (s, fun () -> walk i (k ()))
    | (Done _ | Ret _) as t -> t
    | Read (r, k) -> Read (r, fun v -> walk i (k v))
    | Write (r, v, k) -> Write (r, v, fun () -> walk i (k ()))
    | Fence k ->
        let rest () = walk (i + 1) (k ()) in
        mark i (if keep i then Fence rest else rest ())
    | Cas (r, e, u, k) -> Cas (r, e, u, fun b -> walk i (k b))
    | Swap (r, v, k) -> Swap (r, v, fun old -> walk i (k old))
    | Faa (r, d, k) -> Faa (r, d, fun old -> walk i (k old))
    | Spin (r, pred, k) -> Spin (r, pred, fun v -> walk i (k v))
    | Spinv (rs, prev, pred, k) ->
        Spinv (rs, prev, pred, fun vs -> walk i (k vs))
  in
  walk base t

let mask_fences ?marker ?(base = 0) ~keep t = mask_walk ?marker ~keep base t

let mask_fragment ?marker ~keep ~base (frag : unit m) : unit m =
 fun k ->
  (* a freshly allocated string: physically unique, so the boundary can
     never be confused with a user label even of equal contents *)
  let stop = String.make 1 '\xff' in
  mask_walk ?marker ~stop ~keep base (frag (fun () -> Label (stop, k)))

(** Program compilation: continuation sharing.

    A {!Program.t} closure tree's continuations {e rebuild} their
    subtree on every call: stepping a process re-runs the CPS pipeline
    from the current position to the next node, allocating the whole
    chain again, and dispatch-side queries ([next_kind], POR
    footprints) multiply that cost. Exploration revisits the same
    program positions millions of times, so the fix is sharing, not
    staging: {!share} rewrites the tree so every continuation is
    memoized on its argument — the first force builds (and recursively
    shares) the successor node, every later force returns it. The
    reachable positions of a terminating program form a finite graph,
    so the memo tables are bounded by program size × observed-value
    fanout.

    Bounded unrolling, with fallback: each memo table holds at most
    [fanout] distinct arguments. A continuation forced on more values
    than that is data-dependent beyond what's worth caching — beyond
    the bound it falls back to the raw closure, bit-for-bit the same
    program, just unshared.

    Contract (semantics-invisibility): continuations must be pure up
    to observation — forcing [k v] twice yields equivalent subtrees.
    Every program in this repository satisfies this (trees built by
    the [Program] combinators from pure OCaml functions). Programs
    whose continuations count their own forcings (the label-forcing
    regression test does, deliberately) observe fewer forcings once
    shared; that is the point, and exactly what the test pins.

    Sharing is domain-safe: memo cells are {!Atomic}s, publication is
    by CAS, and a lost race simply returns the winner's (equivalent)
    node, so the parallel checker's workers can force the same shared
    program concurrently. *)

(* Distinct arguments memoized per continuation; past it the raw
   closure runs (see the header). *)
let fanout = 64

(* Memo a [unit -> t] continuation: one cell. *)
let rec memo_unit (k : unit -> Program.t) : unit -> Program.t =
  let cell = Atomic.make None in
  fun () ->
    match Atomic.get cell with
    | Some t -> t
    | None -> (
        let t = share (k ()) in
        if Atomic.compare_and_set cell None (Some t) then t
        else match Atomic.get cell with Some t -> t | None -> t)

(* Memo an [int -> t] continuation: a bounded assoc list. Beyond
   [fanout] distinct arguments, fall back to the raw closure. A lost
   CAS race drops our entry (the next miss re-shares); a concurrent
   winner's entry is preferred so all domains converge on one node. *)
and memo_int (k : int -> Program.t) : int -> Program.t =
  let cell = Atomic.make [] in
  fun v ->
    let rec find = function
      | [] -> None
      | (v', t) :: tl -> if Int.equal v v' then Some t else find tl
    in
    let l = Atomic.get cell in
    match find l with
    | Some t -> t
    | None ->
        if List.length l >= fanout then k v
        else
          let t = share (k v) in
          let l' = Atomic.get cell in
          (match find l' with
          | Some t' -> t'
          | None ->
              ignore (Atomic.compare_and_set cell l' ((v, t) :: l'));
              t)

and memo_bool (k : bool -> Program.t) : bool -> Program.t =
  let kf = memo_unit (fun () -> k false) in
  let kt = memo_unit (fun () -> k true) in
  fun b -> if b then kt () else kf ()

(* Spinv continuations are keyed on the observed round. *)
and memo_list (k : int list -> Program.t) : int list -> Program.t =
  let cell = Atomic.make [] in
  fun vs ->
    let rec find = function
      | [] -> None
      | (vs', t) :: tl ->
          if List.equal Int.equal vs vs' then Some t else find tl
    in
    let l = Atomic.get cell in
    match find l with
    | Some t -> t
    | None ->
        if List.length l >= fanout then k vs
        else
          let t = share (k vs) in
          let l' = Atomic.get cell in
          (match find l' with
          | Some t' -> t'
          | None ->
              ignore (Atomic.compare_and_set cell l' ((vs, t) :: l'));
              t)

and share (t : Program.t) : Program.t =
  match t with
  | Program.Done _ | Program.Ret _ -> t
  | Read (r, k) -> Read (r, memo_int k)
  | Write (r, v, k) -> Write (r, v, memo_unit k)
  | Fence k -> Fence (memo_unit k)
  | Cas (r, e, u, k) -> Cas (r, e, u, memo_bool k)
  | Swap (r, v, k) -> Swap (r, v, memo_int k)
  | Faa (r, d, k) -> Faa (r, d, memo_int k)
  | Spin (r, pred, k) -> Spin (r, pred, memo_int k)
  | Spinv (rs, prev, pred, k) -> Spinv (rs, prev, pred, memo_list k)
  | Label (s, k) -> Label (s, memo_unit k)

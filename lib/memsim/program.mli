(** Process programs as resumable, purely functional step trees.

    A program value {e is} the process's continuation: immutable, so a
    configuration snapshot is free, and replayable, which the Section 5
    decoder and the model checker rely on. Algorithms are written in
    direct style with [let*] over the ['a m] fragment type and closed
    with {!run}. *)

type t =
  | Done of int  (** final state with a return value *)
  | Ret of int
      (** poised to execute [return(v)]; the return step itself is an
          observable event (decoding rule D2b hinges on it) *)
  | Read of Reg.t * (int -> t)
  | Write of Reg.t * int * (unit -> t)
  | Fence of (unit -> t)
  | Cas of Reg.t * int * int * (bool -> t)
      (** [Cas (r, expect, update, k)] — comparison primitive; carries
          an implicit barrier in the executor *)
  | Swap of Reg.t * int * (int -> t)
      (** fetch-and-store; same discipline as [Cas] *)
  | Faa of Reg.t * int * (int -> t)
      (** fetch-and-add; same discipline as [Cas] *)
  | Spin of Reg.t * (int -> bool) * (int -> t)
      (** single-register busy-wait; primitive so that a blocked spin
          takes no steps (a cached re-read is free under CC accounting)
          and state spaces stay finite *)
  | Spinv of Reg.t list * int list option * (int list -> bool) * (int list -> t)
      (** multi-register busy-wait; each round is unrolled into
          ordinary fine-grained reads, and only round {e starts} are
          elided while the visible values equal the last failed round's
          observations (carried in the [int list option]) *)
  | Label of string * (unit -> t)
      (** zero-cost annotation, consumed transparently by the executor *)

(** Direct-style fragments: ['a m] produces an ['a]. *)
type 'a m = ('a -> t) -> t

val return : 'a -> 'a m
val ( let* ) : 'a m -> ('a -> 'b m) -> 'b m
val ( >>= ) : 'a m -> ('a -> 'b m) -> 'b m

val read : Reg.t -> int m
val write : Reg.t -> int -> unit m
val fence : unit m
val cas : Reg.t -> expect:int -> update:int -> bool m

(** Atomically install a value; evaluates to the previous one. *)
val swap : Reg.t -> int -> int m

(** Atomically add; evaluates to the previous value. *)
val faa : Reg.t -> add:int -> int m

val label : string -> unit m

(** Spin until [pred] holds on the register's value; evaluates to the
    satisfying value. *)
val await : Reg.t -> (int -> bool) -> int m

(** Spin until one read round over two registers satisfies [pred]. *)
val await2 : Reg.t -> Reg.t -> (int -> int -> bool) -> (int * int) m

(** Spin until one read round over a register list satisfies [pred]. *)
val await_many : Reg.t list -> (int list -> bool) -> int list m

val iter_m : ('a -> unit m) -> 'a list -> unit m
val fold_m : ('acc -> 'a -> 'acc m) -> 'acc -> 'a list -> 'acc m

(** Close a fragment into a runnable program; the fragment's result is
    the process's return value. *)
val run : int m -> t

val run_unit : unit m -> returns:int -> t

type op_kind =
  | Op_read
  | Op_write
  | Op_fence
  | Op_cas
  | Op_spin
  | Op_return of int
  | Op_done

(** Kind of the operation the program is poised at, skipping labels. *)
val next_kind : t -> op_kind

(** Skip leading labels, feeding each to [emit]. *)
val skip_labels : emit:(string -> unit) -> t -> t

(** Is the program poised at a (pending) label? *)
val at_label : t -> bool

(** [skip_labels] without emission. Physically the argument itself
    when there is no leading label. *)
val post_labels : t -> t

val is_done : t -> bool
val final_value : t -> int option

(** Lazily rewrite a program's fence structure. Fences are numbered
    from [base] (default 0) in execution order along the current path;
    the [i]-th fence survives iff [keep i], and a dropped fence
    contributes no node at all — no step, no schedule slot, no cost.
    With [marker], every site (kept or dropped) is preceded by the
    zero-cost label [marker i], placed before the fence position so a
    replayed trace shows the crossing while the write buffer still holds
    whatever the fence would have flushed. [keep = Fun.const true]
    without a marker is extensionally the identity.

    The numbering is per-execution-path; the contract — satisfied by
    every lock, corpus litmus test and fuzz program in this repository —
    is that a process executes its fences in fixed program-text order,
    so occurrence index = program-text site. *)
val mask_fences :
  ?marker:(int -> string) -> ?base:int -> keep:(int -> bool) -> t -> t

(** {!mask_fences} scoped to one fragment of a larger program: the
    rewrite stops where the fragment ends (an internal physically-unique
    boundary label, invisible to the executor), so the continuation the
    fragment is later bound to keeps its own fences untouched. *)
val mask_fragment :
  ?marker:(int -> string) -> keep:(int -> bool) -> base:int -> unit m -> unit m

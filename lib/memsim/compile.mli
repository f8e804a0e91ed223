(** Continuation sharing: the one program-execution path.

    Sharing rewrites a {!Program.t} so every continuation is memoized
    on its argument: the first force of [k v] builds (and recursively
    shares) the successor node, every later force returns the same
    node — exploration stops paying the CPS rebuild tax at positions
    it has already visited. Each memo table is bounded by a fan-out
    constant of distinct arguments (64); beyond the bound the raw
    closure is called instead — bit-for-bit the same program, just
    unshared.

    Contract: continuations must be pure up to observation (forcing
    [k v] twice yields equivalent subtrees) — true of every tree the
    [Program] combinators build. Sharing is domain-safe (atomic
    publication; a lost race returns the winner's node). *)

val share : Program.t -> Program.t
(** Rewrite a program so every continuation is memoized (see the
    module header for the contract and the fan-out fallback). The
    identity up to observation: walking [share p] and [p] side by side
    yields the same nodes, operands, labels and return values on every
    path. *)

(** Sharded concurrent visited set over state fingerprints: a
    power-of-two array of insert-only open-addressing tables (both
    fingerprint lanes inline in a flat [int array], linear probing,
    at most 3/4 full, atomically published on growth), shard index and
    in-shard slot drawn from decorrelated fingerprint lanes, with a
    lock-free racy pre-check in front of every insert — sound by
    construction: a slot is written once, so a racy read sees each
    lane as 0 or its final value, and a racy hit counts only when both
    query lanes are non-zero (see the implementation header). *)

type t

type stats = {
  shards : int;
  entries : int;
  max_occupancy : int;  (** most-loaded shard *)
  mean_occupancy : float;
  skew : float;  (** max / mean; 1.0 = perfectly even *)
}

(** [create ?shards ?expected_states ()] — [shards] must be a power of
    two (default 128); [expected_states] pre-sizes each shard's table
    for the expected total population, avoiding rehash storms on runs
    that reach millions of states. *)
val create : ?shards:int -> ?expected_states:int -> unit -> t

(** Test-and-insert; [true] iff the fingerprint was new and this call
    won it. *)
val add : t -> Fingerprint.t -> bool

val mem : t -> Fingerprint.t -> bool

(** Iterate every stored fingerprint (shard locks taken in turn; exact
    only when no domain is inserting) — checkpoint serialization. *)
val iter : t -> (Fingerprint.t -> unit) -> unit

(** Total entries (exact only when no domain is inserting). *)
val size : t -> int

(** Lock-free approximate entry count (racy but valid reads of each
    shard's count) — for live progress gauges. *)
val approx_size : t -> int

(** Racy counterpart of {!stats}: never takes a shard lock, so a
    sampler polling it cannot stall a worker. *)
val approx_stats : t -> stats

(** Per-shard occupancy spread (exact only when quiesced). *)
val stats : t -> stats

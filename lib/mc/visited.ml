(** Sharded concurrent visited set over state fingerprints.

    A fixed power-of-two array of shards, each an {e insert-only}
    open-addressing table. The shard index comes from fingerprint lane
    [b] and the in-shard slot index from lane [a], so the two are
    decorrelated.

    Slot layout: a shard's table is one flat [int array] of [2 * cap]
    words, slot [i] holding lane [a] at word [2i] and lane [b] at word
    [2i + 1] — both 63-bit lanes inline, no per-entry block, nothing
    for the GC to trace. An empty slot reads [(0, 0)], so the one
    fingerprint with both lanes zero cannot live in a slot and is kept
    in a per-shard flag instead. Lookups probe linearly from
    [a land (cap - 1)] to the first empty slot, without allocating. An
    insert that takes a table past 3/4 full (the zero flag counted as
    an entry) doubles it, so every table keeps empty slots and every
    probe meets one.

    Inserts take the shard lock. In front of every insert sits a
    {e lock-free racy} membership read, which peels the duplicate
    majority (~60% of children on the lock workloads) off without
    touching a lock. Its soundness rests on two facts, both true by
    construction:

    - {e a slot is written once}: under the lock, from [(0, 0)] to its
      final two lanes, and never again — nothing is ever deleted or
      moved within a published table;
    - {e growth publishes a fresh array}: a resize (under the shard
      lock) fills a newly allocated table and installs it with one
      [Atomic.set]; the old table is never written again.

    The [Atomic.get] of a table synchronizes with the [Atomic.set]
    that published it, so every slot filled before publication reads
    its final lanes. A slot filled afterwards is written racily, and
    the OCaml 5 memory model has no out-of-thin-air values: each of
    its two words reads as either 0 or its final value, independently
    — a torn read can show [(a, 0)] or [(0, b)] for a slot that is
    really [(a, b)]. Hence:

    - a racy {e hit} counts only when {e both} query lanes are
      non-zero. Each word then matched a non-zero value, which can
      only be its final one, so the slot really holds the query. A
      query with a zero lane skips the racy read and goes straight to
      the locked path, since a torn slot could match it falsely;
    - a racy {e miss} is harmless: a slot read as [(0, 0)] may end a
      probe early, and a table replaced meanwhile lacks the newest
      inserts — either way the locked re-check decides.

    So a racy read can produce a false negative but never a false
    positive. Its probe terminates too: a torn or stale view shows at
    most as many non-empty slots as the table really holds, and no
    table is ever full.

    [?expected_states] pre-sizes the tables so a million-state run
    skips the resize cascade (each resize a rehash under the shard
    lock). Without a hint a shard starts at [initial_slots] slots, 256
    words: a set per short check (the synthesis oracles build one per
    candidate) stays cheap to create.

    Shard records are deliberately {e padded apart} at allocation
    time: the records would otherwise sit contiguously in the heap,
    and two domains inserting into neighbouring shards would
    false-share cache lines through the shards' mutable count fields.
    OCaml offers no layout control, so the constructor interleaves a
    cache-line-sized dummy array with each shard and keeps it live in
    the record — the GC preserves allocation order when promoting, so
    the spacing survives. *)

type shard = {
  lock : Mutex.t;
  slots : int array Atomic.t;
      (** [2 * cap] words, [cap] a power of two; each slot written once
          under [lock], the array replaced wholesale on growth *)
  mutable count : int;
      (** entries, the zero flag included; read/written under [lock] *)
  mutable zero : bool;  (** holds the fingerprint [(0, 0)]; under [lock] *)
  _pad : int array;  (** keeps the inter-shard spacing live; see above *)
}

type t = { shards : shard array; mask : int }

type stats = {
  shards : int;
  entries : int;
  max_occupancy : int;
  mean_occupancy : float;
  skew : float;  (** max / mean; 1.0 = perfectly even *)
}

let initial_slots = 128

let rec next_pow2 n k = if k >= n then k else next_pow2 n (k * 2)

let create ?(shards = 128) ?expected_states () =
  if shards <= 0 || shards land (shards - 1) <> 0 then
    Fmt.invalid_arg "Visited.create: %d shards (need a power of two)" shards;
  let slots =
    match expected_states with
    | None -> initial_slots
    | Some n when n < 0 ->
        Fmt.invalid_arg "Visited.create: expected_states %d" n
    | Some n ->
        (* room for the shard's share of [n] at under 3/4 load *)
        next_pow2 ((4 * (n / shards) / 3) + 1) initial_slots
  in
  {
    shards =
      Array.init shards (fun _ ->
          {
            lock = Mutex.create ();
            slots = Atomic.make (Array.make (2 * slots) 0);
            count = 0;
            zero = false;
            _pad = Array.make 15 0 (* one cache line of spacing *);
          });
    mask = shards - 1;
  }

let[@inline] shard_of (t : t) fp =
  t.shards.(Fingerprint.shard fp ~mask:t.mask)

(* Probe [(a, b)] from slot [i] of a table with slot mask [mask]: the
   slot holding it, or [-1 - j] for the empty slot [j] that ends its
   chain. A top-level function with every operand passed in, so a
   probe allocates no closure. Indices stay below [2 * (mask + 1)]. *)
let rec seek (arr : int array) mask a b i =
  let sa = Array.unsafe_get arr (2 * i)
  and sb = Array.unsafe_get arr ((2 * i) + 1) in
  if sa = a && sb = b then i
  else if sa lor sb = 0 then -1 - i
  else seek arr mask a b ((i + 1) land mask)

let[@inline] slot_mask arr = (Array.length arr lsr 1) - 1

(** Is [(a, b)], not [(0, 0)], in the shard's current table? Under
    the shard lock the answer is exact. Without it the read is racy:
    false negatives are possible under concurrent inserts, and false
    positives impossible provided both lanes are non-zero (header
    argument). *)
let[@inline] in_table s a b =
  let arr = Atomic.get s.slots in
  let mask = slot_mask arr in
  seek arr mask a b (a land mask) >= 0

(* Shard lock held: double the table, re-inserting every filled slot
   into a fresh array, and publish it. Readers still holding the old
   array see a valid, possibly stale table that is never written
   again. *)
let grow s =
  let old = Atomic.get s.slots in
  let arr = Array.make (2 * Array.length old) 0 in
  let mask = slot_mask arr in
  for i = 0 to slot_mask old do
    let a = old.(2 * i) and b = old.((2 * i) + 1) in
    if a lor b <> 0 then begin
      let j = -1 - seek arr mask a b (a land mask) in
      arr.(2 * j) <- a;
      arr.((2 * j) + 1) <- b
    end
  done;
  Atomic.set s.slots arr

(* Shard lock held: authoritative re-check and insert. *)
let locked_add s a b =
  if a = 0 && b = 0 then
    if s.zero then false
    else begin
      s.zero <- true;
      s.count <- s.count + 1;
      true
    end
  else
    let arr = Atomic.get s.slots in
    let mask = slot_mask arr in
    let i = seek arr mask a b (a land mask) in
    if i >= 0 then false
    else begin
      let j = -1 - i in
      arr.(2 * j) <- a;
      arr.((2 * j) + 1) <- b;
      s.count <- s.count + 1;
      if 4 * s.count > 3 * (mask + 1) then grow s;
      true
    end

(** [add t fp] inserts [fp]; [true] iff it was not already present.
    The test-and-insert is atomic per shard, so exactly one domain wins
    each state — the winner expands it and fires the per-state hooks.
    The unlocked pre-check peels off the duplicate majority (sound per
    the header argument). *)
let add t (fp : Fingerprint.t) =
  let s = shard_of t fp in
  let a = fp.Fingerprint.a and b = fp.Fingerprint.b in
  if a <> 0 && b <> 0 && in_table s a b then false
  else begin
    Mutex.lock s.lock;
    let fresh = locked_add s a b in
    Mutex.unlock s.lock;
    fresh
  end

let mem t (fp : Fingerprint.t) =
  let s = shard_of t fp in
  let a = fp.Fingerprint.a and b = fp.Fingerprint.b in
  (a <> 0 && b <> 0 && in_table s a b)
  ||
  (Mutex.lock s.lock;
   let r = if a = 0 && b = 0 then s.zero else in_table s a b in
   Mutex.unlock s.lock;
   r)

(** Iterate over every stored fingerprint, shard by shard under each
    shard's lock. Exact (and stable across calls) only when no domain
    is inserting — the j=1 checkpoint serialization path. Order is the
    internal shard/slot order (the zero fingerprint first in its
    shard): deterministic for a given insertion history, not sorted. *)
let iter (t : t) f =
  Array.iter
    (fun s ->
      Mutex.lock s.lock;
      if s.zero then f { Fingerprint.a = 0; b = 0 };
      let arr = Atomic.get s.slots in
      for i = 0 to slot_mask arr do
        let a = arr.(2 * i) and b = arr.((2 * i) + 1) in
        if a lor b <> 0 then f { Fingerprint.a; b }
      done;
      Mutex.unlock s.lock)
    t.shards

(** Total entries; takes each shard lock in turn, so only exact when
    quiesced. *)
let size (t : t) =
  Array.fold_left
    (fun acc s ->
      Mutex.lock s.lock;
      let n = s.count in
      Mutex.unlock s.lock;
      acc + n)
    0 t.shards

(** Lock-free approximate entry count for live progress gauges: plain
    racy reads of each shard's [count] field. A racy read of a mutable
    [int] returns some previously written value (never garbage), so
    the sum is a momentarily stale but valid undercount — exactly what
    a sampler wants, at zero cost to the inserting domains. *)
let approx_size (t : t) =
  Array.fold_left (fun acc s -> acc + s.count) 0 t.shards

let stats_of ~count (t : t) =
  let nshards = Array.length t.shards in
  let entries = ref 0 and maxo = ref 0 in
  Array.iter
    (fun s ->
      let n = count s in
      entries := !entries + n;
      if n > !maxo then maxo := n)
    t.shards;
  let mean = float_of_int !entries /. float_of_int nshards in
  {
    shards = nshards;
    entries = !entries;
    max_occupancy = !maxo;
    mean_occupancy = mean;
    skew = (if !entries = 0 then 1.0 else float_of_int !maxo /. mean);
  }

(** Racy counterpart of {!stats}, same caveat as {!approx_size} — for
    samplers that must never stall a worker on a shard lock. *)
let approx_stats (t : t) = stats_of ~count:(fun s -> s.count) t

(** Occupancy spread across shards — how well the lane-[b] shard index
    balances the population (for the bench harness; exact only when
    quiesced). *)
let stats (t : t) =
  stats_of
    ~count:(fun s ->
      Mutex.lock s.lock;
      let n = s.count in
      Mutex.unlock s.lock;
      n)
    t

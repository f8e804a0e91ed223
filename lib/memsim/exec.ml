(** The executor: the paper's [Exec_A(C; σ)] function (Section 2).

    A schedule element is a pair [(p, R)] with [R ∈ R ∪ {⊥}] and is
    interpreted against a configuration as follows:

    + if [R ≠ ⊥] and the model currently allows committing [p]'s
      buffered write to [R], the step is that commit;
    + otherwise, if [p] is poised at a [fence()] (or a [cas], which
      carries an implicit barrier) and its buffer is non-empty, the
      step is a {e forced} commit — of the write to the smallest
      buffered register under an unordered (PSO/RMO) buffer, per the
      paper, or of the FIFO head under TSO;
    + otherwise the step is [p]'s next operation (read, write, fence,
      cas or return).

    Under [Sc] a write commits at the write step itself: the element
    yields a write step immediately followed by its commit — two model
    steps in the trace and in the step census (the write and its
    commit), exactly as one buffered write eventually costs two steps
    under TSO/PSO — so buffers are always empty and schedules
    degenerate to process choices.

    Reads are served from the process's own buffer when it holds a
    pending write to the register (store forwarding), from committed
    memory otherwise; only the latter can be remote.

    [Label]s in programs are consumed transparently before dispatch and
    surface as costless {!Step.Note}s.

    Every element touches at most one process's state and possibly
    committed memory; [exec_elt_d] reports which ({!dirty}), so the
    model checker can re-fingerprint only the changed components.
    Steps go through {!Config.step}: one process-map update and one
    metrics update per step, instead of the former
    [set_pstate]/[bump]/[set_pstate] rebuild chain. *)

type elt = Pid.t * Reg.t option

(** Which state-key components executing an element changed: at most
    one process's local state, and possibly committed memory. The
    last-committer table and metrics also change but are not key
    components. [proc = None] means the element was a no-op (and
    [mem] is then [false]). *)
type dirty = { proc : Pid.t option; mem : bool }

let pp_elt ppf ((p, r) : elt) =
  match r with
  | None -> Fmt.pf ppf "(p%a,⊥)" Pid.pp p
  | Some r -> Fmt.pf ppf "(p%a,%a)" Pid.pp p Reg.pp r

(* Preallocated hot-path records: dirty reports are structurally
   determined by (pid, mem-bit), and a store-forwarded read's locality
   is always fully local — share one immutable record per case instead
   of allocating per element. Initialized at module load (before any
   domain spawns); read-only thereafter, so cross-domain sharing is
   safe. *)
let local_loc = Step.locality ~dsm_local:true ~cc_local:true
let dirty_none = { proc = None; mem = false }
let dirty_clean = Array.init 64 (fun p -> { proc = Some p; mem = false })
let dirty_mem = Array.init 64 (fun p -> { proc = Some p; mem = true })

(** The dirty report for process [p]; allocation-free for [p < 64]. *)
let dirty_of p ~mem =
  if p < 64 then if mem then dirty_mem.(p) else dirty_clean.(p)
  else { proc = Some p; mem }

let[@inline] b2i b = if b then 1 else 0

(* Commit the pending write to [r] from [p]'s buffer ([st] is [p]'s
   current state, passed so the dispatcher's lookup is reused).
   [Wbuf.commit] marks entries older than the committed one as
   overtaken — the write-write half of the reorder-budget accounting;
   the flags are invisible to state keys and model semantics. *)
let commit_write cfg p (st : Config.pstate) r =
  match Wbuf.commit st.Config.wb r with
  | None -> Fmt.invalid_arg "Exec.commit_write: no pending write to %d" r
  | Some (v, wb') ->
      let loc = Config.commit_locality cfg p r in
      let c = st.Config.ctr in
      let ctr =
        {
          c with
          Metrics.commits = c.Metrics.commits + 1;
          steps = c.Metrics.steps + 1;
          rmr = c.Metrics.rmr + b2i (Step.is_rmr loc);
          rmr_dsm = c.Metrics.rmr_dsm + b2i (not loc.Step.dsm_local);
          rmr_cc = c.Metrics.rmr_cc + b2i (not loc.Step.cc_local);
        }
      in
      let cfg =
        Config.step cfg p ~commit:(r, v)
          { st with Config.wb = wb'; last_read = None }
          ctr
      in
      (Step.Commit { p; reg = r; value = v; loc }, cfg)

(* The value a read of [r] by [p] would return right now: store
   forwarding from [p]'s own buffer under a buffered model, committed
   memory otherwise. No option or tuple allocated; read steps that also
   need the forwarding flag probe [Wbuf.find_entry] inline. *)
let visible_only cfg (st : Config.pstate) r =
  if cfg.Config.buffered then begin
    let e = Wbuf.find_entry st.Config.wb r in
    if e != Wbuf.no_entry then e.Wbuf.value else Config.read_mem cfg r
  end
  else Config.read_mem cfg r

(* Execute a read of [r] returning [v] served as [from_wbuf] tells
   (the caller already resolved visibility, so the value is computed
   once and the continuation applied at the call site — no per-step
   closure). [prog] is the successor program to install; [wb] the
   buffer to install (the caller's overtake-marked view of [st]'s). *)
let read_step cfg p (st : Config.pstate) ~wb r v from_wbuf ~prog =
  let loc, known =
    if from_wbuf then (local_loc, Config.map_learn st.Config.known r v)
    else Config.read_learn cfg p st r v
  in
  (* the record update, the observation-log append, the buffer install
     and the CC-cache learn are fused into one allocation *)
  let st =
    {
      st with
      Config.prog;
      skipped = Program.post_labels prog;
      known;
      wb;
      last_read = Some (r, v);
      ops = st.Config.ops + 1;
      obs = v :: st.Config.obs;
      obs_len = st.Config.obs_len + 1;
      obs_ha = Keyhash.mix_a st.Config.obs_ha v;
      obs_hb = Keyhash.mix_b st.Config.obs_hb v;
      obs_regs = Config.obs_extend st.Config.obs_regs r v;
    }
  in
  let c = st.Config.ctr in
  let ctr =
    if from_wbuf then
      {
        c with
        Metrics.reads = c.Metrics.reads + 1;
        reads_from_wbuf = c.Metrics.reads_from_wbuf + 1;
        steps = c.Metrics.steps + 1;
      }
    else
      {
        c with
        Metrics.reads = c.Metrics.reads + 1;
        steps = c.Metrics.steps + 1;
        rmr = c.Metrics.rmr + b2i (Step.is_rmr loc);
        rmr_dsm = c.Metrics.rmr_dsm + b2i (not loc.Step.dsm_local);
        rmr_cc = c.Metrics.rmr_cc + b2i (not loc.Step.cc_local);
      }
  in
  (Step.Read { p; reg = r; value = v; from_wbuf; loc }, Config.step cfg p st ctr)

(* Strong read-modify-write primitives (swap, faa): like cas, they act
   on committed memory behind an implicit barrier (the executor forces
   the buffer empty before dispatching here) and charge commit
   locality. Billed to the [rmw] counter — the [cas] counter is for
   cas steps only, so swap/faa-based locks report honest censuses.
   [read] is the committed value (the caller already fetched it to
   build [prog], the successor program continuing on it). *)
let rmw_op cfg p (st : Config.pstate) r ~op ~arg ~read ~prog =
  assert (Wbuf.is_empty st.Config.wb);
  let wrote = match op with `Swap -> arg | `Faa -> read + arg in
  let loc = Config.commit_locality cfg p r in
  let st =
    {
      st with
      Config.prog;
      skipped = Program.post_labels prog;
      known = Config.map_learn (Config.map_learn st.Config.known r read) r wrote;
      last_read = None;
      ops = st.Config.ops + 1;
      obs = read :: st.Config.obs;
      obs_len = st.Config.obs_len + 1;
      obs_ha = Keyhash.mix_a st.Config.obs_ha read;
      obs_hb = Keyhash.mix_b st.Config.obs_hb read;
      obs_regs = Config.obs_extend st.Config.obs_regs r read;
    }
  in
  let c = st.Config.ctr in
  let ctr =
    {
      c with
      Metrics.rmw = c.Metrics.rmw + 1;
      fences = c.Metrics.fences + 1;
      steps = c.Metrics.steps + 1;
      rmr = c.Metrics.rmr + b2i (Step.is_rmr loc);
      rmr_dsm = c.Metrics.rmr_dsm + b2i (not loc.Step.dsm_local);
      rmr_cc = c.Metrics.rmr_cc + b2i (not loc.Step.cc_local);
    }
  in
  let cfg = Config.step cfg p ~commit:(r, wrote) st ctr in
  (Step.Rmw { p; reg = r; op; arg; read; wrote; loc }, cfg)

(* ------------------------------------------------------------------ *)
(* View-based execution (RA/SRA). See DESIGN.md §6f.

   Under a view-based model a schedule element's register slot is
   reinterpreted as a CHOICE INDEX: [(p, ⊥)] is choice 0 and
   [(p, Some k)] the k-th alternative of [p]'s current operation,
   ordered newest-first — choice 0 reads the newest eligible message /
   appends at the log maximum, so the [(p, ⊥)]-only schedules every
   wbuf-unaware caller (run_solo, drain_once, …) produces remain
   meaningful. Reads choose among the messages at or above the
   process's view; RA writes choose an insertion position strictly
   above the writer's view (SRA has the append as its only choice);
   everything else is deterministic (one choice). *)

(* One alternative of the current operation. *)
type vchoice =
  | VDet  (** deterministic op: ret, fence, cas, swap, faa *)
  | VRead of Modlog.msg * int  (** read this message (at this position) *)
  | VSpinRead of Modlog.msg * int  (** productive spin read *)
  | VWriteAt of int  (** insert the write at this log position *)
  | VRound of (Reg.t * Modlog.msg) list
      (** one atomic spinv round: per-register message picks, in
          program order, each eligible under the view as updated by
          the acquires before it *)

(* Acquire message [m] read at [r]: join its base into [view], then
   advance the [r] entry to [m] (sound: eligibility guarantees [m] is
   at or above the view, and a base never contains the message
   itself). *)
let acquire store view (m : Modlog.msg) r =
  View.set (Modlog.join store view m.Modlog.base) r m.Modlog.mid

(* Messages of [r] readable under [view] — positions at or above the
   view entry — newest first. *)
let eligible_msgs store view r =
  let n = Modlog.nmsgs store r in
  let vp = Modlog.view_pos store r view in
  List.init (n - vp) (fun i ->
      let pos = n - 1 - i in
      (Modlog.msg_at store r pos, pos))

(* All executable spinv rounds: per-register picks threaded through
   the acquires (a message eligible against the round's start view may
   be below it once an earlier pick's base joined in), paired with the
   view the round ends on. Newest-first lexicographic in program
   order, so tuple 0 is the all-newest round. *)
let rec round_tuples store view acc = function
  | [] -> [ (List.rev acc, view) ]
  | r :: rest ->
      List.concat_map
        (fun ((m : Modlog.msg), _pos) ->
          round_tuples store (acquire store view m r) ((r, m) :: acc) rest)
        (eligible_msgs store view r)

(** The alternatives of [st]'s current operation (labels already
    skipped), newest-first; [[]] iff the process is final or blocked.
    Spins restrict to {e productive} reads — satisfying, or
    view-advancing, or not a repeat of the last observation — which is
    what makes spinning terminate within a fixed store: each
    unproductive candidate is exactly a re-read the wbuf backend's
    blocked rule would also suppress. *)
let view_choices cfg (st : Config.pstate) : vchoice list =
  let store = Config.store_exn cfg in
  match (st.Config.prog : Program.t) with
  | Program.Done _ -> []
  | Label _ -> assert false
  | Ret _ | Fence _ | Cas _ | Swap _ | Faa _ -> [ VDet ]
  | Read (r, _) ->
      List.map
        (fun (m, pos) -> VRead (m, pos))
        (eligible_msgs store st.Config.view r)
  | Spin (r, pred, _) ->
      let vp = Modlog.view_pos store r st.Config.view in
      List.filter_map
        (fun ((m : Modlog.msg), pos) ->
          if
            pred m.Modlog.value || pos > vp
            || st.Config.last_read <> Some (r, m.Modlog.value)
          then Some (VSpinRead (m, pos))
          else None)
        (eligible_msgs store st.Config.view r)
  | Spinv (regs, prev, pred, _) ->
      (* a round is productive when it satisfies the predicate, is the
         first round, or advances the view — an unproductive round is
         an exact replay of the previous one (same messages, same
         values), the view-backend analogue of the wbuf blocked rule *)
      List.filter_map
        (fun (tuple, view') ->
          let vs =
            List.map (fun (_, (m : Modlog.msg)) -> m.Modlog.value) tuple
          in
          if pred vs || prev = None || not (View.equal view' st.Config.view)
          then Some (VRound tuple)
          else None)
        (round_tuples store st.Config.view [] regs)
  | Write (r, _, _) -> (
      let n = Modlog.nmsgs store r in
      match cfg.Config.model with
      | Memory_model.Sra ->
          (* strong RA: the write must take a timestamp above the
             location's current maximum — append only *)
          [ VWriteAt n ]
      | Memory_model.Ra ->
          (* RA: any position strictly above the writer's own view —
             except directly below an RMW message, which is attached
             to the message it read (RMW atomicity) *)
          let vp = Modlog.view_pos store r st.Config.view in
          List.filter_map
            (fun i ->
              let at = n - i in
              if at < n && (Modlog.msg_at store r at).Modlog.rmw then None
              else Some (VWriteAt at))
            (List.init (n - vp) Fun.id)
      | Sc | Tso | Pso | Rmo -> assert false)

(** Number of alternatives of [p]'s current operation (labels skipped);
    [0] iff final or blocked. The scheduler's draw range. *)
let view_nchoices cfg p =
  let st = Config.pstate cfg p in
  let st =
    if st.Config.prog == st.Config.skipped then st
    else { st with Config.prog = st.Config.skipped }
  in
  List.length (view_choices cfg st)

(* Read message [m] at [r]: acquire its base, observe its value.
   Mirrors {!read_step} (fused single-allocation update); locality is
   the paper's read rule — view reads are never store-forwarded. *)
let view_read_step cfg p (st : Config.pstate) r (m : Modlog.msg) ~prog =
  let store = Config.store_exn cfg in
  let v = m.Modlog.value in
  let loc, known = Config.read_learn cfg p st r v in
  let view = acquire store st.Config.view m r in
  let st =
    {
      st with
      Config.prog;
      skipped = Program.post_labels prog;
      known;
      last_read = Some (r, v);
      ops = st.Config.ops + 1;
      obs = v :: st.Config.obs;
      obs_len = st.Config.obs_len + 1;
      obs_ha = Keyhash.mix_a st.Config.obs_ha v;
      obs_hb = Keyhash.mix_b st.Config.obs_hb v;
      obs_regs = Config.obs_extend st.Config.obs_regs r v;
      view;
    }
  in
  let c = st.Config.ctr in
  let ctr =
    {
      c with
      Metrics.reads = c.Metrics.reads + 1;
      steps = c.Metrics.steps + 1;
      rmr = c.Metrics.rmr + b2i (Step.is_rmr loc);
      rmr_dsm = c.Metrics.rmr_dsm + b2i (not loc.Step.dsm_local);
      rmr_cc = c.Metrics.rmr_cc + b2i (not loc.Step.cc_local);
    }
  in
  let cfg = Config.step cfg p st ctr in
  (Step.Read { p; reg = r; value = v; from_wbuf = false; loc }, cfg)

(* Write [v] to [r] at log position [at], base = the release view.
   Appends are commits: they advance the location's log maximum, so
   committed memory (kept materialized at the maximum) and the
   last-committer table update; an RA mid-log insertion changes
   neither. Either way the store changed, so the step is mem-dirty.
   Commit locality is charged once, like the SC immediate-commit
   write. *)
let view_write_step cfg p (st : Config.pstate) r v ~at ~prog =
  let store = Config.store_exn cfg in
  let appended = at = Modlog.nmsgs store r in
  let loc = Config.commit_locality cfg p r in
  let m, store = Modlog.insert store r ~at ~value:v ~base:st.Config.rel in
  let st =
    {
      st with
      Config.prog;
      skipped = Program.post_labels prog;
      known = Config.map_learn st.Config.known r v;
      last_read = None;
      ops = st.Config.ops + 1;
      view = View.set st.Config.view r m.Modlog.mid;
    }
  in
  let c = st.Config.ctr in
  let ctr =
    {
      c with
      Metrics.writes = c.Metrics.writes + 1;
      steps = c.Metrics.steps + 1;
      rmr = c.Metrics.rmr + b2i (Step.is_rmr loc);
      rmr_dsm = c.Metrics.rmr_dsm + b2i (not loc.Step.dsm_local);
      rmr_cc = c.Metrics.rmr_cc + b2i (not loc.Step.cc_local);
    }
  in
  let cfg =
    Config.step cfg p
      ?commit:(if appended then Some (r, v) else None)
      ~store st ctr
  in
  (Step.Write { p; reg = r; value = v }, cfg)

(* The SC fence: join the process's view into the global fence view
   and adopt the join; the release view catches up. Fences are thereby
   totally ordered (each adopts every earlier one's knowledge), which
   is what collapses fully fenced programs onto SC. *)
let view_fence_step cfg p (st : Config.pstate) ~prog =
  let store = Config.store_exn cfg in
  let view = Modlog.join store st.Config.view (Modlog.sc store) in
  let store = Modlog.with_sc store view in
  let st =
    {
      st with
      Config.prog;
      skipped = Program.post_labels prog;
      last_read = None;
      ops = st.Config.ops + 1;
      view;
      rel = view;
    }
  in
  let c = st.Config.ctr in
  let ctr =
    {
      c with
      Metrics.fences = c.Metrics.fences + 1;
      steps = c.Metrics.steps + 1;
    }
  in
  let cfg = Config.step cfg p ~store st ctr in
  (Step.Fence { p }, cfg)

(* Strong RMW (swap/faa): an SC fence, a read of the location's log
   MAXIMUM, and an append, atomically; the new message's base is the
   full post-read view and both the SC and release views adopt the
   result — an RMW is a release and an acquire. Reading the maximum
   (rather than any eligible message) is the "strong RMW"
   simplification documented in DESIGN.md §6f: it keeps RMW chains
   totally ordered per location, which the mutex algorithms rely on.
   Billing mirrors the wbuf {!rmw_step}: rmw + fence + one step,
   commit locality. *)
let view_rmw_step cfg p (st : Config.pstate) r ~op ~arg ~k =
  let store = Config.store_exn cfg in
  let view = Modlog.join store st.Config.view (Modlog.sc store) in
  let m = Modlog.max_msg store r in
  let read = m.Modlog.value in
  let view = acquire store view m r in
  let wrote = match op with `Swap -> arg | `Faa -> read + arg in
  let loc = Config.commit_locality cfg p r in
  let wm, store =
    Modlog.insert ~rmw:true store r ~at:(Modlog.nmsgs store r) ~value:wrote
      ~base:view
  in
  let view = View.set view r wm.Modlog.mid in
  let store = Modlog.with_sc store view in
  let prog = k read in
  let st =
    {
      st with
      Config.prog;
      skipped = Program.post_labels prog;
      known = Config.map_learn (Config.map_learn st.Config.known r read) r wrote;
      last_read = None;
      ops = st.Config.ops + 1;
      obs = read :: st.Config.obs;
      obs_len = st.Config.obs_len + 1;
      obs_ha = Keyhash.mix_a st.Config.obs_ha read;
      obs_hb = Keyhash.mix_b st.Config.obs_hb read;
      obs_regs = Config.obs_extend st.Config.obs_regs r read;
      view;
      rel = view;
    }
  in
  let c = st.Config.ctr in
  let ctr =
    {
      c with
      Metrics.rmw = c.Metrics.rmw + 1;
      fences = c.Metrics.fences + 1;
      steps = c.Metrics.steps + 1;
      rmr = c.Metrics.rmr + b2i (Step.is_rmr loc);
      rmr_dsm = c.Metrics.rmr_dsm + b2i (not loc.Step.dsm_local);
      rmr_cc = c.Metrics.rmr_cc + b2i (not loc.Step.cc_local);
    }
  in
  let cfg = Config.step cfg p ~commit:(r, wrote) ~store st ctr in
  (Step.Rmw { p; reg = r; op; arg; read; wrote; loc }, cfg)

(* Cas: same barrier + read-the-maximum discipline as {!view_rmw_step};
   on success the update appends and publishes, on failure only the
   read-enriched view is published (the barrier still happened). *)
let view_cas_step cfg p (st : Config.pstate) r ~expect ~update ~k =
  let store = Config.store_exn cfg in
  let view = Modlog.join store st.Config.view (Modlog.sc store) in
  let m = Modlog.max_msg store r in
  let read = m.Modlog.value in
  let view = acquire store view m r in
  let success = read = expect in
  let loc = Config.commit_locality cfg p r in
  let view, store =
    if success then begin
      let wm, store =
        Modlog.insert ~rmw:true store r ~at:(Modlog.nmsgs store r)
          ~value:update ~base:view
      in
      (View.set view r wm.Modlog.mid, store)
    end
    else (view, store)
  in
  let store = Modlog.with_sc store view in
  let ok = b2i success in
  let prog = k success in
  let known = Config.map_learn st.Config.known r read in
  let known = if success then Config.map_learn known r update else known in
  let st =
    {
      st with
      Config.prog;
      skipped = Program.post_labels prog;
      known;
      last_read = None;
      ops = st.Config.ops + 1;
      obs = ok :: read :: st.Config.obs;
      obs_len = st.Config.obs_len + 2;
      obs_ha = Keyhash.mix_a (Keyhash.mix_a st.Config.obs_ha read) ok;
      obs_hb = Keyhash.mix_b (Keyhash.mix_b st.Config.obs_hb read) ok;
      obs_regs =
        Config.obs_extend (Config.obs_extend st.Config.obs_regs r read) r ok;
      view;
      rel = view;
    }
  in
  let c = st.Config.ctr in
  let ctr =
    {
      c with
      Metrics.cas = c.Metrics.cas + 1;
      fences = c.Metrics.fences + 1;
      steps = c.Metrics.steps + 1;
      rmr = c.Metrics.rmr + b2i (Step.is_rmr loc);
      rmr_dsm = c.Metrics.rmr_dsm + b2i (not loc.Step.dsm_local);
      rmr_cc = c.Metrics.rmr_cc + b2i (not loc.Step.cc_local);
    }
  in
  let cfg =
    Config.step cfg p
      ?commit:(if success then Some (r, update) else None)
      ~store st ctr
  in
  (Step.Cas { p; reg = r; expect; update; read; success; loc }, cfg)

(* One atomic spinv round: the per-register reads of [tuple] in
   program order, each acquiring its message's base. Executing the
   round whole is outcome-equivalent to unrolling it into reads (the
   tuple was enumerated against the threaded view), and sidesteps the
   unrolled form's unbounded unproductive interleavings. Bills one
   read step per register. *)
let view_round_step cfg p (st : Config.pstate) regs pred k tuple =
  let store = Config.store_exn cfg in
  let nreads = List.length tuple in
  let steps, st, nrmr, ndsm, ncc =
    List.fold_left
      (fun (steps, st, nrmr, ndsm, ncc) (r, (m : Modlog.msg)) ->
        let v = m.Modlog.value in
        let loc, known = Config.read_learn cfg p st r v in
        let st =
          {
            st with
            Config.known = known;
            obs = v :: st.Config.obs;
            obs_len = st.Config.obs_len + 1;
            obs_ha = Keyhash.mix_a st.Config.obs_ha v;
            obs_hb = Keyhash.mix_b st.Config.obs_hb v;
            obs_regs = Config.obs_extend st.Config.obs_regs r v;
            view = acquire store st.Config.view m r;
          }
        in
        ( Step.Read { p; reg = r; value = v; from_wbuf = false; loc } :: steps,
          st,
          nrmr + b2i (Step.is_rmr loc),
          ndsm + b2i (not loc.Step.dsm_local),
          ncc + b2i (not loc.Step.cc_local) ))
      ([], st, 0, 0, 0) tuple
  in
  let vs = List.map (fun (_, (m : Modlog.msg)) -> m.Modlog.value) tuple in
  let prog =
    if pred vs then k vs else Program.Spinv (regs, Some vs, pred, k)
  in
  let st =
    {
      st with
      Config.prog;
      skipped = Program.post_labels prog;
      last_read = None;
      ops = st.Config.ops + nreads;
    }
  in
  let c = st.Config.ctr in
  let ctr =
    {
      c with
      Metrics.reads = c.Metrics.reads + nreads;
      steps = c.Metrics.steps + nreads;
      rmr = c.Metrics.rmr + nrmr;
      rmr_dsm = c.Metrics.rmr_dsm + ndsm;
      rmr_cc = c.Metrics.rmr_cc + ncc;
    }
  in
  (List.rev steps, Config.step cfg p st ctr)

(* One view-backend step of [p], taking alternative [idx] of its
   current operation (labels already skipped). [None] when there is
   nothing to do — final, or blocked — for [idx = 0]; an out-of-range
   explicit alternative is a schedule bug and raises. *)
let view_op_step cfg p (st : Config.pstate) idx :
    (Step.t list * Config.t * bool) option =
  let choices = view_choices cfg st in
  match List.nth_opt choices idx with
  | None ->
      if idx = 0 then None
      else
        Fmt.invalid_arg "Exec: view choice %d out of range (%d available)" idx
          (List.length choices)
  | Some c -> (
      match ((st.Config.prog : Program.t), c) with
      | Program.Ret v, VDet ->
          let d = Program.Done v in
          let st =
            {
              st with
              Config.prog = d;
              skipped = d;
              last_read = None;
              ops = st.Config.ops + 1;
            }
          in
          let c = st.Config.ctr in
          let ctr =
            {
              c with
              Metrics.returns = c.Metrics.returns + 1;
              steps = c.Metrics.steps + 1;
            }
          in
          Some
            ([ Step.Return { p; value = v } ], Config.step cfg p st ctr, false)
      | Read (r, k), VRead (m, _) ->
          let step, cfg =
            view_read_step cfg p st r m ~prog:(k m.Modlog.value)
          in
          Some ([ step ], cfg, false)
      | Spin (r, pred, k), VSpinRead (m, _) ->
          let prog =
            if pred m.Modlog.value then k m.Modlog.value else st.Config.prog
          in
          let step, cfg = view_read_step cfg p st r m ~prog in
          Some ([ step ], cfg, false)
      | Spinv (regs, _, pred, k), VRound tuple ->
          let steps, cfg = view_round_step cfg p st regs pred k tuple in
          Some (steps, cfg, false)
      | Write (r, v, k), VWriteAt at ->
          let step, cfg = view_write_step cfg p st r v ~at ~prog:(k ()) in
          Some ([ step ], cfg, true)
      | Fence k, VDet ->
          let step, cfg = view_fence_step cfg p st ~prog:(k ()) in
          Some ([ step ], cfg, true)
      | Cas (r, expect, update, k), VDet ->
          let step, cfg = view_cas_step cfg p st r ~expect ~update ~k in
          Some ([ step ], cfg, true)
      | Swap (r, arg, k), VDet ->
          let step, cfg = view_rmw_step cfg p st r ~op:`Swap ~arg ~k in
          Some ([ step ], cfg, true)
      | Faa (r, arg, k), VDet ->
          let step, cfg = view_rmw_step cfg p st r ~op:`Faa ~arg ~k in
          Some ([ step ], cfg, true)
      | _ -> assert false)

(* The return step: the process becomes [Done v]. *)
let ret_op cfg p (st : Config.pstate) ~wb v =
  let d = Program.Done v in
  let st =
    {
      st with
      Config.prog = d;
      skipped = d;
      wb;
      last_read = None;
      ops = st.Config.ops + 1;
    }
  in
  let c = st.Config.ctr in
  let ctr =
    {
      c with
      Metrics.returns = c.Metrics.returns + 1;
      steps = c.Metrics.steps + 1;
    }
  in
  Some ([ Step.Return { p; value = v } ], Config.step cfg p st ctr, false)

(* The write step: buffered models enqueue into [wb] (the caller's
   overtake-marked view of [st]'s buffer); SC commits immediately —
   two model steps (the write and its commit) from one element, as
   the module header promises. *)
let write_op cfg p (st : Config.pstate) ~wb r v ~prog =
  if cfg.Config.buffered then begin
    let wb = Memory_model.buffer_write cfg.Config.model wb r v in
    let st =
      {
        st with
        Config.prog;
        skipped = Program.post_labels prog;
        known = Config.map_learn st.Config.known r v;
        wb;
        last_read = None;
        ops = st.Config.ops + 1;
      }
    in
    let c = st.Config.ctr in
    let ctr =
      {
        c with
        Metrics.writes = c.Metrics.writes + 1;
        steps = c.Metrics.steps + 1;
      }
    in
    Some
      ([ Step.Write { p; reg = r; value = v } ], Config.step cfg p st ctr, false)
  end
  else begin
    (* SC: the write is immediately committed. Commit locality is
       charged (once), so SC algorithms still pay DSM RMRs for writing
       remote registers, as in the classical literature. *)
    let loc = Config.commit_locality cfg p r in
    let st =
      {
        st with
        Config.prog;
        skipped = Program.post_labels prog;
        known = Config.map_learn st.Config.known r v;
        last_read = None;
        ops = st.Config.ops + 1;
      }
    in
    let c = st.Config.ctr in
    let ctr =
      {
        c with
        Metrics.writes = c.Metrics.writes + 1;
        commits = c.Metrics.commits + 1;
        steps = c.Metrics.steps + 2;
        rmr = c.Metrics.rmr + b2i (Step.is_rmr loc);
        rmr_dsm = c.Metrics.rmr_dsm + b2i (not loc.Step.dsm_local);
        rmr_cc = c.Metrics.rmr_cc + b2i (not loc.Step.cc_local);
      }
    in
    Some
      ( [
          Step.Write { p; reg = r; value = v };
          Step.Commit { p; reg = r; value = v; loc };
        ],
        Config.step cfg p ~commit:(r, v) st ctr,
        true )
  end

(* The fence step: the dispatcher already forced the buffer empty. *)
let fence_op cfg p (st : Config.pstate) ~prog =
  assert (Wbuf.is_empty st.Config.wb);
  let st =
    {
      st with
      Config.prog;
      skipped = Program.post_labels prog;
      last_read = None;
      ops = st.Config.ops + 1;
    }
  in
  let c = st.Config.ctr in
  let ctr =
    {
      c with
      Metrics.fences = c.Metrics.fences + 1;
      steps = c.Metrics.steps + 1;
    }
  in
  Some ([ Step.Fence { p } ], Config.step cfg p st ctr, false)

(* The cas step: [read]/[success] precomputed by the caller (it needed
   them to build [prog]), barrier semantics as documented on the
   metrics below. *)
let cas_op cfg p (st : Config.pstate) r ~expect ~update ~read ~success ~prog =
  assert (Wbuf.is_empty st.Config.wb);
  let loc = Config.commit_locality cfg p r in
  let ok = b2i success in
  let known = Config.map_learn st.Config.known r read in
  let known = if success then Config.map_learn known r update else known in
  let st =
    {
      st with
      Config.prog;
      skipped = Program.post_labels prog;
      known;
      last_read = None;
      ops = st.Config.ops + 1;
      obs = ok :: read :: st.Config.obs;
      obs_len = st.Config.obs_len + 2;
      obs_ha = Keyhash.mix_a (Keyhash.mix_a st.Config.obs_ha read) ok;
      obs_hb = Keyhash.mix_b (Keyhash.mix_b st.Config.obs_hb read) ok;
      obs_regs =
        Config.obs_extend (Config.obs_extend st.Config.obs_regs r read) r ok;
    }
  in
  let c = st.Config.ctr in
  let ctr =
    {
      c with
      Metrics.cas = c.Metrics.cas + 1;
      (* a cas carries an implicit full barrier; counting it as a
         fence keeps comparisons with read/write algorithms fair
         and matches the paper's remark that strong primitives
         "also incur significant overhead". *)
      fences = c.Metrics.fences + 1;
      steps = c.Metrics.steps + 1;
      rmr = c.Metrics.rmr + b2i (Step.is_rmr loc);
      rmr_dsm = c.Metrics.rmr_dsm + b2i (not loc.Step.dsm_local);
      rmr_cc = c.Metrics.rmr_cc + b2i (not loc.Step.cc_local);
    }
  in
  let cfg =
    Config.step cfg p
      ?commit:(if success then Some (r, update) else None)
      st ctr
  in
  Some
    ( [ Step.Cas { p; reg = r; expect; update; read; success; loc } ],
      cfg,
      success )

(* One operation step of [p] (labels already skipped; [st] is [p]'s
   current state, [prog = st.prog]). Returns [None] when [p] has no
   step to take: it is final, or blocked on a spin whose register
   still holds the value it last observed. Otherwise the steps
   produced, the successor, and whether committed memory changed. *)
let op_step cfg p (st : Config.pstate) ~wb prog :
    (Step.t list * Config.t * bool) option =
  match (prog : Program.t) with
  | Program.Done _ -> None
  | Label _ -> assert false
  | Ret v -> ret_op cfg p st ~wb v
  | Read (r, k) ->
      let e =
        if cfg.Config.buffered then Wbuf.find_entry st.Config.wb r
        else Wbuf.no_entry
      in
      let fw = e != Wbuf.no_entry in
      let v = if fw then e.Wbuf.value else Config.read_mem cfg r in
      let step, cfg = read_step cfg p st ~wb r v fw ~prog:(k v) in
      Some ([ step ], cfg, false)
  | Spin (r, pred, k) ->
      let e =
        if cfg.Config.buffered then Wbuf.find_entry st.Config.wb r
        else Wbuf.no_entry
      in
      let fw = e != Wbuf.no_entry in
      let v = if fw then e.Wbuf.value else Config.read_mem cfg r in
      if pred v then
        let step, cfg = read_step cfg p st ~wb r v fw ~prog:(k v) in
        Some ([ step ], cfg, false)
      else begin
        match st.Config.last_read with
        | Some (r', v') when Reg.equal r r' && v = v' ->
            (* blocked: the register still holds the value this process
               already observed; a re-read is a cache hit and a no-op *)
            None
        | Some _ | None ->
            (* observe the (new) unsatisfying value: a real read step
               that leaves the process poised at the same spin *)
            let step, cfg = read_step cfg p st ~wb r v fw ~prog in
            Some ([ step ], cfg, false)
      end
  | Spinv (regs, prev, pred, k) ->
      let visible = List.map (fun r -> visible_only cfg st r) regs in
      if prev = Some visible then None (* blocked: a round would replay *)
      else begin
        (* unroll one round into ordinary fine-grained reads; execute
           the first of them now *)
        let rec round acc = function
          | [] ->
              let vs = List.rev acc in
              if pred vs then k vs else Program.Spinv (regs, Some vs, pred, k)
          | r :: rest -> Program.Read (r, fun v -> round (v :: acc) rest)
        in
        match round [] regs with
        | Program.Read (r, k') ->
            let e =
              if cfg.Config.buffered then Wbuf.find_entry st.Config.wb r
              else Wbuf.no_entry
            in
            let fw = e != Wbuf.no_entry in
            let v = if fw then e.Wbuf.value else Config.read_mem cfg r in
            let step, cfg = read_step cfg p st ~wb r v fw ~prog:(k' v) in
            Some ([ step ], cfg, false)
        | _ -> invalid_arg "Exec: Spinv over no registers"
      end
  | Write (r, v, k) -> write_op cfg p st ~wb r v ~prog:(k ())
  | Fence k -> fence_op cfg p st ~prog:(k ())
  | Cas (r, expect, update, k) ->
      let read = Config.read_mem cfg r in
      let success = read = expect in
      cas_op cfg p st r ~expect ~update ~read ~success ~prog:(k success)
  | Swap (r, arg, k) ->
      let read = Config.read_mem cfg r in
      let step, cfg = rmw_op cfg p st r ~op:`Swap ~arg ~read ~prog:(k read) in
      Some ([ step ], cfg, true)
  | Faa (r, arg, k) ->
      let read = Config.read_mem cfg r in
      let step, cfg = rmw_op cfg p st r ~op:`Faa ~arg ~read ~prog:(k read) in
      Some ([ step ], cfg, true)

(* Skip labels of [p], collecting costless note steps. Fast-pathed: no
   closure or ref is allocated unless [p] is actually poised at a
   label — [prog == skipped] is an exact pending-label test, since
   [Program.post_labels] returns its argument physically when there is
   nothing to skip. The walk below is for note emission only; the
   installed program is the cached [skipped], so continuations past a
   label are never re-forced here. *)
let consume_labels cfg p =
  let st = Config.pstate cfg p in
  if st.Config.prog == st.Config.skipped then ([], st, cfg)
  else begin
    let notes = ref [] in
    ignore
      (Program.skip_labels
         ~emit:(fun s -> notes := Step.Note { p; text = s } :: !notes)
         st.Config.prog);
    let st = { st with Config.prog = st.Config.skipped } in
    (List.rev !notes, st, Config.set_pstate cfg p st)
  end

(** Consume pending labels of every process, returning the notes and
    the processes whose state changed. The model checker normalizes
    states this way so that annotation boundaries never split
    semantically identical states; the dirtied-process list lets it
    carry fingerprints across the normalization. *)
let flush_labels_d cfg : Step.t list * Config.t * Pid.t list =
  (* The label mask makes the dominant no-label case O(1) and lets the
     general case probe only processes whose (exact, for p < 62) bit is
     set. *)
  if cfg.Config.label_mask = 0 then ([], cfg, [])
  else
    let n = Config.nprocs cfg in
    let rec go p acc dirtied cfg =
      if p >= n then (List.rev acc, cfg, List.rev dirtied)
      else if
        p < 62 && cfg.Config.label_mask land (1 lsl p) = 0
      then go (p + 1) acc dirtied cfg
      else
        let notes, _, cfg = consume_labels cfg p in
        go (p + 1)
          (List.rev_append notes acc)
          (if notes <> [] then p :: dirtied else dirtied)
          cfg
    in
    go 0 [] [] cfg

let flush_labels cfg : Step.t list * Config.t =
  let notes, cfg, _ = flush_labels_d cfg in
  (notes, cfg)

(** Whether [p] must commit before doing anything else: poised at a
    fence (or cas) with a non-empty buffer. *)
let forced_commit_pending cfg p =
  let st = Config.pstate cfg p in
  (not (Wbuf.is_empty st.Config.wb))
  &&
  match Program.next_kind st.Config.skipped with
  | Program.Op_fence | Program.Op_cas -> true
  | Op_read | Op_write | Op_spin | Op_return _ | Op_done -> false

(** Execute one schedule element, reporting the steps produced, the
    successor configuration and the dirtied key components.

    Hot-loop audit note: the [notes @ steps] / [notes @ [step]]
    appends below are {e not} the quadratic accumulation pattern fixed
    in {!Scheduler.sequential} — [notes] is the pending-label list of
    one process at one program point, bounded by the longest run of
    consecutive [label]s in the program text (a small constant; labels
    never accumulate across elements because every path through this
    function consumes them). The per-element cost is O(|notes| +
    |steps|), both O(1)-ish; callers that accumulate whole traces
    ({!exec}, the schedulers, the explorers) all use rev-append with a
    single final reverse. *)
(* No-op element result: notes only (static helpers, so the hot path
   allocates no closures). *)
let elt_noop notes cfg p =
  (notes, cfg, match notes with [] -> dirty_none | _ :: _ -> dirty_of p ~mem:false)

(* Commit element result: commits are system steps — they remain
   possible even after the process reached its final state with a
   non-empty buffer (only programs that fence before returning are
   guaranteed an empty buffer at return, and our ablations deliberately
   break that). *)
let elt_commit notes cfg p st r =
  let step, cfg = commit_write cfg p st r in
  (notes @ [ step ], cfg, dirty_of p ~mem:true)

let exec_elt_d cfg ((p, r) : elt) : Step.t list * Config.t * dirty =
  let notes, st, cfg = consume_labels cfg p in
  if cfg.Config.view_based then begin
    (* view backend: the register slot is a choice index (see the view
       section header); there are no commits or buffers to overtake *)
    let idx = match r with None -> 0 | Some k -> k in
    match view_op_step cfg p st idx with
    | None -> elt_noop notes cfg p
    | Some (steps, cfg, mem_dirty) ->
        (notes @ steps, cfg, dirty_of p ~mem:mem_dirty)
  end
  else
  let prog = st.Config.prog in
  let wb = st.Config.wb in
  match r with
  | Some r when Memory_model.may_commit cfg.Config.model wb r ->
      elt_commit notes cfg p st r
  | Some _ | None -> (
      if Program.is_done prog then elt_noop notes cfg p
      else
        let forced =
          match Program.next_kind prog with
          | Program.Op_fence | Program.Op_cas ->
              if Wbuf.is_empty wb then None
              else Memory_model.forced_commit_reg cfg.Config.model wb
          | Op_read | Op_write | Op_spin | Op_return _ | Op_done -> None
        in
        match forced with
        | Some r -> elt_commit notes cfg p st r
        | None -> (
            (* The op is about to execute while [p]'s buffered writes
               are still uncommitted: mark them overtaken (the
               write→op half of the reorder-budget accounting — under
               SC those writes would already have committed). The
               marked buffer is threaded into [op_step]'s fused record
               builds — no intermediate pstate copy — and a blocked op
               returns [None] below, discarding the marking, so no-ops
               never charge. No-op when the buffer is empty or already
               fully marked. *)
            let owb = if Wbuf.is_empty wb then wb else Wbuf.overtake_all wb in
            match op_step cfg p st ~wb:owb prog with
            | None -> elt_noop notes cfg p
            | Some (steps, cfg, mem_dirty) ->
                (notes @ steps, cfg, dirty_of p ~mem:mem_dirty)))

(** Execute one schedule element. Returns the steps it produced (empty
    when the element is a no-op, e.g. names a finished process) and the
    successor configuration. *)
let exec_elt cfg (e : elt) : Step.t list * Config.t =
  let steps, cfg, _ = exec_elt_d cfg e in
  (steps, cfg)

(** Run a whole schedule, accumulating the trace. *)
let exec cfg (sched : elt list) : Step.t list * Config.t =
  let rec go acc cfg = function
    | [] -> (List.rev acc, cfg)
    | e :: rest ->
        let steps, cfg = exec_elt cfg e in
        go (List.rev_append steps acc) cfg rest
  in
  go [] cfg sched

(** All schedule elements that would produce a step for [p] right now:
    the op element plus one commit element per committable register. *)
let enabled_elts cfg p : elt list =
  if Config.is_final cfg p then []
  else if cfg.Config.view_based then
    (* one element per alternative of the current op, newest-first;
       empty when blocked. Choice indices reuse the preallocated
       element tables; an index beyond [nregs] (deep modification
       logs) allocates. *)
    let elts = cfg.Config.commit_elts.(p) in
    let nregs = Array.length elts in
    List.init (view_nchoices cfg p) (fun i ->
        if i = 0 then cfg.Config.op_elts.(p)
        else if i < nregs then elts.(i)
        else (p, Some i))
  else
    let commits =
      Memory_model.commit_candidates cfg.Config.model (Config.wbuf cfg p)
      |> List.map (fun r -> cfg.Config.commit_elts.(p).(r))
    in
    cfg.Config.op_elts.(p) :: commits

(** Run process [p] alone until it reaches a final state, with forced
    commits at fences per the executor rule. Returns [Some (steps,
    config)] on termination, [None] if [p] blocks (a spin that no solo
    schedule can satisfy — its own commits cannot change what it sees,
    thanks to store forwarding) or exceeds [fuel].

    This implements the decoder's side condition "[p] enters a final
    state in every [p]-only execution from [C]": with spins primitive,
    solo termination is independent of the solo schedule chosen, so
    running the canonical one decides it. *)
let run_solo ?(fuel = 1_000_000) cfg p : (Step.t list * Config.t) option =
  let rec go acc fuel cfg =
    if Config.is_final cfg p then Some (List.rev acc, cfg)
    else if fuel <= 0 then None
    else
      let steps, cfg' = exec_elt cfg (p, None) in
      if List.exists Step.is_model_step steps then
        go (List.rev_append steps acc) (fuel - 1) cfg'
      else if Config.is_final cfg' p then Some (List.rev acc, cfg')
      else None (* blocked on a spin: no solo schedule can unblock it *)
  in
  go [] fuel cfg

(** Does [p] terminate when run alone from [cfg]? *)
let terminates_solo ?fuel cfg p = Option.is_some (run_solo ?fuel cfg p)

(** Is [p] currently blocked: not final, poised at a spin whose register
    still holds the unsatisfying value [p] already observed, with no
    forced commit pending? A blocked process's [(p, ⊥)] element is a
    no-op until someone commits to the spun-on register. *)
let blocked cfg (st : Config.pstate) =
  if cfg.Config.view_based then
    (not (Program.is_done st.Config.skipped))
    && view_choices cfg
         (if st.Config.prog == st.Config.skipped then st
          else { st with Config.prog = st.Config.skipped })
       = []
  else
    (* dispatch on the cached post-label program directly; the spin
       probes below read only [wb]/[last_read], which labels don't touch *)
    match (st.Config.skipped : Program.t) with
    | Program.Spin (r, pred, _) -> (
        let v = visible_only cfg st r in
        (not (pred v))
        &&
        match st.Config.last_read with
        | Some (r', v') -> Reg.equal r r' && v = v'
        | None -> false)
    | Program.Spinv (regs, prev, _, _) ->
        prev = Some (List.map (fun r -> visible_only cfg st r) regs)
    | Done _ | Ret _ | Read _ | Write _ | Fence _ | Cas _ | Swap _ | Faa _
    | Label _ -> false

let is_blocked cfg p = blocked cfg (Config.pstate cfg p)

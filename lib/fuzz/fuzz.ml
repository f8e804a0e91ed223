(** [Fuzz] — differential fuzzing of programs, models and engines.

    Facade over the subsystem's pieces:

    - {!Gen}: deterministic, seed-driven program generation over the
      full [Program.t] grammar;
    - {!Oracle}: the differential oracles (model nesting across the
      buffered and view-based halves of the zoo, engine parity, fence
      saturation, random-schedule soundness, bounded saturation);
    - {!Reference}: the exact reference explorer — a breadth-first
      search over structural keys with no hash lanes — that engine
      parity, here and in the test suites, checks [Mc] against;
    - {!Shrink}: size-directed minimization of violating programs;
    - {!Render}: litmus renderings and replayable artifacts.

    {!run} drives a whole campaign: programs [seed, seed+1, ...,
    seed+count-1] through all the oracles, shrinking every violation
    to a minimal counterexample. Fully deterministic for a fixed seed
    and configuration — same programs, same outcome sets, same summary
    line — which is what makes any failure a permanent regression
    case. *)

module Gen = Gen
module Shrink = Shrink
module Oracle = Oracle
module Render = Render
module Reference = Reference

type finding = {
  violation : Oracle.violation;
  shrunk : Gen.t;
  artifact : string;
}

type summary = {
  seed : int;
  count : int;
  checked : int;  (** programs with every oracle fully evaluated *)
  skipped : (int * string) list;  (** (seed, reason) for truncated runs *)
  findings : finding list;
}

let pp_summary ppf s =
  Fmt.pf ppf "fuzz: seed=%d count=%d checked=%d skipped=%d violations=%d: %s"
    s.seed s.count s.checked
    (List.length s.skipped)
    (List.length s.findings)
    (match s.findings with
    | [] -> "OK"
    | f :: _ -> Fmt.str "FAIL (first: %s)" f.violation.Oracle.oracle)

(* Shrink preserving the violated oracle family (the tag up to ':'),
   so e.g. a nesting violation stays a nesting violation while the
   program shrinks, even if the exact model pair shifts. *)
let oracle_family tag =
  match String.index_opt tag ':' with
  | Some i -> String.sub tag 0 (i + 1)
  | None -> tag

let shrink_finding ?(config = Oracle.default_config) (v : Oracle.violation) :
    finding =
  let prefix = oracle_family v.Oracle.oracle in
  let shrunk =
    Shrink.minimize
      ~still_failing:(Oracle.still_violates ~config ~oracle_prefix:prefix)
      v.Oracle.prog
  in
  { violation = v; shrunk; artifact = Render.artifact v ~shrunk }

let run ?tel ?(config = Oracle.default_config) ?(params = Gen.default_params)
    ?on_program ~seed ~count () : summary =
  (* Campaign telemetry: the loop is sequential, so every bump lands on
     worker slot 0. "programs" is the sampler's primary rate counter
     (programs/s); the rest split it by oracle outcome. With no hub
     supplied the bumps go to a private, unread hub — plain int adds. *)
  let tel =
    match tel with Some h -> h | None -> Telemetry.Hub.create ~workers:1 ()
  in
  let c_programs = Telemetry.Hub.counter tel "programs" in
  let c_checked = Telemetry.Hub.counter tel "checked" in
  let c_skipped = Telemetry.Hub.counter tel "skipped" in
  let c_violations = Telemetry.Hub.counter tel "violations" in
  let checked = ref 0 in
  let skipped = ref [] in
  let findings = ref [] in
  for i = 0 to count - 1 do
    let s = seed + i in
    let prog = Gen.generate ~seed:s params in
    Telemetry.Cells.incr c_programs ~worker:0;
    (match Oracle.check ~config prog with
    | Oracle.Ok ->
        incr checked;
        Telemetry.Cells.incr c_checked ~worker:0
    | Oracle.Skipped reason ->
        skipped := (s, reason) :: !skipped;
        Telemetry.Cells.incr c_skipped ~worker:0
    | Oracle.Violation v ->
        findings := shrink_finding ~config v :: !findings;
        Telemetry.Cells.incr c_violations ~worker:0);
    match on_program with Some f -> f i | None -> ()
  done;
  {
    seed;
    count;
    checked = !checked;
    skipped = List.rev !skipped;
    findings = List.rev !findings;
  }

(* GC pauses read from the runtime's own runtime_events ring: every
   outermost minor collection or major slice, on any domain, is one
   pause. A systhread (not a domain) drains the ring every 10 ms while
   a window is open, so the ring never wraps under a busy mutator.

   The runtime creates the ring file in $OCAML_RUNTIME_EVENTS_DIR
   (run.py points it at a git-ignored directory) or else in the
   current directory, and removes it when the process exits. *)

let is_pause : Runtime_events.runtime_phase -> bool = function
  | EV_MINOR | EV_MAJOR_SLICE | EV_MAJOR | EV_EXPLICIT_GC_MINOR
  | EV_EXPLICIT_GC_MAJOR | EV_EXPLICIT_GC_MAJOR_SLICE
  | EV_EXPLICIT_GC_FULL_MAJOR | EV_EXPLICIT_GC_COMPACT ->
      true
  | _ -> false

type totals = { pauses : int; total_ns : int; max_ns : int; lost : int }

let max_rings = 128
let depth = Array.make max_rings 0
let began = Array.make max_rings 0
let acc = ref { pauses = 0; total_ns = 0; max_ns = 0; lost = 0 }
let ts t = Int64.to_int (Runtime_events.Timestamp.to_int64 t)

let callbacks =
  Runtime_events.Callbacks.create
    ~runtime_begin:(fun ring t phase ->
      if is_pause phase && ring < max_rings then begin
        if depth.(ring) = 0 then began.(ring) <- ts t;
        depth.(ring) <- depth.(ring) + 1
      end)
    ~runtime_end:(fun ring t phase ->
      if is_pause phase && ring < max_rings && depth.(ring) > 0 then begin
        depth.(ring) <- depth.(ring) - 1;
        if depth.(ring) = 0 then begin
          let d = ts t - began.(ring) in
          let a = !acc in
          acc :=
            {
              a with
              pauses = a.pauses + 1;
              total_ns = a.total_ns + d;
              max_ns = max a.max_ns d;
            }
        end
      end)
    ~lost_events:(fun _ring n -> acc := { !acc with lost = !acc.lost + n })
    ()

let cursor = lazy (Runtime_events.start (); Runtime_events.create_cursor None)
let poll () = ignore (Runtime_events.read_poll (Lazy.force cursor) callbacks None)

(* [measure f] runs [f ()] and returns its result with the pauses that
   began and ended while it ran. *)
let measure f =
  poll ();
  Array.fill depth 0 max_rings 0;
  acc := { pauses = 0; total_ns = 0; max_ns = 0; lost = 0 };
  let stop = Atomic.make false in
  let poller =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          poll ();
          Thread.delay 0.01
        done)
      ()
  in
  let finish () =
    Atomic.set stop true;
    Thread.join poller;
    poll ()
  in
  let r = Fun.protect ~finally:finish f in
  (r, !acc)

(* Spans recorded from the benchmark's own code around calls into the
   library's layers. Every span feeds its layer's aggregate (calls,
   nanoseconds, minor words). The spans under every [sample_every]-th
   parent, and every coarse [span], are also kept whole — layer, start,
   end, parent — in a preallocated in-memory buffer that [write] dumps
   as NDJSON once the traced pass is over. Nothing is written while a
   pass runs. *)

(* CLOCK_MONOTONIC via bechamel's stub: unboxed and allocation-free. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

type layer = {
  name : string;
  id : int;
  mutable calls : int;
  mutable ns : int;
  mutable words : int;  (** minor words, where the call site measures them *)
}

let registry : layer list ref = ref []

let layer name =
  let l = { name; id = List.length !registry; calls = 0; ns = 0; words = 0 } in
  registry := !registry @ [ l ];
  l

let reset () =
  List.iter
    (fun l ->
      l.calls <- 0;
      l.ns <- 0;
      l.words <- 0)
    !registry

(* Whole spans: four ints each (layer id, start, end, parent index). *)
let capacity = 1 lsl 18
let buf = Array.make (4 * capacity) 0
let used = ref 0
let sampling = ref false
let parent = ref (-1)
let sample_every = 1024

let record id t0 t1 par =
  if !used < capacity then begin
    let i = 4 * !used in
    buf.(i) <- id;
    buf.(i + 1) <- t0;
    buf.(i + 2) <- t1;
    buf.(i + 3) <- par;
    incr used
  end

let[@inline] stop l t0 =
  let t1 = now_ns () in
  l.calls <- l.calls + 1;
  l.ns <- l.ns + (t1 - t0);
  if !sampling then record l.id t0 t1 !parent

(* [stop] for call sites that also count minor words allocated. *)
let[@inline] stop_words l t0 w0 =
  l.words <- l.words + int_of_float (Gc.minor_words () -. w0);
  stop l t0

(* Open a sampled parent span on every [sample_every]-th call, with
   [n] the caller's running count; its children are recorded until
   [close_parent]. *)
let open_parent l n =
  if n land (sample_every - 1) = 0 && !used < capacity then begin
    parent := !used;
    record l.id (now_ns ()) 0 (-1);
    sampling := true
  end

let close_parent () =
  if !sampling then begin
    buf.((4 * !parent) + 2) <- now_ns ();
    sampling := false;
    parent := -1
  end

(* Time [f ()] as one whole span with no parent — for coarse calls
   (an oracle call, a whole check), each of which is kept. *)
let span l f =
  let t0 = now_ns () in
  let r = f () in
  let t1 = now_ns () in
  l.calls <- l.calls + 1;
  l.ns <- l.ns + (t1 - t0);
  record l.id t0 t1 (-1);
  r

let write path =
  let names = Array.of_list (List.map (fun l -> l.name) !registry) in
  let oc = open_out path in
  for s = 0 to !used - 1 do
    let i = 4 * s in
    Printf.fprintf oc
      "{\"span\":%d,\"layer\":%S,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d}\n"
      s names.(buf.(i)) buf.(i + 1) buf.(i + 2) buf.(i + 3)
  done;
  close_out oc;
  used := 0

(** Machine-speed calibration.

    The benchmark runs on shared hosts whose load swings the speed of
    the same code by 20% and more, over seconds to minutes.  A fixed
    kernel, run in short slices right after each unit of measured work,
    tracks that swing: over suite passes whose compiles took 5.6 s to
    8.1 s, the ratio of compile time to kernel time stayed within 2%.
    Every timing the benchmark reports is therefore scaled by {!factor}
    — reference kernel time over the kernel time measured next to that
    work — which expresses it in time on a machine running at the
    reference speed.  The kernel is the benchmark's own code, so no
    change to the program under test can move it.

    The kernel mixes random reads and writes over a 2 MB table (cache
    and memory bound, like the compiler's hash tables) with sorting
    short-lived lists (allocation bound, like its IR rewriting).  The
    table is allocated once, so a slice allocates only minor-heap words
    and its cost does not depend on the program's major heap. *)

let table = Array.make 262_144 0

(* One slice on an unloaded 2-vCPU Xeon host; only the scale of the
   reported timings depends on this constant. *)
let reference_s = 0.0125

let slice () =
  let t0 = Unix.gettimeofday () in
  let h = ref 0x2545F491 in
  for i = 0 to 700_000 do
    h := ((!h * 1103515245) + 12345) land 0x3FFFFFFF;
    let j = !h land 262_143 in
    table.(j) <- table.(j) + i;
    if i land 1023 = 0 then
      ignore
        (Sys.opaque_identity
           (List.sort compare (List.init 256 (fun k -> (k * !h) land 1023))))
  done;
  Unix.gettimeofday () -. t0

(** Slices measured around one unit of work. *)
type t = { mutable total_s : float; mutable slices : int }

let create () = { total_s = 0.; slices = 0 }

(** Run one slice, inside a ["calibration"] span when tracing. *)
let add t =
  let s = Trace.with_span "calibration" slice in
  t.total_s <- t.total_s +. s;
  t.slices <- t.slices + 1

(** Run slices for at least 15% of [work_s], and at least one, so the
    calibration weighs each unit of work by its length. *)
let add_for t ~work_s =
  let start = t.total_s in
  add t;
  while t.total_s -. start < 0.15 *. work_s do
    add t
  done

(** Multiply a time measured alongside [t]'s slices by this (divide a
    rate by it).  1 when no slice ran. *)
let factor t =
  if t.slices = 0 then 1. else reference_s /. (t.total_s /. float_of_int t.slices)

(** All the slices of [ts] together, for one factor over a whole run. *)
let merge ts =
  List.fold_left
    (fun acc t ->
      acc.total_s <- acc.total_s +. t.total_s;
      acc.slices <- acc.slices + t.slices;
      acc)
    (create ()) ts

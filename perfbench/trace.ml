(** The benchmark's own span recorder.

    Spans are opened around calls into the program's layers, kept in
    memory, and written out once when the run ends.  Recording is off
    unless [enabled] is set, and then costs one clock read and one
    [Gc.minor_words] call at each end of a span.  A span's self time (and
    self allocation) is its own minus what its direct children cover;
    spans opened with {!with_span} nest strictly on the calling domain,
    so the children never overlap. *)

type span = {
  id : int;
  parent : int;  (** [-1] for a root *)
  name : string;
  key : int;  (** the compile or request this span belongs to *)
  start_s : float;
  stop_s : float;
  alloc_w : float;  (** minor-heap words allocated on this domain while open *)
}

let enabled = ref false
let spans : span list ref = ref []
let next_id = ref 0

(* open spans, innermost first: (id, key) *)
let open_stack : (int * int) list ref = ref []

(* Minor-heap words only.  Adding the words allocated straight into the
   major heap made the count differ by up to 0.5% between identical
   runs (that counter moves with the GC's progress), while minor words
   repeat exactly, which is what lets a later change gate on them. *)
let allocated_words () = Gc.minor_words ()

let fresh_id () =
  let id = !next_id in
  incr next_id;
  id

(** Record a span whose start and stop the caller measured: requests
    that overlap on two connections, or the segments gdpcd reports.
    Returns its id. *)
let record ?(parent = -1) ~key name ~start_s ~stop_s =
  let id = fresh_id () in
  spans := { id; parent; name; key; start_s; stop_s; alloc_w = 0. } :: !spans;
  id

(** [with_span ?key name f] runs [f] inside a span.  [key] defaults to
    the enclosing span's. *)
let with_span ?key name f =
  if not !enabled then f ()
  else begin
    let parent, inherited =
      match !open_stack with (p, k) :: _ -> (p, k) | [] -> (-1, -1)
    in
    let key = Option.value key ~default:inherited in
    let id = fresh_id () in
    open_stack := (id, key) :: !open_stack;
    let a0 = allocated_words () in
    let t0 = Unix.gettimeofday () in
    let close () =
      let stop_s = Unix.gettimeofday () in
      let alloc_w = allocated_words () -. a0 in
      open_stack := List.tl !open_stack;
      spans :=
        { id; parent; name; key; start_s = t0; stop_s; alloc_w } :: !spans
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

(** Self time (s) and self allocation (words) summed per span name. *)
let self_totals () : (string, float * float) Hashtbl.t =
  let covered = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then begin
        let t, w =
          Option.value (Hashtbl.find_opt covered s.parent) ~default:(0., 0.)
        in
        Hashtbl.replace covered s.parent
          (t +. (s.stop_s -. s.start_s), w +. s.alloc_w)
      end)
    !spans;
  let totals = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let ct, cw = Option.value (Hashtbl.find_opt covered s.id) ~default:(0., 0.) in
      let t, w = Option.value (Hashtbl.find_opt totals s.name) ~default:(0., 0.) in
      Hashtbl.replace totals s.name
        (t +. (s.stop_s -. s.start_s -. ct), w +. (s.alloc_w -. cw)))
    !spans;
  totals

(** Write every recorded span, oldest first, one JSON object a line. *)
let write path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          output_string oc
            (Minijson.encode
               (Minijson.obj
                  [
                    ("id", Minijson.int s.id);
                    ("parent", Minijson.int s.parent);
                    ("name", Minijson.str s.name);
                    ("key", Minijson.int s.key);
                    ("start_s", Minijson.float s.start_s);
                    ("stop_s", Minijson.float s.stop_s);
                    ("alloc_w", Minijson.float s.alloc_w);
                  ]));
          output_char oc '\n')
        (List.rev !spans))

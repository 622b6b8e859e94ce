(* In-memory span store for the traced replay.

   A span is one timed call into a layer: its name, the statement it
   belongs to, the span that caused it, and its start and end on the
   store's clock. Spans are recorded into a growable array and nothing
   is written until {!write}, which may run once, after the run. *)

type span = {
  name : string;
  stmt : int;
  parent : int;  (* index of the enclosing span, -1 for a statement root *)
  start : float;
  mutable stop : float;  (* nan while open *)
}

type t = {
  clock : unit -> float;
  mutable buf : span array;
  mutable len : int;
  mutable open_ : int list;  (* innermost first *)
  mutable written : bool;
}

let dummy = { name = ""; stmt = -1; parent = -1; start = nan; stop = nan }

(* Seconds on the kernel's monotonic clock, read to the nanosecond: many
   layer calls take a few microseconds, and a gettimeofday clock would
   round them to whole microseconds, so that their medians would repeat
   exactly from run to run. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let create ?(clock = now) () =
  { clock; buf = Array.make 1024 dummy; len = 0; open_ = []; written = false }

let length t = t.len
let get t i = t.buf.(i)

let enter t ~stmt name =
  if t.written then invalid_arg "Spans.enter: store already written";
  let parent = match t.open_ with p :: _ -> p | [] -> -1 in
  if t.len = Array.length t.buf then begin
    let nb = Array.make (2 * t.len) dummy in
    Array.blit t.buf 0 nb 0 t.len;
    t.buf <- nb
  end;
  let id = t.len in
  t.buf.(id) <- { name; stmt; parent; start = t.clock (); stop = nan };
  t.len <- id + 1;
  t.open_ <- id :: t.open_;
  id

let leave t id =
  match t.open_ with
  | top :: rest when top = id ->
    t.buf.(id).stop <- t.clock ();
    t.open_ <- rest
  | _ -> invalid_arg "Spans.leave: not the innermost open span"

(* Time [f] as a span, closing it on the exceptional path too. *)
let record t ~stmt name f =
  let id = enter t ~stmt name in
  match f () with
  | v ->
    leave t id;
    v
  | exception e ->
    leave t id;
    raise e

let duration s = s.stop -. s.start

let children_index t =
  let idx = Array.make t.len [] in
  for i = t.len - 1 downto 0 do
    let p = t.buf.(i).parent in
    if p >= 0 then idx.(p) <- i :: idx.(p)
  done;
  idx

(* A span's duration minus the part of its interval that its children
   cover (overlapping children are counted once). *)
let self_time_with t idx id =
  let p = t.buf.(id) in
  let pieces =
    List.filter_map
      (fun c ->
        let c = t.buf.(c) in
        let a = Float.max c.start p.start and b = Float.min c.stop p.stop in
        if b > a then Some (a, b) else None)
      idx.(id)
    |> List.sort compare
  in
  let covered, _ =
    List.fold_left
      (fun (acc, hi) (a, b) ->
        let a = Float.max a hi in
        if b > a then (acc +. (b -. a), b) else (acc, hi))
      (0.0, neg_infinity) pieces
  in
  duration p -. covered

let self_time t id = self_time_with t (children_index t) id

(* Structural check of a finished store: every span closed, every child
   inside its parent's interval and of the same statement, and the
   children of a span together no longer than the span itself. *)
let check t : (unit, string) result =
  if t.open_ <> [] then Error "spans still open"
  else
    let idx = children_index t in
    let bad = ref None in
    for i = 0 to t.len - 1 do
      let s = t.buf.(i) in
      if !bad = None then
        if Float.is_nan s.stop || s.stop < s.start then
          bad := Some (Printf.sprintf "span %d (%s) has no valid end" i s.name)
        else begin
          (if s.parent >= 0 then
             let p = t.buf.(s.parent) in
             if s.start < p.start || s.stop > p.stop || s.stmt <> p.stmt then
               bad :=
                 Some
                   (Printf.sprintf "span %d (%s) escapes its parent %d (%s)" i
                      s.name s.parent p.name));
          let kids =
            List.fold_left (fun acc c -> acc +. duration t.buf.(c)) 0.0 idx.(i)
          in
          if !bad = None && kids > duration s then
            bad :=
              Some
                (Printf.sprintf
                   "children of span %d (%s) take %.3f us, more than its %.3f us"
                   i s.name (kids *. 1e6)
                   (duration s *. 1e6))
        end
    done;
    match !bad with None -> Ok () | Some m -> Error m

(* Write every span as one tab-separated line (times in microseconds
   from the first span). Allowed once: recording stops here. *)
let write t oc =
  if t.written then invalid_arg "Spans.write: already written";
  t.written <- true;
  let idx = children_index t in
  let t0 = if t.len > 0 then t.buf.(0).start else 0.0 in
  output_string oc "id\tstmt\tparent\tname\tstart_us\tdur_us\tself_us\n";
  for i = 0 to t.len - 1 do
    let s = t.buf.(i) in
    Printf.fprintf oc "%d\t%d\t%d\t%s\t%.3f\t%.3f\t%.3f\n" i s.stmt s.parent
      s.name
      ((s.start -. t0) *. 1e6)
      (duration s *. 1e6)
      (self_time_with t idx i *. 1e6)
  done

(* Durations (seconds) of every span called [name], in record order. *)
let durations t name =
  let acc = ref [] in
  for i = t.len - 1 downto 0 do
    let s = t.buf.(i) in
    if s.name = name then acc := duration s :: !acc
  done;
  Array.of_list !acc

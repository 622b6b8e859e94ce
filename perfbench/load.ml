(* The load generator: open- and closed-loop senders over an abstract
   per-connection [exec] function, so tests can drive them against a
   stub server.

   Open loop: each connection sends its statements at their scheduled
   times whatever the server does; a statement whose turn comes while
   the previous one is still outstanding is sent as soon as the reply
   arrives. Latency always runs from the scheduled time, so a stall is
   charged to every statement queued behind it (no coordinated
   omission), and [sent - intended] is how late the generator ran.

   Closed loop: one connection sends its next statement when the reply
   to the previous one arrives; the intended time of a statement is the
   arrival of the previous reply. *)

type outcome =
  | Reply of { digest : string; bytes : int }
      (** [Result]: digest and length of the reply text *)
  | Failed of string  (** the server's structured error line *)
  | Shed  (** [Overloaded]: not executed *)
  | Lost of string  (** connection error: outcome unknown *)

type record = {
  conn : int;
  seq : int;  (** wire seq; 0 when the statement was not executed *)
  kind : Gen.kind;
  line : string;
  intended : float;
  sent : float;
  done_ : float;
  outcome : outcome;
}

(* What a connection's transport returns for one statement. *)
type reply =
  | Text of string  (** [Result] *)
  | Error_line of string  (** [Failed] *)
  | Overloaded
  | Conn_error of string

(* One connection's transport: execute [line] as statement [seq]. *)
type exec = seq:int -> string -> reply

let now = Unix.gettimeofday

let executed = function Reply _ | Failed _ -> true | Shed | Lost _ -> false

(* Run one statement on a connection whose next wire seq is [!seq]. A
   shed statement did not run, so its seq is reused by the next one. *)
let step (exec : exec) seq ~conn ~kind ~line ~intended =
  let sent = now () in
  let s = !seq in
  let reply = exec ~seq:s line in
  let done_ = now () in
  (* digest after the clock stops: the client's own hashing is not
     server latency *)
  let outcome =
    match reply with
    | Text t -> Reply { digest = Digest.string t; bytes = String.length t }
    | Error_line m -> Failed m
    | Overloaded -> Shed
    | Conn_error m -> Lost m
  in
  let ran = executed outcome in
  if ran then incr seq;
  { conn; seq = (if ran then s else 0); kind; line; intended; sent; done_;
    outcome }

let open_loop ~(conns : exec array) ~(schedule : Gen.stmt array array) ~t0 :
    record array =
  let out = Array.map (fun s -> Array.make (Array.length s) None) schedule in
  let worker c =
    let seq = ref 1 in
    Array.iteri
      (fun i (st : Gen.stmt) ->
        let intended = t0 +. st.Gen.at in
        let wait = intended -. now () in
        if wait > 0.0 then Thread.delay wait;
        out.(c).(i) <-
          Some
            (step conns.(c) seq ~conn:c ~kind:st.Gen.kind ~line:st.Gen.line
               ~intended))
      schedule.(c)
  in
  let ths = Array.mapi (fun c _ -> Thread.create worker c) conns in
  Array.iter Thread.join ths;
  Array.concat (Array.to_list out) |> Array.map Option.get

let closed_loop ~conn ~(exec : exec) ~(next : unit -> Gen.kind * string) ~t0
    ~until : record array =
  let seq = ref 1 in
  let rec go intended acc =
    if intended >= until then Array.of_list (List.rev acc)
    else
      let kind, line = next () in
      let r = step exec seq ~conn ~kind ~line ~intended in
      go r.done_ (r :: acc)
  in
  go t0 []

(* Statements whose intended time falls in [lo, hi). *)
let in_window ~lo ~hi records =
  Array.of_list
    (List.filter (fun r -> r.intended >= lo && r.intended < hi)
       (Array.to_list records))

let latencies records = Array.map (fun r -> r.done_ -. r.intended) records
let send_lags records = Array.map (fun r -> r.sent -. r.intended) records

(* Completions inside [lo, hi), per second. *)
let throughput ~lo ~hi records =
  let n =
    Array.fold_left
      (fun n r ->
        match r.outcome with
        | Reply _ when r.done_ >= lo && r.done_ < hi -> n + 1
        | _ -> n)
      0 records
  in
  float_of_int n /. (hi -. lo)

let failures records =
  Array.fold_left
    (fun n r -> match r.outcome with Reply _ -> n | _ -> n + 1)
    0 records

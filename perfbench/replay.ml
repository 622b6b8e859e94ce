(* The traced run: replays a prefix of the served statements in-process,
   timing each call into the public functions of sql, plan, exec, db,
   audit_log and server from here, as spans. End-to-end numbers never
   come from this run.

   Each SELECT becomes one statement span whose children are, in
   pipeline order: parse, plan (bind/optimize/placement/prune), lower,
   per-query set-up, compiled run, one [accessed_list] per audit; then a
   whole [Database.exec] (deferred evidence, as served), the same
   statement with instrumentation off, the WAL append and fsync of the
   statement's evidence into a scratch log, and the reply rendering and
   codec. DML is timed only as parse plus one whole [Database.exec],
   since replaying it twice would change the data.

   A second replica database makes the same calls without recording
   spans, timing only [Database.exec] (and reading the GC counters
   around it), statement by statement alongside the traced one; the
   paired difference to the traced [db.exec] spans is the tracing
   overhead. *)

module Wal = Audit_log.Wal

type metric = {
  name : string;
  value : float;
  unit_ : string;
  n : int;  (* samples behind the value *)
  note : string;  (* tail percentile or derivation, for the report *)
}

let served_db ~init =
  let db = Db.Database.create () in
  Db.Database.set_exec_mode db `Compiled;
  Db.Database.set_storage_mode db Storage.Table.Heap;
  Db.Database.set_elision_mode db Db.Database.Elide_off;
  Db.Database.set_verify_plans db Db.Database.Off;
  ignore (Db.Database.exec_script db init);
  Db.Database.set_deferred_evidence db true;
  let s = Db.Database.create_session ~session_id:1 db in
  Db.Database.set_user s "replay";
  (* collect what loading left behind, as the served run's warm-up does *)
  Gc.full_major ();
  s

let clock = Spans.now

(* How a replica times one layer call of statement [stmt]. *)
type timer = { time : 'a. stmt:int -> string -> (unit -> 'a) -> 'a }

let traced_timer spans = { time = (fun ~stmt name f -> Spans.record spans ~stmt name f) }

type untraced = {
  exec_s : float array;  (* Database.exec per statement *)
  mutable alloc_words : float;  (* allocated inside Database.exec *)
  mutable major_gcs : int;
}

let untraced_timer n =
  let u = { exec_s = Array.make n nan; alloc_words = 0.0; major_gcs = 0 } in
  let words (g : Gc.stat) = g.minor_words +. g.major_words -. g.promoted_words in
  let time ~stmt name f =
    if name <> "db.exec" then f ()
    else begin
      let g0 = Gc.quick_stat () in
      let t0 = clock () in
      let v = f () in
      let d = clock () -. t0 in
      let g1 = Gc.quick_stat () in
      u.exec_s.(stmt) <- d;
      u.alloc_words <- u.alloc_words +. (words g1 -. words g0);
      u.major_gcs <- u.major_gcs + (g1.major_collections - g0.major_collections);
      v
    end
  in
  ({ time }, u)

type counters = {
  mutable selects : int;
  mutable rows_scanned : int;
  mutable rows_returned : int;
  mutable probes : int;
  mutable hits : int;
  mutable accessed : int;
  mutable evidence : int;
  mutable reply_bytes : int;
}

(* One replay database, brought to the state the timed statements met
   on the server by running [setup] untimed, with its own scratch WAL. *)
type replica = {
  db : Db.Database.t;
  wal : Wal.t;
  c : counters;
}

let replica ~init ~setup ~wal_path =
  let db = served_db ~init in
  List.iter
    (fun line ->
      ignore (Db.Database.exec db line);
      ignore (Db.Database.take_pending_evidence db))
    setup;
  let wal, _ = Wal.open_ ~max_segment_size:Wal.default_segment_size wal_path in
  { db; wal;
    c = { selects = 0; rows_scanned = 0; rows_returned = 0; probes = 0;
          hits = 0; accessed = 0; evidence = 0; reply_bytes = 0 } }

let step { db; wal; c } (timer : timer) i line =
  let ctx = Db.Database.context db in
  let span name f = timer.time ~stmt:i name f in
  span "stmt" (fun () ->
      let ast = span "sql.parse" (fun () -> Sql.Parser.statement line) in
      let select =
        match ast with
        | Sql.Ast.S_select q ->
          c.selects <- c.selects + 1;
          let plan = span "plan.plan" (fun () -> Db.Database.plan_query db q) in
          let phys = span "plan.lower" (fun () -> Db.Database.physical db plan) in
          span "exec.prepare" (fun () ->
              Db.Database.install_audit_sets db;
              Exec.Exec_ctx.reset_query_state ctx);
          let rows =
            span "exec.run" (fun () -> Exec.Compiled_exec.run_list ctx phys)
          in
          c.rows_scanned <- c.rows_scanned + ctx.Exec.Exec_ctx.rows_scanned;
          c.rows_returned <- c.rows_returned + List.length rows;
          c.probes <- c.probes + ctx.Exec.Exec_ctx.audit_probes;
          c.hits <- c.hits + ctx.Exec.Exec_ctx.audit_hits;
          List.iter
            (fun audit_name ->
              let ids =
                span "exec.accessed_list" (fun () ->
                    Exec.Exec_ctx.accessed_list ctx ~audit_name)
              in
              c.accessed <- c.accessed + List.length ids)
            (Db.Database.audit_names db);
          true
        | _ -> false
      in
      (* Pin the clock to the wire seq, as the server does. *)
      ctx.Exec.Exec_ctx.now <- i;
      let result = span "db.exec" (fun () -> Db.Database.exec db line) in
      let evidence = Db.Database.take_pending_evidence db in
      c.evidence <- c.evidence + List.length evidence;
      if select then begin
        span "db.exec_noaudit" (fun () ->
            Db.Database.set_instrumentation db false;
            Fun.protect
              ~finally:(fun () -> Db.Database.set_instrumentation db true)
              (fun () -> ignore (Db.Database.exec db line)));
        ignore (Db.Database.take_pending_evidence db)
      end;
      if evidence <> [] then begin
        span "audit_log.append" (fun () -> List.iter (Wal.append wal) evidence);
        span "audit_log.sync" (fun () -> Wal.sync wal)
      end;
      let text =
        span "server.render" (fun () ->
            Server.Wire.clip (Db.Database.result_to_string result))
      in
      span "server.codec" (fun () ->
          let req = Server.Wire.(encode_request (Exec { seq = i + 1; line })) in
          ignore (Server.Wire.decode_request req);
          let resp = Server.Wire.(encode_response (Result text)) in
          ignore (Server.Wire.decode_response resp);
          (* the frame adds a 4-byte length prefix *)
          c.reply_bytes <- c.reply_bytes + String.length resp + 4))

let us = 1e6

(* Median of a span's durations in microseconds, with the tail the
   sample count supports. *)
let timing name unit_ scale samples =
  let s = Stats.sorted samples in
  let n = Array.length s in
  let note =
    match Stats.tail_level n with
    | Some p ->
      Printf.sprintf "p%g %.4g %s" (p *. 100.0)
        (Stats.percentile_sorted s p *. scale) unit_
    | None -> "too few samples for a tail"
  in
  { name; value = (if n = 0 then 0.0 else Stats.percentile_sorted s 0.5 *. scale);
    unit_; n; note = (if n = 0 then "not applicable: no samples" else note) }

let count name unit_ value n note = { name; value; unit_; n; note }

(* Total duration of the spans named, per statement. *)
let per_stmt spans name =
  let tbl = Hashtbl.create 1024 in
  for i = 0 to Spans.length spans - 1 do
    let s = Spans.get spans i in
    if s.Spans.name = name then
      Hashtbl.replace tbl s.Spans.stmt
        (Spans.duration s +. Option.value ~default:0.0 (Hashtbl.find_opt tbl s.Spans.stmt))
  done;
  tbl

type result = {
  metrics : metric list;
  findings : string list;
  exec_s : float array;  (* traced Database.exec per statement *)
}

(* [setup] runs untimed first, to bring the data to the state the timed
   [stmts] met on the server. *)
let run ~init ~dir ~setup ~(stmts : (Gen.kind * string) array) :
    result * Spans.t =
  let spans = Spans.create () in
  let traced = traced_timer spans and untimed, u = untraced_timer (Array.length stmts) in
  let t = replica ~init ~setup ~wal_path:(Filename.concat dir "traced.wal") in
  let v = replica ~init ~setup ~wal_path:(Filename.concat dir "untraced.wal") in
  (* Each statement runs on both replicas back to back, in alternating
     order, so drift in the machine's speed cancels out of the pair. *)
  Array.iteri
    (fun i (_, line) ->
      if i mod 2 = 0 then (step t traced i line; step v untimed i line)
      else (step v untimed i line; step t traced i line))
    stmts;
  Wal.close t.wal;
  Wal.close v.wal;
  let c = t.c in
  (match Spans.check spans with
  | Ok () -> ()
  | Error m -> failwith ("trace is inconsistent: " ^ m));
  let nstmts = Array.length stmts in
  let fn = float_of_int in
  let per name = per_stmt spans name in
  let exec = per "db.exec" and run_ = per "exec.run" in
  let parse = per "sql.parse" and plan = per "plan.plan" and lower = per "plan.lower" in
  let select_ids = Hashtbl.fold (fun k _ acc -> k :: acc) run_ [] |> List.sort compare in
  let sel f = Array.of_list (List.map f select_ids) in
  let get tbl i = Option.value ~default:0.0 (Hashtbl.find_opt tbl i) in
  let front_of i = get parse i +. get plan i +. get lower i in
  let front = sel front_of in
  let after_run = sel (fun i -> get exec i -. (front_of i +. get run_ i)) in
  let noaudit = per "db.exec_noaudit" in
  let audit_cost = sel (fun i -> get exec i -. get noaudit i) in
  let outside_run = sel (fun i -> Stats.ratio (get exec i -. get run_ i) (get exec i)) in
  let select_exec = sel (get exec) in
  let dml_exec =
    Array.of_list
      (List.filter_map
         (fun i ->
           match fst stmts.(i) with
           | Gen.Select -> None
           | _ -> Hashtbl.find_opt exec i)
         (List.init nstmts Fun.id))
  in
  (* Paired per statement: the same call on the same data, with and
     without spans around it. *)
  let overhead =
    sel (fun i -> Stats.ratio (get exec i -. u.exec_s.(i)) u.exec_s.(i))
  in
  let wal_bytes =
    Array.fold_left
      (fun acc f ->
        if String.length f >= 7 && String.sub f 0 7 = "traced." then
          acc + (Unix.stat (Filename.concat dir f)).Unix.st_size
        else acc)
      0 (Sys.readdir dir)
  in
  let d name = Spans.durations spans name in
  let metrics =
    [
      timing "sql.parse_us" "us" us (d "sql.parse");
      timing "plan.plan_us" "us" us (d "plan.plan");
      timing "plan.lower_us" "us" us (d "plan.lower");
      timing "exec.run_us" "us" us (d "exec.run");
      count "exec.rows_scanned_per_row" "ratio"
        (Stats.ratio (fn c.rows_scanned) (fn c.rows_returned)) c.selects
        (Printf.sprintf "%d rows scanned / %d returned" c.rows_scanned c.rows_returned);
      count "exec.probes_per_stmt" "count"
        (Stats.ratio (fn c.probes) (fn c.selects)) c.selects "audit_probes per SELECT";
      count "exec.hit_ratio" "ratio" (Stats.ratio (fn c.hits) (fn c.probes)) c.selects
        (Printf.sprintf "%d hits / %d probes" c.hits c.probes);
      count "exec.accessed_ids_per_stmt" "count"
        (Stats.ratio (fn c.accessed) (fn c.selects)) c.selects "ACCESSED IDs per SELECT";
      timing "exec.accessed_list_us" "us" us (d "exec.accessed_list");
      timing "db.exec_us" "us" us select_exec;
      timing "db.after_run_us" "us" us after_run;
      timing "db.audit_overhead_us" "us" us audit_cost;
      timing "db.dml_exec_us" "us" us dml_exec;
      count "db.evidence_records_per_stmt" "count"
        (Stats.ratio (fn c.evidence) (fn nstmts)) nstmts "take_pending_evidence length";
      timing "audit_log.append_us" "us" us (d "audit_log.append");
      count "audit_log.bytes_per_stmt" "B" (Stats.ratio (fn wal_bytes) (fn nstmts)) nstmts
        (Printf.sprintf "%d B in the scratch WAL" wal_bytes);
      timing "audit_log.sync_us" "us" us (d "audit_log.sync");
      count "server.reply_bytes" "B" (Stats.ratio (fn c.reply_bytes) (fn nstmts)) nstmts
        "mean encoded reply frame";
      timing "server.codec_us" "us" us (d "server.codec");
      count "runtime.alloc_kwords_per_stmt" "kword"
        (u.alloc_words /. 1000.0 /. fn nstmts) nstmts "inside Database.exec, untraced replica";
      count "runtime.major_gcs_per_kstmt" "count"
        (fn u.major_gcs *. 1000.0 /. fn nstmts) nstmts "inside Database.exec, untraced replica";
      count "bench.trace_overhead_pct" "%"
        (100.0 *. Stats.median overhead) (Array.length overhead)
        "median over SELECTs of traced / untraced db.exec - 1";
    ]
  in
  let q a p = Stats.percentile a p in
  let findings =
    if Array.length select_exec = 0 then []
    else
      [
        Printf.sprintf
          "SELECT time outside exec.run: median %.1f%% of db.exec (quartiles %.1f-%.1f%%)"
          (100.0 *. q outside_run 0.5) (100.0 *. q outside_run 0.25) (100.0 *. q outside_run 0.75);
        Printf.sprintf "front end (parse+plan+lower): median %.1f us (quartiles %.1f-%.1f)"
          (q front 0.5 *. us) (q front 0.25 *. us) (q front 0.75 *. us);
        Printf.sprintf
          "SELECT db.exec median %.1f us, exec.run median %.1f us, after-run median %.1f us"
          (Stats.median select_exec *. us) (Stats.median (sel (get run_)) *. us) (Stats.median after_run *. us);
      ]
  in
  ( { metrics; findings;
      exec_s = Array.init nstmts (fun i -> Option.value ~default:nan (Hashtbl.find_opt exec i)) },
    spans )

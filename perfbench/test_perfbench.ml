(* Tests of the benchmark's own machinery: the open-loop generator, the
   span store, the traced replay and the correctness gate. *)

open Perfbench

let tmp_dir () =
  let d = Filename.temp_file "perfbench" "" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  d

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

(* ---------------------------------------------------------------- *)
(* Open loop                                                          *)
(* ---------------------------------------------------------------- *)

let schedule seed =
  Gen.oltp_schedule ~seed ~conns:2 ~conn:1 ~rate:250.0 ~duration:2.0
  |> Array.map (fun (s : Gen.stmt) -> (s.Gen.at, s.Gen.line))

let test_schedule_deterministic () =
  let a = schedule 7 and b = schedule 7 in
  Alcotest.(check int) "same length" (Array.length a) (Array.length b);
  Alcotest.(check bool) "identical schedule" true (a = b);
  Alcotest.(check bool) "another seed differs" true (a <> schedule 8);
  Alcotest.(check bool) "about rate/conns x duration arrivals" true
    (Array.length a > 150 && Array.length a < 350)

(* One connection, a statement every 10 ms; the fourth stalls the stub
   server for 100 ms. Every statement scheduled during the stall must be
   charged the wait from its own scheduled time. *)
let test_stall_charged_to_queued () =
  let stall = 0.1 and gap = 0.01 in
  let sched =
    Array.init 20 (fun i ->
        { Gen.kind = Gen.Select; line = string_of_int i; at = float_of_int i *. gap })
  in
  let stub ~seq:_ line =
    if line = "3" then Thread.delay stall;
    Load.Text "ok"
  in
  let t0 = Unix.gettimeofday () +. 0.01 in
  let records = Load.open_loop ~conns:[| stub |] ~schedule:[| sched |] ~t0 in
  let stall_end = t0 +. (3.0 *. gap) +. stall in
  Array.iter
    (fun (r : Load.record) ->
      let i = int_of_string r.Load.line in
      if i >= 3 && r.Load.intended < stall_end then begin
        Alcotest.(check bool)
          (Printf.sprintf "statement %d finished after the stall" i)
          true (r.Load.done_ >= stall_end);
        Alcotest.(check bool)
          (Printf.sprintf "statement %d latency counts from its schedule" i)
          true
          (r.Load.done_ -. r.Load.intended >= stall_end -. r.Load.intended)
      end)
    records;
  let queued =
    Array.to_list records
    |> List.filter (fun (r : Load.record) ->
           r.Load.intended > t0 +. (3.0 *. gap) && r.Load.intended < stall_end)
  in
  Alcotest.(check bool) "statements queued behind the stall" true
    (List.length queued >= 8);
  (* seqs advance only for executed statements *)
  Alcotest.(check (list int)) "wire seqs" (List.init 20 (fun i -> i + 1))
    (Array.to_list (Array.map (fun r -> r.Load.seq) records));
  let lag = Stats.percentile (Load.send_lags records) 0.99 in
  Alcotest.(check bool) "send lag p99 shows the late sends" true
    (lag >= stall -. (2.0 *. gap))

let test_shed_reuses_seq () =
  let sched =
    Array.init 3 (fun i -> { Gen.kind = Gen.Select; line = string_of_int i; at = 0.0 })
  in
  let stub ~seq:_ line = if line = "1" then Load.Overloaded else Load.Text line in
  let records =
    Load.open_loop ~conns:[| stub |] ~schedule:[| sched |] ~t0:(Unix.gettimeofday ())
  in
  Alcotest.(check (list int)) "shed statement has no seq" [ 1; 0; 2 ]
    (Array.to_list (Array.map (fun r -> r.Load.seq) records));
  Alcotest.(check int) "one failure" 1 (Load.failures records)

(* ---------------------------------------------------------------- *)
(* Span store                                                         *)
(* ---------------------------------------------------------------- *)

let fake_clock () =
  let t = ref 0.0 in
  (t, fun () -> !t)

let close_to = Alcotest.float 1e-9

let test_self_time () =
  let t, clock = fake_clock () in
  let s = Spans.create ~clock () in
  let root = Spans.enter s ~stmt:0 "stmt" in
  t := 1.0;
  let a = Spans.enter s ~stmt:0 "a" in
  t := 1.5;
  let g = Spans.enter s ~stmt:0 "g" in
  t := 2.0;
  Spans.leave s g;
  t := 3.0;
  Spans.leave s a;
  t := 4.0;
  let b = Spans.record s ~stmt:0 "b" (fun () -> let id = Spans.length s - 1 in t := 8.0; id) in
  t := 10.0;
  Spans.leave s root;
  Alcotest.check close_to "root self" 4.0 (Spans.self_time s root);
  Alcotest.check close_to "a self" 1.5 (Spans.self_time s a);
  Alcotest.check close_to "g self" 0.5 (Spans.self_time s g);
  Alcotest.check close_to "b self" 4.0 (Spans.self_time s b);
  Alcotest.(check bool) "consistent" true (Spans.check s = Ok ())

let test_child_escaping_parent () =
  (* a clock that steps back makes a child start before its parent *)
  let t, clock = fake_clock () in
  let s = Spans.create ~clock () in
  t := 5.0;
  let root = Spans.enter s ~stmt:0 "stmt" in
  t := 4.0;
  let c = Spans.enter s ~stmt:0 "child" in
  t := 6.0;
  Spans.leave s c;
  Spans.leave s root;
  Alcotest.(check bool) "escape detected" true (Result.is_error (Spans.check s));
  let s = Spans.create ~clock () in
  ignore (Spans.enter s ~stmt:0 "open");
  Alcotest.(check bool) "open span detected" true (Result.is_error (Spans.check s))

let test_written_once () =
  let s = Spans.create () in
  Spans.record s ~stmt:0 "stmt" (fun () -> Spans.record s ~stmt:0 "x" ignore);
  let path = Filename.temp_file "spans" ".tsv" in
  Out_channel.with_open_text path (fun oc -> Spans.write s oc);
  let lines =
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (( <> ) "")
  in
  Sys.remove path;
  Alcotest.(check int) "header + one line per span" 3 (List.length lines);
  Alcotest.check_raises "second write" (Invalid_argument "Spans.write: already written")
    (fun () -> Spans.write s stdout);
  Alcotest.check_raises "recording after write"
    (Invalid_argument "Spans.enter: store already written")
    (fun () -> ignore (Spans.enter s ~stmt:1 "late"))

(* ---------------------------------------------------------------- *)
(* Traced replay and correctness gate on the clinic data              *)
(* ---------------------------------------------------------------- *)

let init = lazy (Gen.clinic_script ~seed:3 ~access_log:true)

let test_replay () =
  let next = Gen.oltp_stream ~seed:3 ~conns:1 ~conn:0 in
  let wide = Gen.audit_wide_stream ~seed:3 in
  let stmts = Array.init 12 (fun i -> if i mod 4 = 0 then wide () else next ()) in
  let dir = tmp_dir () in
  let r, spans =
    Fun.protect
      ~finally:(fun () -> rm_rf dir)
      (fun () -> Replay.run ~init:(Lazy.force init) ~dir ~setup:[] ~stmts)
  in
  Alcotest.(check bool) "children never exceed their parent" true
    (Spans.check spans = Ok ());
  let names = List.map (fun (m : Replay.metric) -> m.Replay.name) r.Replay.metrics in
  List.iter
    (fun n -> Alcotest.(check bool) (n ^ " reported") true (List.mem n names))
    [ "bench.trace_overhead_pct"; "db.exec_us"; "exec.run_us"; "sql.parse_us" ];
  List.iter
    (fun (m : Replay.metric) ->
      Alcotest.(check bool) (m.Replay.name ^ " is finite") true
        (Float.is_finite m.Replay.value))
    r.Replay.metrics;
  let stmt_spans = Spans.durations spans "stmt" in
  Alcotest.(check int) "one statement span per statement" 12
    (Array.length stmt_spans)

let record ~seq ~line outcome =
  { Load.conn = 0; seq; kind = Gen.Select; line; intended = 0.0;
    sent = float_of_int seq; done_ = 0.0; outcome }

let test_oracle_gate () =
  let init = Lazy.force init in
  let root = Oracle.oracle_root ~init in
  let db = Db.Database.create_session ~session_id:5 root in
  Db.Database.set_user db "clerk0";
  (* one non-sensitive and one sensitive patient *)
  let age id =
    Storage.Value.to_string
      (Db.Database.query_value db
         (Printf.sprintf "SELECT age FROM patients WHERE patientid = %d" id))
    |> int_of_string
  in
  let find p = List.find p (List.init 200 (fun i -> i + 1)) in
  let plain = find (fun id -> age id < Gen.sensitive_age) in
  let hot = find (fun id -> age id >= Gen.sensitive_age) in
  let line id = Printf.sprintf "SELECT name FROM patients WHERE patientid = %d" id in
  let plain_reply, _ = Oracle.run_statement db ~seq:1 (line plain) in
  let hot_reply, hot_evidence = Oracle.run_statement db ~seq:2 (line hot) in
  let good_plain = record ~seq:1 ~line:(line plain) plain_reply in
  let good_hot = record ~seq:2 ~line:(line hot) hot_reply in
  let hot_accessed =
    List.filter (function Audit_log.Wal.Accessed _ -> true | _ -> false) hot_evidence
  in
  let dir = tmp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let n = ref 0 in
  let check wal_records records =
    incr n;
    let path = Filename.concat dir (Printf.sprintf "audit%d.wal" !n) in
    let w, _ = Audit_log.Wal.open_ path in
    List.iter (Audit_log.Wal.append w) wal_records;
    Audit_log.Wal.close w;
    let s = Oracle.check ~init ~sessions:[ (0, 5, "clerk0") ] ~records ~wal_path:path () in
    (s.Oracle.mismatch_count, s.Oracle.missing_ids, s.Oracle.extra_ids)
  in
  let verdict = Alcotest.(triple int int int) in
  Alcotest.check verdict "replies and evidence match" (0, 0, 0)
    (check hot_accessed [| good_plain; good_hot |]);
  let tampered =
    record ~seq:1 ~line:(line plain) (Load.Reply { digest = "x"; bytes = 1 })
  in
  Alcotest.check verdict "wrong reply caught" (1, 0, 0) (check [] [| tampered |]);
  Alcotest.check verdict "missing evidence caught" (1, 1, 0)
    (check [] [| good_plain; good_hot |]);
  let with_extra =
    List.map
      (function
        | Audit_log.Wal.Accessed a ->
          Audit_log.Wal.Accessed { a with ids = a.ids @ [ string_of_int plain ] }
        | r -> r)
      hot_accessed
  in
  Alcotest.check verdict "extra ID caught" (1, 0, 1)
    (check with_extra [| good_plain; good_hot |]);
  let on_plain =
    List.map
      (function
        | Audit_log.Wal.Accessed a -> Audit_log.Wal.Accessed { a with seq = 1 }
        | r -> r)
      hot_accessed
  in
  Alcotest.check verdict "evidence for a statement that accessed nothing" (2, 1, 1)
    (check on_plain [| good_plain; good_hot |])

let () =
  Alcotest.run "perfbench"
    [
      ( "open loop",
        [
          Alcotest.test_case "fixed seed, identical schedule" `Quick
            test_schedule_deterministic;
          Alcotest.test_case "a stall is charged to queued statements" `Quick
            test_stall_charged_to_queued;
          Alcotest.test_case "a shed statement's seq is reused" `Quick
            test_shed_reuses_seq;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time of nested spans" `Quick test_self_time;
          Alcotest.test_case "child outside its parent is caught" `Quick
            test_child_escaping_parent;
          Alcotest.test_case "written once, at the end" `Quick test_written_once;
        ] );
      ( "replay",
        [
          Alcotest.test_case "traced replay reports its overhead" `Quick
            test_replay;
          Alcotest.test_case "correctness gate catches bad replies and evidence"
            `Quick test_oracle_gate;
        ] );
    ]

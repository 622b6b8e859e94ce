(* The correctness gate. An in-process oracle database — the row engine,
   heap storage, on the same init script — replays every executed
   statement in send order under the served session's identity, with
   the logical clock pinned to the wire seq exactly as the server does.
   Each served reply must equal the oracle's, and after the server's
   clean shutdown the WAL must read back clean and hold, for every
   statement, exactly one complete [Accessed] record per (session, seq,
   audit) whose IDs, user and text equal the oracle's — and none for a
   statement that accessed nothing. *)

module Wal = Audit_log.Wal

type summary = {
  replies : int;  (* served replies compared *)
  accessed_records : int;  (* WAL Accessed records matched *)
  wal_records : int;  (* all WAL records read back *)
  mismatches : string list;  (* first few, oldest first *)
  mismatch_count : int;
  missing_ids : int;  (* accessed per the oracle, absent from the WAL *)
  extra_ids : int;  (* in the WAL, not accessed per the oracle *)
}

let oracle_root ~init =
  let db = Db.Database.create () in
  Db.Database.set_exec_mode db `Row;
  Db.Database.set_storage_mode db Storage.Table.Heap;
  Db.Database.set_elision_mode db Db.Database.Elide_off;
  Db.Database.set_verify_plans db Db.Database.Off;
  ignore (Db.Database.exec_script db init);
  Db.Database.set_deferred_evidence db true;
  db

(* What a served session renders for a statement (Session.dispatch +
   Daemon.exec_one), computed in-process. *)
let run_statement db ~seq line : Load.outcome * Wal.record list =
  (Db.Database.context db).Exec.Exec_ctx.now <- seq - 1;
  let outcome =
    match Db.Database.exec db line with
    | r ->
      let text = Server.Wire.clip (Db.Database.result_to_string r) in
      Load.Reply { digest = Digest.string text; bytes = String.length text }
    | exception e -> Load.Failed (Server.Session.render_error e)
  in
  (outcome, Db.Database.take_pending_evidence db)

type accessed = {
  a_user : string;
  a_sql : string;
  a_ids : string;  (* digest of the ID list *)
  a_count : int;
  a_list : string list option;  (* the IDs themselves, for short lists *)
  a_complete : bool;
}

let digest_ids ids = Digest.string (String.concat "\x00" ids)

(* ID lists up to this length are kept to say which IDs differ. *)
let short = 64

(* [repeatable]: the workload's statements read only tables it never
   writes (tpch_audit writes nothing; audit_wide's trigger writes only
   access_log, which no statement reads), so a statement's reply and
   ACCESSED set depend only on its text and user; the oracle then runs
   each distinct statement once and checks every reply against it. *)
let check ?(repeatable = false) ~init ~(sessions : (int * int * string) list)
    ~(records : Load.record array) ~wal_path () : summary =
  let mismatches = ref [] and count = ref 0 in
  let missing_ids = ref 0 and extra_ids = ref 0 in
  let diff logged expected =
    match logged with
    | Some logged ->
      let minus a b = List.length (List.filter (fun x -> not (List.mem x b)) a) in
      missing_ids := !missing_ids + minus expected logged;
      extra_ids := !extra_ids + minus logged expected
    | None -> ()
  in
  let miss fmt =
    Printf.ksprintf
      (fun m ->
        incr count;
        if !count <= 10 then mismatches := m :: !mismatches)
      fmt
  in
  (* The WAL first, reduced to digests so only one decoded copy lives. *)
  let wal_records, recovery = Wal.read_all wal_path in
  if recovery.Wal.corrupt then miss "WAL read back corrupt";
  if recovery.Wal.truncated_bytes > 0 then
    miss "WAL read back with %d truncated bytes" recovery.Wal.truncated_bytes;
  let n_wal = List.length wal_records in
  let actual = Hashtbl.create 4096 in
  List.iter
    (function
      | Wal.Accessed { session; seq; user; sql; audit; ids; complete } ->
        let a =
          { a_user = user; a_sql = sql; a_ids = digest_ids ids;
            a_count = List.length ids; a_complete = complete;
            a_list = (if List.length ids <= short then Some ids else None) }
        in
        Hashtbl.add actual (session, seq, audit) a
      | _ -> ())
    wal_records;
  (* One oracle session for every served session: the engine keeps its
     ACCESSED marks in cells shared by all sessions of a database, so
     per-session oracles would see each other's marks. Identity, user and
     clock are switched per statement instead. *)
  let db = Db.Database.create_session (oracle_root ~init) in
  let ctx = Db.Database.context db in
  let ident = Hashtbl.create 4 in
  List.iter (fun (conn, session, user) -> Hashtbl.replace ident conn (session, user)) sessions;
  let memo = Hashtbl.create 16 in
  let by_send = Array.copy records in
  Array.stable_sort (fun a b -> compare a.Load.sent b.Load.sent) by_send;
  let replies = ref 0 and matched = ref 0 in
  Array.iter
    (fun (r : Load.record) ->
      match r.Load.outcome with
      | Load.Shed -> ()
      | Load.Lost m -> miss "statement lost (%s): %s" m r.Load.line
      | (Load.Reply _ | Load.Failed _) as served ->
        let session, user = Hashtbl.find ident r.Load.conn in
        ctx.Exec.Exec_ctx.session_id <- session;
        Db.Database.set_user db user;
        let expected, evidence =
          match Hashtbl.find_opt memo (user, r.Load.line) with
          | Some answer when repeatable -> answer
          | _ ->
            let answer = run_statement db ~seq:r.Load.seq r.Load.line in
            if repeatable then Hashtbl.replace memo (user, r.Load.line) answer;
            answer
        in
        incr replies;
        if expected <> served then
          miss "reply differs from the oracle (session %d seq %d): %s" session
            r.Load.seq r.Load.line;
        List.iter
          (function
            | Wal.Accessed { audit; ids; user; sql; complete; _ } -> (
              let key = (session, r.Load.seq, audit) in
              match Hashtbl.find_all actual key with
              | [ a ] ->
                Hashtbl.remove actual key;
                if
                  a.a_ids <> digest_ids ids
                  || a.a_count <> List.length ids
                  || a.a_user <> user || a.a_sql <> sql
                  || a.a_complete <> complete || not a.a_complete
                then begin
                  diff a.a_list ids;
                  miss
                    "Accessed record differs (session %d seq %d %s, %d IDs \
                     logged, %d expected): %s"
                    session r.Load.seq audit a.a_count (List.length ids)
                    r.Load.line
                end
                else incr matched
              | [] ->
                missing_ids := !missing_ids + List.length ids;
                miss "no Accessed record for session %d seq %d %s: %s" session
                  r.Load.seq audit r.Load.line
              | l ->
                miss "%d Accessed records for session %d seq %d %s"
                  (List.length l) session r.Load.seq audit)
            | _ -> ())
          evidence)
    by_send;
  Hashtbl.iter
    (fun (session, seq, audit) a ->
      extra_ids := !extra_ids + a.a_count;
      miss "unexpected Accessed record session %d seq %d %s" session seq audit)
    actual;
  {
    replies = !replies;
    accessed_records = !matched;
    wal_records = n_wal;
    mismatches = List.rev !mismatches;
    mismatch_count = !count;
    missing_ids = !missing_ids;
    extra_ids = !extra_ids;
  }

(* The served configuration: one [serverd] child process per measured
   run, on a Unix socket, with a fail-closed WAL segmented at the library
   default, the compiled engine, and storage, elision and verification at
   their defaults (the environment variables that would change them are
   removed from the child's environment). *)

type t = {
  pid : int;
  dir : string;
  sock : string;
  wal : string;
  log : string;
  setup_s : float;  (* spawn to first successful Hello *)
}

let flags ~dir ~init =
  [ "--socket"; Filename.concat dir "serverd.sock";
    "--wal"; Filename.concat dir "audit.wal";
    "--max-segment-size"; string_of_int Audit_log.Wal.default_segment_size;
    "--exec"; "compiled";
    "--init"; init ]

let scrubbed = [ "EXEC_MODE"; "BATCH_MODE"; "STORAGE"; "ELISION"; "VERIFY" ]

let env () =
  Array.of_list
    (List.filter
       (fun kv ->
         match String.index_opt kv '=' with
         | Some i -> not (List.mem (String.sub kv 0 i) scrubbed)
         | None -> true)
       (Array.to_list (Unix.environment ())))

let read_file path = In_channel.with_open_bin path In_channel.input_all

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then raise Not_found
    else if String.sub s i m = sub then i
    else go (i + 1)
  in
  go 0

let kill_and_wait pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

(* Connect without leaking the socket when the server is not there yet
   ([Server.Client.connect] does not close it on failure), close-on-exec
   so later children do not inherit it. *)
let connect sock : Server.Client.t =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX sock) with
  | () -> { Server.Client.fd; session = 0 }
  | exception e ->
    Unix.close fd;
    raise e

(* Spawn and wait for the first successful Hello (the init script has
   run and the WAL is open by then). [on_spawn] learns the pid at once,
   so a caller can kill a child that never comes up. *)
let spawn ~exe ~dir ~init ~timeout_s ~on_spawn : t =
  Unix.mkdir dir 0o755;
  let log = Filename.concat dir "serverd.log" in
  let fd =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
  in
  let t0 = Unix.gettimeofday () in
  let pid =
    Unix.create_process_env exe
      (Array.of_list (exe :: flags ~dir ~init))
      (env ()) Unix.stdin fd fd
  in
  Unix.close fd;
  on_spawn pid;
  let sock = Filename.concat dir "serverd.sock" in
  let fail msg =
    failwith
      (Printf.sprintf "serverd did not come up: %s\n%s" msg
         (try read_file log with Sys_error _ -> ""))
  in
  let rec wait () =
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> ()
    | _ -> fail "exited during start-up");
    if Unix.gettimeofday () -. t0 > timeout_s then fail "start-up timed out";
    match connect sock with
    | c ->
      let ok =
        try
          ignore (Server.Client.hello c ~user:"setup");
          true
        with _ -> false
      in
      Server.Client.quit c;
      if not ok then (Thread.delay 0.002; wait ())
    | exception Unix.Unix_error _ ->
      Thread.delay 0.002;
      wait ()
  in
  wait ();
  let setup_s = Unix.gettimeofday () -. t0 in
  { pid; dir; sock; wal = Filename.concat dir "audit.wal"; log; setup_s }

(* Peak resident set (VmHWM) in MiB, read from /proc. *)
let rss_peak_mb t =
  let status = read_file (Printf.sprintf "/proc/%d/status" t.pid) in
  let line =
    List.find
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' status)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)

type stats = {
  statements : int;
  shed : int;
  records : int;
  batches : int;
  fsyncs : int;
}

(* serverd installs its SIGTERM handler just after it starts serving, so
   a SIGTERM sent right after the first Hello could still kill it
   outright; wait until /proc shows the signal caught. *)
let await_term_handler t =
  let caught () =
    let status = read_file (Printf.sprintf "/proc/%d/status" t.pid) in
    List.exists
      (fun l ->
        String.length l > 7
        && String.sub l 0 7 = "SigCgt:"
        && Int64.logand
             (Int64.of_string ("0x" ^ String.trim (String.sub l 7 (String.length l - 7))))
             0x4000L (* bit of SIGTERM = 15 *)
           <> 0L)
      (String.split_on_char '\n' status)
  in
  let t0 = Unix.gettimeofday () in
  while (not (caught ())) && Unix.gettimeofday () -. t0 < 10.0 do
    Thread.delay 0.001
  done

(* Clean shutdown (SIGTERM drains in-flight statements and the WAL),
   then the final stats line from the server's log. *)
let stop t : stats =
  await_term_handler t;
  Unix.kill t.pid Sys.sigterm;
  (match Unix.waitpid [] t.pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> failwith "serverd did not exit cleanly");
  let log = read_file t.log in
  let from_stats l =
    match find_sub l "stats: sessions=" with
    | i -> Some (String.sub l i (String.length l - i))
    | exception Not_found -> None
  in
  match List.find_map from_stats (String.split_on_char '\n' log) with
  | None -> failwith ("serverd printed no stats line:\n" ^ log)
  | Some l ->
    Scanf.sscanf l
      "stats: sessions=%_d statements=%d shed=%d replayed=%_d records=%d \
       batches=%d fsyncs=%d"
      (fun statements shed records batches fsyncs ->
        { statements; shed; records; batches; fsyncs })

(* Bytes of every WAL file (segments and manifest) on disk. *)
let wal_bytes t =
  Array.fold_left
    (fun acc f ->
      if String.length f > 6 && String.sub f 0 6 = "audit." then
        acc + (Unix.stat (Filename.concat t.dir f)).Unix.st_size
      else acc)
    0 (Sys.readdir t.dir)

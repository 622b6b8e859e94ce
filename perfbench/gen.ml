(* Seeded workload generation. Everything a run sends to the server — the
   init script and every statement, and for the open loop the arrival
   schedule — is a pure function of the workload and the seed. *)

type workload = Oltp_paced | Audit_wide | Tpch_audit

let workloads =
  [ ("oltp_paced", Oltp_paced); ("audit_wide", Audit_wide);
    ("tpch_audit", Tpch_audit) ]

let workload_of_string s = List.assoc_opt s workloads
let workload_name w = fst (List.find (fun (_, w') -> w' = w) workloads)

type kind = Select | Update | Insert

(* One generated statement; [at] is its intended send time in seconds
   from the start of the run (open loop only, 0 otherwise). *)
type stmt = { kind : kind; line : string; at : float }

(* Independent streams per purpose, so adding draws to one never shifts
   another. *)
let rng ~seed salt = Random.State.make [| seed; salt |]

(* --------------------------------------------------------------- *)
(* Clinic data (oltp_paced, audit_wide)                             *)
(* --------------------------------------------------------------- *)

let patients = 50_000
let min_age = 20
let max_age = 89

(* Ages at or above this are sensitive: about 1/7 of the rows. *)
let sensitive_age = 80

let name st = Printf.sprintf "n%07d" (Random.State.int st 10_000_000)

let clinic_script ~seed ~access_log =
  let st = rng ~seed 1 in
  let b = Buffer.create (patients * 24) in
  Buffer.add_string b
    "CREATE TABLE patients (patientid INT PRIMARY KEY, name VARCHAR, age \
     INT);\n";
  for i = 0 to (patients / 100) - 1 do
    Buffer.add_string b "INSERT INTO patients VALUES ";
    for j = 1 to 100 do
      if j > 1 then Buffer.add_char b ',';
      Printf.bprintf b "(%d,'%s',%d)" ((i * 100) + j) (name st)
        (min_age + Random.State.int st (max_age - min_age + 1))
    done;
    Buffer.add_string b ";\n"
  done;
  Printf.bprintf b
    "CREATE AUDIT EXPRESSION seniors AS SELECT * FROM patients WHERE age >= \
     %d FOR SENSITIVE TABLE patients, PARTITION BY patientid;\n"
    sensitive_age;
  Buffer.add_string b
    "CREATE TRIGGER watch ON ACCESS TO seniors AS NOTIFY 'senior';\n";
  if access_log then begin
    Buffer.add_string b
      "CREATE TABLE access_log (seq INT, usr VARCHAR, ids INT);\n";
    Buffer.add_string b
      "CREATE TRIGGER summarize ON ACCESS TO seniors AS INSERT INTO \
       access_log SELECT now(), user_id(), count(*) FROM accessed;\n"
  end;
  Buffer.contents b

(* oltp_paced: connection [conn] of [conns] owns the keys congruent to
   [conn] modulo [conns], including the ones it inserts, so the answer
   to each of its statements does not depend on the other connections. *)
let oltp_stream ~seed ~conns ~conn =
  let st = rng ~seed (100 + conn) in
  let keys = ref (Array.make ((patients / conns) + 1024) 0) in
  let nkeys = ref 0 in
  let add k =
    if !nkeys = Array.length !keys then begin
      let nk = Array.make (2 * !nkeys) 0 in
      Array.blit !keys 0 nk 0 !nkeys;
      keys := nk
    end;
    !keys.(!nkeys) <- k;
    incr nkeys
  in
  for k = 1 to patients do
    if (k - 1) mod conns = conn then add k
  done;
  let next_id = ref (patients + 1 + conn) in
  fun () ->
    let r = Random.State.float st 1.0 in
    let key () = !keys.(Random.State.int st !nkeys) in
    if r < 0.85 then
      ( Select,
        Printf.sprintf "SELECT name, age FROM patients WHERE patientid = %d"
          (key ()) )
    else if r < 0.95 then
      ( Update,
        Printf.sprintf "UPDATE patients SET name = '%s' WHERE patientid = %d"
          (name st) (key ()) )
    else begin
      let id = !next_id in
      next_id := id + conns;
      add id;
      ( Insert,
        Printf.sprintf "INSERT INTO patients VALUES (%d, '%s', %d)" id
          (name st)
          (min_age + Random.State.int st (max_age - min_age + 1)) )
    end

(* Poisson arrivals at [rate] per second over [0, duration). *)
let poisson_schedule ~seed ~conn ~rate ~duration =
  let st = rng ~seed (200 + conn) in
  let rec go t acc =
    let t = t -. (log (1.0 -. Random.State.float st 1.0) /. rate) in
    if t >= duration then Array.of_list (List.rev acc) else go t (t :: acc)
  in
  go 0.0 []

let oltp_schedule ~seed ~conns ~conn ~rate ~duration =
  let next = oltp_stream ~seed ~conns ~conn in
  Array.map
    (fun at ->
      let kind, line = next () in
      { kind; line; at })
    (poisson_schedule ~seed ~conn ~rate:(rate /. float_of_int conns) ~duration)

(* audit_wide: age ranges inside the sensitive band, two to ten ages wide
   (about 1.4k to 7.1k sensitive IDs each), half projecting names and
   half counting. *)
let audit_wide_stream ~seed =
  let st = rng ~seed 300 in
  fun () ->
    let lo = sensitive_age + Random.State.int st (max_age - sensitive_age) in
    let hi = lo + 1 + Random.State.int st (max_age - lo) in
    if Random.State.bool st then
      ( Select,
        Printf.sprintf
          "SELECT patientid, name FROM patients WHERE age >= %d AND age <= %d"
          lo hi )
    else
      ( Select,
        Printf.sprintf
          "SELECT count(*) FROM patients WHERE age >= %d AND age <= %d" lo hi
      )

(* --------------------------------------------------------------- *)
(* TPC-H (tpch_audit)                                               *)
(* --------------------------------------------------------------- *)

let tpch_sf = 0.01

let tpch_script ~seed =
  let db = Db.Database.create () in
  Db.Database.set_storage_mode db Storage.Table.Heap;
  let sizes = Tpch.Dbgen.load ~seed db ~sf:tpch_sf in
  ignore (Db.Database.exec db (Tpch.Queries.audit_segment ()));
  ignore
    (Db.Database.exec db
       "CREATE TRIGGER watch ON ACCESS TO audit_customer AS NOTIFY 'building'");
  (Db.Database.dump db, sizes)

(* The paper's customer workload plus two queries that touch no customer
   rows, round-robin from a seeded starting point. *)
let tpch_queries =
  Array.of_list Tpch.Queries.(customer_workload @ [ q1; q6 ])

let tpch_stream ~seed =
  let i = ref ((seed land max_int) mod Array.length tpch_queries) in
  fun () ->
    let q = tpch_queries.(!i) in
    i := (!i + 1) mod Array.length tpch_queries;
    (Select, q.Tpch.Queries.sql)

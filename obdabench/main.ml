(* The OBDA service benchmark: drives the shipped [obda_server.exe] over
   a Unix socket from this one load-generator process, on one of three
   workloads, and prints one JSON result line.  See README.md.

     main.exe --workload read-hot|read-write|tbox-cold --seed N
              --seconds S --trace 0|1

   Untraced runs ([--trace 0]) print the end-to-end metrics; traced runs
   print the per-layer metrics of [Catalog].  All files a run makes live
   under [.obdabench/] in the current directory. *)

module Client = Server.Client
module Wire = Server.Wire
module Harness = Cluster.Harness

let now = Unix.gettimeofday
let log fmt = Printf.eprintf (fmt ^^ "\n%!")

(* ------------------------------ options ------------------------------ *)

type opts = { workload : string; seed : int; seconds : float; trace : bool }

let usage =
  "usage: main.exe --workload read-hot|read-write|tbox-cold --seed N \
   --seconds S --trace 0|1"

let parse_args () =
  let rec go o = function
    | [] -> o
    | "--workload" :: w :: rest -> go { o with workload = w } rest
    | "--seed" :: n :: rest -> go { o with seed = int_of_string n } rest
    | "--seconds" :: s :: rest -> go { o with seconds = float_of_string s } rest
    | "--trace" :: t :: rest -> go { o with trace = t = "1" } rest
    | arg :: _ -> failwith (Printf.sprintf "unknown argument %s\n%s" arg usage)
  in
  let o =
    go { workload = ""; seed = 1; seconds = 10.; trace = false }
      (List.tl (Array.to_list Sys.argv))
  in
  if not (List.mem_assoc o.workload Catalog.workloads) then failwith usage;
  if o.seconds <= 0. then failwith "--seconds must be positive";
  o

(* ------------------------- processes and files ----------------------- *)

let root = ".obdabench"
let server_exe = "_build/default/bin/obda_server.exe"

(* The servers run as deployed by default: no count-triggered snapshots.
   [Harness.spawn] always passes [--snapshot-every], so [max_int] stands
   for "never".  (At the harness default of 64, read-write would compact
   its growing ~60k facts under every session lock every ~2 s, and its
   figures would drift with how far the writer got.) *)
let snapshot_every = max_int

let live : Harness.server list ref = ref []

let kill s =
  Harness.kill_dead s;
  live := List.filter (fun x -> x.Harness.pid <> s.Harness.pid) !live

let kill_all () = List.iter kill !live

let mkdir_p dir =
  let rec go d =
    if not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

(* the replica serves no request in the window: one worker domain, so it
   takes less of the two cores from the primary *)
let spawn dir name ?replica_of ?cluster () =
  let s =
    Harness.spawn ~exe:server_exe
      ~sock:(Filename.concat dir (name ^ ".sock"))
      ~data_dir:(Filename.concat dir name)
      ~group_commit:true ~chaos:false ~snapshot_every
      ~jobs:(if replica_of = None then 2 else 1)
      ?replica_of ?cluster ()
  in
  live := s :: !live;
  s

(* [Harness.wait_listening] polls every 50 ms, which would quantize
   setup_s; poll every 2 ms instead *)
let wait_up s =
  let deadline = now () +. 20. in
  let rec go () =
    match Client.connect (Harness.endpoint s) with
    | Result.Ok c -> Client.close c
    | Result.Error e ->
      if now () > deadline then failwith ("server did not come up: " ^ e);
      Thread.delay 0.002;
      go ()
  in
  go ()

let connect ep =
  match Client.connect ep with
  | Result.Ok c -> c
  | Result.Error e -> failwith ("connect " ^ ep ^ ": " ^ e)

(* a set-up request: anything but OK aborts the run *)
let rpc conn req =
  match Client.request conn req with
  | Result.Ok (Wire.Ok lines) -> lines
  | Result.Ok (Wire.Err e) -> failwith ("set-up request refused: " ^ e)
  | Result.Ok Wire.Busy -> failwith "set-up request shed: BUSY"
  | Result.Error e -> failwith ("set-up request failed: " ^ e)

(* one field of a member's [REPL STATUS] line *)
let repl_status ep field =
  match Client.connect ep with
  | Result.Error _ -> None
  | Result.Ok conn ->
    let line =
      match Client.hello ~version:3 conn with
      | Result.Ok _ -> (
        match Client.request conn Wire.Repl_status with
        | Result.Ok (Wire.Ok [ line ]) -> Some line
        | _ -> None)
      | Result.Error _ -> None
    in
    Client.close conn;
    Option.bind line (fun line ->
        String.split_on_char ' ' line
        |> List.find_map (fun kv ->
               match String.index_opt kv '=' with
               | Some i when String.sub kv 0 i = field ->
                 Some (String.sub kv (i + 1) (String.length kv - i - 1))
               | _ -> None))

let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%d/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | text ->
    String.split_on_char '\n' text
    |> List.find_map (fun line ->
           match String.split_on_char ':' line with
           | [ "VmHWM"; v ] ->
             Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb ->
                 float_of_int kb /. 1024.)
           | _ -> None)
    |> Option.value ~default:0.
  | exception Sys_error _ -> 0.

(* ---------------------------- provenance ----------------------------- *)

(* the host's aggregate CPU counters; steal is the 8th field *)
let cpu_times () =
  match In_channel.with_open_text "/proc/stat" In_channel.input_line with
  | Some line ->
    String.split_on_char ' ' line
    |> List.filter_map (fun f -> if f = "" || f = "cpu" then None else float_of_string_opt f)
  | None | (exception Sys_error _) -> []

(* percent of the host's CPU time stolen by other guests between two
   [cpu_times] readings — the noise floor of every figure *)
let steal_pct before after =
  match (before, after) with
  | _ :: _, _ :: _ when List.length before >= 8 && List.length after >= 8 ->
    let d = List.map2 ( -. ) after before in
    let total = List.fold_left ( +. ) 0. d in
    if total <= 0. then 0. else 100. *. List.nth d 7 /. total
  | _ -> 0.

let command_output cmd =
  match Unix.open_process_in cmd with
  | ic ->
    let out = try String.trim (input_line ic) with End_of_file -> "" in
    (match Unix.close_process_in ic with
     | Unix.WEXITED 0 when out <> "" -> Some out
     | _ -> None)
  | exception Unix.Unix_error _ -> None

(* the code under test, identified without git: a digest of the sources
   of the server's libraries and executables *)
let source_digest () =
  let rec files dir =
    match Sys.readdir dir with
    | entries ->
      Array.to_list entries |> List.sort compare
      |> List.concat_map (fun e ->
             let p = Filename.concat dir e in
             if Sys.is_directory p then files p
             else if Filename.check_suffix p ".ml" then [ p ]
             else [])
    | exception Sys_error _ -> []
  in
  let b = Buffer.create (1 lsl 20) in
  List.iter
    (fun p ->
      Buffer.add_string b p;
      Buffer.add_string b (In_channel.with_open_bin p In_channel.input_all))
    (files "lib" @ files "bin");
  Digest.to_hex (Digest.string (Buffer.contents b))

(* ------------------------- samples and spans ------------------------- *)

type kind = Ask | Write | Classify

let kind_name = function Ask -> "ask" | Write -> "write" | Classify -> "classify"

(* one timed request: a client-side span, send to reply received *)
type sample = {
  kind : kind;
  conn : int;
  t0 : float;
  t1 : float;
  outcome : Stats.outcome;
  reply_lines : int;
}

(* what one closed-loop connection leaves behind *)
type recorder = {
  id : int;
  trace : bool;
  mutable samples : sample list;
  mutable wire : (string list * Wire.reply) list;
      (** traced runs: request lines and replies, replayed through the
          codec in-process afterwards *)
  mutable wire_lines : int;
  mutable user_bytes : int;  (** payload bytes of the mutations sent *)
}

let recorder ~trace id =
  { id; trace; samples = []; wire = []; wire_lines = 0; user_bytes = 0 }

(* bounds the memory the codec replay keeps (a CLASSIFY reply on
   tbox-cold is ~200k lines) *)
let wire_line_budget = 1_000_000

let exchange r conn kind req ~check =
  let t0 = now () in
  let reply = Client.request conn req in
  let t1 = now () in
  let outcome, lines =
    match reply with
    | Result.Ok (Wire.Ok ls) -> (check ls, List.length ls)
    | Result.Ok (Wire.Err m) -> (Stats.classify_err m, 0)
    | Result.Ok Wire.Busy -> (Stats.Busy, 0)
    | Result.Error e ->
      (* drop the dead connection; the next request redials *)
      Client.close conn;
      (Stats.Transport e, 0)
  in
  r.samples <- { kind; conn = r.id; t0; t1; outcome; reply_lines = lines } :: r.samples;
  (match req with
   | Wire.Load { payload; _ } ->
     r.user_bytes <- List.fold_left (fun a l -> a + String.length l + 1) r.user_bytes payload
   | _ -> ());
  (if r.trace then
     match reply with
     | Result.Ok rep ->
       let req_lines = Wire.encode_request req in
       let n = List.length req_lines + lines in
       if r.wire_lines + n <= wire_line_budget then begin
         r.wire <- (req_lines, rep) :: r.wire;
         r.wire_lines <- r.wire_lines + n
       end
     | Result.Error _ -> ());
  outcome

let expect expected lines =
  if lines = expected then Stats.Ok
  else
    Stats.Bad_output
      (Printf.sprintf "%d line(s) where %d were expected" (List.length lines)
         (List.length expected))

(* ------------------------------ the oracle --------------------------- *)

(* the certain answers to [text], rendered as the server renders them:
   sorted, deduplicated, [Service.render_tuple] per line *)
let oracle_answers engine text =
  let signature = Dllite.Tbox.signature (Obda.Engine.tbox engine) in
  Obda.Engine.certain_answers engine (Obda.Qparse.parse_query ~signature text)
  |> List.sort_uniq compare
  |> List.map Server.Service.render_tuple

(* the CLASSIFY reply the server should send for [payload] *)
let classification_lines payload =
  match Dllite.Parser.tbox_of_string (String.concat "\n" payload) with
  | Result.Error e -> failwith ("generated TBox does not parse: " ^ e)
  | Result.Ok tbox ->
    List.map
      (Format.asprintf "%a" Quonto.Classify.pp_name_subsumption)
      (Quonto.Classify.name_level (Quonto.Classify.classify tbox))

let digest_lines lines = Digest.to_hex (Digest.string (String.concat "\n" lines))

(* --------------------------- the university -------------------------- *)

let session = "bench"
let persons = 20_000
let courses = persons / 10
let staff = persons / 10

let university () = Ontgen.Datagen.generate ~persons ~courses ()

let fact_lines db =
  List.concat_map
    (fun rel ->
      List.rev_map (Server.Service.fact_line rel) (Obda.Database.rows db rel))
    (Obda.Database.relation_names db)

(* the LOAD requests that install the university on the server, rendered
   once, before any set-up is timed *)
let university_loads (inst : Ontgen.Datagen.instance) =
  let tbox = inst.Ontgen.Datagen.tbox in
  let load kind payload = Wire.Load { session; kind; payload } in
  [
    load Wire.K_tbox (Server.Service.tbox_payload tbox);
    load Wire.K_mappings
      (Server.Service.mappings_payload (Dllite.Tbox.signature tbox)
         inst.Ontgen.Datagen.mappings);
    load Wire.K_facts (fact_lines inst.Ontgen.Datagen.database);
  ]

(* ------------------------------ workloads ---------------------------- *)

(* servers of one set-up: the primary, and read-write's replica *)
type env = { dir : string; primary : Harness.server; replica : Harness.server option }

let primary_ep env = Harness.endpoint env.primary

type 'st workload = {
  replicated : bool;
  connections : int;  (** closed-loop client connections *)
  setup : env -> 'st;  (** load and warm up; timed into setup_s *)
  client : 'st -> env -> recorder -> deadline:float -> unit;
      (** one connection's closed loop, until [deadline] *)
  check : 'st -> env -> Stats.tally -> unit;  (** output checks after the window *)
  tboxes : 'st -> Dllite.Tbox.t list;  (** replayed through Classify in traced runs *)
  stream : 'st -> string list;  (** a prefix of the generated request stream *)
}

let rng seed tags = Random.State.make (Array.of_list (seed :: tags))

(* --- read-hot: cache-hit point ASKs --------------------------------- *)

type read_hot = {
  texts : string array;     (** the 192 distinct query texts *)
  cdf : float array;        (** skewed pick distribution over [texts] *)
  expected : (string, string list) Hashtbl.t;
  rh_seed : int;
}

let read_hot_inputs seed =
  let r = rng seed [ 1 ] in
  let distinct n lo hi =
    let tbl = Hashtbl.create n in
    while Hashtbl.length tbl < n do
      Hashtbl.replace tbl (lo + Random.State.int r (hi - lo)) ()
    done;
    Hashtbl.fold (fun k () acc -> k :: acc) tbl [] |> List.sort compare
  in
  let teachers = distinct 64 0 staff in
  let students = distinct 64 staff persons in
  let cs = distinct 64 0 courses in
  let texts =
    List.map (Printf.sprintf "c <- teaches(\"p%d\", c)") teachers
    @ List.map (Printf.sprintf "c <- attends(\"p%d\", c)") students
    @ List.map (Printf.sprintf "s <- attends(s, \"c%d\")") cs
    |> Array.of_list
  in
  (* Zipf(1) over a seeded permutation of the texts *)
  let n = Array.length texts in
  for i = n - 1 downto 1 do
    let j = Random.State.int r (i + 1) in
    let t = texts.(i) in
    texts.(i) <- texts.(j);
    texts.(j) <- t
  done;
  let weights = Array.init n (fun i -> 1. /. float_of_int (i + 1)) in
  let sum = Array.fold_left ( +. ) 0. weights in
  let acc = ref 0. in
  let cdf = Array.map (fun w -> acc := !acc +. (w /. sum); !acc) weights in
  let engine = Ontgen.Datagen.engine (university ()) in
  let expected = Hashtbl.create n in
  Array.iter (fun t -> Hashtbl.replace expected t (oracle_answers engine t)) texts;
  { texts; cdf; expected; rh_seed = seed }

let pick st r =
  let u = Random.State.float r 1. in
  let rec go i = if i >= Array.length st.cdf - 1 || st.cdf.(i) >= u then i else go (i + 1) in
  st.texts.(go 0)

let inline text = Wire.Ask { session; query = Wire.Inline text }

let read_hot seed =
  let st = read_hot_inputs seed in
  let inst = university () in
  let loads = university_loads inst in
  {
    replicated = false;
    connections = 2;
    setup =
      (fun env ->
        let conn = connect (primary_ep env) in
        List.iter (fun req -> ignore (rpc conn req)) loads;
        (* every text once, so the window starts on a full answer cache *)
        Array.iter (fun t -> ignore (rpc conn (inline t))) st.texts;
        Client.close conn;
        st);
    client =
      (fun st env r ~deadline ->
        let conn = connect (primary_ep env) in
        let pr = rng st.rh_seed [ 2; r.id ] in
        while now () < deadline do
          let text = pick st pr in
          ignore
            (exchange r conn Ask (inline text)
               ~check:(expect (Hashtbl.find st.expected text)))
        done;
        Client.close conn);
    (* every reply was compared with the oracle as it arrived *)
    check = (fun _ _ _ -> ());
    tboxes = (fun _ -> [ inst.Ontgen.Datagen.tbox ]);
    stream =
      (fun st ->
        let pr = rng st.rh_seed [ 2; 0 ] in
        Array.to_list st.texts @ List.init 256 (fun _ -> pick st pr));
  }

(* --- read-write: writes beside cache-missing reads ------------------- *)

let named_queries =
  [
    ("persons", "x <- Person(x)");
    ("faculty", "x <- Faculty(x)");
    ("ta-of-professor", "s <- assists(s, c), teaches(t, c), Professor(t)");
  ]

(* batch [b] of the writer's stream: 10 fact rows linking generated
   people to courses.  No row adds a person, so the answer sets the reader
   fetches stay the same size over the window (ta-of-professor gains at
   most one TA per 20 rows): read cost does not drift with how far the
   writer got, which would make every figure depend on lock fairness. *)
let write_batch seed b =
  let r = rng seed [ 3; b ] in
  let course () = Printf.sprintf "c%d" (Random.State.int r courses) in
  let student () = Printf.sprintf "p%d" (staff + Random.State.int r (persons - staff)) in
  List.init 10 (fun _ ->
      match Random.State.int r 20 with
      | 0 -> ("t_assist", [ student (); course () ])
      | 1 | 2 | 3 -> ("t_teach", [ Printf.sprintf "p%d" (Random.State.int r staff); course () ])
      | _ -> ("t_enroll", [ student (); course () ]))

let batch_request rows =
  Wire.Load
    {
      session;
      kind = Wire.K_facts;
      payload = List.map (fun (rel, row) -> Server.Service.fact_line rel row) rows;
    }

type read_write = {
  rw_seed : int;
  mutable batches : int;  (** batches the writer sent (acknowledged or not) *)
}

let read_write seed =
  let inst = university () in
  let loads = university_loads inst in
  let st = { rw_seed = seed; batches = 0 } in
  let ask name = Wire.Ask { session; query = Wire.Named name } in
  {
    replicated = true;
    connections = 2;
    setup =
      (fun env ->
        st.batches <- 0;
        let conn = connect (primary_ep env) in
        List.iter (fun req -> ignore (rpc conn req)) loads;
        List.iter
          (fun (name, query) -> ignore (rpc conn (Wire.Prepare { session; name; query })))
          named_queries;
        (* compile each named query once; the replica must hold the load *)
        List.iter (fun (name, _) -> ignore (rpc conn (ask name))) named_queries;
        let fence = (Client.probe_endpoint (primary_ep env)).Client.es_fence in
        Option.iter
          (fun r ->
            if not (Harness.wait_fence ~timeout:60. (Harness.endpoint r) fence) then
              failwith "replica did not catch up with the initial load")
          env.replica;
        Client.close conn;
        st);
    client =
      (fun st env r ~deadline ->
        let conn = connect (primary_ep env) in
        if r.id = 0 then
          (* the writer: LOAD FACTS batches of 10 rows *)
          while now () < deadline do
            let b = st.batches in
            st.batches <- b + 1;
            ignore
              (exchange r conn Write (batch_request (write_batch st.rw_seed b))
                 ~check:(expect []))
          done
        else begin
          (* the reader: rotate the named queries *)
          let i = ref (st.rw_seed mod List.length named_queries) in
          while now () < deadline do
            let name, _ = List.nth named_queries !i in
            i := (!i + 1) mod List.length named_queries;
            ignore (exchange r conn Ask (ask name) ~check:(fun _ -> Stats.Ok))
          done
        end;
        Client.close conn);
    check =
      (fun st env tally ->
        (* the oracle: the generated instance plus every batch sent; a
           failed write would show here as a mismatch *)
        let inst = university () in
        for b = 0 to st.batches - 1 do
          List.iter
            (fun (rel, row) -> Obda.Database.insert inst.Ontgen.Datagen.database rel row)
            (write_batch st.rw_seed b)
        done;
        let engine = Ontgen.Datagen.engine inst in
        let conn = connect (primary_ep env) in
        let answers ep_conn name =
          match Client.request ep_conn (ask name) with
          | Result.Ok (Wire.Ok lines) -> Result.Ok lines
          | Result.Ok (Wire.Err m) -> Result.Error m
          | Result.Ok Wire.Busy -> Result.Error "busy"
          | Result.Error e -> Result.Error e
        in
        let primary_answers =
          List.map
            (fun (name, text) ->
              let outcome, lines =
                match answers conn name with
                | Result.Ok lines -> (expect (oracle_answers engine text) lines, lines)
                | Result.Error e -> (Stats.Err e, [])
              in
              if Stats.is_failure outcome then
                log "read-write check %s: %s" name (Stats.describe outcome);
              Stats.record tally outcome;
              (name, lines))
            named_queries
        in
        Client.close conn;
        (* the replica reaches the primary's last sequence number and
           answers as the primary does *)
        Option.iter
          (fun rep ->
            let fence = (Client.probe_endpoint (primary_ep env)).Client.es_fence in
            let caught_up = Harness.wait_fence ~timeout:60. (Harness.endpoint rep) fence in
            Stats.record tally
              (if caught_up then Stats.Ok
               else Stats.Bad_output "replica fence behind the primary's last_seq");
            let name, _ = List.nth named_queries (st.rw_seed mod List.length named_queries) in
            let rconn = connect (Harness.endpoint rep) in
            let outcome =
              match answers rconn name with
              | Result.Ok lines -> expect (List.assoc name primary_answers) lines
              | Result.Error e -> Stats.Err e
            in
            if Stats.is_failure outcome then
              log "read-write replica check: %s" (Stats.describe outcome);
            Stats.record tally outcome;
            Client.close rconn)
          env.replica);
    tboxes = (fun _ -> [ inst.Ontgen.Datagen.tbox ]);
    stream =
      (fun st ->
        List.map (fun (n, q) -> Printf.sprintf "PREPARE %s %s" n q) named_queries
        @ List.concat_map
            (fun b -> Wire.encode_request (batch_request (write_batch st.rw_seed b)))
            (List.init 64 Fun.id));
  }

(* --- tbox-cold: a fresh TBox per cycle ------------------------------- *)

let asks_per_cycle = 8

type cycle = {
  payload : string list;  (** the LOAD TBOX text *)
  queries : string list;
}

(* cycle [c]'s inputs.  The ASKs are atomic concepts: their cold
   rewriting is either tiny or, for a concept above most of the
   hierarchy, ~650 disjuncts in ~150 ms, so the tail shows the rewriting
   blow-up at a repeatable size.  The generator draws a concept's parents
   among lower ids, so low ids sit high in the hierarchy: one concept is
   drawn from each eighth of the id range, which keeps the number of
   large rewritings per cycle from swinging with the seed.  A role joined
   with a concept is left out: its cold rewriting took from 0.1 ms to
   13 s in-process depending on the seed, which no tail statistic over a
   few hundred ASKs repeats. *)
let cycle_inputs seed c =
  let profile = Ontgen.Profiles.transportation in
  let tseed = Random.State.bits (rng seed [ 4; c ]) in
  let tbox = Ontgen.Generator.generate ~seed:tseed profile in
  let r = rng seed [ 5; c ] in
  let n = profile.Ontgen.Generator.concepts in
  let queries =
    List.init asks_per_cycle (fun j ->
        let lo = j * n / asks_per_cycle and hi = (j + 1) * n / asks_per_cycle in
        Printf.sprintf "x <- %s(x)"
          (Ontgen.Generator.concept_name "" (lo + Random.State.int r (hi - lo))))
  in
  { payload = Server.Service.tbox_payload tbox; queries }

type tbox_cold = {
  tc_seed : int;
  mutable cycles : (cycle * string option) list;
      (** newest first: each cycle run, with its CLASSIFY reply digest *)
}

let tbox_cold seed =
  let st = { tc_seed = seed; cycles = [] } in
  (* the warm-up cycle is the same for every seed, so that setup_s does
     not swing with it *)
  let warm_up = cycle_inputs 0 (-1) in
  let run_cycle conn r sess cy ~deadline =
    let digest = ref None in
    let ops =
      [
        (Write, Wire.Load { session = sess; kind = Wire.K_tbox; payload = cy.payload }, expect []);
        ( Classify,
          Wire.Classify { session = sess },
          fun lines ->
            digest := Some (digest_lines lines);
            Stats.Ok );
      ]
      @ List.map
          (* no mappings and no data: every certain-answer set is empty *)
          (fun q -> (Ask, Wire.Ask { session = sess; query = Wire.Inline q }, expect []))
          cy.queries
    in
    List.iter
      (fun (kind, req, check) -> if now () < deadline then ignore (exchange r conn kind req ~check))
      ops;
    (cy, !digest)
  in
  {
    replicated = false;
    connections = 1;
    setup =
      (fun env ->
        st.cycles <- [];
        let conn = connect (primary_ep env) in
        ignore (run_cycle conn (recorder ~trace:false (-1)) "warm" warm_up ~deadline:infinity);
        Client.close conn;
        st);
    client =
      (fun st env r ~deadline ->
        let conn = connect (primary_ep env) in
        let c = ref 0 in
        while now () < deadline do
          st.cycles <-
            run_cycle conn r (Printf.sprintf "cold%d" !c) (cycle_inputs st.tc_seed !c) ~deadline
            :: st.cycles;
          incr c
        done;
        Client.close conn);
    check =
      (fun st _ tally ->
        let verify (cy, digest) =
          match digest with
          | None -> None  (* the CLASSIFY was not sent or failed: already counted *)
          | Some d ->
            Some
              (if d = digest_lines (classification_lines cy.payload) then Stats.Ok
               else Stats.Bad_output "CLASSIFY reply differs from Classify.name_level")
        in
        (* the in-process classifications take ~0.35 s each: two domains *)
        let odd, even = List.partition (fun (i, _) -> i mod 2 = 1) (List.mapi (fun i c -> (i, c)) st.cycles) in
        let other = Domain.spawn (fun () -> List.filter_map (fun (_, c) -> verify c) odd) in
        let mine = List.filter_map (fun (_, c) -> verify c) even in
        List.iter
          (fun outcome ->
            if Stats.is_failure outcome then log "tbox-cold check: %s" (Stats.describe outcome);
            Stats.record tally outcome)
          (mine @ Domain.join other));
    tboxes =
      (fun st ->
        List.filteri (fun i _ -> i < 4) (List.rev st.cycles)
        |> List.map (fun (cy, _) ->
               Dllite.Parser.tbox_of_string_exn (String.concat "\n" cy.payload)));
    stream =
      (fun st ->
        List.concat_map
          (fun c ->
            let cy = cycle_inputs st.tc_seed c in
            cy.payload @ cy.queries)
          [ 0; 1 ]);
  }

(* ----------------------------- the run ------------------------------ *)

let setups = 3

(* per-layer metrics from the in-process replay of the window's wire
   traffic and TBoxes *)
let time_per_item items f =
  match items with
  | [] -> 0.
  | _ ->
    let n = ref 0 and t0 = now () in
    (* repeat until the timing is long enough to read *)
    while now () -. t0 < 0.05 do
      List.iter f items;
      n := !n + List.length items
    done;
    (now () -. t0) /. float_of_int !n

(* this process's own metrics: client counters and library spans *)
let local_scrape () =
  Stats.parse_exposition (String.split_on_char '\n' (Obs.Registry.exposition Obs.default))

let exposition_delta f =
  let before = local_scrape () in
  let result = f () in
  (result, Stats.delta ~before ~after:(local_scrape ()))

let classify_layers tboxes =
  let name_level_s = ref 0. in
  let (), d =
    exposition_delta (fun () ->
        List.iter
          (fun tbox ->
            let cls = Quonto.Classify.classify tbox in
            let t0 = now () in
            ignore (Quonto.Classify.name_level cls);
            name_level_s := !name_level_s +. (now () -. t0))
          tboxes)
  in
  let phase p = Stats.hist_mean d "obda_phase_seconds" ~where:(Stats.label "phase" p) *. 1000. in
  [
    ("classify.encode_ms", phase "classify.encode");
    ("classify.closure_ms", phase "classify.closure");
    ("classify.unsat_ms", phase "classify.unsat");
    ( "classify.name_level_ms",
      if tboxes = [] then 0. else !name_level_s *. 1000. /. float_of_int (List.length tboxes) );
  ]

let wire_layers recorders =
  let wire = List.concat_map (fun r -> r.wire) recorders in
  let decode_s =
    time_per_item wire (fun (req_lines, _) ->
        let d = Wire.decoder () in
        List.iter (fun l -> ignore (Wire.feed d l)) req_lines)
  in
  (* the reply as [Serve] writes it: encoded, then rendered to text *)
  let encode_s =
    time_per_item wire (fun (_, reply) ->
        ignore (String.concat "" (List.map (fun l -> l ^ "\n") (Wire.encode_reply reply))))
  in
  [ ("wire.decode_us", decode_s *. 1e6); ("wire.encode_us", encode_s *. 1e6) ]

let server_layers d ~client_mean_ms ~user_bytes =
  let ratio a b = if b <= 0. then 0. else a /. b in
  let t ?where name = Stats.total ?where d name in
  let op_where op = Stats.label "op" op in
  (* the benchmark's own METRICS scrape lands in the delta: take it out *)
  let scrape_n = t "obda_op_seconds_count" ~where:(op_where "metrics") in
  let scrape_s = t "obda_op_seconds_sum" ~where:(op_where "metrics") in
  let req_n = t "obda_request_seconds_count" -. scrape_n in
  let req_s = t "obda_request_seconds_sum" -. scrape_s in
  let op_s = t "obda_op_seconds_sum" -. scrape_s in
  let request_ms = ratio req_s req_n *. 1000. in
  let op_ms op = Stats.hist_mean d "obda_op_seconds" ~where:(op_where op) *. 1000. in
  let cache name =
    let w = Stats.label "cache" name in
    let hits = t "obda_cache_hits_total" ~where:w in
    ratio hits (hits +. t "obda_cache_misses_total" ~where:w)
  in
  let phase p = Stats.hist_mean d "obda_phase_seconds" ~where:(Stats.label "phase" p) *. 1000. in
  let disjuncts = t "obda_rewrite_ucq_disjuncts_sum" in
  let max_disjuncts =
    match Stats.hist_max_bound d "obda_rewrite_ucq_disjuncts" with
    | m when Float.is_finite m -> m
    | _ -> 2. *. Obs.Histogram.size_buckets.(Array.length Obs.Histogram.size_buckets - 1)
  in
  [
    ("serve.request_ms", request_ms);
    ("serve.dispatch_ms", ratio (req_s -. op_s) req_n *. 1000.);
    ("serve.transport_ms", if req_n > 0. then client_mean_ms -. request_ms else 0.);
    ("executor.submitted", t "obda_executor_submitted_total");
    ("executor.rejected", t "obda_executor_rejected_total");
    ("service.ask_ms", op_ms "ask");
    ("service.load_ms", op_ms "load");
    ("service.classify_ms", op_ms "classify");
    ("lru.answers_hit_ratio", cache "answers");
    ("lru.rewrite_hit_ratio", cache "rewrite");
    ("lru.classify_hit_ratio", cache "classify");
    ("lru.evictions", t "obda_cache_evictions_total");
    ("rewrite.prepare_ms", phase "rewrite.prepare");
    ("rewrite.apply_ms", phase "rewrite");
    ("rewrite.ucq_disjuncts_mean", Stats.hist_mean d "obda_rewrite_ucq_disjuncts");
    ("rewrite.ucq_disjuncts_max", max_disjuncts);
    ("rewrite.kept_ratio", ratio disjuncts (t "obda_rewrite_generated_total"));
    ("cq.eval_ms", phase "eval");
    ("cq.index_probes", t "obda_index_probes_total");
    ("cq.join_hash", t "obda_join_strategy_total" ~where:(Stats.label "strategy" "hash"));
    ( "cq.join_nested_loop",
      t "obda_join_strategy_total" ~where:(Stats.label "strategy" "nested_loop") );
    ("database.rows_inserted", t "obda_db_rows_inserted_total");
    ("database.index_builds", t "obda_index_builds_total");
    ("wal.appends", t "obda_wal_appends_total");
    ("wal.fsyncs", t "obda_wal_fsyncs_total");
    ("wal.group_size_mean", Stats.hist_mean d "obda_wal_group_size");
    ("wal.bytes_per_user_byte", ratio (t "obda_wal_bytes_written_total") (float_of_int user_bytes));
    ("store.snapshots", t "obda_snapshots_total");
    ("repl.records_sent", t "obda_repl_records_sent_total");
    ("repl.acks", t "obda_repl_acks_total");
    ("repl.subscribers_dropped", t "obda_repl_subscribers_dropped_total");
  ]

let scrape env =
  let conn = connect (primary_ep env) in
  let lines = rpc conn Wire.Metrics in
  Client.close conn;
  Stats.parse_exposition lines

let write_trace path ~opts samples layer_spans =
  mkdir_p (Filename.dirname path);
  Out_channel.with_open_text path (fun oc ->
      List.iteri
        (fun i s ->
          Printf.fprintf oc "%s\n"
            (Stats.to_string
               (Stats.Obj
                  [
                    ("span", Stats.Int i);
                    ("name", Stats.String ("client." ^ kind_name s.kind));
                    ("workload", Stats.String opts.workload);
                    ("conn", Stats.Int s.conn);
                    ("start", Stats.Float s.t0);
                    ("end", Stats.Float s.t1);
                    ("outcome", Stats.String (Stats.describe s.outcome));
                    ("reply_lines", Stats.Int s.reply_lines);
                  ])))
        samples;
      List.iter
        (fun (name, t0, t1) ->
          Printf.fprintf oc "%s\n"
            (Stats.to_string
               (Stats.Obj
                  [
                    ("name", Stats.String name);
                    ("workload", Stats.String opts.workload);
                    ("start", Stats.Float t0);
                    ("end", Stats.Float t1);
                  ])))
        layer_spans)

let run opts (w : _ workload) =
  let dir = Filename.concat root (Printf.sprintf "%s-%d" opts.workload (Unix.getpid ())) in
  Harness.rm_rf dir;
  mkdir_p dir;
  (* set up [setups] times and keep the last: setup_s is their median *)
  let setup_once i =
    let sub = Filename.concat dir (Printf.sprintf "s%d" i) in
    mkdir_p sub;
    let t0 = now () in
    let env =
      if w.replicated then begin
        let p_ep = "unix:" ^ Filename.concat sub "p.sock" in
        let r_ep = "unix:" ^ Filename.concat sub "r.sock" in
        let primary = spawn sub "p" ~cluster:[ p_ep; r_ep ] () in
        let replica = spawn sub "r" ~replica_of:p_ep ~cluster:[ p_ep; r_ep ] () in
        wait_up primary;
        wait_up replica;
        (* semi-sync needs the replica subscribed before the load *)
        let deadline = now () +. 20. in
        while repl_status p_ep "subscribers" <> Some "1" do
          if now () > deadline then failwith "replica did not subscribe";
          Thread.delay 0.002
        done;
        { dir = sub; primary; replica = Some replica }
      end
      else begin
        let primary = spawn sub "p" () in
        wait_up primary;
        { dir = sub; primary; replica = None }
      end
    in
    let st = w.setup env in
    (now () -. t0, env, st)
  in
  let rec setup_all i acc =
    let s, env, st = setup_once i in
    if i + 1 < setups then begin
      kill env.primary;
      Option.iter kill env.replica;
      Harness.rm_rf env.dir;
      setup_all (i + 1) (s :: acc)
    end
    else (s :: acc, env, st)
  in
  let setup_times, env, st = setup_all 0 [] in
  let setup_s = Stats.median (Stats.sorted_of_list setup_times) in
  let before = if opts.trace then Some (scrape env, local_scrape ()) else None in
  let recorders = List.init w.connections (recorder ~trace:opts.trace) in
  let cpu_before = cpu_times () in
  let t0 = now () in
  let deadline = t0 +. opts.seconds in
  let domains =
    List.map (fun r -> Domain.spawn (fun () -> w.client st env r ~deadline)) recorders
  in
  List.iter Domain.join domains;
  let samples = List.concat_map (fun r -> r.samples) recorders in
  let window = List.fold_left (fun m s -> Float.max m s.t1) deadline samples -. t0 in
  let rss_mb = vm_hwm_mb env.primary.Harness.pid in
  let steal = steal_pct cpu_before (cpu_times ()) in
  let after = if opts.trace then Some (scrape env, local_scrape ()) else None in
  let lag =
    match env.replica with
    | None -> 0.
    | Some r ->
      let p = Client.probe_endpoint (primary_ep env) in
      let q = Client.probe_endpoint (Harness.endpoint r) in
      float_of_int (max 0 (p.Client.es_fence - q.Client.es_fence))
  in
  let tally = Stats.tally () in
  List.iter (fun s -> Stats.record tally s.outcome) samples;
  w.check st env tally;
  let of_kind kind = List.filter (fun s -> s.kind = kind) samples in
  let chunked kind =
    Stats.chunked ~t0 ~window:opts.seconds (List.map (fun s -> (s.t1, (s.t1 -. s.t0) *. 1000.)) (of_kind kind))
  in
  let p50 kind =
    match of_kind kind with
    | [] -> 0.
    | l -> Stats.median (Stats.sorted_of_list (List.map (fun s -> (s.t1 -. s.t0) *. 1000.) l))
  in
  let asks = chunked Ask and writes = chunked Write in
  let e2e =
    [
      ("setup_s", setup_s);
      ("ask_rps", asks.Stats.rate);
      ("ask_p50_ms", p50 Ask);
      ("ask_tail_ms", asks.Stats.tail_value);
      ("server_rss_mb", rss_mb);
    ]
  in
  let layers, layer_spans =
    match (before, after) with
    | Some (before, local_before), Some (after, local_after) ->
      let d = Stats.delta ~before ~after in
      let local = Stats.delta ~before:local_before ~after:local_after in
      let spans = ref [] in
      let span name f =
        let t0 = now () in
        let v = f () in
        spans := (name, t0, now ()) :: !spans;
        v
      in
      let mean_ms =
        Stats.mean (List.map (fun s -> (s.t1 -. s.t0) *. 1000.) samples)
      in
      let user_bytes = List.fold_left (fun a r -> a + r.user_bytes) 0 recorders in
      let layers =
        [
          ("write_rps", writes.Stats.rate);
          ("write_p50_ms", p50 Write);
          ("write_tail_ms", writes.Stats.tail_value);
          ("classify_p50_ms", p50 Classify);
          ("fail_ratio", Stats.fail_ratio tally);
        ]
        @ List.map (fun (n, v) -> ("traced." ^ n, v)) e2e
        @ span "bench.wire" (fun () -> wire_layers recorders)
        @ [
            ( "wire.reply_lines",
              Stats.mean (List.map (fun s -> float_of_int s.reply_lines) samples) );
          ]
        @ server_layers d ~client_mean_ms:mean_ms ~user_bytes
        @ span "bench.classify" (fun () -> classify_layers (w.tboxes st))
        @ [
            ("repl.lag_records", lag);
            ("client.retries", Stats.total local "obda_client_retries_total");
            ("client.reconnects", Stats.total local "obda_client_reconnects_total");
          ]
      in
      (layers, List.rev !spans)
    | _ -> ([], [])
  in
  kill env.primary;
  Option.iter kill env.replica;
  Harness.rm_rf dir;
  let digest = Digest.to_hex (Digest.string (String.concat "\n" (w.stream st))) in
  let report =
    Stats.Obj
      [
        ("workload", Stats.String opts.workload);
        ("seed", Stats.Int opts.seed);
        ("trace", Stats.Bool opts.trace);
        ("request_stream_digest", Stats.String digest);
        ("host_cores", Stats.Int (Domain.recommended_domain_count ()));
        ( "git_commit",
          Stats.String
            (Option.value ~default:"unknown"
               (if Sys.file_exists ".git" then command_output "git rev-parse HEAD 2>/dev/null"
                else None)) );
        ("source_digest", Stats.String (source_digest ()));
        ("ocaml_version", Stats.String Sys.ocaml_version);
        ("window_s", Stats.Float window);
        ("host_steal_pct", Stats.Float steal);
        ("setup_s_each", Stats.List (List.rev_map (fun s -> Stats.Float s) setup_times));
        ("ask_samples", Stats.Int (List.length (of_kind Ask)));
        ("ask_chunks", Stats.Int asks.Stats.chunks);
        ("ask_tail_percentile", Stats.Float asks.Stats.tail_p);
        ("write_samples", Stats.Int (List.length (of_kind Write)));
        ("write_chunks", Stats.Int writes.Stats.chunks);
        ("write_tail_percentile", Stats.Float writes.Stats.tail_p);
        ("classify_samples", Stats.Int (List.length (of_kind Classify)));
        ("failures", Stats.List (List.rev_map (fun e -> Stats.String e) tally.Stats.examples));
      ]
  in
  print_endline (Stats.to_string (Stats.Obj [ ("report", report) ]));
  if opts.trace then
    write_trace
      (Filename.concat root
         (Printf.sprintf "traces/%s-seed%d.jsonl" opts.workload opts.seed))
      ~opts samples layer_spans;
  let values = e2e @ layers in
  let metrics =
    if opts.trace then
      List.map
        (fun { Catalog.lname; lunit; _ } ->
          match List.assoc_opt lname values with
          | Some v -> (lname, lunit, v)
          | None -> failwith ("per-layer metric not measured: " ^ lname))
        Catalog.per_layer
    else
      List.map
        (fun { Catalog.name; unit; _ } -> (name, unit, List.assoc name values))
        Catalog.end_to_end
  in
  print_endline
    (Stats.result_line ~correct:(tally.Stats.failed = 0)
       ~attempted:tally.Stats.attempted ~failed:tally.Stats.failed metrics)

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let stop = Sys.Signal_handle (fun _ -> exit 3) in
  Sys.set_signal Sys.sigterm stop;
  Sys.set_signal Sys.sigint stop;
  at_exit kill_all;
  match parse_args () with
  | exception Failure m ->
    prerr_endline m;
    exit 2
  | opts -> (
    if not (Sys.file_exists server_exe) then begin
      prerr_endline ("missing " ^ server_exe ^ ": build it first (see obdabench/run.sh)");
      exit 2
    end;
    match
      match opts.workload with
      | "read-hot" -> run opts (read_hot opts.seed)
      | "read-write" -> run opts (read_write opts.seed)
      | _ -> run opts (tbox_cold opts.seed)
    with
    | () -> ()
    | exception e ->
      prerr_endline ("benchmark failed: " ^ Printexc.to_string e);
      exit 1)

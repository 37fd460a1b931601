(** The line-based wire protocol, as a pure codec.

    There is one protocol and every verb is accepted on every
    connection.  Requests (one header line, plus [n] raw payload lines
    for [LOAD] and [BULK ... FACTS]):

    {v
      HELLO <n>
      LOAD <session> TBOX|MAPPINGS|ABOX|FACTS <n>
      <n raw payload lines>
      BULK <session> FACTS <n>
      <n raw fact lines>
      BULK <session> END
      BULK <session> ABORT
      CLASSIFY <session>
      PREPARE <session> <name> <query text ...>
      ASK <session> <name>
      ASK <session> ? <query text ...>
      STATS [<session>]
      METRICS
      FAIL <failpoint> <spec>
      REPL SUBSCRIBE <fence> <epoch>
      REPL STATUS
      REPL PROMOTE <epoch>
      QUIT
    v}

    [HELLO] is an optional capability probe: whatever [n] a client
    sends, the server answers the constant {!hello_reply} line
    ([v3 bulk repl]).  It changes nothing on the connection.

    [BULK] is the streaming ingestion verb: facts arrive in
    length-prefixed chunks, each validated, WAL-logged and applied
    {e atomically} — a malformed line rejects only its own chunk, and a
    kill-9 can only lose un-acked chunks.  [END] closes the stream and
    invalidates the session's answer cache once; [ABORT] just closes it
    (acked chunks are already durable and stay — atomicity is per
    chunk, not per stream).

    [REPL] verbs drive replication: [STATUS] probes a node's role,
    epoch and fence, [PROMOTE] makes a replica primary, and
    [SUBSCRIBE] turns the connection into a record stream (see
    {!frame}).

    [FAIL] arms (or, with spec [off], disarms) a named failpoint in the
    durable I/O or request path — chaos tooling only, and the service
    refuses it unless the server runs with [--chaos].

    [STATS] replies are versioned and machine-parsable since schema
    version 2: the first payload line is [stats.version 2], each
    following line is [<metric> <labels> <value>] with labels rendered
    as [k=v,k2=v2] (or [-] when there are none).  [METRICS] returns the
    Prometheus-style text exposition of the same registry.

    Replies (one header line, plus [n] raw payload lines for [OK]):

    {v
      OK <n>
      <n lines>
      ERR <message>
      BUSY
    v}

    Payload lines are counted, never escaped, so any ontology / mapping
    / fact text round-trips as-is.  The decoder is incremental — feed it
    lines as they arrive — and enforces [max_line] and
    [max_payload_lines] limits so a hostile client cannot make the
    server buffer unboundedly; everything here is pure and tested
    without sockets. *)

type load_kind =
  | K_tbox      (** ontology text in the ASCII DL-Lite syntax *)
  | K_mappings  (** [map HEAD <- ATOMS] lines *)
  | K_abox      (** ontology-level facts, [A(a)] / [p(a, b)] lines *)
  | K_facts     (** raw database tuples, [rel(a, b)] lines *)

let string_of_kind = function
  | K_tbox -> "TBOX"
  | K_mappings -> "MAPPINGS"
  | K_abox -> "ABOX"
  | K_facts -> "FACTS"

let kind_of_string = function
  | "TBOX" -> Some K_tbox
  | "MAPPINGS" -> Some K_mappings
  | "ABOX" -> Some K_abox
  | "FACTS" -> Some K_facts
  | _ -> None

type query_ref =
  | Named of string   (** a query registered with PREPARE *)
  | Inline of string  (** query text on the ASK line itself *)

type request =
  | Hello of int  (** capability probe; the number is accepted and ignored *)
  | Load of { session : string; kind : load_kind; payload : string list }
  | Bulk_chunk of { session : string; payload : string list }
      (** one atomic chunk of a streaming FACTS load *)
  | Bulk_end of { session : string }
      (** close the stream; answer caches are invalidated here, once *)
  | Bulk_abort of { session : string }
      (** close the stream without the end-of-load bookkeeping *)
  | Classify of { session : string }
  | Prepare of { session : string; name : string; query : string }
  | Ask of { session : string; query : query_ref }
  | Stats of string option
  | Metrics  (** Prometheus-style text exposition *)
  | Fail of { name : string; spec : string }
      (** arm/disarm a failpoint; honoured only under [--chaos] *)
  | Repl_subscribe of { fence : int; epoch : int }
      (** become a replication subscriber: the connection turns into a
          record stream after the reply *)
  | Repl_status  (** role / epoch / fence probe — cheap, never queued *)
  | Repl_promote of { epoch : int }
      (** promote this replica to primary under [epoch] *)
  | Quit

(* ------------------------------ HELLO -------------------------------- *)

(** The protocol version the codec speaks; the only one there is. *)
let version = 3

(** The HELLO reply payload line, the same for every connection. *)
let hello_reply = Printf.sprintf "v%d bulk repl" version

type reply =
  | Ok of string list
  | Err of string
  | Busy

(* ------------------------------- names ------------------------------ *)

let valid_name s =
  s <> ""
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z')
         || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9')
         || c = '_' || c = '-' || c = '.')
       s

(* ------------------------------ encoding ---------------------------- *)

let encode_request = function
  | Hello v -> [ Printf.sprintf "HELLO %d" v ]
  | Load { session; kind; payload } ->
    Printf.sprintf "LOAD %s %s %d" session (string_of_kind kind)
      (List.length payload)
    :: payload
  | Bulk_chunk { session; payload } ->
    Printf.sprintf "BULK %s FACTS %d" session (List.length payload) :: payload
  | Bulk_end { session } -> [ Printf.sprintf "BULK %s END" session ]
  | Bulk_abort { session } -> [ Printf.sprintf "BULK %s ABORT" session ]
  | Classify { session } -> [ "CLASSIFY " ^ session ]
  | Prepare { session; name; query } ->
    [ Printf.sprintf "PREPARE %s %s %s" session name query ]
  | Ask { session; query = Named name } ->
    [ Printf.sprintf "ASK %s %s" session name ]
  | Ask { session; query = Inline q } -> [ Printf.sprintf "ASK %s ? %s" session q ]
  | Stats None -> [ "STATS" ]
  | Stats (Some session) -> [ "STATS " ^ session ]
  | Metrics -> [ "METRICS" ]
  | Fail { name; spec } -> [ Printf.sprintf "FAIL %s %s" name spec ]
  | Repl_subscribe { fence; epoch } ->
    [ Printf.sprintf "REPL SUBSCRIBE %d %d" fence epoch ]
  | Repl_status -> [ "REPL STATUS" ]
  | Repl_promote { epoch } -> [ Printf.sprintf "REPL PROMOTE %d" epoch ]
  | Quit -> [ "QUIT" ]

let encode_reply = function
  | Ok lines -> Printf.sprintf "OK %d" (List.length lines) :: lines
  | Err message ->
    (* a newline inside the message would desynchronize the stream *)
    let flat =
      String.map (fun c -> if c = '\n' || c = '\r' then ' ' else c) message
    in
    [ "ERR " ^ flat ]
  | Busy -> [ "BUSY" ]

(** [payload_of_text text] splits a file's contents into payload lines
    (the newline-terminated final line does not produce a trailing
    empty payload line). *)
let payload_of_text text =
  match String.split_on_char '\n' text with
  | [] -> []
  | lines ->
    (match List.rev lines with
     | "" :: rest -> List.rev rest
     | _ -> lines)

(* ------------------------------ decoding ---------------------------- *)

type limits = {
  max_line : int;           (** longest accepted line, bytes *)
  max_payload_lines : int;  (** largest accepted LOAD payload *)
}

let default_limits = { max_line = 65536; max_payload_lines = 100_000 }

type decoder = {
  limits : limits;
  mutable pending : pending option;
}

and pending = {
  p_session : string;
  p_kind : load_kind;
  p_bulk : bool;  (* payload completes a BULK chunk, not a LOAD *)
  mutable p_remaining : int;
  mutable p_acc : string list;  (* reversed *)
}

let decoder ?(limits = default_limits) () = { limits; pending = None }

type event =
  | Request of request
  | More             (** the line was consumed; the request is not complete yet *)
  | Error of string  (** malformed input; the decoder has re-synchronized *)

(* split a header line into whitespace-separated tokens *)
let tokens line =
  String.split_on_char ' ' line |> List.filter (fun t -> t <> "")

let parse_header d line =
  match tokens line with
  | [ "LOAD"; session; kind; n ] -> (
    match kind_of_string kind, int_of_string_opt n with
    | None, _ -> Error (Printf.sprintf "unknown LOAD kind %s" kind)
    | _, None -> Error (Printf.sprintf "bad LOAD line count %s" n)
    | _ when not (valid_name session) -> Error "bad session name"
    | _, Some n when n < 0 -> Error "negative LOAD line count"
    | _, Some n when n > d.limits.max_payload_lines ->
      Error
        (Printf.sprintf "payload too large (%d lines, limit %d)" n
           d.limits.max_payload_lines)
    | Some kind, Some 0 -> Request (Load { session; kind; payload = [] })
    | Some kind, Some n ->
      d.pending <-
        Some
          {
            p_session = session;
            p_kind = kind;
            p_bulk = false;
            p_remaining = n;
            p_acc = [];
          };
      More)
  | [ "HELLO"; v ] -> (
    match int_of_string_opt v with
    | Some v when v >= 1 -> Request (Hello v)
    | _ -> Error (Printf.sprintf "bad HELLO version %s" v))
  | [ "BULK"; session; "END" ] when valid_name session ->
    Request (Bulk_end { session })
  | [ "BULK"; session; "ABORT" ] when valid_name session ->
    Request (Bulk_abort { session })
  | [ "BULK"; session; "FACTS"; n ] -> (
    match int_of_string_opt n with
    | None -> Error (Printf.sprintf "bad BULK chunk line count %s" n)
    | _ when not (valid_name session) -> Error "bad session name"
    | Some n when n < 0 -> Error "negative BULK chunk line count"
    | Some n when n > d.limits.max_payload_lines ->
      Error
        (Printf.sprintf "chunk too large (%d lines, limit %d)" n
           d.limits.max_payload_lines)
    | Some 0 -> Request (Bulk_chunk { session; payload = [] })
    | Some n ->
      d.pending <-
        Some
          {
            p_session = session;
            p_kind = K_facts;
            p_bulk = true;
            p_remaining = n;
            p_acc = [];
          };
      More)
  | [ "CLASSIFY"; session ] when valid_name session ->
    Request (Classify { session })
  | "PREPARE" :: session :: name :: (_ :: _ as rest)
    when valid_name session && valid_name name ->
    Request (Prepare { session; name; query = String.concat " " rest })
  | "ASK" :: session :: "?" :: (_ :: _ as rest) when valid_name session ->
    Request (Ask { session; query = Inline (String.concat " " rest) })
  | [ "ASK"; session; name ] when valid_name session && valid_name name ->
    Request (Ask { session; query = Named name })
  | [ "STATS" ] -> Request (Stats None)
  | [ "STATS"; session ] when valid_name session -> Request (Stats (Some session))
  | [ "METRICS" ] -> Request Metrics
  | [ "FAIL"; name; spec ] when valid_name name -> Request (Fail { name; spec })
  | "REPL" :: rest -> (
    match rest with
    | [ "SUBSCRIBE"; fence; epoch ] -> (
      match (int_of_string_opt fence, int_of_string_opt epoch) with
      | Some f, Some e when f >= 0 && e >= 0 ->
        Request (Repl_subscribe { fence = f; epoch = e })
      | _ -> Error "bad REPL SUBSCRIBE fence or epoch")
    | [ "STATUS" ] -> Request Repl_status
    | [ "PROMOTE"; epoch ] -> (
      match int_of_string_opt epoch with
      | Some e when e >= 1 -> Request (Repl_promote { epoch = e })
      | _ -> Error "bad REPL PROMOTE epoch")
    | verb :: _ -> Error (Printf.sprintf "malformed REPL command %s" verb)
    | [] -> Error "malformed REPL command (want SUBSCRIBE | STATUS | PROMOTE)")
  | [ "QUIT" ] -> Request Quit
  | [] -> More  (* blank lines between requests are tolerated *)
  | verb :: _ ->
    Error
      (Printf.sprintf "malformed command %s"
         (if String.length verb > 32 then String.sub verb 0 32 ^ "..." else verb))

(** [feed d line] advances the decoder by one input line (without its
    terminator).  A protocol error drops any half-collected payload —
    the connection is desynchronized anyway; servers should report the
    error and continue from the next line. *)
let feed d line =
  if String.length line > d.limits.max_line then begin
    d.pending <- None;
    Error
      (Printf.sprintf "line too long (%d bytes, limit %d)" (String.length line)
         d.limits.max_line)
  end
  else
    match d.pending with
    | Some p ->
      p.p_acc <- line :: p.p_acc;
      p.p_remaining <- p.p_remaining - 1;
      if p.p_remaining = 0 then begin
        d.pending <- None;
        let payload = List.rev p.p_acc in
        Request
          (if p.p_bulk then Bulk_chunk { session = p.p_session; payload }
           else Load { session = p.p_session; kind = p.p_kind; payload })
      end
      else More
    | None -> parse_header d line

(* --------------------------- REPL streaming -------------------------- *)

(** After [REPL SUBSCRIBE]'s OK the connection stops being
    request/reply and becomes a symmetric frame stream:

    {v
      primary → replica:
        REPL RESET <fence> <k>     wipe; k STATE frames rebuild seq ≤ fence
        REPL STATE <n>             one compacted record (n payload lines)
        REPL RECORD <seq> <epoch> <n>   one WAL record (n payload lines)
      replica → primary:
        REPL ACK <seq>             applied durably through <seq>
        REPL NACK <epoch>          refused: the sender's epoch is stale
    v}

    Payload lines are counted and raw, exactly like LOAD. *)
type frame =
  | F_record of { seq : int; epoch : int; count : int }
  | F_reset of { fence : int; state_records : int }
  | F_state of { count : int }
  | F_ack of { seq : int }
  | F_nack of { epoch : int }

let encode_frame = function
  | F_record { seq; epoch; count } ->
    Printf.sprintf "REPL RECORD %d %d %d" seq epoch count
  | F_reset { fence; state_records } ->
    Printf.sprintf "REPL RESET %d %d" fence state_records
  | F_state { count } -> Printf.sprintf "REPL STATE %d" count
  | F_ack { seq } -> Printf.sprintf "REPL ACK %d" seq
  | F_nack { epoch } -> Printf.sprintf "REPL NACK %d" epoch

let parse_frame line =
  let int_ge lo s =
    match int_of_string_opt s with
    | Some v when v >= lo -> Some v
    | _ -> None
  in
  match tokens line with
  | [ "REPL"; "RECORD"; seq; epoch; count ] -> (
    match (int_ge 1 seq, int_ge 0 epoch, int_ge 0 count) with
    | Some seq, Some epoch, Some count -> Result.Ok (F_record { seq; epoch; count })
    | _ -> Result.Error ("bad REPL RECORD frame: " ^ line))
  | [ "REPL"; "RESET"; fence; k ] -> (
    match (int_ge 0 fence, int_ge 0 k) with
    | Some fence, Some state_records -> Result.Ok (F_reset { fence; state_records })
    | _ -> Result.Error ("bad REPL RESET frame: " ^ line))
  | [ "REPL"; "STATE"; count ] -> (
    match int_ge 0 count with
    | Some count -> Result.Ok (F_state { count })
    | None -> Result.Error ("bad REPL STATE frame: " ^ line))
  | [ "REPL"; "ACK"; seq ] -> (
    match int_ge 0 seq with
    | Some seq -> Result.Ok (F_ack { seq })
    | None -> Result.Error ("bad REPL ACK frame: " ^ line))
  | [ "REPL"; "NACK"; epoch ] -> (
    match int_ge 0 epoch with
    | Some epoch -> Result.Ok (F_nack { epoch })
    | None -> Result.Error ("bad REPL NACK frame: " ^ line))
  | _ -> Result.Error ("unrecognized REPL frame: " ^ line)

(* ------------------------- reply-side parsing ------------------------ *)

(** [parse_reply_header line] — the client side of the codec. *)
let parse_reply_header line =
  match tokens line with
  | [ "OK"; n ] -> (
    match int_of_string_opt n with
    | Some n when n >= 0 -> Result.Ok (`Ok n)
    | _ -> Result.Error ("bad OK line count: " ^ line))
  | "OK" :: _ -> Result.Error ("bad OK header: " ^ line)
  | "ERR" :: rest -> Result.Ok (`Err (String.concat " " rest))
  | [ "BUSY" ] -> Result.Ok `Busy
  | _ -> Result.Error ("unrecognized reply: " ^ line)

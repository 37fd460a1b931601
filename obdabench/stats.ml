(** Statistics and report plumbing of the OBDA service benchmark: latency
    percentiles, the tail rule, failure counting, metric-name validation,
    Prometheus exposition deltas and the JSON the benchmark prints.  Pure
    code, kept apart from the load generator so it is unit-tested. *)

(* ----------------------------- percentiles --------------------------- *)

(** [rank n p] — the 1-based nearest rank of percentile [p] (0 < p <= 100)
    in [n] samples: the smallest rank whose share of samples reaches
    [p]. *)
let rank n p =
  let r = int_of_float (Float.ceil (p /. 100. *. float_of_int n -. 1e-9)) in
  max 1 (min n r)

(** [percentile sorted p] — nearest-rank percentile of an ascending
    array.  @raise Invalid_argument on an empty array. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  sorted.(rank n p - 1)

let median sorted = percentile sorted 50.

(** Samples a tail percentile must leave beyond it. *)
let min_beyond = 10

(** [tail sorted] — the highest percentile with at least {!min_beyond}
    samples beyond it, as [(p, value)]: the 11th largest sample, at
    percentile [100 (n - 10) / n].  With ten samples or fewer no
    percentile qualifies, and the maximum is returned as [p = 100]. *)
let tail sorted =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.tail: no samples";
  if n <= min_beyond then (100., sorted.(n - 1))
  else
    let p = 100. *. float_of_int (n - min_beyond) /. float_of_int n in
    (p, sorted.(n - min_beyond - 1))

let sorted_of_list xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let mean xs =
  match xs with
  | [] -> 0.
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* ------------------------------- chunks ------------------------------ *)

(** A window's rate and tail are taken per chunk of consecutive
    completions and reported as the median over chunks, so that a stall
    of the shared host (the VM's CPU steal time comes in bursts) during part
    of the window moves them little.  Rates use chunks of [rate_chunk]
    completions, a multiple of tbox-cold's 8 ASKs per cycle; tails use
    chunks of [tail_chunk], whose 11th largest sample is their p90.  Fewer
    than two chunks' worth of samples make a single chunk. *)
let rate_chunk = 64

let tail_chunk = 100

type chunked = {
  chunks : int;        (** tail chunks *)
  rate : float;        (** median over chunks of completions per second *)
  tail_p : float;      (** the tail percentile of the smallest chunk *)
  tail_value : float;  (** median over chunks of their tail *)
}

(* [k] chunks of near-equal size over [n] samples: (first, last) of the
   [i]th *)
let chunks_of n size =
  let k = max 1 (n / size) in
  (k, fun i -> (i * n / k, ((i + 1) * n / k) - 1))

(** [chunked ~t0 ~window points] — [points] are [(finish time, latency)]
    pairs of one operation kind started in [t0, t0 + window].  A chunk's
    rate runs from the previous chunk's last completion (or [t0]) to its
    own last; a single chunk's rate counts the completions inside the
    window only. *)
let chunked ~t0 ~window points =
  let pts = Array.of_list points in
  Array.sort compare pts;
  let n = Array.length pts in
  if n = 0 then { chunks = 0; rate = 0.; tail_p = 0.; tail_value = 0. }
  else
    let rk, rbounds = chunks_of n rate_chunk in
    let rate i =
      let lo, hi = rbounds i in
      if rk = 1 then
        (* the whole window: completions up to its end, not the overrun *)
        float_of_int (Array.fold_left (fun c (f, _) -> if f <= t0 +. window then c + 1 else c) 0 pts)
        /. window
      else
        let start = if i = 0 then t0 else fst pts.(lo - 1) in
        float_of_int (hi - lo + 1) /. (fst pts.(hi) -. start)
    in
    let tk, tbounds = chunks_of n tail_chunk in
    let tail_of i =
      let lo, hi = tbounds i in
      tail (sorted_of_list (List.init (hi - lo + 1) (fun j -> snd pts.(lo + j))))
    in
    let tails = List.init tk tail_of in
    {
      chunks = tk;
      rate = median (sorted_of_list (List.init rk rate));
      tail_p = List.fold_left (fun m (p, _) -> Float.min m p) 100. tails;
      tail_value = median (sorted_of_list (List.map snd tails));
    }

(* ------------------------------ failures ----------------------------- *)

(** How one benchmark operation ended.  Every constructor but [Ok] is a
    failure: a refused, timed-out or wrong answer counts as missing. *)
type outcome =
  | Ok
  | Err of string        (** the server answered ERR *)
  | Busy                 (** shed by admission control *)
  | Timeout              (** the server's request deadline passed *)
  | Transport of string  (** the connection failed *)
  | Bad_output of string (** an answer that differs from the oracle's *)

let is_failure = function Ok -> false | _ -> true

let describe = function
  | Ok -> "ok"
  | Err m -> "err: " ^ m
  | Busy -> "busy"
  | Timeout -> "timeout"
  | Transport m -> "transport: " ^ m
  | Bad_output m -> "bad output: " ^ m

(** [classify_err msg] — the server reports its request deadline as an
    ERR starting with [timeout]. *)
let classify_err msg =
  if String.length msg >= 7 && String.sub msg 0 7 = "timeout" then Timeout
  else Err msg

(** A thread-safe count of attempted and failed operations, with the
    first few failure descriptions kept for the report. *)
type tally = {
  mu : Mutex.t;
  mutable attempted : int;
  mutable failed : int;
  mutable examples : string list;  (** newest first, at most 8 *)
}

let tally () = { mu = Mutex.create (); attempted = 0; failed = 0; examples = [] }

let record t outcome =
  Mutex.lock t.mu;
  t.attempted <- t.attempted + 1;
  if is_failure outcome then begin
    t.failed <- t.failed + 1;
    if List.length t.examples < 8 then
      t.examples <- describe outcome :: t.examples
  end;
  Mutex.unlock t.mu

(** [fail_ratio t] — failed over attempted; 0 when nothing was tried. *)
let fail_ratio t =
  if t.attempted = 0 then 0.
  else float_of_int t.failed /. float_of_int t.attempted

(* ---------------------------- metric names --------------------------- *)

(** Metric and workload names: 1 to 64 characters of [A-Za-z0-9_.-],
    starting with a letter or a digit. *)
let valid_name s =
  let ok_char c =
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
    || c = '_' || c = '.' || c = '-'
  in
  let n = String.length s in
  n >= 1 && n <= 64
  && (match s.[0] with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true
      | _ -> false)
  && String.for_all ok_char s

(* ------------------------ exposition deltas -------------------------- *)

(** One sample line of the server's [METRICS] exposition. *)
type series = {
  name : string;
  labels : (string * string) list;  (** sorted by key *)
  value : float;
}

(* [k="v",k2="v2"] — label values are OCaml-escaped by the exposition;
   the benchmark's label values never contain quotes or commas *)
let parse_labels text =
  String.split_on_char ',' text
  |> List.filter_map (fun kv ->
         match String.index_opt kv '=' with
         | None -> None
         | Some i ->
           let k = String.sub kv 0 i in
           let v = String.sub kv (i + 1) (String.length kv - i - 1) in
           let v =
             if String.length v >= 2 && v.[0] = '"' && v.[String.length v - 1] = '"'
             then String.sub v 1 (String.length v - 2)
             else v
           in
           Some (k, v))
  |> List.sort compare

(** [parse_exposition lines] — the samples of a Prometheus-style text
    exposition; comment and malformed lines are skipped. *)
let parse_exposition lines =
  List.filter_map
    (fun line ->
      if line = "" || line.[0] = '#' then None
      else
        match String.rindex_opt line ' ' with
        | None -> None
        | Some i -> (
          let key = String.sub line 0 i in
          match float_of_string_opt (String.sub line (i + 1) (String.length line - i - 1)) with
          | None -> None
          | Some value -> (
            match String.index_opt key '{' with
            | None -> Some { name = key; labels = []; value }
            | Some j when key.[String.length key - 1] = '}' ->
              Some
                {
                  name = String.sub key 0 j;
                  labels = parse_labels (String.sub key (j + 1) (String.length key - j - 2));
                  value;
                }
            | Some _ -> None)))
    lines

(** [delta ~before ~after] — per series, [after - before]; a series that
    first appears in [after] counts from 0.  Counters, histogram buckets,
    sums and counts all subtract this way, so the result describes only
    what happened between the two scrapes. *)
let delta ~before ~after =
  let tbl = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.replace tbl (s.name, s.labels) s.value) before;
  List.map
    (fun s ->
      let b = Option.value ~default:0. (Hashtbl.find_opt tbl (s.name, s.labels)) in
      { s with value = s.value -. b })
    after

(** [total ss name ~where] — the sum of [name]'s series whose labels
    satisfy [where] (default: all). *)
let total ?(where = fun _ -> true) ss name =
  List.fold_left
    (fun acc s -> if s.name = name && where s.labels then acc +. s.value else acc)
    0. ss

let label k v labels = List.assoc_opt k labels = Some v

(** [hist_mean ss name ~where] — a histogram's mean over the delta:
    [_sum / _count], 0 when it observed nothing. *)
let hist_mean ?where ss name =
  let count = total ?where ss (name ^ "_count") in
  if count <= 0. then 0. else total ?where ss (name ^ "_sum") /. count

(** [hist_max_bound ss name ~where] — the upper bound of the highest
    bucket that received an observation (the exposition carries no
    maximum); [infinity] when only the overflow bucket did, 0 when
    nothing was observed. *)
let hist_max_bound ?(where = fun _ -> true) ss name =
  let buckets =
    List.filter_map
      (fun s ->
        if s.name = name ^ "_bucket" && where s.labels then
          match List.assoc_opt "le" s.labels with
          | Some "+Inf" -> Some (infinity, s.value)
          | Some b -> Option.map (fun b -> (b, s.value)) (float_of_string_opt b)
          | None -> None
        else None)
      ss
    |> List.sort compare
  in
  (* cumulative counts: the maximum sits in the first bucket whose count
     reaches the total *)
  match List.rev buckets with
  | [] -> 0.
  | (_, all) :: _ when all <= 0. -> 0.
  | (_, all) :: _ -> (
    match List.find_opt (fun (_, c) -> c >= all) buckets with
    | Some (b, _) -> b
    | None -> infinity)

(* -------------------------------- JSON ------------------------------- *)

type json =
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of json list
  | Obj of (string * json) list

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* all significant digits, as measured; non-finite values have no JSON
   spelling and render as null *)
let float_text f =
  if Float.is_finite f then Printf.sprintf "%.17g" f else "null"

let rec to_string = function
  | Bool b -> string_of_bool b
  | Int i -> string_of_int i
  | Float f -> float_text f
  | String s -> "\"" ^ escape s ^ "\""
  | List xs -> "[" ^ String.concat ", " (List.map to_string xs) ^ "]"
  | Obj kvs ->
    "{"
    ^ String.concat ", "
        (List.map (fun (k, v) -> "\"" ^ escape k ^ "\": " ^ to_string v) kvs)
    ^ "}"

(** [result_line ~correct ~attempted ~failed metrics] — the benchmark's
    final stdout line: exactly [correct], [attempted], [failed] and
    [metrics], each metric as [{"value": v, "unit": u}].
    @raise Invalid_argument on a metric name outside {!valid_name}. *)
let result_line ~correct ~attempted ~failed metrics =
  List.iter
    (fun (name, _, _) ->
      if not (valid_name name) then invalid_arg ("Stats.result_line: bad metric name " ^ name))
    metrics;
  to_string
    (Obj
       [
         ("correct", Bool correct);
         ("attempted", Int attempted);
         ("failed", Int failed);
         ( "metrics",
           Obj
             (List.map
                (fun (name, unit, value) ->
                  (name, Obj [ ("value", Float value); ("unit", String unit) ]))
                metrics) );
       ])

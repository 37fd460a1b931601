(** Every metric the benchmark reports, in the order it reports them.
    [BENCHMARK.json] declares the same names and units (a test keeps the
    two in step); the [moves] texts record, before any measurement, which
    end-to-end metric on which workload a per-layer metric should move. *)

type end_to_end = {
  name : string;
  unit : string;
  better : string;  (** ["lower"] or ["higher"] *)
  bound : float;    (** share of the parent's median it may worsen by *)
}

(** Printed on every untraced run ([--trace 0]), on every workload. *)
let end_to_end =
  [
    { name = "setup_s"; unit = "s"; better = "lower"; bound = 0.25 };
    { name = "ask_rps"; unit = "1/s"; better = "higher"; bound = 0.25 };
    { name = "ask_p50_ms"; unit = "ms"; better = "lower"; bound = 0.25 };
    { name = "ask_tail_ms"; unit = "ms"; better = "lower"; bound = 0.25 };
    { name = "server_rss_mb"; unit = "MB"; better = "lower"; bound = 0.25 };
  ]

type per_layer = {
  lname : string;
  lunit : string;
  lbetter : string;
  moves : string;  (** the end-to-end metric and workload it should move *)
}

let l lname lunit lbetter moves = { lname; lunit; lbetter; moves }

(** Printed on every traced run ([--trace 1]), on every workload.  A
    layer the workload does not exercise reads 0. *)
let per_layer =
  [
    (* end-to-end figures that do not exist on every workload *)
    l "write_rps" "1/s" "higher" "mutations/s: LOAD FACTS on read-write, LOAD TBOX on tbox-cold; 0 on read-hot";
    l "write_p50_ms" "ms" "lower" "median mutation latency, read-write and tbox-cold";
    l "write_tail_ms" "ms" "lower" "mutation tail latency, read-write and tbox-cold";
    l "classify_p50_ms" "ms" "lower" "median CLASSIFY latency, tbox-cold only";
    l "fail_ratio" "ratio" "lower" "failed over attempted operations, every workload";
    (* the untraced end-to-end metrics, measured again with tracing on *)
    l "traced.setup_s" "s" "lower" "tracing overhead on setup_s";
    l "traced.ask_rps" "1/s" "higher" "tracing overhead on ask_rps";
    l "traced.ask_p50_ms" "ms" "lower" "tracing overhead on ask_p50_ms";
    l "traced.ask_tail_ms" "ms" "lower" "tracing overhead on ask_tail_ms";
    l "traced.server_rss_mb" "MB" "lower" "tracing overhead on server_rss_mb";
    (* Server.Wire *)
    l "wire.decode_us" "us" "lower" "ask_rps on read-write, classify_p50_ms on tbox-cold; ~0 on read-hot";
    l "wire.encode_us" "us" "lower" "ask_rps on read-write, classify_p50_ms on tbox-cold; ~0 on read-hot";
    l "wire.reply_lines" "lines" "lower" "ask_rps on read-write, classify_p50_ms on tbox-cold";
    (* Server.Serve *)
    l "serve.request_ms" "ms" "lower" "ask_p50_ms on every workload";
    l "serve.dispatch_ms" "ms" "lower" "ask_p50_ms/ask_rps on read-hot, write_p50_ms on read-write";
    l "serve.transport_ms" "ms" "lower" "ask_rps on read-write, classify_p50_ms on tbox-cold";
    (* Parallel.Executor *)
    l "executor.submitted" "count" "higher" "ask_rps, every workload";
    l "executor.rejected" "count" "lower" "fail_ratio, every workload";
    (* Server.Service *)
    l "service.ask_ms" "ms" "lower" "ask_p50_ms, every workload";
    l "service.load_ms" "ms" "lower" "write_p50_ms on read-write and tbox-cold";
    l "service.classify_ms" "ms" "lower" "classify_p50_ms on tbox-cold";
    (* Server.Lru *)
    l "lru.answers_hit_ratio" "ratio" "higher" "ask_p50_ms on read-hot (~0.99) vs read-write (~0)";
    l "lru.rewrite_hit_ratio" "ratio" "higher" "ask_p50_ms on read-write; ask_tail_ms on tbox-cold (~0)";
    l "lru.classify_hit_ratio" "ratio" "higher" "classify_p50_ms on tbox-cold (~0)";
    l "lru.evictions" "count" "lower" "ask_p50_ms on read-hot and read-write";
    (* Quonto.Classify, timed in the benchmark process on the workload's TBoxes *)
    l "classify.encode_ms" "ms" "lower" "classify_p50_ms on tbox-cold; nothing elsewhere";
    l "classify.closure_ms" "ms" "lower" "classify_p50_ms on tbox-cold; nothing elsewhere";
    l "classify.unsat_ms" "ms" "lower" "classify_p50_ms on tbox-cold; nothing elsewhere";
    l "classify.name_level_ms" "ms" "lower" "classify_p50_ms on tbox-cold; nothing elsewhere";
    (* Obda.Rewrite *)
    l "rewrite.prepare_ms" "ms" "lower" "ask_tail_ms on tbox-cold; none on read-hot/read-write";
    l "rewrite.apply_ms" "ms" "lower" "ask_tail_ms on tbox-cold; none on read-hot/read-write";
    l "rewrite.ucq_disjuncts_mean" "count" "lower" "ask_tail_ms on tbox-cold";
    l "rewrite.ucq_disjuncts_max" "count" "lower" "ask_tail_ms on tbox-cold";
    l "rewrite.kept_ratio" "ratio" "higher" "ask_tail_ms on tbox-cold";
    (* Obda.Cq, Obda.Database *)
    l "cq.eval_ms" "ms" "lower" "ask_rps/ask_p50_ms on read-write; none on read-hot";
    l "cq.index_probes" "count" "lower" "ask_p50_ms on read-write";
    l "cq.join_hash" "count" "lower" "ask_p50_ms on read-write";
    l "cq.join_nested_loop" "count" "lower" "ask_p50_ms on read-write";
    l "database.rows_inserted" "count" "higher" "write_p50_ms on read-write";
    l "database.index_builds" "count" "lower" "ask_p50_ms and write_p50_ms on read-write";
    (* Durable.Wal, Durable.Store *)
    l "wal.appends" "count" "higher" "write_rps on read-write";
    l "wal.fsyncs" "count" "lower" "write_p50_ms/write_rps on read-write; write_p50_ms on tbox-cold";
    l "wal.group_size_mean" "count" "higher" "write_rps on read-write";
    l "wal.bytes_per_user_byte" "ratio" "lower" "write_p50_ms on read-write and tbox-cold";
    l "store.snapshots" "count" "lower" "write_tail_ms on read-write";
    (* Cluster.Replicate *)
    l "repl.records_sent" "count" "higher" "write_tail_ms on read-write";
    l "repl.acks" "count" "higher" "write_tail_ms on read-write";
    l "repl.lag_records" "count" "lower" "write_tail_ms on read-write";
    l "repl.subscribers_dropped" "count" "lower" "fail_ratio on read-write";
    (* Server.Client *)
    l "client.retries" "count" "lower" "fail_ratio, every workload";
    l "client.reconnects" "count" "lower" "fail_ratio, every workload";
  ]

(** The three workloads, with why each was chosen. *)
let workloads =
  [
    ( "read-hot",
      "192 point ASKs that fit the answer cache: Wire, Serve dispatch, \
       Executor, Qparse and Lru, bypassing Rewrite, Cq and the WAL" );
    ( "read-write",
      "LOAD FACTS beside named reads on one session with a semi-sync \
       replica: every read misses the answer cache and pays Cq, writes pay \
       WAL, fsync and replication" );
    ( "tbox-cold",
      "a fresh Transportation TBox per cycle misses the classify and \
       rewrite caches; Galen and DOLCE are left out: their cold rewritings \
       pass 3 s and can wedge a worker at the 30 s timeout" );
  ]

(* The observability layer: histogram bucketing and quantile readout,
   counter monotonicity, registry interning, the text exposition — and
   the property that makes the registry safe to thread through the
   server's worker domains: concurrent increments lose no counts. *)

let test_counter_monotonic () =
  let c = Obs.Counter.make () in
  Alcotest.(check int) "starts at zero" 0 (Obs.Counter.value c);
  Obs.Counter.incr c;
  Obs.Counter.incr ~by:41 c;
  Alcotest.(check int) "accumulates" 42 (Obs.Counter.value c);
  Obs.Counter.incr ~by:0 c;
  Alcotest.(check int) "by:0 is a no-op" 42 (Obs.Counter.value c);
  Alcotest.check_raises "negative increment rejected"
    (Invalid_argument "Obs.Counter.incr: negative increment") (fun () ->
      Obs.Counter.incr ~by:(-1) c)

let test_gauge () =
  let g = Obs.Gauge.make () in
  Obs.Gauge.set g 2.5;
  Obs.Gauge.add g 0.5;
  Alcotest.(check (float 1e-9)) "set + add" 3.0 (Obs.Gauge.value g)

let test_histogram_bucketing () =
  let h = Obs.Histogram.make ~buckets:[| 1.0; 2.0; 5.0 |] () in
  Alcotest.(check (float 0.)) "empty quantile" 0.0 (Obs.Histogram.quantile h 0.5);
  List.iter (Obs.Histogram.observe h) [ 0.5; 1.5; 1.5; 4.0 ];
  let s = Obs.Histogram.summary h in
  Alcotest.(check int) "count" 4 s.Obs.Histogram.count;
  Alcotest.(check (float 1e-9)) "sum" 7.5 s.Obs.Histogram.sum;
  Alcotest.(check (float 1e-9)) "max" 4.0 s.Obs.Histogram.max;
  (* ranks: p50 -> 2nd observation -> the le=2 bucket; p99 -> 4th ->
     the le=5 bucket, clamped to the observed max *)
  Alcotest.(check (float 1e-9)) "p50" 2.0 s.Obs.Histogram.p50;
  Alcotest.(check (float 1e-9)) "p99" 4.0 s.Obs.Histogram.p99;
  Alcotest.(check (list (pair (float 0.) int)))
    "cumulative series"
    [ (1.0, 1); (2.0, 3); (5.0, 4); (infinity, 4) ]
    (Obs.Histogram.cumulative h)

let test_histogram_overflow () =
  let h = Obs.Histogram.make ~buckets:[| 1.0; 2.0 |] () in
  Obs.Histogram.observe h 99.0;
  Alcotest.(check (float 1e-9)) "overflow quantile = observed max" 99.0
    (Obs.Histogram.quantile h 0.99);
  Alcotest.(check (list (pair (float 0.) int)))
    "overflow bucket"
    [ (1.0, 0); (2.0, 0); (infinity, 1) ]
    (Obs.Histogram.cumulative h)

let test_histogram_bad_buckets () =
  Alcotest.check_raises "non-increasing bounds"
    (Invalid_argument "Obs.Histogram.make: bounds must be strictly increasing")
    (fun () -> ignore (Obs.Histogram.make ~buckets:[| 1.0; 1.0 |] ()))

let test_registry_interning () =
  let r = Obs.Registry.create () in
  let c1 = Obs.Registry.counter r ~labels:[ ("k", "v") ] "reqs_total" in
  let c2 = Obs.Registry.counter r ~labels:[ ("k", "v") ] "reqs_total" in
  Obs.Counter.incr c1;
  Obs.Counter.incr c2;
  Alcotest.(check int) "same labels intern to one counter" 2
    (Obs.Counter.value c1);
  let c3 = Obs.Registry.counter r ~labels:[ ("k", "other") ] "reqs_total" in
  Alcotest.(check int) "distinct labels are distinct" 0 (Obs.Counter.value c3);
  (match Obs.Registry.gauge r ~labels:[ ("k", "v") ] "reqs_total" with
   | _ -> Alcotest.fail "kind clash must raise"
   | exception Invalid_argument _ -> ());
  Obs.Registry.remove r ~labels:[ ("k", "v") ] "reqs_total";
  let c4 = Obs.Registry.counter r ~labels:[ ("k", "v") ] "reqs_total" in
  Alcotest.(check int) "removed then re-created fresh" 0 (Obs.Counter.value c4)

let test_registry_samples () =
  let r = Obs.Registry.create () in
  Obs.Counter.incr ~by:3 (Obs.Registry.counter r "a_total");
  Obs.Histogram.observe (Obs.Registry.histogram r "lat_seconds") 0.5;
  let samples = Obs.Registry.samples r in
  let value name =
    List.find_map
      (fun { Obs.name = n; value; _ } -> if n = name then Some value else None)
      samples
  in
  Alcotest.(check (option (float 0.))) "counter sample" (Some 3.0)
    (value "a_total");
  Alcotest.(check (option (float 0.))) "histogram count" (Some 1.0)
    (value "lat_seconds_count");
  Alcotest.(check (option (float 1e-9))) "histogram sum" (Some 0.5)
    (value "lat_seconds_sum");
  Alcotest.(check (option (float 1e-9))) "histogram p50 = bucket bound"
    (Some 0.5)
    (value "lat_seconds_p50")

let test_exposition () =
  let r = Obs.Registry.create () in
  Obs.Counter.incr ~by:7 (Obs.Registry.counter r ~labels:[ ("op", "ask") ] "ops_total");
  Obs.Histogram.observe
    (Obs.Registry.histogram r ~buckets:[| 1.0; 2.0 |] "lat_seconds")
    1.5;
  let text = Obs.Registry.exposition r in
  let lines = String.split_on_char '\n' text in
  Alcotest.(check string) "versioned header" "# stats.version 2"
    (List.hd lines);
  let has line = List.mem line lines in
  Alcotest.(check bool) "TYPE counter" true (has "# TYPE ops_total counter");
  Alcotest.(check bool) "labelled counter" true (has "ops_total{op=\"ask\"} 7");
  Alcotest.(check bool) "TYPE histogram" true (has "# TYPE lat_seconds histogram");
  Alcotest.(check bool) "le bucket cumulative" true
    (has "lat_seconds_bucket{le=\"2\"} 1");
  Alcotest.(check bool) "+Inf bucket" true
    (has "lat_seconds_bucket{le=\"+Inf\"} 1");
  Alcotest.(check bool) "count series" true (has "lat_seconds_count 1")

(* spans nest, record into obda_phase_seconds, and survive exceptions *)
let test_spans () =
  let r = Obs.Registry.create () in
  let result =
    Obs.span ~registry:r "outer" (fun () ->
        Obs.span ~registry:r "inner" (fun () -> 21 * 2))
  in
  Alcotest.(check int) "span returns the body's value" 42 result;
  (match
     Obs.span ~registry:r "outer" (fun () -> failwith "boom")
   with
   | _ -> Alcotest.fail "exception must propagate"
   | exception Failure _ -> ());
  let count phase =
    Obs.Histogram.count
      (Obs.Registry.histogram r ~labels:[ ("phase", phase) ] "obda_phase_seconds")
  in
  Alcotest.(check int) "outer recorded (incl. the failed one)" 2 (count "outer");
  Alcotest.(check int) "inner recorded" 1 (count "inner")

(* The concurrency property: increments from N domains lose no counts —
   the reason counters are atomics rather than mutable ints. *)
let prop_concurrent_counters =
  QCheck.Test.make ~count:10 ~name:"concurrent increments lose no counts"
    QCheck.(pair (int_range 2 4) (int_range 100 1000))
    (fun (domains, per_domain) ->
      let r = Obs.Registry.create () in
      let h = Obs.Registry.histogram r ~buckets:[| 0.5; 1.0 |] "h_seconds" in
      let spawned =
        Array.init domains (fun _ ->
            Domain.spawn (fun () ->
                (* contend on the *registry lookup* too, not just the
                   counter: interning must be race-free *)
                let c = Obs.Registry.counter r "n_total" in
                for i = 1 to per_domain do
                  Obs.Counter.incr c;
                  Obs.Histogram.observe h (if i mod 2 = 0 then 0.25 else 2.0)
                done))
      in
      Array.iter Domain.join spawned;
      let total = Obs.Counter.value (Obs.Registry.counter r "n_total") in
      total = domains * per_domain
      && Obs.Histogram.count h = domains * per_domain)

(* two executors on one registry — a server's request and snapshot
   executors under --data-dir — keep separate labelled series: one's
   sheds never count as the other's, and each gauge holds its own *)
let test_executors_share_registry () =
  let r = Obs.Registry.create () in
  let module E = Parallel.Executor in
  let requests = E.create ~registry:r ~name:"requests" ~workers:2 ~queue_capacity:4 () in
  let snapshot = E.create ~registry:r ~name:"snapshot" ~workers:1 ~queue_capacity:1 () in
  Fun.protect ~finally:(fun () -> E.shutdown requests; E.shutdown snapshot)
  @@ fun () ->
  E.pause snapshot;
  Alcotest.(check bool) "snapshot admits one" true (E.try_submit snapshot ignore);
  Alcotest.(check bool) "snapshot sheds the next" false (E.try_submit snapshot ignore);
  for _ = 1 to 3 do
    Alcotest.(check bool) "request admitted" true (E.try_submit requests ignore)
  done;
  E.drain requests;
  let labels ex = [ ("executor", ex) ] in
  let count ex name = Obs.Counter.value (Obs.Registry.counter r ~labels:(labels ex) name) in
  let gauge ex name = Obs.Gauge.value (Obs.Registry.gauge r ~labels:(labels ex) name) in
  Alcotest.(check int) "requests submitted" 3 (count "requests" "obda_executor_submitted_total");
  Alcotest.(check int) "requests rejected" 0 (count "requests" "obda_executor_rejected_total");
  Alcotest.(check int) "requests completed" 3 (count "requests" "obda_executor_completed_total");
  Alcotest.(check int) "snapshot submitted" 1 (count "snapshot" "obda_executor_submitted_total");
  Alcotest.(check int) "snapshot rejected" 1 (count "snapshot" "obda_executor_rejected_total");
  Alcotest.(check int) "snapshot completed" 0 (count "snapshot" "obda_executor_completed_total");
  Alcotest.(check (float 0.)) "requests queue" 0. (gauge "requests" "obda_executor_queue_depth");
  Alcotest.(check (float 0.)) "snapshot queue" 1. (gauge "snapshot" "obda_executor_queue_depth");
  Alcotest.(check (float 0.)) "requests workers" 2. (gauge "requests" "obda_executor_workers");
  Alcotest.(check (float 0.)) "snapshot workers" 1. (gauge "snapshot" "obda_executor_workers");
  Alcotest.(check bool) "no unlabelled executor series" false
    (List.exists
       (fun s ->
         s.Obs.labels = []
         && String.length s.Obs.name > 14
         && String.sub s.Obs.name 0 14 = "obda_executor_")
       (Obs.Registry.samples r))

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter monotonic" `Quick test_counter_monotonic;
          Alcotest.test_case "gauge" `Quick test_gauge;
          Alcotest.test_case "histogram bucketing" `Quick test_histogram_bucketing;
          Alcotest.test_case "histogram overflow" `Quick test_histogram_overflow;
          Alcotest.test_case "bad buckets" `Quick test_histogram_bad_buckets;
        ] );
      ( "registry",
        [
          Alcotest.test_case "interning" `Quick test_registry_interning;
          Alcotest.test_case "samples" `Quick test_registry_samples;
          Alcotest.test_case "exposition" `Quick test_exposition;
          Alcotest.test_case "spans" `Quick test_spans;
          Alcotest.test_case "two executors, one registry" `Quick
            test_executors_share_registry;
        ] );
      ( "concurrency",
        [ QCheck_alcotest.to_alcotest prop_concurrent_counters ] );
    ]

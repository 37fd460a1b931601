(* Tests of the benchmark's own statistics: percentiles, the tail rule,
   failure counting, exposition deltas, metric names, and the agreement
   of the metric catalog with BENCHMARK.json. *)

let sorted n = Array.init n (fun i -> float_of_int (i + 1))
let check_float = Alcotest.(check (float 1e-9))

let test_percentile () =
  let a = sorted 10 in
  check_float "p50 of 1..10" 5. (Stats.percentile a 50.);
  check_float "p90 of 1..10" 9. (Stats.percentile a 90.);
  check_float "p100 of 1..10" 10. (Stats.percentile a 100.);
  check_float "p1 of 1..10" 1. (Stats.percentile a 1.);
  check_float "median of one" 7. (Stats.median [| 7. |]);
  check_float "p99.9 of 1..1000" 999. (Stats.percentile (sorted 1000) 99.9);
  Alcotest.check_raises "no samples" (Invalid_argument "Stats.percentile: no samples")
    (fun () -> ignore (Stats.percentile [||] 50.))

let test_tail () =
  let p n = fst (Stats.tail (sorted n)) and v n = snd (Stats.tail (sorted n)) in
  check_float "5 samples: the maximum" 100. (p 5);
  check_float "5 samples: value" 5. (v 5);
  check_float "10 samples: still the maximum" 10. (v 10);
  check_float "11 samples: the smallest leaves ten" 1. (v 11);
  check_float "100 samples: p90" 90. (p 100);
  check_float "1000 samples: p99" 99. (p 1000);
  check_float "1000 samples: value" 990. (v 1000);
  (* the chosen percentile leaves exactly ten samples beyond it *)
  for n = 11 to 3000 do
    let p, value = Stats.tail (sorted n) in
    Alcotest.(check int) "ten beyond" Stats.min_beyond
      (Array.fold_left (fun c x -> if x > value then c + 1 else c) 0 (sorted n));
    check_float "value at rank" (float_of_int (Stats.rank n p)) value
  done

let test_chunks () =
  (* 250 completions, one every 4 ms, latency = index: two tail chunks,
     three rate chunks *)
  let points = List.init 250 (fun i -> (0.004 *. float_of_int (i + 1), float_of_int i)) in
  let c = Stats.chunked ~t0:0. ~window:10. points in
  Alcotest.(check int) "chunks" 2 c.Stats.chunks;
  check_float "rate" 250. c.Stats.rate;
  (* chunk tails: 114 and 239; their median is the lower one *)
  check_float "tail" 114. c.Stats.tail_value;
  check_float "tail percentile" (100. *. 115. /. 125.) c.Stats.tail_p;
  (* a stall in one rate chunk of three does not move the median *)
  let stalled = List.map (fun (f, l) -> if f > 0.2 then (f +. 5., l) else (f, l)) points in
  check_float "rate despite a stall" 250. (Stats.chunked ~t0:0. ~window:20. stalled).Stats.rate;
  let one = Stats.chunked ~t0:0. ~window:10. (List.init 50 (fun i -> (0.1 *. float_of_int i, 1.))) in
  Alcotest.(check int) "one chunk" 1 one.Stats.chunks;
  check_float "one chunk rate" 5. one.Stats.rate;
  let none = Stats.chunked ~t0:0. ~window:10. [] in
  check_float "no samples" 0. none.Stats.rate

let test_failures () =
  let t = Stats.tally () in
  List.iter (Stats.record t)
    [ Stats.Ok; Stats.Busy; Stats.Ok; Stats.Err "x"; Stats.Timeout; Stats.Transport "y";
      Stats.Bad_output "z"; Stats.Ok ];
  Alcotest.(check int) "attempted" 8 t.Stats.attempted;
  Alcotest.(check int) "failed" 5 t.Stats.failed;
  check_float "ratio" (5. /. 8.) (Stats.fail_ratio t);
  check_float "nothing tried" 0. (Stats.fail_ratio (Stats.tally ()));
  Alcotest.(check bool) "timeout ERR" true (Stats.classify_err "timeout after 30.0s" = Stats.Timeout);
  Alcotest.(check bool) "other ERR" true (Stats.classify_err "query: bad" = Stats.Err "query: bad")

let test_names () =
  List.iter
    (fun n -> Alcotest.(check bool) n true (Stats.valid_name n))
    [ "ask_p50_ms"; "wire.decode_us"; "read-hot"; "0x"; String.make 64 'a' ];
  List.iter
    (fun n -> Alcotest.(check bool) n false (Stats.valid_name n))
    [ ""; "_x"; ".x"; "-x"; "a b"; "a/b"; "a{b}"; "é"; String.make 65 'a' ];
  Alcotest.check_raises "bad name refused"
    (Invalid_argument "Stats.result_line: bad metric name a b") (fun () ->
      ignore (Stats.result_line ~correct:true ~attempted:1 ~failed:0 [ ("a b", "ms", 1.) ]))

let test_result_line () =
  Alcotest.(check string) "shape"
    {|{"correct": true, "attempted": 3, "failed": 1, "metrics": {"x_ms": {"value": 1.5, "unit": "ms"}}}|}
    (Stats.result_line ~correct:true ~attempted:3 ~failed:1 [ ("x_ms", "ms", 1.5) ])

let test_delta () =
  let parse = Stats.parse_exposition in
  let before =
    parse
      [ "# stats.version 2"; "# TYPE c counter"; "c{op=\"ask\"} 3"; "h_sum 1.5"; "h_count 2";
        "h_bucket{le=\"1\"} 2"; "h_bucket{le=\"+Inf\"} 2" ]
  in
  let after =
    parse
      [ "c{op=\"ask\"} 10"; "c{op=\"load\"} 4"; "h_sum 4.5"; "h_count 4"; "h_bucket{le=\"1\"} 2";
        "h_bucket{le=\"2\"} 4"; "h_bucket{le=\"+Inf\"} 4" ]
  in
  let d = Stats.delta ~before ~after in
  check_float "counter" 7. (Stats.total d "c" ~where:(Stats.label "op" "ask"));
  check_float "new series" 4. (Stats.total d "c" ~where:(Stats.label "op" "load"));
  check_float "all labels" 11. (Stats.total d "c");
  check_float "mean" 1.5 (Stats.hist_mean d "h");
  check_float "max bucket" 2. (Stats.hist_max_bound d "h");
  check_float "empty mean" 0. (Stats.hist_mean d "missing")

(* BENCHMARK.json, with all whitespace removed, holds each catalog entry *)
let test_catalog () =
  let text = In_channel.with_open_text "../../BENCHMARK.json" In_channel.input_all in
  let squeeze s = String.concat "" (String.split_on_char ' ' (String.concat "" (String.split_on_char '\n' s))) in
  let json = squeeze text in
  let contains sub =
    let n = String.length sub and m = String.length json in
    let rec go i = i + n <= m && (String.sub json i n = sub || go (i + 1)) in
    go 0
  in
  let unit_ok u =
    String.length u <= 16
    && String.for_all
         (fun c -> Stats.valid_name (String.make 1 c) || c = '/' || c = '%' || c = '_' || c = '.' || c = '-')
         u
  in
  List.iter
    (fun { Catalog.name; unit; better; bound } ->
      Alcotest.(check bool) name true (Stats.valid_name name && unit_ok unit && bound <= 0.25);
      Alcotest.(check bool) ("declared " ^ name) true
        (contains
           (Printf.sprintf {|{"name":"%s","unit":"%s","better":"%s","bound":%g}|} name unit better bound)))
    Catalog.end_to_end;
  List.iter
    (fun { Catalog.lname; lunit; lbetter; _ } ->
      Alcotest.(check bool) lname true (Stats.valid_name lname && unit_ok lunit);
      Alcotest.(check bool) ("declared " ^ lname) true
        (contains (Printf.sprintf {|{"name":"%s","unit":"%s","better":"%s"}|} lname lunit lbetter)))
    Catalog.per_layer;
  List.iter
    (fun (name, why) ->
      Alcotest.(check bool) name true (Stats.valid_name name && String.length why <= 200);
      Alcotest.(check bool) ("declared " ^ name) true
        (contains (Printf.sprintf {|{"name":"%s","why":"%s"}|} name (squeeze why))))
    Catalog.workloads;
  let names =
    List.map (fun e -> e.Catalog.name) Catalog.end_to_end
    @ List.map (fun l -> l.Catalog.lname) Catalog.per_layer
    @ List.map fst Catalog.workloads
  in
  Alcotest.(check int) "names used once" (List.length names)
    (List.length (List.sort_uniq compare names))

let () =
  Alcotest.run "obdabench"
    [
      ( "stats",
        [
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "tail selection" `Quick test_tail;
          Alcotest.test_case "chunked rate and tail" `Quick test_chunks;
          Alcotest.test_case "failure counting" `Quick test_failures;
          Alcotest.test_case "metric names" `Quick test_names;
          Alcotest.test_case "result line" `Quick test_result_line;
          Alcotest.test_case "exposition delta" `Quick test_delta;
          Alcotest.test_case "catalog matches BENCHMARK.json" `Quick test_catalog;
        ] );
    ]

open Kite_stats

let checkf = Alcotest.(check (float 1e-9))

let test_mean_stdev () =
  let xs = [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ] in
  checkf "mean" 5.0 (Summary.mean xs);
  (* Sample stdev with n-1: variance = 32/7 *)
  checkf "stdev" (sqrt (32.0 /. 7.0)) (Summary.stdev xs)

let test_stdev_singleton () = checkf "singleton" 0.0 (Summary.stdev [ 42.0 ])

let test_rsd () =
  let xs = [ 10.0; 10.0; 10.0 ] in
  checkf "zero spread" 0.0 (Summary.rsd_pct xs);
  let s = Summary.of_list [ 9.0; 10.0; 11.0 ] in
  checkf "rsd" (100.0 *. 1.0 /. 10.0) s.Summary.rsd_pct

let test_of_list () =
  let s = Summary.of_list [ 3.0; 1.0; 2.0 ] in
  Alcotest.(check int) "n" 3 s.Summary.n;
  checkf "min" 1.0 s.Summary.min;
  checkf "max" 3.0 s.Summary.max;
  checkf "mean" 2.0 s.Summary.mean

let test_empty_raises () =
  Alcotest.check_raises "empty" (Invalid_argument "Summary.of_list: empty")
    (fun () -> ignore (Summary.of_list []))

let test_percentile () =
  let xs = [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  checkf "p0" 1.0 (Summary.percentile xs 0.0);
  checkf "p50" 3.0 (Summary.percentile xs 50.0);
  checkf "p100" 5.0 (Summary.percentile xs 100.0);
  checkf "p25" 2.0 (Summary.percentile xs 25.0);
  checkf "median shuffled" 3.0 (Summary.median [ 5.0; 1.0; 4.0; 2.0; 3.0 ])

let test_percentile_interp () =
  checkf "interpolated" 1.5 (Summary.percentile [ 1.0; 2.0 ] 50.0)

let prop_mean_bounds =
  QCheck.Test.make ~name:"mean within min..max" ~count:200
    QCheck.(list_of_size Gen.(1 -- 20) (float_bound_exclusive 1000.0))
    (fun xs ->
      let s = Summary.of_list xs in
      s.Summary.mean >= s.Summary.min -. 1e-9
      && s.Summary.mean <= s.Summary.max +. 1e-9)

let prop_stdev_nonneg =
  QCheck.Test.make ~name:"stdev nonnegative" ~count:200
    QCheck.(list_of_size Gen.(1 -- 20) (float_bound_exclusive 1000.0))
    (fun xs -> Summary.stdev xs >= 0.0)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_table_render' () =
  let t =
    Table.create ~title:"demo"
      ~columns:[ ("name", Table.Left); ("value", Table.Right) ]
  in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b"; "22" ];
  Table.note t "hello";
  let s = Table.render t in
  Alcotest.(check bool) "title" true (contains s "== demo ==");
  Alcotest.(check bool) "note" true (contains s "note: hello");
  Alcotest.(check bool) "right-aligned value" true (contains s "|     1 |")

let test_table_bad_row () =
  let t = Table.create ~title:"x" ~columns:[ ("a", Table.Left) ] in
  Alcotest.check_raises "row width"
    (Invalid_argument "Table.add_row (x): got 2 cells, expected 1") (fun () ->
      Table.add_row t [ "1"; "2" ])

let test_fmt () =
  Alcotest.(check string) "f" "3.14" (Table.fmt_f 3.14159);
  Alcotest.(check string) "f prec" "3.1416" (Table.fmt_f ~prec:4 3.14159);
  Alcotest.(check string) "si K" "12.30K" (Table.fmt_si 12_300.0);
  Alcotest.(check string) "si M" "2.50M" (Table.fmt_si 2_500_000.0);
  Alcotest.(check string) "si G" "1.00G" (Table.fmt_si 1e9);
  Alcotest.(check string) "si plain" "999.00" (Table.fmt_si 999.0);
  Alcotest.(check string) "pct" "12.50%" (Table.fmt_pct 12.5)

let test_series_basic () =
  let s = Series.make ~label:"a" [ (1.0, 10.0); (2.0, 20.0) ] in
  Alcotest.(check (list (float 1e-9))) "ys" [ 10.0; 20.0 ] (Series.ys s);
  Alcotest.(check (option (float 1e-9))) "at" (Some 20.0) (Series.at s 2.0);
  Alcotest.(check (option (float 1e-9))) "at missing" None (Series.at s 3.0)

let test_series_ratio () =
  let a = Series.make ~label:"a" [ (1.0, 10.0); (2.0, 30.0) ] in
  let b = Series.make ~label:"b" [ (1.0, 5.0); (2.0, 10.0) ] in
  Alcotest.(check (list (float 1e-9))) "ratio" [ 2.0; 3.0 ] (Series.ratio a b)

let test_series_crossover () =
  let a = Series.make ~label:"a" [ (1.0, 1.0); (2.0, 3.0); (3.0, 1.0) ] in
  let b = Series.make ~label:"b" [ (1.0, 2.0); (2.0, 2.0); (3.0, 2.0) ] in
  Alcotest.(check (list (float 1e-9)))
    "two crossings" [ 2.0; 3.0 ] (Series.crossovers a b)

let test_series_extrema () =
  let s =
    Series.make ~label:"s" [ (1.0, 5.0); (2.0, 9.0); (3.0, 2.0) ]
  in
  checkf "max" 9.0 (Series.max_y s).Series.y;
  checkf "min x" 3.0 (Series.min_y s).Series.x

let test_histogram_basics () =
  let h = Histogram.create () in
  Histogram.add_list h [ 0.1; 0.2; 0.2; 0.4; 0.8; 1.6 ];
  Alcotest.(check int) "count" 6 (Histogram.count h);
  checkf "mean" (3.3 /. 6.0) (Histogram.mean h);
  Alcotest.(check bool) "buckets nonempty" true (Histogram.buckets h <> []);
  (* The p50 must land in the bucket containing the 3rd sample. *)
  let p50 = Histogram.quantile h 0.5 in
  Alcotest.(check bool) "p50 plausible" true (p50 >= 0.1 && p50 <= 0.4);
  let p99 = Histogram.quantile h 0.99 in
  Alcotest.(check bool) "p99 in top bucket" true (p99 > 0.8 && p99 <= 3.2);
  Alcotest.(check bool) "sparkline renders" true
    (String.length (Histogram.sparkline h) > 0)

let test_histogram_edge () =
  let h = Histogram.create () in
  Alcotest.check_raises "empty quantile"
    (Invalid_argument "Histogram.quantile: empty") (fun () ->
      ignore (Histogram.quantile h 0.5));
  Histogram.add h (-5.0);  (* clamps *)
  Alcotest.(check int) "clamped negative counted" 1 (Histogram.count h);
  Alcotest.check_raises "bad q" (Invalid_argument "Histogram.quantile: q")
    (fun () -> ignore (Histogram.quantile h 1.5))

(* The two quantile conventions: Summary.percentile speaks p in [0, 100],
   Histogram.quantile speaks q in [0, 1], and the percentile bridges are
   exactly quantile (p / 100) — so report code can stay in percent. *)
let test_quantile_conventions () =
  let h = Histogram.create ~base:1.0 ~factor:2.0 () in
  Histogram.add_list h [ 1.5; 3.0; 6.0; 12.0 ];
  List.iter
    (fun p ->
      checkf
        (Printf.sprintf "Histogram.percentile %g = quantile %g" p (p /. 100.))
        (Histogram.quantile h (p /. 100.))
        (Histogram.percentile h p))
    [ 0.0; 50.0; 99.0; 100.0 ];
  (* q = 0 is the lowest bucket's lower edge; q = 1 never exceeds the
     highest bucket's upper edge. *)
  Alcotest.(check bool) "q=0 at low edge" true (Histogram.quantile h 0.0 <= 1.5);
  Alcotest.(check bool) "q=1 within top bucket" true
    (Histogram.quantile h 1.0 <= 16.0);
  Alcotest.check_raises "Histogram.percentile empty"
    (Invalid_argument "Histogram.quantile: empty") (fun () ->
      ignore (Histogram.percentile (Histogram.create ()) 50.0));
  Alcotest.check_raises "Summary.percentile empty"
    (Invalid_argument "Summary.percentile: empty") (fun () ->
      ignore (Summary.percentile [] 50.0));
  Alcotest.check_raises "Summary.percentile out of range"
    (Invalid_argument "Summary.percentile: p") (fun () ->
      ignore (Summary.percentile [ 1.0 ] 150.0));
  (* Summary's endpoints really are the extremes. *)
  let xs = [ 4.0; 1.0; 3.0 ] in
  checkf "Summary p0 = min" 1.0 (Summary.percentile xs 0.0);
  checkf "Summary p100 = max" 4.0 (Summary.percentile xs 100.0)

let prop_histogram_quantile_monotone =
  QCheck.Test.make ~name:"histogram quantiles are monotone" ~count:100
    QCheck.(list_of_size Gen.(1 -- 100) (float_bound_exclusive 1000.0))
    (fun xs ->
      let h = Histogram.create () in
      Histogram.add_list h xs;
      let q25 = Histogram.quantile h 0.25 in
      let q50 = Histogram.quantile h 0.5 in
      let q99 = Histogram.quantile h 0.99 in
      q25 <= q50 +. 1e-9 && q50 <= q99 +. 1e-9)

let prop_histogram_count =
  QCheck.Test.make ~name:"histogram count equals samples" ~count:100
    QCheck.(list (float_bound_exclusive 100.0))
    (fun xs ->
      let h = Histogram.create () in
      Histogram.add_list h xs;
      Histogram.count h = List.length xs)

(* The one JSON string escaper every exporter uses. *)
let test_json_escape () =
  let check name input expected =
    Alcotest.(check string) name expected (Export.json_escape input)
  in
  check "plain text passes" "vbd2.0 <x>" "vbd2.0 <x>";
  check "double quote" {|a"b|} {|a\"b|};
  check "backslash" {|a\b|} {|a\\b|};
  check "newline" "a\nb" {|a\nb|};
  check "tab" "a\tb" {|a\tb|};
  check "carriage return" "a\rb" {|a\rb|};
  check "other control byte" "a\001b" {|a\u0001b|};
  check "UTF-8 passes" "\xc2\xb5s" "\xc2\xb5s"

let suite =
  [
    ("mean and stdev", `Quick, test_mean_stdev);
    ("stdev singleton", `Quick, test_stdev_singleton);
    ("rsd", `Quick, test_rsd);
    ("of_list", `Quick, test_of_list);
    ("empty raises", `Quick, test_empty_raises);
    ("percentile", `Quick, test_percentile);
    ("percentile interpolation", `Quick, test_percentile_interp);
    ("table render", `Quick, test_table_render');
    ("table bad row", `Quick, test_table_bad_row);
    ("formatters", `Quick, test_fmt);
    ("series basics", `Quick, test_series_basic);
    ("series ratio", `Quick, test_series_ratio);
    ("series crossover", `Quick, test_series_crossover);
    ("series extrema", `Quick, test_series_extrema);
    ("histogram basics", `Quick, test_histogram_basics);
    ("histogram edge cases", `Quick, test_histogram_edge);
    ("quantile conventions", `Quick, test_quantile_conventions);
    ("json escape", `Quick, test_json_escape);
    QCheck_alcotest.to_alcotest prop_histogram_quantile_monotone;
    QCheck_alcotest.to_alcotest prop_histogram_count;
    QCheck_alcotest.to_alcotest prop_mean_bounds;
    QCheck_alcotest.to_alcotest prop_stdev_nonneg;
  ]

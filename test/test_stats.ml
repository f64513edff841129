(* Statistics substrate: descriptive stats, CDFs, histograms, and the
   L-method knee detector used for BGP timer inference. *)

open Tdat_stats

let test_summarize () =
  let s = Descriptive.summarize [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ] in
  Alcotest.(check int) "n" 8 s.Descriptive.n;
  Alcotest.(check (float 1e-9)) "mean" 5.0 s.Descriptive.mean;
  Alcotest.(check (float 1e-6)) "stddev (sample)" 2.13809 s.Descriptive.stddev;
  Alcotest.(check (float 1e-9)) "min" 2.0 s.Descriptive.min;
  Alcotest.(check (float 1e-9)) "max" 9.0 s.Descriptive.max

let test_summarize_edge () =
  let s = Descriptive.summarize [ 42. ] in
  Alcotest.(check (float 1e-9)) "single mean" 42. s.Descriptive.mean;
  Alcotest.(check (float 1e-9)) "single stddev" 0. s.Descriptive.stddev;
  Alcotest.check_raises "empty rejected"
    (Invalid_argument "Descriptive.summarize: empty sample") (fun () ->
      ignore (Descriptive.summarize []))

let test_percentile () =
  let xs = [ 1.; 2.; 3.; 4.; 5. ] in
  Alcotest.(check (float 1e-9)) "median" 3. (Descriptive.median xs);
  Alcotest.(check (float 1e-9)) "p0" 1. (Descriptive.percentile 0. xs);
  Alcotest.(check (float 1e-9)) "p100" 5. (Descriptive.percentile 100. xs);
  Alcotest.(check (float 1e-9)) "p25 interpolates" 2.
    (Descriptive.percentile 25. xs)

let test_slow_threshold () =
  (* mean 10, sd 0 -> threshold = 10 *)
  Alcotest.(check (float 1e-9)) "degenerate" 10.
    (Descriptive.slow_threshold [ 10.; 10.; 10. ])

let test_cdf () =
  let c = Cdf.of_samples [ 1.; 1.; 2.; 3. ] in
  Alcotest.(check (float 1e-9)) "eval below" 0. (Cdf.eval c 0.5);
  Alcotest.(check (float 1e-9)) "eval at dup" 0.5 (Cdf.eval c 1.);
  Alcotest.(check (float 1e-9)) "eval top" 1. (Cdf.eval c 3.);
  Alcotest.(check (float 1e-9)) "quantile 0.5" 1. (Cdf.quantile c 0.5);
  Alcotest.(check (float 1e-9)) "quantile 1.0" 3. (Cdf.quantile c 1.0);
  Alcotest.(check int) "points dedup" 3 (List.length (Cdf.points c));
  let lo, hi = Cdf.support c in
  Alcotest.(check (float 1e-9)) "support lo" 1. lo;
  Alcotest.(check (float 1e-9)) "support hi" 3. hi

let test_histogram () =
  let h = Histogram.create ~lo:0. ~hi:10. ~bins:5 in
  Histogram.add_list h [ 0.5; 1.5; 1.6; 9.5; 11. (* clamped *) ];
  Alcotest.(check int) "total" 5 (Histogram.total h);
  Alcotest.(check (float 1e-9)) "mode" 1.
    (Option.get (Histogram.mode_center h));
  Alcotest.(check int) "nonempty bins" 2
    (List.length (Histogram.nonempty_bins h))

let test_linear_fit () =
  let points = Array.init 10 (fun i -> (float_of_int i, (2. *. float_of_int i) +. 1.)) in
  let f = Knee.linear_fit points in
  Alcotest.(check (float 1e-6)) "slope" 2. f.Knee.slope;
  Alcotest.(check (float 1e-6)) "intercept" 1. f.Knee.intercept;
  Alcotest.(check (float 1e-6)) "rmse" 0. f.Knee.rmse

let test_knee_detection () =
  (* A flat region at 200 then a steep rise: knee near the transition. *)
  let flat = List.init 60 (fun _ -> 200.) in
  let rise = List.init 15 (fun i -> 300. +. (float_of_int i *. 150.)) in
  match Knee.knee_of_sorted (flat @ rise) with
  | None -> Alcotest.fail "no knee found"
  | Some v ->
      Alcotest.(check bool)
        (Printf.sprintf "knee %.0f near flat value" v)
        true
        (v >= 150. && v <= 450.)

let test_knee_too_few () =
  Alcotest.(check (option (float 1e-9))) "tiny input" None
    (Knee.knee_of_sorted [ 1.; 2.; 3. ])

let test_ascii_plots_render () =
  (* Smoke: plots produce non-empty multi-line output and don't raise. *)
  let cdf = Ascii_plot.cdf [ ("a", [ (0., 0.1); (1., 0.5); (2., 1.0) ]) ] in
  Alcotest.(check bool) "cdf renders" true (String.length cdf > 100);
  let sc =
    Ascii_plot.scatter ~x_max:1. ~y_max:1.
      [ ('x', [ (0.2, 0.3); (0.9, 0.9) ]) ]
  in
  Alcotest.(check bool) "scatter renders" true (String.length sc > 100);
  let tl =
    Ascii_plot.timeline ~window:(0., 10.)
      [ ("row", [ (1., 2.); (5., 7.) ]) ]
  in
  Alcotest.(check bool) "timeline has waves" true (String.contains tl '#')

let prop name arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count:200 arb f)

let arb_samples =
  QCheck.list_of_size (QCheck.Gen.int_range 1 50) (QCheck.float_range 0. 1000.)

let qcheck_suite =
  [
    prop "percentile within support" arb_samples (fun xs ->
        QCheck.assume (xs <> []);
        let p = Descriptive.percentile 37. xs in
        let s = Descriptive.summarize xs in
        p >= s.Descriptive.min && p <= s.Descriptive.max);
    prop "cdf eval monotone" arb_samples (fun xs ->
        QCheck.assume (xs <> []);
        let c = Cdf.of_samples xs in
        Cdf.eval c 100. <= Cdf.eval c 500.);
    prop "welford mean matches naive" arb_samples (fun xs ->
        QCheck.assume (xs <> []);
        let naive =
          List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)
        in
        abs_float (Descriptive.mean xs -. naive) < 1e-6);
  ]

(* --- the O(n) L-method against the exhaustive search ---------------------

   [Legacy_ref.knee_of_sorted] is the O(n^2) loop that refits both sides
   of every split.  The prefix-sum search must pick the same knee value
   on each shape of input the knee sees in practice. *)

let gen_len = QCheck.Gen.int_range 4 160

let knee_classes =
  QCheck.Gen.
    [
      ("uniform reals", list_size gen_len (float_range 0. 1000.));
      ( "small-integer ties",
        list_size gen_len (map float_of_int (int_bound 5)) );
      ( "exactly flat",
        let* n = gen_len in
        let* v =
          oneof [ map float_of_int (int_bound 1000); float_range 0. 10. ]
        in
        return (List.init n (fun _ -> v)) );
      ( "integer-us timer cluster with outliers",
        (* Most gaps sit within a microsecond of one sender timer; the
           rest spread over the detector's 20 ms .. 2 s window. *)
        let* timer = int_range 50_000 550_000 in
        list_size gen_len
          (frequency
             [
               (7, map (fun j -> float_of_int (timer + j)) (int_range (-1) 1));
               (3, map float_of_int (int_range 20_000 2_000_000));
             ]) );
      ( "heavy-tailed",
        (* Pareto, shape 1.2: the transfer-duration shape the study's
           aggregate runs the knee over. *)
        list_size gen_len
          (map
             (fun u -> 1. /. ((1. -. u) ** (1. /. 1.2)))
             (float_bound_exclusive 1.)) );
    ]

(* Values that differ only in their last few bits (max - min within
   1e-9 relative, but not equal) are excluded: every split's cost there
   is rounding noise, so which split the O(n^2) loop's own argmin picks
   is an accident of summation order, not a knee. *)
let near_flat xs =
  let lo = List.fold_left Float.min infinity xs
  and hi = List.fold_left Float.max neg_infinity xs in
  hi > lo && hi -. lo <= 1e-9 *. Float.max (abs_float lo) (abs_float hi)

let knee_props =
  List.map
    (fun (name, gen) ->
      let arb =
        QCheck.make
          ~print:(fun xs ->
            String.concat "; " (List.map (Printf.sprintf "%.17g") xs))
          gen
      in
      QCheck_alcotest.to_alcotest
        (QCheck.Test.make ~count:300
           ~name:("knee_of_sorted == exhaustive L-method: " ^ name)
           arb
           (fun xs ->
             QCheck.assume (not (near_flat xs));
             Knee.knee_of_sorted xs = Legacy_ref.knee_of_sorted xs)))
    knee_classes

(* The chosen split itself, not just its value, on the rank curve
   [knee_of_sorted] builds: every class but the flat one, where all
   splits tie exactly and only the value is defined. *)
let l_method_prop =
  let gen =
    QCheck.Gen.oneof
      (List.filter_map
         (fun (name, g) -> if name = "exactly flat" then None else Some g)
         knee_classes)
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"l_method split == exhaustive split"
       (QCheck.make gen) (fun xs ->
         QCheck.assume (not (near_flat xs));
         let a = Array.of_list xs in
         Array.sort Float.compare a;
         let points = Array.mapi (fun i v -> (float_of_int i, v)) a in
         Knee.l_method points = Legacy_ref.knee_l_method points))

let suite =
  [
    Alcotest.test_case "summarize" `Quick test_summarize;
    Alcotest.test_case "summarize edge" `Quick test_summarize_edge;
    Alcotest.test_case "percentile" `Quick test_percentile;
    Alcotest.test_case "slow threshold" `Quick test_slow_threshold;
    Alcotest.test_case "cdf" `Quick test_cdf;
    Alcotest.test_case "histogram" `Quick test_histogram;
    Alcotest.test_case "linear fit" `Quick test_linear_fit;
    Alcotest.test_case "knee detection" `Quick test_knee_detection;
    Alcotest.test_case "knee too few" `Quick test_knee_too_few;
    Alcotest.test_case "ascii plots" `Quick test_ascii_plots_render;
  ]
  @ qcheck_suite @ knee_props @ [ l_method_prop ]

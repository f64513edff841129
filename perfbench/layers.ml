(* The traced layer replay: the same inputs the end-to-end run feeds
   the binaries, replayed in process with a span around every call into
   a layer's public function.  Spans are kept in memory and written as
   a Chrome trace when the replay ends; the per-layer samples (one per
   pass over an input set) are printed for perfbench/run.py to reduce.

   The capture replay calls the stages in Analyzer.analyze's order and
   rebuilds its report exactly: every pass's render is compared with
   the batch output, so a replay that drifted from the program fails
   instead of timing something else. *)

module Json = Tdat_serve.Json

(* --- spans ---------------------------------------------------------------- *)

type span = {
  name : string;
  id : int;
  parent : int;
  start_us : float;
  dur_us : float;
  minor_words : float;
  major_words : float;
}

let tracing = ref false
let spans : span list ref = ref []
let next_id = ref 1
let current = ref 0

let span name f =
  if not !tracing then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = !current in
    current := id;
    (* Gc.minor_words reads the allocation pointer, so it is exact;
       quick_stat's minor count only moves at minor collections. *)
    let m0 = Gc.minor_words () and g0 = Gc.quick_stat () in
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let t1 = Unix.gettimeofday () in
    let m1 = Gc.minor_words () and g1 = Gc.quick_stat () in
    current := parent;
    spans :=
      {
        name;
        id;
        parent;
        start_us = t0 *. 1e6;
        dur_us = (t1 -. t0) *. 1e6;
        minor_words = m1 -. m0;
        major_words = g1.Gc.major_words -. g0.Gc.major_words;
      }
      :: !spans;
    r
  end

(* Sum of duration and words over the spans named [name] among [ss]. *)
let total ss name =
  List.fold_left
    (fun (d, mi, ma) s ->
      if String.equal s.name name then
        (d +. s.dur_us, mi +. s.minor_words, ma +. s.major_words)
      else (d, mi, ma))
    (0., 0., 0.) ss

let write_chrome_trace path =
  let event s =
    Json.Obj
      [
        ("name", Json.Str s.name); ("ph", Json.Str "X");
        ("ts", Json.Num s.start_us); ("dur", Json.Num s.dur_us);
        ("pid", Json.Num 1.); ("tid", Json.Num 1.);
        ( "args",
          Json.Obj
            [
              ("id", Json.Num (float_of_int s.id));
              ("parent", Json.Num (float_of_int s.parent));
              ("minor_words", Json.Num s.minor_words);
              ("major_words", Json.Num s.major_words);
            ] );
      ]
  in
  Inputs.write_file path
    (Json.to_string
       (Json.Obj [ ("traceEvents", Json.Arr (List.rev_map event !spans)) ]))

(* --- replays -------------------------------------------------------------- *)

exception Mismatch of string

let core_stages =
  [ "conn_profile"; "ack_shift"; "transfer_id"; "series_gen"; "factors";
    "detect_timer"; "detect_loss"; "detect_peer_group"; "detect_zero_ack" ]

let analyze_connection sub ~flow =
  let open Tdat in
  let profile =
    span "core.conn_profile" (fun () -> Conn_profile.of_trace sub ~flow)
  in
  let shifted, shifts =
    span "core.ack_shift" (fun () -> Ack_shift.shift profile)
  in
  let transfer =
    span "core.transfer_id" (fun () -> Transfer_id.identify sub ~flow)
  in
  let window = Option.map Transfer_id.span transfer in
  let series =
    span "core.series_gen" (fun () -> Series_gen.generate ?window shifted)
  in
  let factors = span "core.factors" (fun () -> Factors.compute series) in
  let timer = span "core.detect_timer" (fun () -> Detect_timer.detect series) in
  let consecutive_losses =
    span "core.detect_loss" (fun () -> Detect_loss.detect series)
  in
  let peer_group_suspects =
    span "core.detect_peer_group" (fun () -> Detect_peer_group.suspects series)
  in
  let zero_ack_bug =
    span "core.detect_zero_ack" (fun () -> Detect_zero_ack.detect series)
  in
  {
    Analyzer.profile;
    shifted;
    shifts;
    transfer;
    series;
    factors;
    problems =
      { Analyzer.timer; consecutive_losses; peer_group_suspects; zero_ack_bug };
    audit = [];
    timings = [];
    total_s = 0.;
  }

(* One capture through every layer of `tdat analyze`; returns the
   rendered report and the packets analyzed. *)
let analyze_capture path =
  span "replay.capture" (fun () ->
      let r = span "pkt.read_file" (fun () -> Tdat_pkt.Pcap.read_file path) in
      let parts =
        span "pkt.partition" (fun () ->
            Tdat_pkt.Trace.partition_connections r.Tdat_pkt.Pcap.trace)
      in
      (* As Analyzer.analyze_all does it: one pool task per connection. *)
      let results =
        span "parallel.pool_map" (fun () ->
            Tdat_parallel.Pool.with_pool ~jobs:1 (fun pool ->
                Tdat_parallel.Pool.map pool
                  (fun (key, sub) ->
                    let flow = Tdat_pkt.Trace.infer_sender sub key in
                    (flow, analyze_connection sub ~flow))
                  parts))
      in
      let packets =
        List.fold_left (fun n (_, sub) -> n + Tdat_pkt.Trace.length sub) 0 parts
      in
      ( span "serve.render" (fun () -> Tdat_serve.Render.analysis results),
        packets ))

let read_file path = In_channel.with_open_bin path In_channel.input_all

let load_manifest dir =
  match Json.parse (read_file (Filename.concat dir "manifest.json")) with
  | Ok j -> j
  | Error e -> failwith ("manifest: " ^ e)

let member name j =
  match Json.member name j with
  | Some v -> v
  | None -> failwith ("manifest: missing " ^ name)

let str name j = Option.get (Json.to_string_opt (member name j))
let arr name j = Option.get (Json.to_list_opt (member name j))

(* A capture set as (pcap, expected output) pairs. *)
type capture = { pcap : string; expected : string }

let capture_of dir j =
  {
    pcap = Filename.concat dir (str "pcap" j);
    expected = read_file (Filename.concat dir (str "expected" j));
  }

let replay_captures captures =
  List.fold_left
    (fun n c ->
      let out, packets = analyze_capture c.pcap in
      if not (String.equal out c.expected) then
        raise
          (Mismatch ("replayed analysis differs from batch output: " ^ c.pcap));
      n + packets)
    0 captures

let study_config = Tdat_study.Detect.default_config

(* One `tdat study` through its layers; returns (records, transfers).
   The streaming MRT reader is also timed on its own, as one extra fold
   over every archive: Archive.scan_file runs it interleaved with
   detection. *)
let replay_study archives =
  span "replay.study" (fun () ->
      span "bgp.mrt_fold" (fun () ->
          List.iter
            (fun path ->
              ignore (Tdat_bgp.Mrt.fold_file path ~init:() (fun () _ -> ())))
            archives);
      let files =
        List.map
          (fun path ->
            span "study.scan_file" (fun () ->
                Tdat_study.Archive.scan_file ~config:study_config path))
          archives
      in
      let report =
        span "study.aggregate" (fun () -> Tdat_study.Aggregate.of_reports files)
      in
      let durations =
        List.map Tdat_study.Transfer.duration_s
          report.Tdat_study.Aggregate.transfers
      in
      ignore
        (span "stats.knee" (fun () ->
             Tdat_stats.Knee.knee_of_sorted durations));
      let records =
        List.fold_left
          (fun n f -> n + f.Tdat_study.Archive.stats.Tdat_bgp.Mrt.records)
          0 files
      in
      (records, List.length report.Tdat_study.Aggregate.transfers))

(* --- sampling ------------------------------------------------------------- *)

let samples : (string * float list) list ref = ref []

let add name v =
  samples :=
    match List.assoc_opt name !samples with
    | Some l -> (name, v :: l) :: List.remove_assoc name !samples
    | None -> (name, [ v ]) :: !samples

(* Self time: the spans' durations minus the part their direct
   children cover. *)
let self_time ss name =
  List.fold_left
    (fun acc s ->
      if not (String.equal s.name name) then acc
      else
        List.fold_left
          (fun acc k -> if k.parent = s.id then acc -. k.dur_us else acc)
          (acc +. s.dur_us) ss)
    0. ss

(* Run [f] once traced and return the spans it recorded. *)
let traced_pass f =
  let first = !next_id in
  tracing := true;
  let r = Fun.protect ~finally:(fun () -> tracing := false) f in
  (r, List.filter (fun s -> s.id >= first) !spans)

let capture_layers =
  "pkt.read_file" :: "pkt.partition"
  :: List.map (fun s -> "core." ^ s) core_stages

let fleet_pass fleet =
  let packets, ss = traced_pass (fun () -> replay_captures [ fleet ]) in
  let p = float_of_int packets in
  List.iter
    (fun layer ->
      let d, mi, ma = total ss layer in
      add (layer ^ ".ms") (d /. 1e3);
      add (layer ^ ".us_per_pkt") (d /. p);
      add (layer ^ ".minor_words") mi;
      add (layer ^ ".major_words") ma)
    capture_layers;
  add "parallel.pool_map.self_ms" (self_time ss "parallel.pool_map" /. 1e3)

let small_pass captures =
  let packets, ss = traced_pass (fun () -> replay_captures captures) in
  let p = float_of_int packets in
  List.iter
    (fun layer ->
      let d, _, _ = total ss layer in
      add (layer ^ ".us_per_pkt_small") (d /. p))
    capture_layers;
  let d, _, _ = total ss "serve.render" in
  add "serve.render.ms" (d /. 1e3 /. float_of_int (List.length captures))

let study_pass ~expected archives =
  let (records, transfers), ss =
    traced_pass (fun () -> replay_study archives)
  in
  if transfers <> expected then
    raise
      (Mismatch
         (Printf.sprintf "study replay found %d transfers, expected %d"
            transfers expected));
  let d, mi, _ = total ss "study.scan_file" in
  let r = float_of_int records in
  add "study.scan_file.ms" (d /. 1e3);
  add "study.scan_file.records_per_s" (r /. (d /. 1e6));
  add "study.scan_file.words_per_record" (mi /. r);
  let d, _, _ = total ss "bgp.mrt_fold" in
  add "bgp.mrt_fold.ms" (d /. 1e3);
  let d, _, _ = total ss "study.aggregate" in
  add "study.aggregate.ms" (d /. 1e3);
  let d, _, _ = total ss "stats.knee" in
  add "stats.knee.ms" (d /. 1e3)

let time f =
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (f ()));
  Unix.gettimeofday () -. t0

let passes = 5

let run ~workload ~root ~trace_out =
  let dir family = Filename.concat root family in
  let fleet =
    capture_of (dir "analyze_fleet")
      (member "fleet" (load_manifest (dir "analyze_fleet")))
  in
  let small =
    List.map
      (fun c -> capture_of (dir "serve_mixed") (List.hd (arr "variants" c)))
      (arr "captures" (load_manifest (dir "serve_mixed")))
  in
  let study_manifest = load_manifest (dir "study_archive") in
  let archives =
    List.map
      (fun a ->
        Filename.concat (dir "study_archive")
          (Option.get (Json.to_string_opt a)))
      (arr "archives" study_manifest)
  in
  let expected_transfers = List.length (arr "truth" study_manifest) in
  let replay_of = function
    | "analyze_fleet" -> fun () -> ignore (replay_captures [ fleet ])
    | "serve_mixed" -> fun () -> ignore (replay_captures small)
    | "study_archive" -> fun () -> ignore (replay_study archives)
    | other -> invalid_arg ("unknown workload " ^ other)
  in
  (* One untraced pass per set first, so caches and the heap are warm. *)
  List.iter
    (fun w -> replay_of w ())
    [ "analyze_fleet"; "serve_mixed"; "study_archive" ];
  for _ = 1 to passes do
    fleet_pass fleet;
    small_pass small;
    study_pass ~expected:expected_transfers archives
  done;
  (* Tracing overhead: the workload's replay traced against the same
     replay untraced, as adjacent pairs in alternating order, so a
     drifting host moves both halves of a pair alike. *)
  let untraced = replay_of workload in
  let traced () = traced_pass untraced in
  for i = 1 to 2 * passes do
    let untraced, traced =
      if i mod 2 = 0 then
        let u = time untraced in
        (u, time traced)
      else
        let t = time traced in
        (time untraced, t)
    in
    add "overhead.pct" ((traced -. untraced) /. untraced *. 100.)
  done;
  write_chrome_trace trace_out;
  Json.to_string
    (Json.Obj
       (List.rev_map
          (fun (name, l) ->
            (name, Json.Arr (List.rev_map (fun v -> Json.Num v) l)))
          !samples))

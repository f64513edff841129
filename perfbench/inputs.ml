(* Seeded input generation for the three workloads.  Everything here
   runs before any timed interval: the programs under test only ever
   see the files written here, and the expected outputs written beside
   them are what every timed operation is checked against. *)

module Json = Tdat_serve.Json
module Rng = Tdat_rng.Rng
module Mrt = Tdat_bgp.Mrt

type size = Full | Smoke

let num n = Json.Num (float_of_int n)
let str s = Json.Str s

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

(* The batch render of a capture: exactly what `tdat analyze -j 1`
   prints for it, and what a serve analyze response must carry. *)
let expected_analysis path =
  let r = Tdat_pkt.Pcap.read_file path in
  Tdat_serve.Render.analysis
    (Tdat.Analyzer.analyze_all ~jobs:1 r.Tdat_pkt.Pcap.trace)

(* --- captures ------------------------------------------------------------ *)

(* One monitored session toward its own collector, as `simgen` builds
   it; [timer_ms = 0] is a greedy sender. *)
let session ~seed ~prefixes ~timer_ms ~loss id =
  let upstream =
    Tdat_tcpsim.Connection.path ~delay:2_000
      ~data_loss:
        (if loss > 0. then
           Tdat_netsim.Loss.bernoulli (Rng.create (seed + id)) loss
         else Tdat_netsim.Loss.none)
      ()
  in
  let router =
    Tdat_bgpsim.Scenario.router ~table_prefixes:prefixes
      ?timer_interval:(if timer_ms > 0 then Some (timer_ms * 1000) else None)
      ~quota:10 ~upstream id
  in
  let result = Tdat_bgpsim.Scenario.run ~seed:(seed + id - 1) [ router ] in
  (List.hd result.Tdat_bgpsim.Scenario.outcomes).Tdat_bgpsim.Scenario.trace

(* Sessions are merged into one capture, one TCP connection each. *)
let write_capture path sessions =
  let trace =
    Tdat_pkt.Trace.of_segments
      (List.concat_map Tdat_pkt.Trace.segments sessions)
  in
  Tdat_pkt.Pcap.to_file path trace

let timer_mix = [| 200; 100; 0 |]

let capture_entry dir name ~sessions =
  let path = Filename.concat dir (name ^ ".pcap") in
  write_capture path sessions;
  let out = Filename.concat dir (name ^ ".out") in
  write_file out (expected_analysis path);
  Json.Obj
    [ ("pcap", str (name ^ ".pcap")); ("expected", str (name ^ ".out")) ]

(* analyze_fleet: 6 sessions x 30,000 prefixes, 1% upstream loss, a mix
   of 200 ms, 100 ms and greedy senders; plus the minimal valid capture
   whose invocation cost is the CLI's set-up time. *)
let analyze_fleet ~size ~seed dir =
  let routers, prefixes =
    match size with Full -> (6, 30_000) | Smoke -> (2, 3_000)
  in
  let fleet =
    List.init routers (fun i ->
        session ~seed:(seed * 1000) ~prefixes
          ~timer_ms:timer_mix.(i mod Array.length timer_mix)
          ~loss:0.01 (i + 1))
  in
  let minimal =
    [ session ~seed:(seed * 1000 + 500) ~prefixes:50 ~timer_ms:0 ~loss:0. 1 ]
  in
  Json.Obj
    [
      ("fleet", capture_entry dir "fleet" ~sessions:fleet);
      ("minimal", capture_entry dir "minimal" ~sessions:minimal);
    ]

(* serve_mixed: a hot set of 4 captures and a cold tail larger than the
   daemon's default 16-entry cache, each of 1-3 sessions of 2k-8k
   prefixes.  Rewritable captures carry a second variant, which the
   load generator renames over the served path between requests. *)
let hot_count = 4

let serve_mixed ~size ~seed dir =
  let cold, min_p, max_p =
    match size with Full -> (24, 2_000, 8_000) | Smoke -> (4, 500, 1_500)
  in
  (* The size plan is fixed (1-3 sessions, prefixes on a 7-step grid
     from min_p to max_p, the timer mix cycled), so every seed serves
     the same amount of work; the seed drives the simulations. *)
  let variant name ~capture ~v =
    let sessions = 1 + (capture mod 3) in
    capture_entry dir name
      ~sessions:
        (List.init sessions (fun j ->
             let step = ((capture * 3) + (j * 5)) mod 7 in
             session
               ~seed:((seed * 100_000) + (capture * 100) + (v * 10))
               ~prefixes:(min_p + (step * (max_p - min_p) / 6))
               ~timer_ms:timer_mix.((capture + j) mod Array.length timer_mix)
               ~loss:0.01 (j + 1)))
  in
  let captures =
    List.init (hot_count + cold) (fun i ->
        let name = Printf.sprintf "cap%02d" i in
        (* Every other hot capture and every sixth cold one is
           rewritable. *)
        let rewritable =
          if i < hot_count then i mod 2 = 0 else (i - hot_count) mod 6 = 0
        in
        let variants =
          List.init (if rewritable then 2 else 1) (fun v ->
              variant (Printf.sprintf "%s.v%d" name v) ~capture:i ~v)
        in
        Json.Obj
          [
            ("path", str (name ^ ".pcap"));
            ("hot", Json.Bool (i < hot_count));
            ("variants", Json.Arr variants);
          ])
  in
  Json.Obj [ ("captures", Json.Arr captures) ]

(* --- MRT archives --------------------------------------------------------- *)

let peer_ip p = Int32.of_int ((10 lsl 24) lor (2 lsl 16) lor (p + 1))
let local_ip = Int32.of_int ((10 lsl 24) lor 1)
(* BGP4MP_MESSAGE records carry two-byte AS numbers: peers are 64000 +
   their index. *)
let local_as = 65500

let record ~peer ~ts msg =
  Mrt.Message
    { Mrt.ts; peer_as = 64000 + peer; local_as; peer_ip = peer_ip peer;
      local_ip; msg }

let state ~peer ~ts old_state new_state =
  Mrt.State
    { Mrt.sc_ts = ts; sc_peer_as = 64000 + peer; sc_local_as = local_as;
      sc_peer_ip = peer_ip peer; sc_local_ip = local_ip; old_state;
      new_state }

let ip_string ip =
  Format.asprintf "%a" Tdat_study.Transfer.pp_ip ip

let s_us s = int_of_float (s *. 1e6)

(* One peer's session history: transfers anchored on a state change to
   Established, each [next ()] = (prefixes, duration) with every
   inter-update gap below the 200 s quiet gap; some followed, more than
   200 s later, by a churn burst of fewer than 32 prefixes; then a
   session reset.  Returns the entries, the ground truth of the
   transfers and the number of churn bursts. *)
let peer_history rng ~peer ~transfers ~next =
  let entries = ref [] and truth = ref [] and churn = ref 0 in
  let emit e = entries := e :: !entries in
  let t = ref (s_us (Rng.float rng 3600.)) in
  for _ = 1 to transfers do
    let anchor = !t in
    emit (state ~peer ~ts:anchor Mrt.Open_confirm Mrt.Established);
    let prefixes, duration_s = next () in
    let table =
      Tdat_bgp.Table.generate ~rng:(Rng.split rng) ~n_prefixes:prefixes ()
    in
    let msgs = Array.of_list (Tdat_bgp.Update_gen.pack table) in
    let n = Array.length msgs in
    let duration_s =
      Float.min duration_s (150. *. float_of_int (max 1 (n - 1)))
    in
    let first = anchor + s_us (0.05 +. Rng.float rng 0.5) in
    let at i =
      if n = 1 then first
      else first + s_us (duration_s *. float_of_int i /. float_of_int (n - 1))
    in
    Array.iteri (fun i m -> emit (record ~peer ~ts:(at i) m)) msgs;
    let last = at (n - 1) in
    truth :=
      Json.Arr
        [ num (64000 + peer); str (ip_string (peer_ip peer)); num anchor;
          num last;
          num
            (Array.fold_left
               (fun a m -> a + Tdat_bgp.Msg.nlri_count m)
               0 msgs);
          num n ]
      :: !truth;
    let quiet = ref last in
    if Rng.bool rng then begin
      incr churn;
      let c0 = last + s_us (300. +. Rng.float rng 600.) in
      let table =
        Tdat_bgp.Table.generate ~rng:(Rng.split rng)
          ~n_prefixes:(1 + Rng.int rng 20) ()
      in
      List.iteri
        (fun i m -> emit (record ~peer ~ts:(c0 + s_us (float_of_int i)) m))
        (Tdat_bgp.Update_gen.pack table);
      quiet := c0 + s_us 60.
    end;
    let reset = !quiet + s_us (300. +. Rng.float rng 600.) in
    emit (state ~peer ~ts:reset Mrt.Established Mrt.Idle);
    t := reset + s_us (60. +. Rng.float rng 600.)
  done;
  (List.rev !entries, List.rev !truth, !churn)

(* The Pareto distribution's quantiles at (k + 0.5)/n, k < n, shuffled:
   heavy-tailed values whose multiset, and so whose total work and
   tail, is the same for every seed.  Only the order is seeded. *)
let pareto_stratified rng ~n ~shape ~scale =
  let a =
    Array.init n (fun k ->
        let u = (float_of_int k +. 0.5) /. float_of_int n in
        scale *. ((1. -. u) ** (-1. /. shape)))
  in
  Rng.shuffle rng a;
  a

let write_archive path histories =
  let entries =
    List.stable_sort
      (fun a b -> compare (Mrt.entry_ts a) (Mrt.entry_ts b))
      (List.concat histories)
  in
  write_file path (Mrt.encode_entries entries)

(* study_archive: ~1,000 transfers over 50 peers with repeated session
   resets, the peers split across a few archives (one per collector) so
   no transfer straddles two files. *)
let study_archive ~size ~seed dir =
  let files, peers_per_file, per_peer =
    match size with Full -> (5, 10, 20) | Smoke -> (2, 3, 4)
  in
  let rng = Rng.create (seed * 1000 + 11) in
  let n = files * peers_per_file * per_peer in
  let sizes = pareto_stratified rng ~n ~shape:1.3 ~scale:60. in
  let durations = pareto_stratified rng ~n ~shape:1.5 ~scale:20. in
  let k = ref (-1) in
  let next () =
    incr k;
    (min 4_000 (int_of_float sizes.(!k)), durations.(!k))
  in
  let truth = ref [] and churn = ref 0 in
  let archives =
    List.init files (fun f ->
        let histories =
          List.init peers_per_file (fun k ->
              let e, tr, c =
                peer_history rng ~peer:((f * peers_per_file) + k)
                  ~transfers:per_peer ~next
              in
              truth := !truth @ tr;
              churn := !churn + c;
              e)
        in
        let name = Printf.sprintf "archive%d.mrt" f in
        write_archive (Filename.concat dir name) histories;
        str name)
  in
  let minimal, minimal_truth, _ =
    peer_history (Rng.create (seed * 1000 + 13)) ~peer:999 ~transfers:1
      ~next:(fun () -> (40, 30.))
  in
  write_archive (Filename.concat dir "minimal.mrt") [ minimal ];
  Json.Obj
    [
      ("archives", Json.Arr archives);
      ("truth", Json.Arr !truth);
      ("churn_bursts", num !churn);
      ("minimal", str "minimal.mrt");
      ("minimal_truth", Json.Arr minimal_truth);
    ]

let generate ~family ~size ~seed dir =
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let manifest =
    match family with
    | "analyze_fleet" -> analyze_fleet ~size ~seed dir
    | "study_archive" -> study_archive ~size ~seed dir
    | "serve_mixed" -> serve_mixed ~size ~seed dir
    | other -> invalid_arg ("unknown workload " ^ other)
  in
  write_file (Filename.concat dir "manifest.json") (Json.to_string manifest)

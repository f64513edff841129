(* Allocation regression gate (`dune build @perf-gate`, wired into
   `dune runtest`).

   The allocation-light refactor's headline numbers — minor words per
   packet on the analyze and decode paths — are protected by explicit
   budgets in bench/alloc_baseline.json, next to a major-heap budget for
   the analyze path.  The gate replays a small deterministic fleet at
   jobs=1 (no worker domains, so the GC counters see every allocation)
   and fails the build when a path exceeds its budget.  Budgets carry
   ~50% headroom over the measured steady state: they catch a
   reintroduced per-packet list pipeline or string copy (integer
   factors), not micro-noise.

   One size cannot show how a cost grows, so the gate also analyzes the
   same fleet at 4x the prefixes and bounds the ratio of words
   allocated per packet between the two sizes.  Linear stages keep it
   near 1; the O(n^2) knee this gate was added after put it at ~2.6.
   Allocation rather than time keeps the check deterministic on a noisy
   host.

   The gate's own correctness is covered by a negative test
   (test/test_equiv.ml): run against a deliberately tightened baseline,
   it must fail. *)

module Trace = Tdat_pkt.Trace

let baseline = ref "bench/alloc_baseline.json"

(* Minimal one-key-per-line JSON number extraction, so the gate needs no
   JSON dependency.  Budget files are machine-written and flat. *)
let budget_of data key =
  let needle = "\"" ^ key ^ "\"" in
  let nlen = String.length needle in
  let len = String.length data in
  let rec find i =
    if i + nlen > len then None
    else if String.sub data i nlen = needle then Some (i + nlen)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some p ->
      let p = ref p in
      while !p < len && (data.[!p] = ':' || data.[!p] = ' ') do
        incr p
      done;
      let q = ref !p in
      while
        !q < len
        && (match data.[!q] with
           | '0' .. '9' | '.' | '-' | 'e' | 'E' | '+' -> true
           | _ -> false)
      do
        incr q
      done;
      if !q = !p then None
      else float_of_string_opt (String.sub data !p (!q - !p))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Words allocated per packet by [f], after one warm-up run so one-time
   heap and code-path costs (pool setup, scratch growth) are excluded:
   [minor] on the minor heap, [major] on the major heap (direct large
   allocations plus promotions), [total] all words allocated (minor +
   major - promoted, so nothing counts twice). *)
type alloc = { minor : float; major : float; total : float }

let alloc_per_packet ~packets f =
  ignore (f ());
  (* The runtime folds a domain's direct major allocations into
     [major_words] only at the end of a major slice, so close the books
     with a full major collection on both sides of the measured run. *)
  Gc.full_major ();
  let m0 = Gc.minor_words () in
  let s0 = Gc.quick_stat () in
  ignore (f ());
  Gc.full_major ();
  let s1 = Gc.quick_stat () in
  let minor = Gc.minor_words () -. m0 in
  let major = s1.Gc.major_words -. s0.Gc.major_words in
  let promoted = s1.Gc.promoted_words -. s0.Gc.promoted_words in
  let per w = w /. float_of_int packets in
  { minor = per minor; major = per major; total = per (minor +. major -. promoted) }

let run () =
  let data =
    try read_file !baseline
    with Sys_error e ->
      Printf.eprintf "[perf-gate] cannot read baseline %s: %s\n" !baseline e;
      exit 2
  in
  let analyze_alloc ~prefixes =
    let trace = Scaling.fleet_trace ~sessions:2 ~prefixes ~seed:7 in
    let packets = Trace.length trace in
    ( trace,
      packets,
      alloc_per_packet ~packets (fun () ->
          Tdat.Analyzer.analyze_all ~jobs:1 trace) )
  in
  let trace, packets, analyze = analyze_alloc ~prefixes:3_000 in
  (* The same fleet shape at 4x the prefixes: a stage whose cost grows
     faster than its input shows up as more words per packet, whatever
     the machine's speed. *)
  let _, big_packets, analyze_big = analyze_alloc ~prefixes:12_000 in
  let pcap = Tdat_pkt.Pcap.encode trace in
  let decode =
    (alloc_per_packet ~packets (fun () -> Tdat_pkt.Pcap.decode_result pcap))
      .minor
  in
  let failures = ref 0 in
  let check name measured =
    match budget_of data name with
    | None ->
        Printf.eprintf "[perf-gate] baseline %s lacks key %S (measured %.2f)\n"
          !baseline name measured;
        incr failures
    | Some budget ->
        let ok = measured <= budget in
        Printf.printf "[perf-gate] %-38s %8.2f  (budget %8.2f)  %s\n" name
          measured budget
          (if ok then "ok" else "FAIL");
        if not ok then incr failures
  in
  Printf.printf "[perf-gate] fleet: %d packets (x4 prefixes: %d), baseline %s\n%!"
    packets big_packets !baseline;
  check "analyze_minor_words_per_packet_max" analyze.minor;
  check "decode_minor_words_per_packet_max" decode;
  check "analyze_major_words_per_packet_max" analyze.major;
  check "analyze_words_per_packet_x4_ratio_max"
    (analyze_big.total /. analyze.total);
  if !failures > 0 then begin
    Printf.eprintf
      "[perf-gate] %d budget(s) exceeded: the hot path allocates more per \
       packet than bench/alloc_baseline.json allows.  If the regression is \
       intentional, re-baseline with the new measured numbers.\n"
      !failures;
    exit 1
  end

let registry = [ ("perf_gate", run) ]

(* The benchmark's in-process helper, driven by perfbench/run.py:

     bench_tool.exe gen WORKLOAD SEED DIR [--smoke]
       write WORKLOAD's seeded inputs, their expected outputs and a
       manifest.json into DIR;
     bench_tool.exe layers WORKLOAD ROOT TRACE_OUT
       replay every layer over the inputs generated under ROOT/<family>,
       print the raw per-layer samples as one JSON object, and write the
       recorded spans to TRACE_OUT;
     bench_tool.exe host
       print the host facts (not metrics) as one JSON object. *)

let usage () =
  prerr_endline
    "usage: bench_tool.exe gen WORKLOAD SEED DIR [--smoke]\n\
    \       bench_tool.exe layers WORKLOAD ROOT TRACE_OUT\n\
    \       bench_tool.exe host";
  exit 2

let () =
  match Array.to_list Sys.argv |> List.tl with
  | "gen" :: workload :: seed :: dir :: rest ->
      let size =
        if List.mem "--smoke" rest then Inputs.Smoke else Inputs.Full
      in
      Inputs.generate ~family:workload ~size ~seed:(int_of_string seed) dir
  | [ "layers"; workload; root; trace_out ] ->
      print_endline (Layers.run ~workload ~root ~trace_out)
  | [ "host" ] -> print_endline (Host.facts ())
  | _ -> usage ()

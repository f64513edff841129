(* Host facts recorded beside the results (they are not metrics): what
   the runtime recommends, and what the host actually delivers.  The
   effective_cores probe runs the same fixed compute on k domains at
   once and on one: k * t1 / tk is the parallelism a jobs>1 claim can
   count on. *)

module Json = Tdat_serve.Json

(* Allocation-free integer mixing, so the probe measures cores, not the
   shared minor heap. *)
let spin iterations =
  let x = ref 0x9E3779B9 in
  for i = 1 to iterations do
    x := (!x lxor (!x lsr 13)) * 0x5bd1e995 + i
  done;
  !x

let time f =
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (f ()));
  Unix.gettimeofday () -. t0

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a.(Array.length a / 2)

let effective_cores ~k =
  let iterations = 20_000_000 in
  let one () = time (fun () -> spin iterations) in
  let many () =
    time (fun () ->
        List.init k (fun _ -> Domain.spawn (fun () -> spin iterations))
        |> List.map Domain.join)
  in
  let t1 = median (List.init 3 (fun _ -> one ())) in
  let tk = median (List.init 3 (fun _ -> many ())) in
  (float_of_int k *. t1 /. tk, t1, tk)

let facts () =
  let k = max 2 (Domain.recommended_domain_count ()) in
  let cores, t1, tk = effective_cores ~k in
  Json.to_string
    (Json.Obj
       [
         ("recommended_domain_count",
          Json.Num (float_of_int (Domain.recommended_domain_count ())));
         ("ocaml_version", Json.Str Sys.ocaml_version);
         ("effective_cores", Json.Num cores);
         ("probe_domains", Json.Num (float_of_int k));
         ("probe_t1_s", Json.Num t1);
         ("probe_tk_s", Json.Num tk);
       ])

module Mrt = Tdat_bgp.Mrt

type file_report = {
  path : string;
  transfers : Transfer.t list;
  diags : Mrt.Diag.t list;
  stats : Mrt.stats;
}

let scan_file ?(strict = false) ?config path =
  let detector = Detect.create ?config ~source:path () in
  let diags = ref [] in
  let (), stats =
    Mrt.fold_file ~strict
      ~on_diag:(fun d -> diags := d :: !diags)
      path ~init:()
      (fun () entry -> Detect.feed detector entry)
  in
  {
    path;
    transfers = Detect.finish detector;
    diags = List.rev !diags;
    stats;
  }

let scan_result ?config ~source (r : Mrt.result) =
  {
    path = source;
    transfers = Detect.over_entries ?config ~source r.entries;
    diags = r.diags;
    stats = r.stats;
  }

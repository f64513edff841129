let of_diags ~file ds =
  List.map
    (fun (d : Tdat_pkt.Ingest_io.Diag.t) ->
      {
        Diag.code = d.code;
        severity = d.severity;
        subject =
          (match d.record with
          | Some i -> Printf.sprintf "%s record %d" file i
          | None -> file);
        message = d.message;
        where = None;
      })
    ds

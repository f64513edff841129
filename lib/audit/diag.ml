type severity = Tdat_pkt.Ingest_io.Diag.severity = Error | Warning | Info

type t = {
  code : string;
  severity : severity;
  subject : string;
  message : string;
  where : Tdat_timerange.Span.t option;
}

let make severity ?where ~code ~subject fmt =
  Format.kasprintf
    (fun message -> { code; severity; subject; message; where })
    fmt

let error ?where = make Error ?where
let warning ?where = make Warning ?where
let info ?where = make Info ?where

let severity_name = Tdat_pkt.Ingest_io.Diag.severity_name

let equal_severity a b =
  match (a, b) with
  | Error, Error | Warning, Warning | Info, Info -> true
  | (Error | Warning | Info), _ -> false

let is_error d = equal_severity d.severity Error
let errors ds = List.filter is_error ds

let pp ppf d =
  Format.fprintf ppf "%s %s [%s] %s" d.code (severity_name d.severity)
    d.subject d.message;
  match d.where with
  | Some span -> Format.fprintf ppf " (at %a)" Tdat_timerange.Span.pp span
  | None -> ()

let pp_report ppf ds =
  let count sev =
    List.length (List.filter (fun d -> equal_severity d.severity sev) ds)
  in
  Format.fprintf ppf "@[<v>";
  List.iter (fun d -> Format.fprintf ppf "%a@," pp d) ds;
  Format.fprintf ppf "%d error(s), %d warning(s), %d info@]" (count Error)
    (count Warning) (count Info)

(** Scanning one MRT archive file: stream it through the streaming
    {!Tdat_bgp.Mrt} reader and the {!Detect} state machine in bounded
    memory, collecting transfers, diagnostics and counters. *)

type file_report = {
  path : string;
  transfers : Transfer.t list;  (** In {!Transfer.compare} order. *)
  diags : Tdat_bgp.Mrt.Diag.t list;  (** M0xx findings, in file order. *)
  stats : Tdat_bgp.Mrt.stats;
}

val scan_file :
  ?strict:bool -> ?config:Detect.config -> string -> file_report
(** Salvages by default; [~strict:true] raises
    [Tdat_bgp.Bgp_error.Decode_error] on the first malformed record. *)

val scan_result :
  ?config:Detect.config -> source:string -> Tdat_bgp.Mrt.result -> file_report
(** In-memory variant over an archive already read whole
    ([Tdat_bgp.Mrt.read_file], [decode_result]): its entries through the
    detector, its diagnostics and counters as read. *)

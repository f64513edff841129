(** Lifting ingestion diagnostics into the audit report shape.

    The pcap and MRT readers emit typed [P0xx]/[M0xx] diagnostics
    ([Tdat_pkt.Ingest_io.Diag], alias [Pcap.Diag] and [Mrt.Diag]), but
    cannot depend on this library; this module converts them to
    {!Diag.t} so [tdat check] and [tdat study] present one unified
    finding list covering the parsing boundaries and the analysis
    invariants.  DESIGN.md ("Ingestion robustness" and "Measurement
    study") documents the code tables. *)

val of_diags : file:string -> Tdat_pkt.Ingest_io.Diag.t list -> Diag.t list
(** Severity, code and message are preserved; the record index and
    [file] become the subject (["pcap record 12"], ["a.mrt record 3"];
    just [file] for a whole-file finding). *)

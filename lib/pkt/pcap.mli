(** Streaming, fault-tolerant libpcap file codec.

    Writes traces as classic pcap files (microsecond timestamps, Ethernet
    link type) with fabricated Ethernet/IPv4/TCP headers, and reads them
    back — enough for [pcap2bgp] and the CLI to interoperate with
    tcpdump-style tooling on both synthetic and real traces.  Checksums
    are written as zero and ignored on read.

    Reading is {e streaming}: records are decoded one at a time from a
    reused buffer, so a multi-gigabyte capture is processed in memory
    proportional to its largest record.  It is also {e snaplen-correct}:
    a segment's [len] always comes from the declared IPv4/TCP header
    lengths ([ip_total - ihl - doff]), while its [payload] keeps only the
    bytes the sniffer captured — possibly fewer, when the capture used a
    small snaplen (tcpdump [-s]).  Sequence/outstanding/retransmission
    accounting downstream therefore stays exact on headers-only captures.

    Malformed input degrades gracefully: each problem produces a typed
    {!Diag.t} ([P0xx] codes, see DESIGN.md "Ingestion robustness") and the
    reader salvages every decodable record — a capture whose final record
    was cut off by killing tcpdump mid-write still yields all prior
    packets.  [?strict:true] instead fails on the first error- or
    warning-severity diagnostic.

    The record loop, sources, tailing and strict policy are the shared
    {!Ingest_io} reader; this module contributes the pcap framing and
    the frame decoder.  Four entry points read: {!fold_read} and
    {!fold_file} stream segments, {!read_file} and {!decode_result}
    collect a {!result}.

    Sequence numbers are wrapped to 32 bits on write; reads return the raw
    32-bit values (traces produced by this repository never wrap). *)

exception Decode_error of string
(** Raised on malformed pcap input by the readers when [~strict:true],
    as [Decode_error "Pcap.decode: <message>"]. *)

exception Encode_error of string
(** Raised by {!encode} / {!to_file} on segments that cannot be
    represented in a pcap file (negative timestamps, seconds beyond the
    unsigned 32-bit epoch, payload overflowing the IPv4 total length). *)

(** Typed per-record ingestion diagnostics ([P0xx] codes); the type
    is shared with [Tdat_bgp.Mrt.Diag]. *)
module Diag = Ingest_io.Diag

type stats = {
  records : int;  (** Complete records read. *)
  decoded : int;  (** TCP segments produced. *)
  skipped : int;  (** Records that produced no segment (non-TCP, malformed). *)
  clipped : int;
      (** Segments whose captured payload was shorter than the declared
          TCP length (snaplen truncation). *)
}

type result = { trace : Trace.t; diags : Diag.t list; stats : stats }

val encode : Trace.t -> string
(** Serializes a trace to pcap file bytes.
    @raise Encode_error on unrepresentable segments. *)

val decode_result : ?strict:bool -> string -> result
(** Parse pcap file bytes (both little- and big-endian files, µs or ns
    resolution; ns timestamps are truncated to µs; non-TCP packets are
    skipped), salvaging every decodable record and reporting problems
    as diagnostics.  [~strict:true] raises {!Decode_error} on the first
    error/warning diagnostic. *)

val fold_read :
  ?strict:bool ->
  ?on_diag:(Diag.t -> unit) ->
  read:Ingest_io.read ->
  init:'a ->
  ('a -> Tcp_segment.t -> 'a) ->
  'a * stats
(** [fold_read ~read ~init f] decodes the capture [read] delivers one
    record at a time, folding [f] over the TCP segments in capture
    order; diagnostics stream to [on_diag] instead of being
    accumulated.  [read] is any {!Ingest_io.read}: a pipe or socket
    ({!Ingest_io.of_fd}), an in-memory capture ({!Ingest_io.of_string}),
    an instrumented source in tests.  The fold only ends the capture
    when [read] returns [0]. *)

val fold_file :
  ?strict:bool ->
  ?on_diag:(Diag.t -> unit) ->
  ?follow:Ingest_io.follow ->
  string ->
  init:'a ->
  ('a -> Tcp_segment.t -> 'a) ->
  'a * stats
(** {!fold_read} over a freshly opened file, closed on return: read
    record by record into a reused frame buffer that never exceeds the
    largest record.  With [~follow] (see {!Ingest_io.follow_idle}) EOF
    polls the file instead of ending the capture — the tailing mode for
    a still-growing file. *)

val to_file : string -> Trace.t -> unit
(** @raise Encode_error on unrepresentable segments. *)

val read_file : ?strict:bool -> ?follow:Ingest_io.follow -> string -> result
(** Streaming read collecting the salvaged trace, all diagnostics (plus a
    final [P011] snaplen-clipping summary when applicable) and counters.
    Fault-tolerant unless [~strict:true]; [~follow] tails a growing
    file as {!fold_file} does. *)

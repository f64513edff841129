(** The framed-record reader both capture formats are built on: one
    source layer, one record loop, one diagnostic type, one result
    collector.  {!Pcap} and [Tdat_bgp.Mrt] describe only their own
    framing (a {!format}); everything else lives here.

    Sources.  Every input — a file (optionally still growing), a pipe
    or socket descriptor, an in-memory string, a custom transport —
    reduces to one {!read} function, and the record loop ends a capture
    only when [read] returns [0].  The readers below make that a safe
    contract:

    - [EINTR] is retried, never surfaced — neither as a truncated
      record nor as an exception — for both [Unix.read]
      ([Unix_error (EINTR, _, _)]) and channel [input] (a [Sys_error]).
    - Short reads never end a capture: the record loop keeps calling
      [read] until it has the whole frame or sees a true EOF, so pipes
      and sockets deliver complete captures.
    - With [~follow], a 0-byte read polls the source instead of ending
      the capture — the tailing mode the serve daemon uses on
      still-growing pcap/MRT files. *)

val retry_eintr : (unit -> 'a) -> 'a
(** Run [f], retrying while it raises [EINTR] (as [Unix_error] or as
    the channel layer's [Sys_error]). *)

type read = Bytes.t -> int -> int -> int
(** [read buf off len] fills at most [len] bytes at [off], returning
    the count actually read; [0] means end of input. *)

type follow = int -> bool
(** A tailing policy: called with the cumulative byte count each time
    the source reports EOF.  Returning [true] keeps polling; [false]
    accepts the EOF. *)

val of_read : ?follow:follow -> read -> read
(** Wrap a raw read with [EINTR] retry and (optionally) the [follow]
    polling loop, which polls every 0.02 s.  [of_read (Unix.read fd)]
    is the source for pipes and sockets. *)

val of_string : string -> read
(** A reader over an in-memory capture. *)

val follow_idle : ?limit_s:float -> idle_s:float -> unit -> follow
(** The standard tailing policy: keep waiting while the source has
    produced new bytes within the last [idle_s] seconds, giving up
    unconditionally after [limit_s] (default: never). *)

(** Typed per-record ingestion diagnostics, shared by both formats
    ([Pcap.Diag] and [Tdat_bgp.Mrt.Diag] are this module) — the same
    code/severity/message shape as [Tdat_audit.Diag], kept
    dependency-free here ([Tdat_audit.Ingest] lifts these into the
    audit report). *)
module Diag : sig
  type severity = Error | Warning | Info

  type t = {
    code : string;  (** Stable ingestion code, e.g. ["P005"], ["M002"]. *)
    severity : severity;
        (** [Error]: the file is not usable at all.  [Warning]: a record
            was malformed or truncated; salvage continues around it or
            stops with every earlier record kept.  [Info]: lossless
            notes. *)
    record : int option;  (** 0-based index of the offending record. *)
    message : string;
  }

  val error :
    ?record:int -> code:string -> ('a, Format.formatter, unit, t) format4 -> 'a

  val warning :
    ?record:int -> code:string -> ('a, Format.formatter, unit, t) format4 -> 'a

  val info :
    ?record:int -> code:string -> ('a, Format.formatter, unit, t) format4 -> 'a

  val severity_name : severity -> string
  val is_error : t -> bool
  val pp : Format.formatter -> t -> unit
end

(** {1 The record loop} *)

type source =
  | File of string * follow option
      (** Opened binary and closed on return; a [follow] policy tails
          the file while it grows. *)
  | Reader of read  (** Used as given. *)

(** A framing fault ends the read, earlier records kept: EOF inside a
    record header (with the bytes read), a declared body above
    [max_record_len] (with that length), EOF inside a body (with the
    declared length). *)
type fault = Short_header | Oversized | Short_body

(** One capture format: an optional file header, then records of a
    fixed-size header declaring the length of the body that follows.
    ['st] is the format's per-read state around the diagnostic sink
    [create] receives.  [file_header] sees a short slice if the file
    ends inside it; [Some d] makes the file unusable.  [decode st index
    header body] sees slices borrowed from reused buffers; [None] skips
    the record.  [stats st n] reads the counters after [n] complete
    records; {!collect} appends [summary stats] to the diagnostics. *)
type ('st, 'item, 'stats) format = {
  file_header_len : int;  (** [0]: none. *)
  file_header : 'st -> Slice.t -> Diag.t option;
  header_len : int;
  body_len : 'st -> Slice.t -> int;
  max_record_len : int;
  fault : fault -> record:int -> int -> Diag.t;
  decode : 'st -> int -> Slice.t -> Slice.t -> 'item option;
  create : (Diag.t -> unit) -> 'st;
  stats : 'st -> int -> 'stats;
  summary : 'stats -> Diag.t option;
  strict_error : Diag.t -> exn;  (** What a strict read raises. *)
  span : 'r. (unit -> 'r) -> 'r;  (** The format's [*-read] trace span. *)
  records_per_s : Tdat_obs.Metrics.Gauge.t;
}

val fold :
  ('st, 'item, 'stats) format ->
  ?strict:bool ->
  ?on_diag:(Diag.t -> unit) ->
  source ->
  init:'a ->
  ('a -> 'item -> 'a) ->
  'a * 'stats
(** Stream [source] record by record through one reused body buffer (a
    per-domain arena slot), folding over the decoded items in file
    order: memory stays proportional to the largest record, never the
    file.  Diagnostics stream to [on_diag].  [~strict:true] raises
    [strict_error] on the first error- or warning-severity diagnostic;
    infos never stop a read. *)

val collect :
  ('st, 'item, 'stats) format ->
  ?strict:bool ->
  source ->
  'item list * Diag.t list * 'stats
(** {!fold} collecting every item and every diagnostic (followed by the
    format's [summary]). *)

(* The framed-record reader shared by both capture formats ([Pcap] here,
   [Mrt] in lib/bgp; the serve daemon's live feeds in lib/serve read
   through them).

   Every input source — in-channel, file descriptor, pipe, socket,
   in-memory string, or a still-growing file being tailed — reduces to
   one [read buf off len -> n] function.  The record loop below only
   terminates a capture when [read] returns 0, so this module is where
   the end-of-input question is actually decided, and it guarantees:

   - [EINTR] never ends a capture: an interrupted system call is
     retried, both for [Unix.read] (which raises [Unix_error (EINTR)])
     and for channel [input] (which surfaces the same condition as a
     [Sys_error]).  Without the retry, a SIGTERM-handling daemon whose
     worker is mid-read would truncate the record it was on.
   - A short read never ends a capture: pipes and sockets routinely
     deliver fewer bytes than asked; [read_upto] keeps calling until it
     has the frame or sees a true EOF.
   - A tailed file can defer EOF: with [~follow], a 0-byte read polls
     the source until the follow policy gives up, so a reader can
     consume a capture that is still being written.

   Above the sources sits the one record loop; a format contributes
   only its framing, its diagnostics and its decoder. *)

type read = Bytes.t -> int -> int -> int

type follow = int -> bool

(* [Sys_error] carries [strerror]-formatted text; an interrupted
   channel read is the one transient failure worth recognizing. *)
let sys_error_is_eintr msg =
  let needle = "Interrupted system call" in
  let nlen = String.length needle and mlen = String.length msg in
  let rec scan i =
    i + nlen <= mlen
    && (String.equal (String.sub msg i nlen) needle || scan (i + 1))
  in
  scan 0

let rec retry_eintr f =
  match f () with
  | v -> v
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> retry_eintr f
  | exception Sys_error msg when sys_error_is_eintr msg -> retry_eintr f

(* Seconds between polls of a tailed source at EOF. *)
let poll_interval_s = 0.02

let of_read ?follow (read : read) : read =
  match follow with
  | None -> fun buf off len -> retry_eintr (fun () -> read buf off len)
  | Some keep_waiting ->
      let total = ref 0 in
      fun buf off len ->
        let rec attempt () =
          let n = retry_eintr (fun () -> read buf off len) in
          if n > 0 then begin
            total := !total + n;
            n
          end
          else if len > 0 && keep_waiting !total then begin
            (* [sleepf] returning early on a signal only tightens the
               poll; correctness never depends on the interval. *)
            Unix.sleepf poll_interval_s;
            attempt ()
          end
          else 0
        in
        attempt ()

let of_string data : read =
  let pos = ref 0 in
  fun buf off len ->
    let n = min len (String.length data - !pos) in
    Bytes.blit_string data !pos buf off n;
    pos := !pos + n;
    n

let follow_idle ?(limit_s = infinity) ~idle_s () : follow =
  let start = Unix.gettimeofday () in
  let last_total = ref 0 in
  let last_change = ref start in
  fun total ->
    let now = Unix.gettimeofday () in
    if total <> !last_total then begin
      last_total := total;
      last_change := now
    end;
    now -. !last_change < idle_s && now -. start < limit_s

(* --- diagnostics --------------------------------------------------------- *)

module Diag = struct
  type severity = Error | Warning | Info

  type t = {
    code : string;
    severity : severity;
    record : int option;
    message : string;
  }

  let make severity ?record ~code fmt =
    Format.kasprintf (fun message -> { code; severity; record; message }) fmt

  let error ?record ~code fmt = make Error ?record ~code fmt
  let warning ?record ~code fmt = make Warning ?record ~code fmt
  let info ?record ~code fmt = make Info ?record ~code fmt

  let severity_name = function
    | Error -> "error"
    | Warning -> "warning"
    | Info -> "info"

  let is_error d = match d.severity with Error -> true | Warning | Info -> false

  let pp ppf d =
    match d.record with
    | Some i ->
        Format.fprintf ppf "%s %s [record %d] %s" d.code
          (severity_name d.severity) i d.message
    | None ->
        Format.fprintf ppf "%s %s %s" d.code (severity_name d.severity)
          d.message
end

(* --- the record loop ----------------------------------------------------- *)

type source = File of string * follow option | Reader of read

type fault = Short_header | Oversized | Short_body

type ('st, 'item, 'stats) format = {
  file_header_len : int;
  file_header : 'st -> Slice.t -> Diag.t option;
  header_len : int;
  body_len : 'st -> Slice.t -> int;
  max_record_len : int;
  fault : fault -> record:int -> int -> Diag.t;
  decode : 'st -> int -> Slice.t -> Slice.t -> 'item option;
  create : (Diag.t -> unit) -> 'st;
  stats : 'st -> int -> 'stats;
  summary : 'stats -> Diag.t option;
  strict_error : Diag.t -> exn;
  span : 'r. (unit -> 'r) -> 'r;
  records_per_s : Tdat_obs.Metrics.Gauge.t;
}

module Obs = Tdat_obs.Metrics

(* The one short-read loop: fill [buf] from [off] up to [len] or until
   [read] reports EOF, returning how far it got. *)
let rec read_upto (read : read) buf off len =
  if off >= len then off
  else
    let n = read buf off (len - off) in
    if n = 0 then off else read_upto read buf (off + n) len

(* Per record: one header read, one body read into the arena buffer,
   one decode over borrowed slices.  Nothing here allocates besides the
   body slice; what the decoder keeps is the format's business. *)
let fold_records fmt ~emit read ~init f =
  let st = fmt.create emit in
  let records = ref 0 in
  let t_read = if Obs.enabled Obs.default then Tdat_obs.Clock.now_s () else 0. in
  let acc =
    fmt.span @@ fun () ->
    (* The body buffer is a per-domain arena slot: folds on the same
       domain (each pool worker streams many files, of either format)
       reuse one high-water-mark buffer instead of allocating one per
       file. *)
    Tdat_parallel.Scratch.(with_bytes ~slot:slot_record 65536) @@ fun cell ->
    let hdr = Bytes.create (max fmt.header_len fmt.file_header_len) in
    let hdr_s = Slice.of_bytes ~len:fmt.header_len hdr in
    let usable =
      fmt.file_header_len = 0
      ||
      let got = read_upto read hdr 0 fmt.file_header_len in
      match fmt.file_header st (Slice.of_bytes ~len:got hdr) with
      | None -> true
      | Some d ->
          emit d;
          false
    in
    (* Every framing fault ends the read; earlier records are kept. *)
    let stop fault n acc =
      emit (fmt.fault fault ~record:!records n);
      acc
    in
    let rec loop acc =
      let n = read_upto read hdr 0 fmt.header_len in
      if n = 0 then acc
      else if n < fmt.header_len then stop Short_header n acc
      else
        let len = fmt.body_len st hdr_s in
        if len > fmt.max_record_len then stop Oversized len acc
        else
          let body = Tdat_parallel.Scratch.ensure cell len in
          if read_upto read body 0 len < len then stop Short_body len acc
          else begin
            let idx = !records in
            records := idx + 1;
            match fmt.decode st idx hdr_s (Slice.of_bytes ~len body) with
            | Some item -> loop (f acc item)
            | None -> loop acc
          end
    in
    if usable then loop init else init
  in
  if Obs.enabled Obs.default then begin
    let dt = Tdat_obs.Clock.now_s () -. t_read in
    if dt > 0. then
      Obs.Gauge.set fmt.records_per_s (float_of_int !records /. dt)
  end;
  (acc, fmt.stats st !records)

let fold fmt ?(strict = false) ?(on_diag = fun (_ : Diag.t) -> ()) source
    ~init f =
  (* Errors and warnings abort a strict read; infos never do. *)
  let emit (d : Diag.t) =
    on_diag d;
    match d.severity with
    | (Error | Warning) when strict -> raise (fmt.strict_error d)
    | Error | Warning | Info -> ()
  in
  match source with
  | Reader read -> fold_records fmt ~emit read ~init f
  | File (path, follow) ->
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> fold_records fmt ~emit (of_read ?follow (input ic)) ~init f)

let collect fmt ?strict source =
  let diags = ref [] in
  let items, stats =
    fold fmt ?strict
      ~on_diag:(fun d -> diags := d :: !diags)
      source ~init:[]
      (fun acc x -> x :: acc)
  in
  let summary = Option.to_list (fmt.summary stats) in
  (List.rev items, List.rev_append !diags summary, stats)

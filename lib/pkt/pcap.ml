let magic_us = 0xA1B2C3D4l
let magic_ns = 0xA1B23C4Dl

let ethernet_header_len = 14
let ipv4_header_len = 20

(* Records claiming more captured bytes than this are treated as corrupt
   framing: no sane snaplen reaches 64 MB, and trusting a garbage length
   would make the reader allocate (and mis-skip) gigabytes. *)
let max_record_len = 0x0400_0000

exception Decode_error of string
exception Encode_error of string

module Diag = Ingest_io.Diag

(* --- observability ----------------------------------------------------

   Reader throughput instruments (DESIGN.md, "Observability").  Record,
   segment, skip and byte counters are stable — pure functions of the
   input capture — while the records-per-second gauge is wall-clock and
   therefore volatile.  With metrics disabled each point costs one
   atomic load. *)

module Obs = Tdat_obs.Metrics

let m_records = Obs.Counter.make "pcap.records"
let m_segments = Obs.Counter.make "pcap.segments"
let m_skipped = Obs.Counter.make "pcap.skipped"
let m_bytes = Obs.Counter.make "pcap.bytes"

let h_record_bytes =
  Obs.Histogram.make ~buckets:Obs.Histogram.size_buckets "pcap.record_bytes"

(* --- encoding --------------------------------------------------------- *)

let encode_packet buf (s : Tcp_segment.t) =
  if s.ts < 0 then
    raise (Encode_error (Printf.sprintf "Pcap.encode: negative timestamp %d" s.ts));
  let ts_sec = s.ts / 1_000_000 in
  if ts_sec > 0xFFFF_FFFF then
    raise
      (Encode_error
         (Printf.sprintf
            "Pcap.encode: timestamp %d overflows pcap's unsigned 32-bit \
             seconds"
            s.ts));
  let tcp_options_len = if s.mss_opt <> None then 4 else 0 in
  let tcp_header_len = 20 + tcp_options_len in
  let ip_total = ipv4_header_len + tcp_header_len + s.len in
  if ip_total > 0xFFFF then
    raise
      (Encode_error
         (Printf.sprintf
            "Pcap.encode: segment length %d overflows the IPv4 total length"
            s.len));
  let frame_len = ethernet_header_len + ip_total in
  (* pcap record header (little endian).  [Int32.of_int] keeps the low 32
     bits, so seconds in [2^31, 2^32) — post-2038 timestamps — retain
     their unsigned on-disk encoding. *)
  let hdr = Bytes.create 16 in
  Bytes.set_int32_le hdr 0 (Int32.of_int ts_sec);
  Bytes.set_int32_le hdr 4 (Int32.of_int (s.ts mod 1_000_000));
  Bytes.set_int32_le hdr 8 (Int32.of_int frame_len);
  Bytes.set_int32_le hdr 12 (Int32.of_int frame_len);
  Buffer.add_bytes buf hdr;
  let frame = Bytes.make frame_len '\000' in
  (* Ethernet: zero MACs, ethertype IPv4. *)
  Bytes.set_uint16_be frame 12 0x0800;
  (* IPv4 header *)
  let ip = ethernet_header_len in
  Bytes.set_uint8 frame ip 0x45;
  Bytes.set_uint16_be frame (ip + 2) ip_total;
  Bytes.set_uint8 frame (ip + 8) 64 (* TTL *);
  Bytes.set_uint8 frame (ip + 9) 6 (* protocol TCP *);
  Bytes.set_int32_be frame (ip + 12) s.src.Endpoint.ip;
  Bytes.set_int32_be frame (ip + 16) s.dst.Endpoint.ip;
  (* TCP header *)
  let tcp = ip + ipv4_header_len in
  Bytes.set_uint16_be frame tcp s.src.Endpoint.port;
  Bytes.set_uint16_be frame (tcp + 2) s.dst.Endpoint.port;
  Bytes.set_int32_be frame (tcp + 4) (Int32.of_int (s.seq land 0xFFFFFFFF));
  Bytes.set_int32_be frame (tcp + 8) (Int32.of_int (s.ack land 0xFFFFFFFF));
  let data_offset = tcp_header_len / 4 in
  Bytes.set_uint8 frame (tcp + 12) (data_offset lsl 4);
  let flag_bits =
    (if s.flags.Tcp_segment.fin then 0x01 else 0)
    lor (if s.flags.syn then 0x02 else 0)
    lor (if s.flags.rst then 0x04 else 0)
    lor (if s.flags.psh then 0x08 else 0)
    lor if s.flags.ack then 0x10 else 0
  in
  Bytes.set_uint8 frame (tcp + 13) flag_bits;
  Bytes.set_uint16_be frame (tcp + 14) (min s.window 0xFFFF);
  (match s.mss_opt with
  | Some mss ->
      Bytes.set_uint8 frame (tcp + 20) 2;
      Bytes.set_uint8 frame (tcp + 21) 4;
      Bytes.set_uint16_be frame (tcp + 22) mss
  | None -> ());
  (* Payload.  A payload shorter than [len] (not materialized, or clipped
     by the capture snaplen) is zero-filled to the declared length so
     stream offsets stay exact. *)
  let pl = min (String.length s.payload) s.len in
  if pl > 0 then Bytes.blit_string s.payload 0 frame (tcp + tcp_header_len) pl;
  Buffer.add_bytes buf frame

let encode trace =
  let buf = Buffer.create 4096 in
  let ghdr = Bytes.create 24 in
  Bytes.set_int32_le ghdr 0 magic_us;
  Bytes.set_uint16_le ghdr 4 2;
  Bytes.set_uint16_le ghdr 6 4;
  Bytes.set_int32_le ghdr 8 0l;
  Bytes.set_int32_le ghdr 12 0l;
  Bytes.set_int32_le ghdr 16 65535l;
  Bytes.set_int32_le ghdr 20 1l (* LINKTYPE_ETHERNET *);
  Buffer.add_bytes buf ghdr;
  List.iter (encode_packet buf) (Trace.segments trace);
  Buffer.contents buf

(* --- decoding --------------------------------------------------------- *)

type endianness = Le | Be

let get_u32 e s off =
  match e with Le -> Slice.u32le s off | Be -> Slice.u32be s off

type stats = { records : int; decoded : int; skipped : int; clipped : int }

type result = { trace : Trace.t; diags : Diag.t list; stats : stats }

(* Per-read state: the file header's byte order and resolution, the
   diagnostic sink, and the counters behind [stats]. *)
type state = {
  emit : Diag.t -> unit;
  mutable endian : endianness;
  mutable ns : bool;
  mutable decoded : int;
  mutable skipped : int;
  mutable clipped : int;
}

(* Internal: abandon the current record (after emitting its diagnostic). *)
exception Skip_record

(* Decode one captured frame (a [Slice.t] over the captured bytes of the
   reused record buffer) into a TCP segment.  The frame is parsed
   snaplen-correctly: the segment's [len] comes from the declared IP/TCP
   header lengths, the payload keeps only the captured bytes (possibly
   fewer than [len]).  Everything is read in place through the slice;
   the only allocations are the outputs kept past this record (the
   segment, its payload, any diagnostics). *)
let decode_frame st ~ri ~ts frame =
  let incl = Slice.length frame in
  let skip d =
    st.emit d;
    raise_notrace Skip_record
  in
  try
    if incl < ethernet_header_len then
      skip (Diag.info ~record:ri ~code:"P009" "runt frame (%d captured bytes)" incl);
    let ethertype = Slice.u16be frame 12 in
    let l2, ethertype =
      if ethertype = 0x8100 then begin
        if incl < ethernet_header_len + 4 then
          skip (Diag.info ~record:ri ~code:"P009" "runt 802.1Q frame");
        st.emit (Diag.info ~record:ri ~code:"P010" "802.1Q VLAN-tagged frame");
        (ethernet_header_len + 4, Slice.u16be frame 16)
      end
      else (ethernet_header_len, ethertype)
    in
    if ethertype <> 0x0800 then
      skip
        (Diag.info ~record:ri ~code:"P009" "non-IPv4 frame (ethertype 0x%04x)"
           ethertype);
    if l2 + ipv4_header_len > incl then
      skip
        (Diag.warning ~record:ri ~code:"P006"
           "capture ends inside the IPv4 header");
    let vihl = Slice.u8 frame l2 in
    if vihl lsr 4 <> 4 then
      skip (Diag.warning ~record:ri ~code:"P006" "IP version %d" (vihl lsr 4));
    let ihl = (vihl land 0x0F) * 4 in
    if ihl < ipv4_header_len then
      skip (Diag.warning ~record:ri ~code:"P006" "bad IHL %d" ihl);
    let proto = Slice.u8 frame (l2 + 9) in
    if proto <> 6 then raise_notrace Skip_record (* non-TCP traffic *);
    let ip_total = Slice.u16be frame (l2 + 2) in
    let tcp = l2 + ihl in
    if tcp + 20 > incl then
      skip
        (Diag.warning ~record:ri ~code:"P007"
           "capture ends inside the TCP header");
    let doff = (Slice.u8 frame (tcp + 12) lsr 4) * 4 in
    if doff < 20 then
      skip (Diag.warning ~record:ri ~code:"P007" "bad TCP data offset %d" doff);
    if ihl + doff > ip_total then
      skip
        (Diag.warning ~record:ri ~code:"P007"
           "TCP data offset overruns the IP datagram (IHL %d + offset %d > \
            total %d)"
           ihl doff ip_total);
    (* Snaplen-correct length: trust the declared header lengths, keep
       whatever payload bytes the sniffer captured. *)
    let len = ip_total - ihl - doff in
    let payload_off = tcp + doff in
    let captured = max 0 (min len (incl - payload_off)) in
    if captured < len then st.clipped <- st.clipped + 1;
    let payload =
      if captured = 0 then ""
      else Slice.sub_string frame ~off:payload_off ~len:captured
    in
    (* Option scan, bounded by both the declared header end and the
       captured bytes: clipped options end the scan silently, options
       that overrun their own header are malformed (P008).  The scan
       threads the found MSS as a plain int (-1 = absent) so a clean
       frame costs no ref cell and no [Some] box. *)
    let hdr_end = tcp + doff in
    let limit = min hdr_end incl in
    let rec scan o mss =
      if o >= limit then mss
      else
        match Slice.u8 frame o with
        | 0 -> mss (* end of options *)
        | 1 -> scan (o + 1) mss (* no-op padding *)
        | kind ->
            if o + 2 > limit then begin
              if limit >= hdr_end then
                st.emit
                  (Diag.warning ~record:ri ~code:"P008"
                     "TCP option %d overruns the header" kind);
              mss
            end
            else begin
              let olen = Slice.u8 frame (o + 1) in
              if olen < 2 then begin
                st.emit
                  (Diag.warning ~record:ri ~code:"P008"
                     "TCP option %d has bad length %d" kind olen);
                mss
              end
              else if o + olen > hdr_end then begin
                st.emit
                  (Diag.warning ~record:ri ~code:"P008"
                     "TCP option %d (length %d) overruns the header" kind olen);
                mss
              end
              else if o + olen > limit then mss (* snaplen-clipped options *)
              else
                scan (o + olen)
                  (if kind = 2 && olen = 4 then Slice.u16be frame (o + 2)
                   else mss)
            end
    in
    let mss = scan (tcp + 20) (-1) in
    let mss_opt = if mss < 0 then None else Some mss in
    let src_ip = Slice.i32be frame (l2 + 12) in
    let dst_ip = Slice.i32be frame (l2 + 16) in
    let src_port = Slice.u16be frame tcp in
    let dst_port = Slice.u16be frame (tcp + 2) in
    let seq = Slice.u32be frame (tcp + 4) in
    let ack = Slice.u32be frame (tcp + 8) in
    let fl = Slice.u8 frame (tcp + 13) in
    let window = Slice.u16be frame (tcp + 14) in
    let flags =
      Tcp_segment.flags ~fin:(fl land 0x01 <> 0) ~syn:(fl land 0x02 <> 0)
        ~rst:(fl land 0x04 <> 0) ~psh:(fl land 0x08 <> 0)
        ~ack:(fl land 0x10 <> 0) ()
    in
    Some
      (Tcp_segment.v ~ts
         ~src:(Endpoint.v src_ip src_port)
         ~dst:(Endpoint.v dst_ip dst_port)
         ~seq ~ack ~len ~window ~flags ?mss_opt ~payload ())
  with Skip_record -> None

let file_header st ghdr =
  let magic e =
    let m = Int32.of_int (get_u32 e ghdr 0) in
    if Int32.equal m magic_us then Some (e, false)
    else if Int32.equal m magic_ns then Some (e, true)
    else None
  in
  if Slice.length ghdr < 24 then Some (Diag.error ~code:"P002" "truncated header")
  else
    match Option.fold ~none:(magic Be) ~some:Option.some (magic Le) with
    | None -> Some (Diag.error ~code:"P001" "bad magic")
    | Some (endian, _) when get_u32 endian ghdr 20 <> 1 ->
        Some (Diag.error ~code:"P003" "unsupported link type")
    | Some (endian, ns) ->
        st.endian <- endian;
        st.ns <- ns;
        None

let fault (f : Ingest_io.fault) ~record n =
  match f with
  | Short_header ->
      Diag.warning ~record ~code:"P004"
        "truncated record header (%d trailing bytes)" n
  | Oversized ->
      Diag.warning ~record ~code:"P005" "implausible record length %d" n
  | Short_body -> Diag.warning ~record ~code:"P005" "truncated packet"

let decode_record st ri rhdr frame =
  let incl = Slice.length frame in
  let ts_sec = get_u32 st.endian rhdr 0 in
  let ts_sub = get_u32 st.endian rhdr 4 in
  let ts_us = if st.ns then ts_sub / 1000 else ts_sub in
  let ts = (ts_sec * 1_000_000) + ts_us in
  Obs.Counter.incr m_records;
  (* +16: the per-record pcap header travels with the frame. *)
  Obs.Counter.add m_bytes (incl + 16);
  Obs.Histogram.observe h_record_bytes (float_of_int incl);
  match decode_frame st ~ri ~ts frame with
  | Some _ as seg ->
      st.decoded <- st.decoded + 1;
      Obs.Counter.incr m_segments;
      seg
  | None ->
      st.skipped <- st.skipped + 1;
      Obs.Counter.incr m_skipped;
      None

let format =
  {
    Ingest_io.file_header_len = 24;
    file_header;
    header_len = 16;
    body_len = (fun st rhdr -> get_u32 st.endian rhdr 8);
    max_record_len;
    fault;
    decode = decode_record;
    create =
      (fun emit ->
        { emit; endian = Le; ns = false; decoded = 0; skipped = 0; clipped = 0 });
    stats =
      (fun st records ->
        { records; decoded = st.decoded; skipped = st.skipped; clipped = st.clipped });
    summary =
      (fun stats ->
        if stats.clipped = 0 then None
        else
          Some
            (Diag.info ~code:"P011"
               "%d of %d records snaplen-clipped (captured payload shorter \
                than the declared TCP length)"
               stats.clipped stats.records));
    strict_error = (fun d -> Decode_error ("Pcap.decode: " ^ d.Diag.message));
    span = (fun f -> Tdat_obs.Span.with_ ~name:"pcap-read" f);
    records_per_s = Obs.Gauge.make ~stable:false "pcap.records_per_s";
  }

let fold_read ?strict ?on_diag ~read ~init f =
  Ingest_io.fold format ?strict ?on_diag (Reader read) ~init f

let fold_file ?strict ?on_diag ?follow path ~init f =
  Ingest_io.fold format ?strict ?on_diag (File (path, follow)) ~init f

let result_of (segs, diags, stats) =
  { trace = Trace.of_segments segs; diags; stats }

let read_file ?strict ?follow path =
  result_of (Ingest_io.collect format ?strict (File (path, follow)))

let decode_result ?strict data =
  result_of
    (Ingest_io.collect format ?strict (Reader (Ingest_io.of_string data)))

let to_file path trace =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (encode trace))

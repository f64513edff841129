type record = {
  ts : Tdat_timerange.Time_us.t;
  peer_as : int;
  local_as : int;
  peer_ip : int32;
  local_ip : int32;
  msg : Msg.t;
}

type fsm_state = Idle | Connect | Active | Open_sent | Open_confirm | Established

let fsm_state_code = function
  | Idle -> 1
  | Connect -> 2
  | Active -> 3
  | Open_sent -> 4
  | Open_confirm -> 5
  | Established -> 6

let fsm_state_of_code = function
  | 1 -> Some Idle
  | 2 -> Some Connect
  | 3 -> Some Active
  | 4 -> Some Open_sent
  | 5 -> Some Open_confirm
  | 6 -> Some Established
  | _ -> None

let equal_fsm_state a b = Int.equal (fsm_state_code a) (fsm_state_code b)

type state_change = {
  sc_ts : Tdat_timerange.Time_us.t;
  sc_peer_as : int;
  sc_local_as : int;
  sc_peer_ip : int32;
  sc_local_ip : int32;
  old_state : fsm_state;
  new_state : fsm_state;
}

type entry = Message of record | State of state_change

let entry_ts = function Message r -> r.ts | State s -> s.sc_ts

let messages entries =
  List.filter_map (function Message r -> Some r | State _ -> None) entries

module Diag = Tdat_pkt.Ingest_io.Diag

type stats = {
  records : int;
  bgp_messages : int;
  state_changes : int;
  skipped : int;
}

type result = { entries : entry list; diags : Diag.t list; stats : stats }

let bgp4mp = 16
let bgp4mp_et = 17
let subtype_state_change = 0
let subtype_message = 1

(* A BGP4MP body is a 16- or 20-byte fixed part plus at most one 4 KiB
   BGP message; anything declaring megabytes is corrupted framing. *)
let max_record_len = 1 lsl 24

(* --- encoding ------------------------------------------------------------- *)

let encode_header buf ~ts ~subtype ~body_len =
  Buffer.add_int32_be buf (Int32.of_int (ts / 1_000_000));
  Buffer.add_uint16_be buf bgp4mp_et;
  Buffer.add_uint16_be buf subtype;
  (* ET records count the 4-byte microsecond field in the length. *)
  Buffer.add_int32_be buf (Int32.of_int (body_len + 4));
  Buffer.add_int32_be buf (Int32.of_int (ts mod 1_000_000))

let encode_record buf r =
  let msg_bytes = Msg.encode r.msg in
  (* BGP4MP_MESSAGE body: peer AS, local AS, ifindex, AFI, peer IP,
     local IP, then the raw BGP message. *)
  let body_len = 2 + 2 + 2 + 2 + 4 + 4 + String.length msg_bytes in
  encode_header buf ~ts:r.ts ~subtype:subtype_message ~body_len;
  Buffer.add_uint16_be buf r.peer_as;
  Buffer.add_uint16_be buf r.local_as;
  Buffer.add_uint16_be buf 0;
  Buffer.add_uint16_be buf 1 (* AFI IPv4 *);
  Buffer.add_int32_be buf r.peer_ip;
  Buffer.add_int32_be buf r.local_ip;
  Buffer.add_string buf msg_bytes

let encode_state_change buf s =
  (* BGP4MP_STATE_CHANGE body: peer AS, local AS, ifindex, AFI, peer IP,
     local IP, old state, new state. *)
  let body_len = 2 + 2 + 2 + 2 + 4 + 4 + 2 + 2 in
  encode_header buf ~ts:s.sc_ts ~subtype:subtype_state_change ~body_len;
  Buffer.add_uint16_be buf s.sc_peer_as;
  Buffer.add_uint16_be buf s.sc_local_as;
  Buffer.add_uint16_be buf 0;
  Buffer.add_uint16_be buf 1 (* AFI IPv4 *);
  Buffer.add_int32_be buf s.sc_peer_ip;
  Buffer.add_int32_be buf s.sc_local_ip;
  Buffer.add_uint16_be buf (fsm_state_code s.old_state);
  Buffer.add_uint16_be buf (fsm_state_code s.new_state)

let encode_entry buf = function
  | Message r -> encode_record buf r
  | State s -> encode_state_change buf s

let encode_entries entries =
  let buf = Buffer.create 4096 in
  List.iter (encode_entry buf) entries;
  Buffer.contents buf


(* --- streaming decode ----------------------------------------------------- *)

module Slice = Tdat_pkt.Slice

(* Reader throughput instruments (DESIGN.md, "Observability").  The
   counters are stable — derived only from the archive's contents —
   while the records-per-second gauge is wall-clock and volatile. *)

module Obs = Tdat_obs.Metrics

let m_records = Obs.Counter.make "mrt.records"
let m_messages = Obs.Counter.make "mrt.messages"
let m_state_changes = Obs.Counter.make "mrt.state_changes"
let m_skipped = Obs.Counter.make "mrt.skipped"
let m_bytes = Obs.Counter.make "mrt.bytes"

(* Per-read state: the diagnostic sink and the counters behind
   [stats]. *)
type state = {
  emit : Diag.t -> unit;
  mutable bgp_messages : int;
  mutable state_changes : int;
  mutable skipped : int;
}

let skip st d =
  st.skipped <- st.skipped + 1;
  Obs.Counter.incr m_skipped;
  st.emit d;
  None

let warn st ~idx code message =
  skip st (Diag.warning ~record:idx ~code "%s" message)

(* Decode one complete record (borrowed [Slice.t]s over the reused
   header and body buffers) into an entry.  The header has already
   framed the record, so every problem here is skippable: the record is
   counted as skipped, its diagnostic emitted, and salvage continues at
   the next record. *)
let decode_record st idx hdr body =
  let len = Slice.length body in
  Obs.Counter.incr m_records;
  (* +12: the MRT common header travels with the body. *)
  Obs.Counter.add m_bytes (len + 12);
  let sec = Slice.u32be hdr 0 in
  let ty = Slice.u16be hdr 4 and subtype = Slice.u16be hdr 6 in
  if
    (ty <> bgp4mp && ty <> bgp4mp_et)
    || (subtype <> subtype_message && subtype <> subtype_state_change)
  then
    skip st
      (Diag.info ~record:idx ~code:"M005" "skipped record (type %d, subtype %d)"
         ty subtype)
  else if ty = bgp4mp_et && len < 4 then warn st ~idx "M003" "short BGP4MP body"
  else begin
    let usec, p = if ty = bgp4mp_et then (Slice.u32be body 0, 4) else (0, 0) in
    let ts = (sec * 1_000_000) + usec in
    if subtype = subtype_message then begin
      if p + 16 > len then warn st ~idx "M003" "short BGP4MP body"
      else begin
        let peer_as = Slice.u16be body p in
        let local_as = Slice.u16be body (p + 2) in
        let peer_ip = Slice.i32be body (p + 8) in
        let local_ip = Slice.i32be body (p + 12) in
        match Msg.decode_slice body (p + 16) with
        | Some (msg, _) ->
            st.bgp_messages <- st.bgp_messages + 1;
            Obs.Counter.incr m_messages;
            Some (Message { ts; peer_as; local_as; peer_ip; local_ip; msg })
        | None -> warn st ~idx "M004" "bad embedded BGP message"
        | exception Bgp_error.Decode_error _ ->
            warn st ~idx "M004" "bad embedded BGP message"
      end
    end
    else begin
      (* BGP4MP_STATE_CHANGE *)
      if p + 20 > len then warn st ~idx "M003" "short BGP4MP body"
      else begin
        let old_code = Slice.u16be body (p + 16) in
        let new_code = Slice.u16be body (p + 18) in
        match (fsm_state_of_code old_code, fsm_state_of_code new_code) with
        | Some old_state, Some new_state ->
            st.state_changes <- st.state_changes + 1;
            Obs.Counter.incr m_state_changes;
            Some
              (State
                 {
                   sc_ts = ts;
                   sc_peer_as = Slice.u16be body p;
                   sc_local_as = Slice.u16be body (p + 2);
                   sc_peer_ip = Slice.i32be body (p + 8);
                   sc_local_ip = Slice.i32be body (p + 12);
                   old_state;
                   new_state;
                 })
        | _ -> warn st ~idx "M006" "bad state-change body"
      end
    end
  end

let fault (f : Tdat_pkt.Ingest_io.fault) ~record _ =
  match f with
  | Short_header -> Diag.warning ~record ~code:"M001" "truncated header"
  | Oversized -> Diag.warning ~record ~code:"M007" "oversized record"
  | Short_body -> Diag.warning ~record ~code:"M002" "truncated record"

let format =
  {
    Tdat_pkt.Ingest_io.file_header_len = 0;
    file_header = (fun _ _ -> None);
    header_len = 12;
    body_len = (fun _ hdr -> Slice.u32be hdr 8);
    max_record_len;
    fault;
    decode = decode_record;
    create =
      (fun emit -> { emit; bgp_messages = 0; state_changes = 0; skipped = 0 });
    stats =
      (fun st records ->
        {
          records;
          bgp_messages = st.bgp_messages;
          state_changes = st.state_changes;
          skipped = st.skipped;
        });
    summary = (fun _ -> None);
    strict_error =
      (fun d ->
        Bgp_error.Decode_error { context = "Mrt.decode"; message = d.Diag.message });
    span = (fun f -> Tdat_obs.Span.with_ ~name:"mrt-read" f);
    records_per_s = Obs.Gauge.make ~stable:false "mrt.records_per_s";
  }

let fold_read ?strict ?on_diag ~read ~init f =
  Tdat_pkt.Ingest_io.fold format ?strict ?on_diag (Reader read) ~init f

let fold_file ?strict ?on_diag ?follow path ~init f =
  Tdat_pkt.Ingest_io.fold format ?strict ?on_diag (File (path, follow)) ~init f

let result_of (entries, diags, stats) = { entries; diags; stats }

let read_file ?strict ?follow path =
  result_of (Tdat_pkt.Ingest_io.collect format ?strict (File (path, follow)))

let decode_result ?strict data =
  result_of
    (Tdat_pkt.Ingest_io.collect format ?strict
       (Reader (Tdat_pkt.Ingest_io.of_string data)))

let to_file_entries path entries =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (encode_entries entries))

let to_file path records =
  to_file_entries path (List.map (fun r -> Message r) records)

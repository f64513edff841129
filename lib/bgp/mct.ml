type config = {
  dup_fraction : float;
  min_seen : int;
  quiet_gap : Tdat_timerange.Time_us.t;
}

let default_config =
  { dup_fraction = 0.5; min_seen = 32; quiet_gap = 200_000_000 }

type result = {
  end_ts : Tdat_timerange.Time_us.t;
  prefixes : int;
  updates : int;
}

let transfer_end ?(config = default_config) ~start updates =
  let seen : (Prefix.t, unit) Hashtbl.t = Hashtbl.create 1024 in
  let relevant = List.filter (fun (ts, _) -> ts >= start) updates in
  let finish last n_updates =
    match last with
    | None -> None
    | Some ts ->
        Some { end_ts = ts; prefixes = Hashtbl.length seen; updates = n_updates }
  in
  let rec scan last n_updates = function
    | [] -> finish last n_updates
    | (ts, prefixes) :: rest ->
        let quiet =
          match last with
          | Some prev -> ts - prev > config.quiet_gap
          | None -> false
        in
        if quiet then finish last n_updates
        else begin
          let total = List.length prefixes in
          let dups =
            List.length (List.filter (Hashtbl.mem seen) prefixes)
          in
          let churn =
            total > 0
            && Hashtbl.length seen >= config.min_seen
            && float_of_int dups >= config.dup_fraction *. float_of_int total
          in
          if churn then finish last n_updates
          else begin
            List.iter
              (fun p -> if not (Hashtbl.mem seen p) then Hashtbl.add seen p ())
              prefixes;
            scan (Some ts) (n_updates + 1) rest
          end
        end
  in
  scan None 0 relevant

(* --- streaming scan over a reassembled byte stream ------------------- *)

(* [transfer_end_of_reasm] computes the same answer as
   [extract_from_trace] → [of_timed_msgs] → [transfer_end] without
   materializing any of the intermediate structures: no [timed_msg]
   list, no decoded [Msg.t], no [Prefix.t] values, no per-update
   prefix lists.  It walks the contiguous stream once, validating each
   message exactly as [Msg.decode_slice] would (any violation ends the
   scan, like [Msg_reader.extract] stopping at the first decode error)
   and folding announced prefixes as packed ints into an open-addressed
   set.  Each NLRI section is read once: the walk that validates it
   packs its prefixes into a buffer that the duplicate count and the
   inserts read back.  The whole scan is O(stream bytes) plus one
   O(log advances) delivery-time lookup per UPDATE.  The equivalence is
   locked down by the decode-equivalence test suite. *)

module Slice = Tdat_pkt.Slice

(* Local validation failure: the stream stops being (or never was) BGP
   at this message, exactly where the legacy path raises
   [Bgp_error.Decode_error]. *)
exception Bad

(* Byte reads for the checkers below.  Every offset they read has just
   been checked against the end of its message, which lies inside the
   contiguous stream, so the slice's own bounds check is redundant;
   [Bytes.get] still checks the backing buffer.  Reading the buffer
   directly also keeps the calls local: with [-opaque] builds (dune's
   default profile) a [Slice.u8] per byte is an out-of-line call. *)
let[@inline] u8 s o = Char.code (Bytes.get s.Slice.buf (s.Slice.off + o))
let[@inline] u16be s o = (u8 s o lsl 8) lor u8 s (o + 1)

(* A prefix packed into one immediate: masked 32-bit address in the high
   bits, prefix length in the low 6.  Injective on what [Prefix.compare]
   distinguishes (masked address, length), so set membership and
   cardinality agree with a [(Prefix.t, unit) Hashtbl.t]. *)
let[@inline] pack_prefix s o plen =
  let nbytes = (plen + 7) / 8 in
  let u = ref 0 in
  for i = 0 to nbytes - 1 do
    u := !u lor (u8 s (o + 1 + i) lsl (24 - (8 * i)))
  done;
  let m = if plen = 0 then 0 else 0xFFFFFFFF lsl (32 - plen) land 0xFFFFFFFF in
  ((!u land m) lsl 6) lor plen

(* Open-addressed int set, linear probing, -1 = empty.  Lives on the
   major heap (the table exceeds [Max_young_wosize]); the per-insert
   path allocates nothing.

   Sizing: the table is allocated once, with max 2048 [hint] slots; the
   caller's hint is the stream length in bytes / 8, one slot per 8
   bytes.  A full-table stream spends ~12 bytes per prefix, so the set
   ends below its 3/4 load bound without growing; doubling at 3/4 load
   stays as the fallback for denser streams.  So the table is bounded
   by a constant factor of the stream: it starts at len/8 words (as
   many bytes as the stream), and it only grows past 4/3 x the distinct
   prefixes, each of which takes at least one byte of the stream. *)
type pset = { mutable slots : int array; mutable count : int }

let pset_create ~hint = { slots = Array.make (max 2048 hint) (-1); count = 0 }

let[@inline] pset_slot slots x =
  let size = Array.length slots in
  (* Multiplicative hash keeping the HIGH product bits: the low bits of
     [x * c] are periodic in [x] (packed prefixes step by 1 lsl 14 for
     consecutive /24s, collapsing a low-bits hash to one slot), while
     bits 40..62 mix every input bit.  Those 23 bits [h] map onto
     [0, size) as [h * size lsr 23] (multiply-shift range reduction), so
     the table need not be a power of two.  Holds as long as the table
     stays under [1 lsl 23] slots — a full IPv4 table is ~2^20. *)
  let h = (x * 0x2545F4914F6CDD1D) lsr 40 in
  let i = ref ((h * size) lsr 23) in
  while slots.(!i) <> -1 && slots.(!i) <> x do
    i := if !i + 1 = size then 0 else !i + 1
  done;
  !i

let[@inline] pset_mem t x = t.slots.(pset_slot t.slots x) = x

let pset_grow t =
  let old = t.slots in
  let slots = Array.make (2 * Array.length old) (-1) in
  Array.iter (fun x -> if x <> -1 then slots.(pset_slot slots x) <- x) old;
  t.slots <- slots

let pset_add t x =
  let i = pset_slot t.slots x in
  if t.slots.(i) <> x then begin
    t.slots.(i) <- x;
    t.count <- t.count + 1;
    if 4 * t.count > 3 * Array.length t.slots then pset_grow t
  end

(* The checkers below mirror the corresponding decoders' validation
   byte for byte (Prefix.decode_slice, As_path.decode_slice,
   Attr.decode_all_slice, Msg.decode_slice) while building nothing. *)

let check_prefixes s ~off ~limit =
  let o = ref off in
  while !o < limit do
    let plen = u8 s !o in
    if plen > 32 then raise Bad;
    let nbytes = (plen + 7) / 8 in
    if !o + 1 + nbytes > limit then raise Bad;
    o := !o + 1 + nbytes
  done

let check_as_path s ~off ~limit =
  let o = ref off in
  while !o < limit do
    if !o + 2 > limit then raise Bad;
    let ty = u8 s !o in
    let n = u8 s (!o + 1) in
    if !o + 2 + (2 * n) > limit then raise Bad;
    if ty <> 1 && ty <> 2 then raise Bad;
    o := !o + 2 + (2 * n)
  done

let check_attrs s ~off ~limit =
  let o = ref off in
  while !o < limit do
    if !o + 3 > limit then raise Bad;
    let flags = u8 s !o in
    let code = u8 s (!o + 1) in
    let vlen, voff =
      if flags land 0x10 <> 0 then begin
        if !o + 4 > limit then raise Bad;
        (u16be s (!o + 2), !o + 4)
      end
      else (u8 s (!o + 2), !o + 3)
    in
    if voff + vlen > limit then raise Bad;
    if code = 2 then check_as_path s ~off:voff ~limit:(voff + vlen);
    o := voff + vlen
  done

(* One message's announced prefixes, packed, in a buffer reused across
   messages: [packed.(0 .. n-1)]. *)
type nlri = { mutable packed : int array; mutable n : int }

(* Validate the NLRI section exactly as [check_prefixes] would (same
   [Bad] at the same byte), packing each prefix into [nlri] on the way:
   the one walk over the NLRI that the duplicate count and the inserts
   then read back. *)
let pack_prefixes nlri s ~off ~limit =
  nlri.n <- 0;
  let o = ref off in
  while !o < limit do
    let plen = u8 s !o in
    if plen > 32 then raise Bad;
    let nbytes = (plen + 7) / 8 in
    if !o + 1 + nbytes > limit then raise Bad;
    let n = nlri.n in
    if n = Array.length nlri.packed then begin
      let bigger = Array.make (2 * n) 0 in
      Array.blit nlri.packed 0 bigger 0 n;
      nlri.packed <- bigger
    end;
    nlri.packed.(n) <- pack_prefix s !o plen;
    nlri.n <- n + 1;
    o := !o + 1 + nbytes
  done

(* Validate one message body.  For an UPDATE, [nlri] receives its
   (possibly empty) packed NLRI. *)
let check_message nlri s ~boff ~blen ~ty =
  match ty with
  | 1 ->
      if blen < 10 then raise Bad;
      `Skip
  | 2 ->
      if blen < 4 then raise Bad;
      let wlen = u16be s boff in
      if 2 + wlen + 2 > blen then raise Bad;
      check_prefixes s ~off:(boff + 2) ~limit:(boff + 2 + wlen);
      let alen = u16be s (boff + 2 + wlen) in
      if 4 + wlen + alen > blen then raise Bad;
      check_attrs s ~off:(boff + 4 + wlen) ~limit:(boff + 4 + wlen + alen);
      pack_prefixes nlri s ~off:(boff + 4 + wlen + alen) ~limit:(boff + blen);
      `Update
  | 3 ->
      if blen < 2 then raise Bad;
      `Skip
  | 4 ->
      if blen <> 0 then raise Bad;
      `Skip
  | _ -> raise Bad

let transfer_end_of_reasm ?(config = default_config) ~start reasm =
  let stream = Stream_reassembly.contiguous_slice reasm in
  let len = Slice.length stream in
  let seen = pset_create ~hint:(len / 8) in
  let nlri = { packed = Array.make 64 0; n = 0 } in
  (* [last = min_int] encodes "no update attributed yet". *)
  let finish last n_updates =
    if last = min_int then None
    else Some { end_ts = last; prefixes = seen.count; updates = n_updates }
  in
  let rec scan off last n =
    if off >= len then finish last n
    else
      match Msg.peek_length_slice stream off with
      | None -> finish last n
      | exception Bgp_error.Decode_error _ -> finish last n
      | Some total ->
          if off + total > len then finish last n
          else begin
            let ty = u8 stream (off + 18) in
            let boff = off + Msg.header_size in
            let blen = total - Msg.header_size in
            match check_message nlri stream ~boff ~blen ~ty with
            | exception Bad -> finish last n
            | `Skip -> scan (off + total) last n
            | `Update ->
                if nlri.n = 0 then
                  (* Empty NLRI: not an announcement batch. *)
                  scan (off + total) last n
                else begin
                  let ts = Stream_reassembly.delivery_time reasm (off + total - 1) in
                  if ts < start then scan (off + total) last n
                  else if last <> min_int && ts - last > config.quiet_gap then
                    finish last n
                  else begin
                    let dups = ref 0 in
                    for i = 0 to nlri.n - 1 do
                      if pset_mem seen nlri.packed.(i) then incr dups
                    done;
                    let churn =
                      seen.count >= config.min_seen
                      && float_of_int !dups
                         >= config.dup_fraction *. float_of_int nlri.n
                    in
                    if churn then finish last n
                    else begin
                      for i = 0 to nlri.n - 1 do
                        pset_add seen nlri.packed.(i)
                      done;
                      scan (off + total) ts (n + 1)
                    end
                  end
                end
          end
  in
  scan 0 min_int 0

let of_timed_msgs msgs =
  List.filter_map
    (fun (m : Msg_reader.timed_msg) ->
      match m.msg with
      | Msg.Update u when u.Msg.nlri <> [] -> Some (m.ts, u.Msg.nlri)
      | Msg.Update _ | Msg.Open _ | Msg.Keepalive | Msg.Notification _ -> None)
    msgs

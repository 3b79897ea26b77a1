exception Error of { pos : int; msg : string }

let error ~pos msg = raise (Error { pos; msg })

let () =
  Printexc.register_printer (function
    | Error { pos; msg } ->
        Some (Printf.sprintf "Netobj_pickle.Wire.Error(%d): %s" pos msg)
    | _ -> None)

(* The longest varint: 9 bytes of 7 bits carry all 63 bits of a native
   int, so a 10th byte is never needed. *)
let max_varint = 9

module Writer = struct
  (* The writer owns its buffer: [buf.[0, len)] is the output so far.
     Each primitive reserves its worst-case size once, then stores
     without further checks. *)
  type t = { mutable buf : Bytes.t; mutable len : int }

  let create ?(initial_size = 256) () =
    { buf = Bytes.create (Int.max 1 initial_size); len = 0 }

  let length w = w.len

  let to_bytes w = Bytes.sub w.buf 0 w.len

  let blit w dst dst_off = Bytes.blit w.buf 0 dst dst_off w.len

  let grow w n =
    let cap = ref (2 * Bytes.length w.buf) in
    while !cap < w.len + n do
      cap := 2 * !cap
    done;
    let nb = Bytes.create !cap in
    Bytes.blit w.buf 0 nb 0 w.len;
    w.buf <- nb

  let[@inline] reserve w n = if w.len + n > Bytes.length w.buf then grow w n

  (* Per-domain pool of writers: checkout reuses a returned writer, its
     buffer already grown, so steady-state encoding allocates no backing
     store.  Domain-local rather than locked, so a multi-domain engine
     neither contends nor races here; stats are per-domain too (the sim
     engine's single domain sees everything). *)
  type pool_state = {
    stack : t Stack.t;
    mutable hits : int;
    mutable misses : int;
  }

  let pool_key : pool_state Domain.DLS.key =
    Domain.DLS.new_key (fun () ->
        { stack = Stack.create (); hits = 0; misses = 0 })

  let pool_capacity = 64

  (* Writers whose buffer grew past this are not retained: one huge
     encode should not pin megabytes for the rest of the run. *)
  let max_retained_size = 1 lsl 16

  let checkout () =
    let p = Domain.DLS.get pool_key in
    match Stack.pop_opt p.stack with
    | Some w ->
        p.hits <- p.hits + 1;
        w
    | None ->
        p.misses <- p.misses + 1;
        create ()

  let return w =
    let p = Domain.DLS.get pool_key in
    if Stack.length p.stack < pool_capacity
       && Bytes.length w.buf <= max_retained_size
    then begin
      w.len <- 0;
      Stack.push w p.stack
    end

  let with_pooled f =
    let w = checkout () in
    match f w with
    | v ->
        return w;
        v
    | exception e ->
        return w;
        raise e

  let pool_stats () =
    let p = Domain.DLS.get pool_key in
    (p.hits, p.misses)

  let reset_pool_stats () =
    let p = Domain.DLS.get pool_key in
    p.hits <- 0;
    p.misses <- 0

  (* Take the next [n] bytes of the buffer; their offset. *)
  let[@inline] claim w n =
    reserve w n;
    let p = w.len in
    w.len <- p + n;
    p

  let byte w n =
    let p = claim w 1 in
    Bytes.unsafe_set w.buf p (Char.unsafe_chr (n land 0xff))

  (* LEB128 of [n] read as 63 unsigned bits: at most [max_varint]
     bytes. *)
  let unsigned w n =
    reserve w max_varint;
    let buf = w.buf in
    let pos = ref w.len and n = ref n in
    while !n land lnot 0x7f <> 0 do
      Bytes.unsafe_set buf !pos (Char.unsafe_chr (!n land 0x7f lor 0x80));
      incr pos;
      n := !n lsr 7
    done;
    Bytes.unsafe_set buf !pos (Char.unsafe_chr !n);
    w.len <- !pos + 1

  let uvarint w n =
    if n < 0 then invalid_arg "Wire.Writer.uvarint: negative";
    unsigned w n

  (* Zigzag: maps 0,-1,1,-2,... to 0,1,2,3,... so small magnitudes stay
     short on the wire regardless of sign.  [n asr 62] copies the sign
     bit of a 63-bit int, so the result fits in 63 unsigned bits. *)
  let varint w n = unsigned w ((n lsl 1) lxor (n asr 62))

  let int32 w n =
    let p = claim w 4 in
    Bytes.set_int32_le w.buf p n

  let int64 w n =
    let p = claim w 8 in
    Bytes.set_int64_le w.buf p n

  let u32_be w n =
    if n < 0 || n > 0xffffffff then
      invalid_arg "Wire.Writer.u32_be: out of range";
    let p = claim w 4 in
    Bytes.set_int32_be w.buf p (Int32.of_int n)

  let float w f = int64 w (Int64.bits_of_float f)

  let raw w s =
    let n = String.length s in
    let p = claim w n in
    Bytes.unsafe_blit_string s 0 w.buf p n

  let string w s =
    uvarint w (String.length s);
    raw w s
end

module Reader = struct
  (* A reader is a window [base, base+limit) into [data]; [pos] and error
     positions are relative to [base] so a slice reader reports the same
     positions as a reader over a copy of the slice. *)
  type t = { data : string; base : int; limit : int; mutable pos : int }

  let of_string ?(off = 0) ?len data =
    let n = String.length data in
    let len = match len with Some l -> l | None -> n - off in
    if off < 0 || len < 0 || off > n - len then
      invalid_arg "Wire.Reader.of_string: slice out of bounds";
    { data; base = off; limit = len; pos = 0 }

  (* The bytes are never mutated through the reader, so viewing them as an
     immutable string is safe as long as the caller does not mutate [data]
     while decoding — the same contract [of_string] already implies. *)
  let of_bytes ?off ?len data =
    of_string ?off ?len (Bytes.unsafe_to_string data)

  let pos r = r.pos

  let remaining r = r.limit - r.pos

  let at_end r = remaining r = 0

  let fail r msg = error ~pos:r.pos msg

  (* Consume the next [n] bytes; their offset in [data]. *)
  let take r n =
    if n < 0 then fail r "negative length";
    if remaining r < n then fail r "unexpected end of input";
    let off = r.base + r.pos in
    r.pos <- r.pos + n;
    off

  let[@inline] byte_at s i = Char.code (String.unsafe_get s i)

  let byte r = byte_at r.data (take r 1)

  (* LEB128 into 63 unsigned bits.  A 9th byte with its continuation
     bit set would need a 10th, which no writer produces: rejected.  A
     top-level tail call, so no closure and no allocation. *)
  let rec unsigned_from r p acc shift =
    if p >= r.limit then begin
      r.pos <- p;
      fail r "unexpected end of input"
    end;
    let b = byte_at r.data (r.base + p) in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    r.pos <- p + 1;
    if b < 0x80 then acc
    else if shift = 7 * (max_varint - 1) then
      fail r "varint longer than 9 bytes"
    else unsigned_from r (p + 1) acc (shift + 7)

  (* With a whole varint's worth of input left, the first four bytes
     (values below 2^28) are read unrolled, without bounds tests: the
     loop alone takes about twice as long on a 4-byte varint. *)
  let unsigned r =
    let p = r.pos in
    if r.limit - p < max_varint then unsigned_from r p 0 0
    else
      let s = r.data and i = r.base + p in
      let b0 = byte_at s i in
      if b0 < 0x80 then (r.pos <- p + 1; b0) else
      let acc = b0 land 0x7f and b1 = byte_at s (i + 1) in
      if b1 < 0x80 then (r.pos <- p + 2; acc lor (b1 lsl 7)) else
      let acc = acc lor ((b1 land 0x7f) lsl 7) and b2 = byte_at s (i + 2) in
      if b2 < 0x80 then (r.pos <- p + 3; acc lor (b2 lsl 14)) else
      let acc = acc lor ((b2 land 0x7f) lsl 14) and b3 = byte_at s (i + 3) in
      if b3 < 0x80 then (r.pos <- p + 4; acc lor (b3 lsl 21))
      else unsigned_from r (p + 4) (acc lor ((b3 land 0x7f) lsl 21)) 28

  let uvarint r =
    let n = unsigned r in
    (* 2^62 and above read back as a negative int. *)
    if n < 0 then fail r "uvarint out of range";
    n

  let varint r =
    let n = unsigned r in
    (n lsr 1) lxor (-(n land 1))

  let raw r n = String.sub r.data (take r n) n

  let skip r n = ignore (take r n : int)

  let int32 r = String.get_int32_le r.data (take r 4)

  let int64 r = String.get_int64_le r.data (take r 8)

  let u32_be r =
    Int32.to_int (String.get_int32_be r.data (take r 4)) land 0xffffffff

  let float r = Int64.float_of_bits (int64 r)

  let string r =
    let n = uvarint r in
    raw r n
end

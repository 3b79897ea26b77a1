exception Corrupt of string

let () =
  Printexc.register_printer (function
    | Corrupt msg -> Some (Printf.sprintf "Frame.Corrupt(%s)" msg)
    | _ -> None)

let version = 0

let max_frame = 64 * 1024 * 1024

let overhead = 5

module Wire = Netobj_pickle.Wire

let encode body =
  let len = String.length body + 1 in
  if len > max_frame then
    raise (Corrupt (Printf.sprintf "frame too large: %d bytes" len));
  Wire.Writer.with_pooled (fun w ->
      Wire.Writer.u32_be w len;
      Wire.Writer.byte w version;
      Wire.Writer.raw w body;
      Bytes.unsafe_to_string (Wire.Writer.to_bytes w))

(* The decoder accumulates raw bytes in a growable buffer and consumes
   complete frames off the front.  [pos] is the read cursor; the
   consumed prefix is compacted away lazily (when it exceeds half the
   buffer) so a long-lived connection doesn't grow without bound while
   staying O(bytes) overall. *)
type decoder = { mutable buf : Bytes.t; mutable len : int; mutable pos : int }

let decoder () = { buf = Bytes.create 4096; len = 0; pos = 0 }

let compact d =
  if d.pos > 0 && d.pos * 2 > Bytes.length d.buf then begin
    Bytes.blit d.buf d.pos d.buf 0 (d.len - d.pos);
    d.len <- d.len - d.pos;
    d.pos <- 0
  end

let feed_bytes d b off len =
  if off < 0 || len < 0 || off + len > Bytes.length b then
    invalid_arg "Frame.feed: slice out of bounds";
  compact d;
  let need = d.len + len in
  if need > Bytes.length d.buf then begin
    let cap = ref (Bytes.length d.buf) in
    while !cap < need do
      cap := !cap * 2
    done;
    let nb = Bytes.create !cap in
    Bytes.blit d.buf 0 nb 0 d.len;
    d.buf <- nb
  end;
  Bytes.blit b off d.buf d.len len;
  d.len <- d.len + len

let feed d ?(off = 0) ?len s =
  let len = match len with Some l -> l | None -> String.length s - off in
  feed_bytes d (Bytes.unsafe_of_string s) off len

let pending d = d.len - d.pos

let reset d =
  d.len <- 0;
  d.pos <- 0

let next d =
  if pending d < 4 then None
  else begin
    let r = Wire.Reader.of_bytes ~off:d.pos ~len:(pending d) d.buf in
    let len = Wire.Reader.u32_be r in
    if len < 1 || len > max_frame then
      raise (Corrupt (Printf.sprintf "bad frame length %d" len));
    if pending d < 4 + len then None
    else begin
      let v = Wire.Reader.byte r in
      if v <> version then
        raise (Corrupt (Printf.sprintf "unknown version byte 0x%02x" v));
      let body = Bytes.sub_string d.buf (d.pos + 5) (len - 1) in
      d.pos <- d.pos + 4 + len;
      Some body
    end
  end

let decode_exact s =
  let d = decoder () in
  feed d s;
  match next d with
  | Some f when pending d = 0 -> f
  | Some _ -> raise (Corrupt "trailing bytes after frame")
  | None -> raise (Corrupt "truncated frame")

(* Frames are encoded straight into one growable buffer and written out
   of it.  [written] is the socket's cursor and [safe] the end of the
   last frame written whole, where a lost connection resumes.
   [ends]/[counts] are a FIFO, slots [head, tail), of the end offset and
   message count of every finished frame not yet written whole.  [fin]
   ends the last finished frame; a frame being encoded sits in
   [fin, len) and is never written. *)
module Out = struct
  type t = {
    mutable buf : Bytes.t;
    mutable len : int;
    mutable fin : int;
    mutable written : int;
    mutable safe : int;
    mutable ends : int array;
    mutable counts : int array;
    mutable head : int;
    mutable tail : int;
  }

  let initial = 4096

  (* A buffer grown past this by one large frame is not kept once it
     drains. *)
  let max_retained = 1 lsl 20

  let create () =
    {
      buf = Bytes.create initial;
      len = 0;
      fin = 0;
      written = 0;
      safe = 0;
      ends = Array.make 16 0;
      counts = Array.make 16 0;
      head = 0;
      tail = 0;
    }

  let pending o = o.fin - o.written

  let messages o =
    let n = ref 0 in
    for i = o.head to o.tail - 1 do
      n := !n + o.counts.(i)
    done;
    !n

  (* Room for [n] more bytes: first shift out the prefix written whole,
     then grow. *)
  let reserve o n =
    if o.len + n > Bytes.length o.buf then begin
      let d = o.safe in
      if d > 0 then begin
        Bytes.blit o.buf d o.buf 0 (o.len - d);
        o.len <- o.len - d;
        o.fin <- o.fin - d;
        o.written <- o.written - d;
        o.safe <- 0;
        for i = o.head to o.tail - 1 do
          o.ends.(i) <- o.ends.(i) - d
        done
      end;
      if o.len + n > Bytes.length o.buf then begin
        let cap = ref (2 * Bytes.length o.buf) in
        while !cap < o.len + n do
          cap := 2 * !cap
        done;
        let nb = Bytes.create !cap in
        Bytes.blit o.buf 0 nb 0 o.len;
        o.buf <- nb
      end
    end

  let start o =
    (* A frame abandoned half-encoded (its encoder raised) is discarded. *)
    o.len <- o.fin;
    reserve o overhead;
    o.len <- o.len + overhead

  let uvarint o n =
    if n < 0 then invalid_arg "Frame.Out.uvarint: negative";
    reserve o 9;
    let rec go n =
      if n < 0x80 then begin
        Bytes.unsafe_set o.buf o.len (Char.unsafe_chr n);
        o.len <- o.len + 1
      end
      else begin
        Bytes.unsafe_set o.buf o.len (Char.unsafe_chr (0x80 lor (n land 0x7f)));
        o.len <- o.len + 1;
        go (n lsr 7)
      end
    in
    go n

  let string o s =
    let n = String.length s in
    uvarint o n;
    reserve o n;
    Bytes.blit_string s 0 o.buf o.len n;
    o.len <- o.len + n

  let writer o w =
    let n = Wire.Writer.length w in
    reserve o n;
    Wire.Writer.blit w o.buf o.len;
    o.len <- o.len + n

  let finish o ~count =
    let body = o.len - o.fin - overhead in
    if body + 1 > max_frame then begin
      o.len <- o.fin;
      raise (Corrupt (Printf.sprintf "frame too large: %d bytes" (body + 1)))
    end;
    Bytes.set_int32_be o.buf o.fin (Int32.of_int (body + 1));
    Bytes.set o.buf (o.fin + 4) (Char.chr version);
    if o.tail = Array.length o.ends then begin
      let live = o.tail - o.head in
      let cap =
        if 2 * live <= Array.length o.ends then Array.length o.ends
        else 2 * Array.length o.ends
      in
      let ends = Array.make cap 0 and counts = Array.make cap 0 in
      Array.blit o.ends o.head ends 0 live;
      Array.blit o.counts o.head counts 0 live;
      o.ends <- ends;
      o.counts <- counts;
      o.head <- 0;
      o.tail <- live
    end;
    o.ends.(o.tail) <- o.len;
    o.counts.(o.tail) <- count;
    o.tail <- o.tail + 1;
    o.fin <- o.len;
    body

  let drop_last o =
    if o.tail = o.head then invalid_arg "Frame.Out.drop_last: no frame";
    o.tail <- o.tail - 1;
    let start = if o.tail > o.head then o.ends.(o.tail - 1) else o.safe in
    if start < o.written then invalid_arg "Frame.Out.drop_last: frame on the wire";
    o.len <- start;
    o.fin <- start

  let clear o =
    o.len <- 0;
    o.fin <- 0;
    o.written <- 0;
    o.safe <- 0;
    o.head <- 0;
    o.tail <- 0;
    if Bytes.length o.buf > max_retained then o.buf <- Bytes.create initial

  let write o f =
    if o.written < o.fin then begin
      let n = f o.buf o.written (o.fin - o.written) in
      o.written <- o.written + n;
      while o.head < o.tail && o.ends.(o.head) <= o.written do
        o.safe <- o.ends.(o.head);
        o.head <- o.head + 1
      done;
      if o.written = o.len then clear o
    end

  let rewind o = o.written <- o.safe
end

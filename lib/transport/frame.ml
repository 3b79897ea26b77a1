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

let feed d ?(off = 0) ?len s =
  let len = match len with Some l -> l | None -> String.length s - off in
  if off < 0 || len < 0 || off + len > String.length s then
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
  Bytes.blit_string s off d.buf d.len len;
  d.len <- d.len + len

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

(** Length-framed wire discipline for real-socket transports.

    Every payload travels as one {e frame}:

    {v
      +----------------+---------+--------------------------+
      | length (u32 BE)| version |  body (length - 1 bytes) |
      +----------------+---------+--------------------------+
    v}

    [length] counts the version byte plus the body, so the smallest
    legal frame is 5 bytes on the wire (an empty body).  The version
    byte is always 0 and the body is the payload's bytes as given; the
    decoder rejects every other version byte as {!Corrupt}, so a future
    wire format (compression, signing) can claim a new byte without a
    framing change.

    Decoding is incremental: a {!decoder} accepts arbitrarily chunked
    byte arrivals (1-byte reads, split length prefixes, several frames
    coalesced in one read) and yields exactly the frames whose bytes
    have fully arrived.  A torn tail — a partial length prefix or a
    frame cut short — is silently retained until its remaining bytes
    arrive, so a prefix of a valid stream always decodes to the clean
    prefix of its frames, the same tolerance the durable store's WAL
    decoder gives a torn log tail. *)

(** Raised by decoding on a non-zero version byte, or a length field
    exceeding {!val-max_frame} (a corrupt or hostile stream — framing
    cannot resynchronise, so the connection must be dropped). *)
exception Corrupt of string

(** Frames larger than this (version + body bytes) are rejected by both
    {!encode} and the decoder: a length prefix beyond it means a
    corrupt stream, not a large message. *)
val max_frame : int

(** [encode body] is the frame's full wire image. *)
val encode : string -> string

(** Bytes of framing overhead per frame (the length prefix plus the
    version byte). *)
val overhead : int

(** [decode_exact s] decodes a string holding exactly one frame.
    @raise Corrupt if [s] is not exactly one well-formed frame. *)
val decode_exact : string -> string

type decoder

val decoder : unit -> decoder

(** Append a chunk of received bytes ([off]/[len] defaulting to the
    whole string).  Raises nothing: corruption is only detected when a
    complete header is inspected, by {!next}. *)
val feed : decoder -> ?off:int -> ?len:int -> string -> unit

(** [feed_bytes d b off len] is {!feed} over a byte buffer, e.g. a
    socket read buffer, without first copying the slice to a string. *)
val feed_bytes : decoder -> bytes -> int -> int -> unit

(** Pop the next complete frame, or [None] if the buffered bytes end in
    (at most) a torn tail.
    @raise Corrupt on a bad version byte or oversized length. *)
val next : decoder -> string option

(** Buffered bytes not yet consumed by {!next} — the torn tail. *)
val pending : decoder -> int

(** Discard everything buffered, torn tail included.  Required whenever
    the underlying byte stream is abandoned (connection loss): the next
    connection restarts the stream from a frame boundary, so bytes from
    the dead stream must not prefix it. *)
val reset : decoder -> unit

(** An output buffer: frames are encoded straight into it, header
    included, and written out of it, so a frame is copied once on its
    way to the socket.

    It keeps what a stream transport needs when its connection can die
    mid-write: bytes written so far are never resent, except that
    {!rewind} moves back to the start of the first frame not written
    whole — the receiver drops a torn frame with its connection — so
    the next connection carries every later frame exactly once and
    starts on a frame boundary. *)
module Out : sig
  type t

  val create : unit -> t

  (** Begin a frame: reserve its length prefix and version byte.  A
      frame begun earlier and never finished is discarded. *)
  val start : t -> unit

  (** Body bytes of the current frame, encoded as the
      {!Netobj_pickle.Wire.Writer} functions of the same names do. *)
  val uvarint : t -> int -> unit

  val string : t -> string -> unit

  (** The bytes written so far to a writer, raw (see
      {!Netobj_pickle.Wire.Writer.blit}). *)
  val writer : t -> Netobj_pickle.Wire.Writer.t -> unit

  (** [finish o ~count] closes the current frame, which carries [count]
      messages, and returns its body length.
      @raise Corrupt (discarding the frame) if it exceeds
      {!val-max_frame}. *)
  val finish : t -> count:int -> int

  (** Discard the frame just finished, before any of it is written. *)
  val drop_last : t -> unit

  (** Bytes of finished frames not yet written. *)
  val pending : t -> int

  (** Messages carried by frames not yet written whole. *)
  val messages : t -> int

  (** [write o f] hands the pending bytes to [f buf off len], once, and
      advances past the [n] bytes it returns having written.
      Exceptions from [f] propagate with nothing advanced. *)
  val write : t -> (bytes -> int -> int -> int) -> unit

  (** The connection was lost: resend from the start of the first frame
      not written whole. *)
  val rewind : t -> unit

  (** Discard everything. *)
  val clear : t -> unit
end

(** Low-level binary wire encoding.

    The pickle combinators ({!Pickle}) are built on this reader/writer
    pair.  Fixed-width values are little-endian (except {!Writer.u32_be}).
    Integers are LEB128 varints: 7 bits per byte, low group first, the
    high bit set on every byte but the last.

    - {!Writer.uvarint} writes a non-negative native int as is;
      {!Reader.uvarint} accepts [0 <= n < 2^62] (the native range).
    - {!Writer.varint} first zigzags the native 63-bit int,
      [(n lsl 1) lxor (n asr 62)], so [0, -1, 1, -2, ...] become
      [0, 1, 2, 3, ...] and small magnitudes of either sign stay short.
      The result fits in 63 unsigned bits, so every varint takes at most
      9 bytes ([max_int] and [min_int] take 9).
    - A reader rejects a 10-byte encoding (a 9th byte with its
      continuation bit set), which no writer produces.

    Decoding failures raise {!Error} with a position and message, never a
    generic exception.

    A writer owns one byte buffer; each primitive reserves its largest
    size once and then stores without further checks.  Writers can be
    checked out of a per-domain pool so that steady-state encoding reuses
    already-grown buffers instead of allocating; readers can decode a
    slice of a larger payload in place, without copying it out first. *)

exception Error of { pos : int; msg : string }

val error : pos:int -> string -> 'a

module Writer : sig
  type t

  val create : ?initial_size:int -> unit -> t

  (** Bytes written so far. *)
  val length : t -> int

  (** Snapshot of the bytes written so far.  The writer stays usable; the
      returned bytes are a fresh copy owned by the caller. *)
  val to_bytes : t -> bytes

  (** [blit w dst off] copies the bytes written so far into [dst] at
      [off], without the intermediate copy of {!to_bytes}.
      @raise Invalid_argument if they do not fit. *)
  val blit : t -> bytes -> int -> unit

  (** {2 Pooling}

      [checkout]/[return] recycle writers through a bounded {e
      per-domain} pool (domain-local storage, so concurrent engines
      neither contend nor race).  A returned writer is cleared; one
      whose buffer grew past 64 KiB is dropped rather than retained.
      Never use a writer after returning it, and never return it on a
      different domain than the one that checked it out. *)

  val checkout : unit -> t

  val return : t -> unit

  (** [with_pooled f] checks a writer out, runs [f] on it, and returns it
      to the pool even if [f] raises. *)
  val with_pooled : (t -> 'a) -> 'a

  (** [(hits, misses)] on the calling domain since start (or its last
      {!reset_pool_stats}): checkouts served from the pool vs. fresh
      allocations. *)
  val pool_stats : unit -> int * int

  val reset_pool_stats : unit -> unit

  val byte : t -> int -> unit

  (** Unsigned LEB128, at most 9 bytes.
      @raise Invalid_argument on a negative argument. *)
  val uvarint : t -> int -> unit

  (** Zigzag-encoded signed LEB128, at most 9 bytes. *)
  val varint : t -> int -> unit

  val int32 : t -> int32 -> unit

  val int64 : t -> int64 -> unit

  (** Unsigned 32-bit value, 4 bytes {e big}-endian — network byte
      order, for socket framing headers.  Requires [0 <= v < 2^32]. *)
  val u32_be : t -> int -> unit

  (** IEEE-754 double, 8 bytes little-endian. *)
  val float : t -> float -> unit

  (** Length-prefixed byte string. *)
  val string : t -> string -> unit

  (** Raw bytes, no length prefix. *)
  val raw : t -> string -> unit
end

module Reader : sig
  type t

  (** [of_string ?off ?len s] reads the slice [off, off+len) of [s]
      (default: all of [s]) without copying it.  Positions reported by
      {!pos} and {!Error} are relative to [off].
      @raise Invalid_argument if the slice is out of bounds. *)
  val of_string : ?off:int -> ?len:int -> string -> t

  (** Like {!of_string} over a byte buffer.  The caller must not mutate
      [data] while the reader is in use. *)
  val of_bytes : ?off:int -> ?len:int -> bytes -> t

  val pos : t -> int

  (** Bytes remaining. *)
  val remaining : t -> int

  (** True when all input is consumed. *)
  val at_end : t -> bool

  val byte : t -> int

  (** Fails on a value of [2^62] or more (a 9th byte of [0x40] or more)
      and on a 10-byte encoding. *)
  val uvarint : t -> int

  (** Fails on a 10-byte encoding. *)
  val varint : t -> int

  val int32 : t -> int32

  val int64 : t -> int64

  (** Unsigned 32-bit value, 4 bytes big-endian (see
      {!Writer.u32_be}). *)
  val u32_be : t -> int

  val float : t -> float

  val string : t -> string

  (** [raw r n] reads exactly [n] bytes. *)
  val raw : t -> int -> string

  (** [skip r n] advances past [n] bytes without copying them. *)
  val skip : t -> int -> unit

  (** Fail with a positioned {!Error}. *)
  val fail : t -> string -> 'a
end

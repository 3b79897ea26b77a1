(** Typed pickle combinators — the Network Objects marshalling substrate.

    Modula-3 Network Objects marshals method arguments and results with
    "pickles", a general-purpose binary serialiser driven by runtime type
    information.  OCaml has no runtime reflection, so stubs are built from
    first-class codec values instead: a [('a) t] knows how to write and
    read an ['a].  Codecs compose with products, sums, containers and
    fixpoints, and can be made {e contextual} with {!map} or {!custom} —
    the runtime's handle codec is a {!map} over the wireRep codec whose
    conversions pin and acquire (the transient-dirty side effects) inside
    argument pickles.

    Top-level pickles carry a magic number and a codec fingerprint so that
    mismatched stubs fail loudly rather than misparse.

    {b Bounded decoding.}  Every codec knows a lower bound on the bytes
    one of its values encodes to, its {!min_width}.  {!list} and
    {!array} compare each count they read with the input left: a count
    above [remaining / min_width] fails with {!Wire.Error} before
    anything is allocated for it.  A codec whose values may encode to
    nothing ([min_width = 0]: {!unit}, a {!custom} codec, products of
    such) is capped at
    {!max_zero_width_count} elements instead.  So a decoder allocates
    in proportion to its input, and hostile input raises only
    {!Wire.Error}. *)

type 'a t

(** {1 Running codecs} *)

(** Encode without any header (for embedding in other messages). *)
val encode : 'a t -> 'a -> string

(** Decode a headerless encoding.  Fails with {!Wire.Error} if the input
    is malformed or has trailing bytes. *)
val decode : 'a t -> string -> 'a

(** [decode_slice c s ~off ~len] decodes the slice [off, off+len) of [s]
    in place, without copying it out first.  Error positions are relative
    to [off]. *)
val decode_slice : 'a t -> string -> off:int -> len:int -> 'a

(** Encode with the versioned pickle header (magic, version, fingerprint). *)
val pickle : 'a t -> 'a -> string

(** Decode a headered pickle, checking magic, version and fingerprint. *)
val unpickle : 'a t -> string -> 'a

(** A lower bound on the bytes any value of the codec encodes to: 0 for
    {!unit}, 1 for {!int}, {!string} and the containers, the sum of the
    parts for products, 1 plus the narrowest arm for {!sum}.  For
    {!fix}, the body's width with each recursive occurrence counted as
    0. *)
val min_width : 'a t -> int

(** The most elements {!list} or {!array} decodes for an element codec
    of {!min_width} 0: [65_536]. *)
val max_zero_width_count : int

(** A short human-readable structure descriptor, e.g. ["(pair int string)"].
    Hashed into the header fingerprint. *)
val describe : 'a t -> string

(** {1 Primitives} *)

val unit : unit t

val bool : bool t

val char : char t

(** Zigzag varint; efficient for small magnitudes of either sign. *)
val int : int t

val int32 : int32 t

val int64 : int64 t

val float : float t

val string : string t

val bytes : bytes t

(** {1 Containers} *)

val option : 'a t -> 'a option t

(** A count, then the elements.  Decoding fails with {!Wire.Error} on a
    count above [remaining / min_width c] (or {!max_zero_width_count} if
    [min_width c = 0]), before allocating. *)
val list : 'a t -> 'a list t

val array : 'a t -> 'a array t

val pair : 'a t -> 'b t -> ('a * 'b) t

val triple : 'a t -> 'b t -> 'c t -> ('a * 'b * 'c) t

val quad : 'a t -> 'b t -> 'c t -> 'd t -> ('a * 'b * 'c * 'd) t

val result : 'a t -> 'e t -> ('a, 'e) Stdlib.result t

(** {1 Structure} *)

(** Bijective mapping: build a codec for ['b] out of one for ['a].  It
    keeps the inner codec's {!min_width}.  [into] runs after the inner
    codec reads and [from] before it writes; either may perform side
    effects, so a contextual codec over a plain one is a [map]. *)
val map : ?name:string -> ('a -> 'b) -> ('b -> 'a) -> 'a t -> 'b t

(** One arm of a sum type: [case tag name codec inject project] where
    [project] returns [Some payload] exactly on values of this arm. *)
type 'a case

val case : int -> string -> 'b t -> ('b -> 'a) -> ('a -> 'b option) -> 'a case

(** [sum name cases] dispatches on the first case whose projection
    matches (writing) or on the wire tag (reading).  Tags must be unique;
    raises [Invalid_argument] otherwise. *)
val sum : string -> 'a case list -> 'a t

(** Codec fixpoint for recursive types. *)
val fix : ('a t -> 'a t) -> 'a t

(** Escape hatch: a codec from raw [write] and [read] functions, which
    may perform side effects.  Its {!min_width} is 0; a contextual codec
    over a wider one keeps that width by being built with {!map}
    instead. *)
val custom :
  name:string ->
  write:(Wire.Writer.t -> 'a -> unit) ->
  read:(Wire.Reader.t -> 'a) ->
  'a t

(** {1 Low-level embedding} *)

val write : 'a t -> Wire.Writer.t -> 'a -> unit

val read : 'a t -> Wire.Reader.t -> 'a

(** Fingerprint of the structure descriptor (FNV-1a 64). *)
val fingerprint : 'a t -> int64

type 'a t = {
  write : Wire.Writer.t -> 'a -> unit;
  read : Wire.Reader.t -> 'a;
  descr : string;
  min_width : int;  (* a lower bound on the bytes one value encodes to *)
}

let write c = c.write

let read c = c.read

let describe c = c.descr

let min_width c = c.min_width

(* FNV-1a on the structure descriptor: two codecs with the same shape get
   the same fingerprint, so interoperating stubs agree without codegen. *)
let fingerprint c =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun ch ->
      h := Int64.logxor !h (Int64.of_int (Char.code ch));
      h := Int64.mul !h 0x100000001b3L)
    c.descr;
  !h

let magic = 0x4e4f504bl (* "NOPK" *)

let version = 1

let encode c v =
  Wire.Writer.with_pooled (fun w ->
      c.write w v;
      Bytes.unsafe_to_string (Wire.Writer.to_bytes w))

let decode c s =
  let r = Wire.Reader.of_string s in
  let v = c.read r in
  if not (Wire.Reader.at_end r) then Wire.Reader.fail r "trailing bytes";
  v

let decode_slice c s ~off ~len =
  let r = Wire.Reader.of_string ~off ~len s in
  let v = c.read r in
  if not (Wire.Reader.at_end r) then Wire.Reader.fail r "trailing bytes";
  v

let pickle c v =
  Wire.Writer.with_pooled (fun w ->
      Wire.Writer.int32 w magic;
      Wire.Writer.uvarint w version;
      Wire.Writer.int64 w (fingerprint c);
      c.write w v;
      Bytes.unsafe_to_string (Wire.Writer.to_bytes w))

let unpickle c s =
  let r = Wire.Reader.of_string s in
  if Wire.Reader.int32 r <> magic then Wire.Reader.fail r "bad pickle magic";
  let v = Wire.Reader.uvarint r in
  if v <> version then
    Wire.Reader.fail r (Printf.sprintf "unsupported pickle version %d" v);
  let fp = Wire.Reader.int64 r in
  if fp <> fingerprint c then
    Wire.Reader.fail r
      (Printf.sprintf "pickle fingerprint mismatch (expected %s)" c.descr);
  let x = c.read r in
  if not (Wire.Reader.at_end r) then Wire.Reader.fail r "trailing bytes";
  x

let prim descr min_width write read = { write; read; descr; min_width }

let unit = prim "unit" 0 (fun _ () -> ()) (fun _ -> ())

let bool =
  {
    write = (fun w b -> Wire.Writer.byte w (if b then 1 else 0));
    read =
      (fun r ->
        match Wire.Reader.byte r with
        | 0 -> false
        | 1 -> true
        | n -> Wire.Reader.fail r (Printf.sprintf "bad bool byte %d" n));
    descr = "bool";
    min_width = 1;
  }

let char =
  {
    write = (fun w c -> Wire.Writer.byte w (Char.code c));
    read = (fun r -> Char.chr (Wire.Reader.byte r));
    descr = "char";
    min_width = 1;
  }

let int = prim "int" 1 Wire.Writer.varint Wire.Reader.varint

let int32 = prim "int32" 4 Wire.Writer.int32 Wire.Reader.int32

let int64 = prim "int64" 8 Wire.Writer.int64 Wire.Reader.int64

let float = prim "float" 8 Wire.Writer.float Wire.Reader.float

let string = prim "string" 1 Wire.Writer.string Wire.Reader.string

let bytes =
  {
    write = (fun w b -> Wire.Writer.string w (Bytes.to_string b));
    read = (fun r -> Bytes.of_string (Wire.Reader.string r));
    descr = "bytes";
    min_width = 1;
  }

let option c =
  {
    write =
      (fun w -> function
        | None -> Wire.Writer.byte w 0
        | Some v ->
            Wire.Writer.byte w 1;
            c.write w v);
    read =
      (fun r ->
        match Wire.Reader.byte r with
        | 0 -> None
        | 1 -> Some (c.read r)
        | n -> Wire.Reader.fail r (Printf.sprintf "bad option byte %d" n));
    descr = Printf.sprintf "(option %s)" c.descr;
    min_width = 1;
  }

(* A count read off the wire is checked against the input left before
   anything is allocated for it: [n] elements take at least
   [n * min_width] bytes.  Elements that may encode to nothing get the
   fixed cap instead. *)
let max_zero_width_count = 1 lsl 16

let read_count c r =
  let n = Wire.Reader.uvarint r in
  let bound =
    if c.min_width = 0 then max_zero_width_count
    else Wire.Reader.remaining r / c.min_width
  in
  if n > bound then
    Wire.Reader.fail r
      (Printf.sprintf "count %d exceeds the input left (at most %d)" n bound);
  n

let rec write_list c w = function
  | [] -> ()
  | x :: xs ->
      c.write w x;
      write_list c w xs

(* Builds the list front to back in constant stack, with no reversal. *)
let[@tail_mod_cons] rec read_list c r n =
  if n = 0 then []
  else
    let x = c.read r in
    x :: read_list c r (n - 1)

let list c =
  {
    write =
      (fun w xs ->
        Wire.Writer.uvarint w (List.length xs);
        write_list c w xs);
    read =
      (fun r ->
        let n = read_count c r in
        read_list c r n);
    descr = Printf.sprintf "(list %s)" c.descr;
    min_width = 1;
  }

let array c =
  {
    write =
      (fun w xs ->
        Wire.Writer.uvarint w (Array.length xs);
        for i = 0 to Array.length xs - 1 do
          c.write w (Array.unsafe_get xs i)
        done);
    read =
      (fun r ->
        let n = read_count c r in
        if n = 0 then [||]
        else begin
          let a = Array.make n (c.read r) in
          for i = 1 to n - 1 do
            Array.unsafe_set a i (c.read r)
          done;
          a
        end);
    descr = Printf.sprintf "(array %s)" c.descr;
    min_width = 1;
  }

let pair a b =
  {
    write =
      (fun w (x, y) ->
        a.write w x;
        b.write w y);
    read =
      (fun r ->
        let x = a.read r in
        let y = b.read r in
        (x, y));
    descr = Printf.sprintf "(pair %s %s)" a.descr b.descr;
    min_width = a.min_width + b.min_width;
  }

let triple a b c =
  {
    write =
      (fun w (x, y, z) ->
        a.write w x;
        b.write w y;
        c.write w z);
    read =
      (fun r ->
        let x = a.read r in
        let y = b.read r in
        let z = c.read r in
        (x, y, z));
    descr = Printf.sprintf "(triple %s %s %s)" a.descr b.descr c.descr;
    min_width = a.min_width + b.min_width + c.min_width;
  }

let quad a b c d =
  {
    write =
      (fun w (x, y, z, u) ->
        a.write w x;
        b.write w y;
        c.write w z;
        d.write w u);
    read =
      (fun r ->
        let x = a.read r in
        let y = b.read r in
        let z = c.read r in
        let u = d.read r in
        (x, y, z, u));
    descr =
      Printf.sprintf "(quad %s %s %s %s)" a.descr b.descr c.descr d.descr;
    min_width = a.min_width + b.min_width + c.min_width + d.min_width;
  }

let result ok err =
  {
    write =
      (fun w -> function
        | Ok v ->
            Wire.Writer.byte w 0;
            ok.write w v
        | Error e ->
            Wire.Writer.byte w 1;
            err.write w e);
    read =
      (fun r ->
        match Wire.Reader.byte r with
        | 0 -> Ok (ok.read r)
        | 1 -> Error (err.read r)
        | n -> Wire.Reader.fail r (Printf.sprintf "bad result byte %d" n));
    descr = Printf.sprintf "(result %s %s)" ok.descr err.descr;
    min_width = 1 + Int.min ok.min_width err.min_width;
  }

let map ?name into from c =
  {
    write = (fun w v -> c.write w (from v));
    read = (fun r -> into (c.read r));
    descr = (match name with None -> c.descr | Some n -> n);
    min_width = c.min_width;
  }

type 'a case =
  | Case : {
      tag : int;
      name : string;
      codec : 'b t;
      inj : 'b -> 'a;
      prj : 'a -> 'b option;
    }
      -> 'a case

let case tag name codec inj prj = Case { tag; name; codec; inj; prj }

let sum name cases =
  let tags = List.map (fun (Case c) -> c.tag) cases in
  let sorted = List.sort_uniq Int.compare tags in
  if List.length sorted <> List.length tags then
    invalid_arg (Printf.sprintf "Pickle.sum %s: duplicate tags" name);
  let descr =
    Printf.sprintf "(sum %s %s)" name
      (String.concat " "
         (List.map
            (fun (Case c) -> Printf.sprintf "%d:%s" c.tag c.codec.descr)
            cases))
  in
  let write w v =
    let rec go = function
      | [] -> invalid_arg (Printf.sprintf "Pickle.sum %s: no case matches" name)
      | Case c :: rest -> (
          match c.prj v with
          | Some payload ->
              Wire.Writer.uvarint w c.tag;
              c.codec.write w payload
          | None -> go rest)
    in
    go cases
  in
  let read r =
    let tag = Wire.Reader.uvarint r in
    let rec go = function
      | [] ->
          Wire.Reader.fail r
            (Printf.sprintf "sum %s: unknown tag %d" name tag)
      | Case c :: rest ->
          if c.tag = tag then c.inj (c.codec.read r) else go rest
    in
    go cases
  in
  (* A tag of at least one byte, then the narrowest arm. *)
  let min_width =
    match cases with
    | [] -> 1
    | Case c :: rest ->
        1
        + List.fold_left
            (fun m (Case c) -> Int.min m c.codec.min_width)
            c.codec.min_width rest
  in
  { write; read; descr; min_width }

(* The body is built once, here, with the recursive occurrences counted
   as zero bytes wide: that gives a lower bound on the body's width,
   which is all [min_width] promises. *)
let fix f =
  let rec self =
    {
      write = (fun w v -> (Lazy.force body).write w v);
      read = (fun r -> (Lazy.force body).read r);
      descr = "(fix)";
      min_width = 0;
    }
  and body = lazy (f self) in
  { self with min_width = (Lazy.force body).min_width }

let custom ~name ~write ~read = prim name 0 write read

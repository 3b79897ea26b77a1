(* The decoder tier: every decoder that takes bytes from outside the
   process gets random bytes and mutated valid encodings (bit flips,
   truncations, spliced hostile counts).  Each must return or raise its
   documented error — [Wire.Error] for pickles, [Frame.Corrupt] for
   frames, nothing at all for the store log and JSON — and allocate at
   most [alloc_per_byte * len + alloc_slack] bytes.

   The seed is fixed.  [--scale K] runs K times the default number of
   cases (the [fuzz-smoke] make target uses 20); other arguments go to
   Alcotest. *)

module P = Netobj_pickle.Pickle
module Wire = Netobj_pickle.Wire
module Proto = Netobj_core.Proto
module Wal = Netobj_core.Wal
module Wirerep = Netobj_core.Wirerep
module Frame = Netobj_transport.Frame
module Store = Netobj_store.Store
module Json = Netobj_obs.Json

let cases = 1000

let alloc_per_byte = 64.

let alloc_slack = 65536.

(* --- mutations --------------------------------------------------------- *)

(* Counts and lengths a hostile peer would splice in: the largest
   4-byte count, 2^63 - 1 and 2^62 - 1 in 9 bytes, the zero-width cap,
   and a 10-byte varint. *)
let hostile =
  [
    "\xff\xff\xff\x0f";
    "\xff\xff\xff\xff\xff\xff\xff\xff\x7f";
    "\xff\xff\xff\xff\xff\xff\xff\xff\x3f";
    "\x80\x80\x04";
    "\x80\x80\x80\x80\x80\x80\x80\x80\x80\x01";
  ]

let flip s bits =
  let b = Bytes.of_string s in
  List.iter
    (fun (i, bit) ->
      if i < Bytes.length b then
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit))))
    bits;
  Bytes.to_string b

let splice s i ins ~drop =
  let i = min i (String.length s) in
  let drop = min drop (String.length s - i) in
  String.sub s 0 i ^ ins ^ String.sub s (i + drop) (String.length s - i - drop)

let input_gen samples =
  let open QCheck.Gen in
  let random = string_size ~gen:char (int_bound 64) in
  let mutated =
    oneofl samples >>= fun s ->
    let n = String.length s in
    let pos = int_bound (max 0 n) in
    oneof
      [
        map (flip s) (list_size (int_range 1 4) (pair pos (int_bound 7)));
        map (fun i -> String.sub s 0 i) pos;
        map3 (fun i h drop -> splice s i h ~drop) pos (oneofl hostile)
          (int_bound 4);
        map2 (fun i c -> splice s i (String.make 1 c) ~drop:1) pos char;
      ]
  in
  frequency [ (1, random); (4, mutated) ]

let hex s =
  String.concat ""
    (List.map
       (fun c -> Printf.sprintf "%02x" (Char.code c))
       (List.of_seq (String.to_seq s)))

(* Bytes allocated by [f ()], and its exception if it raised one. *)
let measure f =
  let before = Gc.allocated_bytes () in
  let outcome = match f () with () -> None | exception e -> Some e in
  (outcome, Gc.allocated_bytes () -. before)

(* [decode s] must return, or raise an exception that [documented]
   accepts, within the allocation bound.  A major cycle that ends inside
   the measured call runs finalisers, whose allocations land in the
   count; decoding is deterministic, so a call over the bound is
   measured again right after a full major. *)
let prop ~scale ~name ~samples ~documented decode =
  QCheck.Test.make ~name ~count:(cases * scale)
    (QCheck.make ~print:hex (input_gen samples))
    (fun s ->
      let bound =
        (alloc_per_byte *. float_of_int (String.length s)) +. alloc_slack
      in
      let outcome, used = measure (fun () -> decode s) in
      let used =
        if used <= bound then used
        else begin
          Gc.full_major ();
          snd (measure (fun () -> decode s))
        end
      in
      (match outcome with
      | Some e when not (documented e) ->
          QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e)
      | Some _ | None -> ());
      if used > bound then
        QCheck.Test.fail_reportf "allocated %.0f bytes (bound %.0f)" used
          bound;
      true)

let wire_error = function Wire.Error _ -> true | _ -> false

let pickle_prop ~scale name codec values =
  prop ~scale ~name ~samples:(List.map (P.encode codec) values)
    ~documented:wire_error (fun s -> ignore (P.decode codec s))

(* --- samples ----------------------------------------------------------- *)

let wr i = Wirerep.v ~space:(i mod 5) ~index:(i * 37)

let wrs n = List.init n wr

let mid : Proto.msg_id = { origin = 2; seq = 99 }

let packets =
  let pkt env : Proto.packet =
    { src_epoch = 1; src_cont = 0; dst_epoch = 3; env }
  in
  List.map pkt
    [
      Proto.Call
        {
          call_id = 7;
          msg_id = mid;
          needs_ack = true;
          target = wr 3;
          meth = "input";
          args = P.encode (P.array P.int) (Array.init 40 (fun i -> i * 999));
          deadline = 0.5;
        };
      Proto.Reply
        {
          call_id = 7;
          msg_id = mid;
          needs_ack = false;
          ack = Some mid;
          result = Ok "result";
        };
      Proto.Reply
        {
          call_id = 8;
          msg_id = mid;
          needs_ack = true;
          ack = None;
          result = Error "boom";
        };
      Proto.Clean { items = List.map (fun w -> (w, 5)) (wrs 6) };
      Proto.Clean_ack { wrs = wrs 4 };
      Proto.Dirty { wr = wr 9; seq = 1 lsl 40 };
      Proto.Reassert_ack { ok = wrs 3; gone = wrs 2 };
      Proto.Cycle_probe { probe_id = 4; confirm = true; targets = wrs 5 };
      Proto.Cycle_reply
        {
          probe_id = 4;
          epoch = 2;
          reports =
            [
              (wr 1, Proto.Cr_live);
              ( wr 2,
                Proto.Cr_quiet
                  { touch = 9; dirty = [ 1; 2 ]; ancestors = wrs 3 } );
            ];
        };
      Proto.Cancel { call_id = 3; msg_id = mid };
      Proto.Busy { call_id = 3 };
    ]

let records =
  [
    Wal.Epoch { epoch = 3; cont = 1 };
    Wal.Export { wr = wr 1; tag = "counter" };
    Wal.Link { parent = wr 1; child = wr 2; add = true };
    Wal.Bind { name = "agent"; wr = wr 4 };
    Wal.Dirty { wr = wr 5; client = 2; seq = 77; add = false };
    Wal.Pins { msg = 12; wrs = wrs 5 };
    Wal.Peer { peer = 1; epoch = 4 };
  ]

let snapshots =
  let concrete i : Wal.concrete =
    {
      c_wr = wr i;
      c_tag = "cell";
      c_slots = wrs 2;
      c_dirty = [ (1, 4); (2, 9) ];
    }
  in
  [
    {
      Wal.s_epoch = 2;
      s_cont = 1;
      s_next_index = 40;
      s_next_msg = 100;
      s_next_call = 7;
      s_peers = [ (1, 2); (3, 0) ];
      s_concretes = List.init 3 concrete;
      s_surrogates = wrs 3;
      s_roots = [ (wr 1, 2) ];
      s_pins = [ (5, wrs 2) ];
      s_next_seq = 300;
      s_bindings = [ ("agent", wr 0) ];
    };
  ]

(* --- the decoders ------------------------------------------------------ *)

let frame_prop ~scale =
  let stream =
    String.concat ""
      (List.map Frame.encode [ ""; "a"; String.make 300 'x'; "\x00\x01\x02" ])
  in
  prop ~scale ~name:"Frame.next" ~samples:[ stream; Frame.encode "body" ]
    ~documented:(function Frame.Corrupt _ -> true | _ -> false)
    (fun s ->
      (* Fed in uneven chunks, as reads arrive. *)
      let d = Frame.decoder () in
      let rec drain () =
        match Frame.next d with Some _ -> drain () | None -> ()
      in
      let i = ref 0 in
      while !i < String.length s do
        let len = min (String.length s - !i) (1 + (!i mod 7)) in
        Frame.feed d ~off:!i ~len s;
        drain ();
        i := !i + len
      done)

let store_prop ~scale =
  let log =
    String.concat ""
      (List.map
         (fun r -> Store.frame (P.encode Wal.record_codec r))
         records)
  in
  prop ~scale ~name:"Store.decode_log" ~samples:[ log ]
    ~documented:(fun _ -> false)
    (fun s -> ignore (Store.decode_log s))

let json_prop ~scale =
  let doc =
    Json.(
      Obj
        [
          ("name", Str "work\"queue\n\\u00e9");
          ("n", Int (-42));
          ("x", Float 1.5e-3);
          ("ok", Bool true);
          ("none", Null);
          ("xs", List [ Int 1; List [ Str "a"; Obj [] ]; Float 2.0 ]);
        ])
  in
  prop ~scale ~name:"Json.of_string"
    ~samples:[ Json.to_string doc; "[1,2,[3,{\"a\":\"\\u0041\"}]]" ]
    ~documented:(fun _ -> false)
    (fun s -> ignore (Json.of_string s))

let props ~scale =
  [
    frame_prop ~scale;
    pickle_prop ~scale "Proto.packet_codec" Proto.packet_codec packets;
    pickle_prop ~scale "array int" (P.array P.int)
      [ Array.init 64 (fun i -> (i * 104729) - 3_000_000); [||] ];
    pickle_prop ~scale "list int" (P.list P.int)
      [ List.init 50 (fun i -> i * i * i); [ min_int; max_int ] ];
    pickle_prop ~scale "string" P.string [ "hello"; String.make 200 'z' ];
    pickle_prop ~scale "Wal.record_codec" Wal.record_codec records;
    pickle_prop ~scale "Wal.snapshot_codec" Wal.snapshot_codec snapshots;
    store_prop ~scale;
    json_prop ~scale;
  ]

let () =
  let scale = ref 1 and rest = ref [] in
  let rec parse = function
    | "--scale" :: k :: tl ->
        scale := int_of_string k;
        parse tl
    | a :: tl ->
        rest := a :: !rest;
        parse tl
    | [] -> ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let argv = Array.of_list (Sys.argv.(0) :: List.rev !rest) in
  let rand = Random.State.make [| 0x5eed |] in
  Alcotest.run ~argv "decoders"
    [
      ( "hostile input",
        List.map
          (QCheck_alcotest.to_alcotest ~speed_level:`Quick ~rand)
          (props ~scale:!scale) );
    ]

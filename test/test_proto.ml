(* Tests for the runtime wire protocol: envelope codec roundtrips
   (hand-picked and property-based) and wireRep utilities. *)

module Proto = Netobj_core.Proto
module Wirerep = Netobj_core.Wirerep
module P = Netobj_pickle.Pickle

let roundtrip env = P.decode Proto.codec (P.encode Proto.codec env)

let check_env msg env =
  let env' = roundtrip env in
  if
    String.length (P.encode Proto.codec env)
    <> String.length (P.encode Proto.codec env')
    || Fmt.str "%a" Proto.pp env <> Fmt.str "%a" Proto.pp env'
  then Alcotest.failf "%s: envelope mangled" msg

let wr = Wirerep.v ~space:3 ~index:17

let mid : Proto.msg_id = { origin = 2; seq = 99 }

let test_envelopes () =
  check_env "call"
    (Proto.Call
       { call_id = 7; msg_id = mid; needs_ack = true; target = wr; meth = "incr"; args = "\x00\xffpayload"; deadline = 0. });
  check_env "call with deadline"
    (Proto.Call
       { call_id = 8; msg_id = mid; needs_ack = false; target = wr; meth = "incr"; args = ""; deadline = 0.25 });
  check_env "reply ok"
    (Proto.Reply { call_id = 7; msg_id = mid; needs_ack = true; ack = Some mid; result = Ok "result-bytes" });
  check_env "reply error"
    (Proto.Reply { call_id = 7; msg_id = mid; needs_ack = false; ack = None; result = Error "boom" });
  check_env "copy_ack" (Proto.Copy_ack { msg_id = mid });
  check_env "dirty" (Proto.Dirty { wr; seq = 12 });
  check_env "dirty_ack" (Proto.Dirty_ack { wr; ok = false });
  check_env "clean" (Proto.Clean { items = [ (wr, 13) ] });
  check_env "clean, several items"
    (Proto.Clean { items = [ (wr, 13); (Wirerep.v ~space:3 ~index:4, 2) ] });
  check_env "clean_ack" (Proto.Clean_ack { wrs = [ wr ] });
  check_env "ping" (Proto.Ping { nonce = 5 });
  check_env "ping_ack" (Proto.Ping_ack { nonce = 5 });
  check_env "cancel" (Proto.Cancel { call_id = 7; msg_id = mid });
  check_env "busy" (Proto.Busy { call_id = 7 });
  check_env "expired" (Proto.Expired { call_id = 7 })

(* Retired tags 9 and 10 must be rejected like any unknown tag. *)
let test_retired_tags () =
  let clean = P.encode Proto.codec (Proto.Clean { items = [ (wr, 1) ] }) in
  List.iter
    (fun tag ->
      let s =
        String.make 1 (Char.chr tag)
        ^ String.sub clean 1 (String.length clean - 1)
      in
      match P.decode Proto.codec s with
      | _ -> Alcotest.failf "tag %d decoded" tag
      | exception _ -> ())
    [ 9; 10 ]

(* Packet encodings produced by the Int64-based varint encoder: the wire
   bytes of one call and one reply must never change. *)
let hex s =
  String.concat ""
    (List.map
       (fun c -> Printf.sprintf "%02x" (Char.code c))
       (List.of_seq (String.to_seq s)))

let test_golden_packets () =
  let check name (pkt : Proto.packet) expected =
    let s = P.encode Proto.packet_codec pkt in
    Alcotest.(check string) name expected (hex s);
    let pkt' = P.decode Proto.packet_codec s in
    Alcotest.(check string) (name ^ " re-encodes") expected
      (hex (P.encode Proto.packet_codec pkt'))
  in
  check "call"
    {
      src_epoch = 1;
      src_cont = 1;
      dst_epoch = 2;
      env =
        Proto.Call
          {
            call_id = 7;
            msg_id = mid;
            needs_ack = true;
            target = wr;
            meth = "incr";
            args = "\x00\xffpayload";
            deadline = 0.25;
          };
    }
    "020204000e04c60101062204696e63720900ff7061796c6f6164000000000000d03f";
  check "reply"
    {
      src_epoch = 2;
      src_cont = 0;
      dst_epoch = 1;
      env =
        Proto.Reply
          {
            call_id = 7;
            msg_id = { origin = 3; seq = 1 lsl 40 };
            needs_ack = false;
            ack = Some mid;
            result = Ok "result-bytes";
          };
    }
    "040002010e06808080808040000104c601000c726573756c742d6279746573"

let test_kinds_distinct () =
  let envs =
    [
      Proto.Call { call_id = 0; msg_id = mid; needs_ack = false; target = wr; meth = "m"; args = ""; deadline = 0. };
      Proto.Reply { call_id = 0; msg_id = mid; needs_ack = false; ack = None; result = Ok "" };
      Proto.Copy_ack { msg_id = mid };
      Proto.Dirty { wr; seq = 0 };
      Proto.Dirty_ack { wr; ok = true };
      Proto.Clean { items = [ (wr, 0) ] };
      Proto.Clean_ack { wrs = [ wr ] };
      Proto.Ping { nonce = 0 };
      Proto.Ping_ack { nonce = 0 };
      Proto.Cancel { call_id = 0; msg_id = mid };
      Proto.Busy { call_id = 0 };
      Proto.Expired { call_id = 0 };
    ]
  in
  let kinds = List.map Proto.kind envs in
  Alcotest.(check int)
    "kinds unique" (List.length kinds)
    (List.length (List.sort_uniq String.compare kinds))

let env_gen =
  let open QCheck.Gen in
  let wr_gen =
    map2 (fun s i -> Wirerep.v ~space:s ~index:i) (int_bound 100) (int_bound 10000)
  in
  let mid_gen =
    map2 (fun o s : Proto.msg_id -> { origin = o; seq = s }) (int_bound 50) nat
  in
  oneof
    [
      map
        (fun (c, m, w, (n, a)) ->
          Proto.Call
            {
              call_id = c;
              msg_id = m;
              needs_ack = c mod 2 = 0;
              target = w;
              meth = n;
              args = a;
              deadline = (if c mod 3 = 0 then 0. else float_of_int (c mod 7) /. 4.);
            })
        (tup4 nat mid_gen wr_gen (tup2 string_small string_small));
      map
        (fun (c, m) -> Proto.Cancel { call_id = c; msg_id = m })
        (tup2 nat mid_gen);
      map (fun c -> Proto.Busy { call_id = c }) nat;
      map (fun c -> Proto.Expired { call_id = c }) nat;
      map
        (fun (c, m, ack, r) ->
          Proto.Reply
            {
              call_id = c;
              msg_id = m;
              needs_ack = c mod 2 = 1;
              ack;
              result = r;
            })
        (tup4 nat mid_gen
           (option mid_gen)
           (oneof
              [
                map (fun s -> Ok s) string_small;
                map (fun s -> Error s) string_small;
              ]));
      map
        (fun items -> Proto.Clean { items })
        (small_list (tup2 wr_gen nat));
      map (fun wrs -> Proto.Clean_ack { wrs }) (small_list wr_gen);
      map (fun m -> Proto.Copy_ack { msg_id = m }) mid_gen;
      map2 (fun w s -> Proto.Dirty { wr = w; seq = s }) wr_gen nat;
      map2 (fun w b -> Proto.Dirty_ack { wr = w; ok = b }) wr_gen bool;
      map (fun n -> Proto.Ping { nonce = n }) nat;
      map (fun n -> Proto.Ping_ack { nonce = n }) nat;
    ]

let prop_roundtrip =
  QCheck.Test.make ~name:"envelope roundtrip" ~count:500
    (QCheck.make env_gen) (fun env ->
      let s = P.encode Proto.codec env in
      let env' = P.decode Proto.codec s in
      String.equal s (P.encode Proto.codec env'))

let test_wirerep () =
  let a = Wirerep.v ~space:1 ~index:2 in
  let b = Wirerep.v ~space:1 ~index:2 in
  let c = Wirerep.v ~space:2 ~index:1 in
  Alcotest.(check bool) "equal" true (Wirerep.equal a b);
  Alcotest.(check bool) "not equal" false (Wirerep.equal a c);
  Alcotest.(check int) "compare refl" 0 (Wirerep.compare a b);
  Alcotest.(check bool) "hash consistent" true (Wirerep.hash a = Wirerep.hash b);
  let s = P.encode Wirerep.codec a in
  Alcotest.(check bool) "codec roundtrip" true
    (Wirerep.equal a (P.decode Wirerep.codec s));
  (* Map/Set/Tbl sanity *)
  let m = Wirerep.Map.(add a 1 (add c 2 empty)) in
  Alcotest.(check (option int)) "map" (Some 1) (Wirerep.Map.find_opt b m);
  let tbl = Wirerep.Tbl.create 4 in
  Wirerep.Tbl.replace tbl a "x";
  Alcotest.(check (option string)) "tbl" (Some "x") (Wirerep.Tbl.find_opt tbl b)

let () =
  Alcotest.run "proto"
    [
      ( "envelope",
        [
          Alcotest.test_case "roundtrips" `Quick test_envelopes;
          Alcotest.test_case "kinds distinct" `Quick test_kinds_distinct;
          Alcotest.test_case "retired tags rejected" `Quick test_retired_tags;
          Alcotest.test_case "golden packets" `Quick test_golden_packets;
          QCheck_alcotest.to_alcotest prop_roundtrip;
        ] );
      ("wirerep", [ Alcotest.test_case "basics" `Quick test_wirerep ]);
    ]

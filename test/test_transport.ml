(* Tests for the transport layer: the length-framed wire codec (exact
   behaviours plus qcheck properties over adversarially chunked
   streams), the real TCP backend over loopback, and the fault-
   injection decorator's gate semantics and accounting. *)

module Sched = Netobj_sched.Sched
module Net = Netobj_net.Net
module Transport = Netobj_transport.Transport
module Transport_sim = Netobj_transport.Transport_sim
module Tcp = Netobj_transport.Tcp
module Faulty = Netobj_transport.Faulty
module Frame = Netobj_transport.Frame
module Wire = Netobj_pickle.Wire

(* --- frame codec: exact behaviours -------------------------------------- *)

let test_frame_exact () =
  Alcotest.(check string) "body" "hello"
    (Frame.decode_exact (Frame.encode "hello"));
  Alcotest.(check string) "empty body" "" (Frame.decode_exact (Frame.encode ""));
  Alcotest.(check int) "overhead" 5 (String.length (Frame.encode ""));
  (* Header is big-endian length (version + body) then the version
     byte, always 0. *)
  Alcotest.(check string) "wire bytes" "\x00\x00\x00\x06\x00hello"
    (Frame.encode "hello")

(* The version byte is input validation: every frame whose byte is not
   0 — flag bytes 1..255, including the once-reserved 1..3 — is
   rejected as [Corrupt] by both the incremental decoder and
   [decode_exact], so a hostile stream cannot smuggle a body past it. *)
let test_frame_reserved_flags () =
  for byte = 1 to 255 do
    let wire =
      Wire.Writer.with_pooled (fun w ->
          Wire.Writer.u32_be w 5;
          Wire.Writer.byte w byte;
          Wire.Writer.raw w "body";
          Bytes.unsafe_to_string (Wire.Writer.to_bytes w))
    in
    let d = Frame.decoder () in
    Frame.feed d wire;
    (match Frame.next d with
    | _ -> Alcotest.failf "flag 0x%02x: expected Corrupt" byte
    | exception Frame.Corrupt _ -> ());
    match Frame.decode_exact wire with
    | _ -> Alcotest.failf "flag 0x%02x: decode_exact expected Corrupt" byte
    | exception Frame.Corrupt _ -> ()
  done

let test_frame_corrupt () =
  let expect_corrupt name s =
    let d = Frame.decoder () in
    Frame.feed d s;
    match Frame.next d with
    | _ -> Alcotest.failf "%s: expected Corrupt" name
    | exception Frame.Corrupt _ -> ()
  in
  expect_corrupt "unknown flag" "\x00\x00\x00\x01\x09";
  expect_corrupt "zero length" "\x00\x00\x00\x00\x00";
  expect_corrupt "huge length" "\xff\xff\xff\xff\x00";
  (match Frame.decode_exact (Frame.encode "a" ^ "junk") with
  | _ -> Alcotest.fail "trailing bytes: expected Corrupt"
  | exception Frame.Corrupt _ -> ());
  match Frame.decode_exact "\x00\x00\x00\x02\x00" with
  | _ -> Alcotest.fail "truncated: expected Corrupt"
  | exception Frame.Corrupt _ -> ()

let test_frame_one_byte_feed () =
  let bodies = [ "alpha"; ""; "bravo-charlie"; "\x00\xff\x01" ] in
  let wire = String.concat "" (List.map Frame.encode bodies) in
  let d = Frame.decoder () in
  let got = ref [] in
  String.iter
    (fun c ->
      Frame.feed d (String.make 1 c);
      let rec drain () =
        match Frame.next d with
        | Some b ->
            got := b :: !got;
            drain ()
        | None -> ()
      in
      drain ())
    wire;
  Alcotest.(check (list string)) "one-byte feed" bodies (List.rev !got);
  Alcotest.(check int) "nothing pending" 0 (Frame.pending d)

(* --- frame codec: properties --------------------------------------------- *)

let drain_all d =
  let rec loop acc =
    match Frame.next d with
    | Some b -> loop (b :: acc)
    | None -> List.rev acc
  in
  loop []

let prop_roundtrip =
  QCheck.Test.make ~name:"encode/decode identity" ~count:300 QCheck.string
    (fun s ->
      Frame.decode_exact (Frame.encode s) = s)

(* Split the concatenation of many frames at positions driven by the
   seed — byte-at-a-time, mid-length-prefix, several frames per chunk —
   and require the decoder to recover exactly the input bodies. *)
let prop_chunked =
  QCheck.Test.make ~name:"decode over adversarial chunking" ~count:200
    QCheck.(pair (small_list string) small_int)
    (fun (bodies, seed) ->
      let rng = Netobj_util.Rng.create (Int64.of_int (seed + 1)) in
      let wire = String.concat "" (List.map Frame.encode bodies) in
      let d = Frame.decoder () in
      let got = ref [] in
      let pos = ref 0 in
      while !pos < String.length wire do
        let n =
          1 + Netobj_util.Rng.int rng (min 11 (String.length wire - !pos))
        in
        Frame.feed d ~off:!pos ~len:n wire;
        pos := !pos + n;
        got := !got @ drain_all d
      done;
      !got = bodies && Frame.pending d = 0)

let prop_torn_tail =
  QCheck.Test.make ~name:"torn tail decodes to clean prefix" ~count:200
    QCheck.(triple (small_list string) string small_int)
    (fun (bodies, last, cut) ->
      let tail = Frame.encode last in
      (* Keep a strict prefix of the final frame: everything before it
         must decode cleanly and the torn bytes must sit in [pending]. *)
      let keep = cut mod String.length tail in
      let wire =
        String.concat "" (List.map Frame.encode bodies)
        ^ String.sub tail 0 keep
      in
      let d = Frame.decoder () in
      Frame.feed d wire;
      let got = drain_all d in
      got = bodies && Frame.pending d = keep)

(* --- output buffer ---------------------------------------------------- *)

let out_frame o body =
  Frame.Out.start o;
  Frame.Out.string o body;
  ignore (Frame.Out.finish o ~count:1 : int)

let string_body s =
  Wire.Writer.with_pooled (fun w ->
      Wire.Writer.string w s;
      Bytes.unsafe_to_string (Wire.Writer.to_bytes w))

(* Frames encoded in place are the bytes [Frame.encode] gives. *)
let prop_out_encode =
  QCheck.Test.make ~name:"in-place frames match encode" ~count:200
    QCheck.(small_list string)
    (fun bodies ->
      let o = Frame.Out.create () in
      List.iter (out_frame o) bodies;
      let got = Buffer.create 64 in
      Frame.Out.write o (fun b off len ->
          Buffer.add_subbytes got b off len;
          len);
      Buffer.contents got
      = String.concat "" (List.map (fun b -> Frame.encode (string_body b)) bodies)
      && Frame.Out.pending o = 0)

(* Frames arrive in batches and leave through partial writes; at the
   loss point the connection dies.  What the first connection carried
   decodes to a clean prefix of the frames (its torn tail dies with it),
   and the bytes resent on the next one start on a frame boundary and
   carry every later frame exactly once. *)
let prop_out_loss =
  QCheck.Test.make ~name:"resend after loss: frame boundary, exactly once"
    ~count:300
    QCheck.(
      triple
        (small_list (pair (small_list string) small_nat))
        (small_list string) small_nat)
    (fun (steps, late, loss) ->
      let o = Frame.Out.create () in
      let sent = ref [] in
      let add b =
        sent := b :: !sent;
        out_frame o b
      in
      let conn1 = Buffer.create 256 and conn2 = Buffer.create 256 in
      let write conn k =
        Frame.Out.write o (fun b off len ->
            let n = min len k in
            Buffer.add_subbytes conn b off n;
            n)
      in
      List.iteri
        (fun i (bodies, k) ->
          List.iter add bodies;
          if i < loss then write conn1 k)
        steps;
      Frame.Out.rewind o;
      List.iter add late;
      while Frame.Out.pending o > 0 do
        write conn2 max_int
      done;
      let decode conn =
        let d = Frame.decoder () in
        Frame.feed d (Buffer.contents conn);
        let bodies =
          List.map
            (fun f -> Wire.Reader.string (Wire.Reader.of_string f))
            (drain_all d)
        in
        (bodies, Frame.pending d)
      in
      let first, _torn = decode conn1 and resent, rest = decode conn2 in
      first @ resent = List.rev !sent && rest = 0)

let frame_props =
  [ prop_roundtrip; prop_chunked; prop_torn_tail; prop_out_encode; prop_out_loss ]

(* --- tcp over loopback ---------------------------------------------------- *)

let lo = "127.0.0.1"

let ep port = { Tcp.host = lo; port }

(* Containers without a loopback interface skip rather than fail. *)
let with_tcp ~serving ~endpoints f =
  let sched = Sched.create () in
  match Tcp.create ~sched ~serving ~endpoints () with
  | exception Unix.Unix_error (e, _, _) ->
      Printf.printf "skipping: loopback unavailable (%s)\n%!"
        (Unix.error_message e)
  | t ->
      let tr = Tcp.transport t in
      Fun.protect ~finally:(fun () -> Transport.close tr) (fun () -> f sched tr)

(* Alternate draining the cooperative scheduler (handler fibers, the
   0-delay flush timer) with real socket I/O until [until] holds. *)
let drive ?(deadline = 10.0) sched tr ~until =
  let t0 = Unix.gettimeofday () in
  let rec loop () =
    ignore (Sched.run sched);
    if not (until ()) then
      if Unix.gettimeofday () -. t0 > deadline then
        Alcotest.fail "tcp drive: timed out"
      else begin
        ignore (Transport.pump tr ~timeout:0.02);
        loop ()
      end
  in
  loop ()

let test_tcp_roundtrip () =
  with_tcp ~serving:[ 0; 1 ] ~endpoints:[ (0, ep 0); (1, ep 0) ]
    (fun sched tr ->
      let got = ref [] in
      Transport.set_handler tr 1 (fun ~src ~kind ~payload ~off ~len ->
          got := (src, kind, String.sub payload off len) :: !got);
      Transport.send tr ~src:0 ~dst:1 ~kind:"ping" "hello over tcp";
      drive sched tr ~until:(fun () -> !got <> []);
      Alcotest.(check (list (triple int string string)))
        "delivered"
        [ (0, "ping", "hello over tcp") ]
        !got;
      let s = Transport.stats tr in
      Alcotest.(check int) "sent" 1 s.Transport.sent;
      Alcotest.(check int) "delivered" 1 s.Transport.delivered;
      Alcotest.(check int) "dropped" 0 s.Transport.dropped;
      Alcotest.(check (list (pair string (pair int int))))
        "by kind"
        [ ("ping", (1, 14)) ]
        (Transport.stats_by_kind tr))

let test_tcp_coalesce () =
  with_tcp ~serving:[ 0; 1 ] ~endpoints:[ (0, ep 0); (1, ep 0) ]
    (fun sched tr ->
      let got = ref [] in
      Transport.set_handler tr 1 (fun ~src:_ ~kind ~payload ~off ~len ->
          got := (kind, String.sub payload off len) :: !got);
      Transport.post tr ~src:0 ~dst:1 ~kind:"a" "one";
      Transport.post tr ~src:0 ~dst:1 ~kind:"b" "two";
      Transport.post tr ~src:0 ~dst:1 ~kind:"a" "three";
      drive sched tr ~until:(fun () -> List.length !got = 3);
      Alcotest.(check (list (pair string string)))
        "in post order"
        [ ("a", "one"); ("b", "two"); ("a", "three") ]
        (List.rev !got);
      let s = Transport.stats tr in
      Alcotest.(check int) "one physical payload" 1 s.Transport.sent;
      Alcotest.(check int) "one frame" 1 s.Transport.frames;
      Alcotest.(check int) "three coalesced" 3 s.Transport.coalesced;
      Alcotest.(check int) "three delivered" 3 s.Transport.delivered)

let free_port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, p) -> p
      | _ -> assert false)

(* A message queued towards a dead port survives connect failures and
   arrives once somebody starts listening there — exercising the capped
   backoff reconnect path end to end. *)
let test_tcp_reconnect () =
  match free_port () with
  | exception Unix.Unix_error (e, _, _) ->
      Printf.printf "skipping: loopback unavailable (%s)\n%!"
        (Unix.error_message e)
  | port ->
      with_tcp ~serving:[ 0 ] ~endpoints:[ (0, ep 0); (1, ep port) ]
        (fun sched tr ->
          Transport.send tr ~src:0 ~dst:1 ~kind:"late" "finally";
          (* Let a few connection attempts fail before the peer exists. *)
          let t0 = Unix.gettimeofday () in
          while Unix.gettimeofday () -. t0 < 0.3 do
            ignore (Transport.pump tr ~timeout:0.02)
          done;
          with_tcp ~serving:[ 1 ] ~endpoints:[ (1, ep port) ]
            (fun sched2 tr2 ->
              let got = ref [] in
              Transport.set_handler tr2 1 (fun ~src ~kind ~payload ~off ~len ->
                  got := (src, kind, String.sub payload off len) :: !got);
              let t0 = Unix.gettimeofday () in
              while !got = [] && Unix.gettimeofday () -. t0 < 10.0 do
                ignore (Transport.pump tr ~timeout:0.01);
                ignore (Transport.pump tr2 ~timeout:0.01);
                ignore (Sched.run sched);
                ignore (Sched.run sched2)
              done;
              Alcotest.(check (list (triple int string string)))
                "delivered after reconnect"
                [ (0, "late", "finally") ]
                !got;
              let s = Transport.stats tr in
              Alcotest.(check bool) "reconnects counted" true
                (s.Transport.reconnects >= 1)))

(* A reply torn mid-frame by a dying connection must not pollute the
   stream of the next connection: the dial-out decoder is reset on
   connection loss, so the whole reply resent after reconnect decodes
   cleanly.  The remote end is a raw socket so the test controls frame
   boundaries exactly: it sends a 3-byte prefix of the reply (a torn
   length field), kills the connection, then resends the reply whole on
   the client's redial. *)
let test_tcp_torn_reply_reconnect () =
  match Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error (e, _, _) ->
      Printf.printf "skipping: loopback unavailable (%s)\n%!"
        (Unix.error_message e)
  | lfd -> (
      Fun.protect ~finally:(fun () ->
          try Unix.close lfd with Unix.Unix_error _ -> ())
      @@ fun () ->
      match
        Unix.setsockopt lfd Unix.SO_REUSEADDR true;
        Unix.bind lfd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
        Unix.listen lfd 4;
        Unix.set_nonblock lfd;
        match Unix.getsockname lfd with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> assert false
      with
      | exception Unix.Unix_error (e, _, _) ->
          Printf.printf "skipping: loopback unavailable (%s)\n%!"
            (Unix.error_message e)
      | port ->
          with_tcp ~serving:[] ~endpoints:[ (1, ep port) ] (fun sched tr ->
              let accept_deadline () =
                let t0 = Unix.gettimeofday () in
                let rec loop () =
                  match Unix.accept lfd with
                  | fd, _ -> fd
                  | exception
                      Unix.Unix_error
                        ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
                    ->
                      if Unix.gettimeofday () -. t0 > 10.0 then
                        Alcotest.fail "accept: timed out"
                      else begin
                        ignore (Transport.pump tr ~timeout:0.02);
                        ignore (Sched.run sched);
                        loop ()
                      end
                in
                loop ()
              in
              let write_all fd s =
                let off = ref 0 in
                while !off < String.length s do
                  off :=
                    !off + Unix.write_substring fd s !off (String.length s - !off)
                done
              in
              let reply =
                Frame.encode
                  (Wire.Writer.with_pooled (fun w ->
                       Wire.Writer.uvarint w 1;
                       Wire.Writer.uvarint w 0;
                       Wire.Writer.uvarint w 1;
                       Wire.Writer.string w "pong";
                       Wire.Writer.string w "resent whole";
                       Bytes.unsafe_to_string (Wire.Writer.to_bytes w)))
              in
              let got = ref [] in
              Transport.set_handler tr 0 (fun ~src ~kind ~payload ~off ~len ->
                  got := (src, kind, String.sub payload off len) :: !got);
              Transport.send tr ~src:0 ~dst:1 ~kind:"ping" "one";
              let afd = accept_deadline () in
              write_all afd (String.sub reply 0 3);
              (* Let the client buffer the torn prefix... *)
              let t0 = Unix.gettimeofday () in
              while Unix.gettimeofday () -. t0 < 0.2 do
                ignore (Transport.pump tr ~timeout:0.02)
              done;
              (* ...then tear the connection under it. *)
              Unix.close afd;
              Transport.send tr ~src:0 ~dst:1 ~kind:"ping" "two";
              let afd2 = accept_deadline () in
              Fun.protect ~finally:(fun () ->
                  try Unix.close afd2 with Unix.Unix_error _ -> ())
              @@ fun () ->
              write_all afd2 reply;
              drive sched tr ~until:(fun () -> !got <> []);
              Alcotest.(check (list (triple int string string)))
                "reply decodes cleanly after reconnect"
                [ (1, "pong", "resent whole") ]
                !got))

(* Closing with work still pending — unflushed posts, frames queued to
   an unreachable peer — must account the messages as dropped (and, for
   outboxes, return the pooled writers). *)
let test_tcp_close_drops_pending () =
  match free_port () with
  | exception Unix.Unix_error (e, _, _) ->
      Printf.printf "skipping: loopback unavailable (%s)\n%!"
        (Unix.error_message e)
  | port ->
      with_tcp ~serving:[ 0 ] ~endpoints:[ (0, ep 0); (1, ep port) ]
        (fun _sched tr ->
          Transport.post tr ~src:0 ~dst:1 ~kind:"a" "unflushed";
          Transport.post tr ~src:0 ~dst:1 ~kind:"b" "also unflushed";
          Transport.send tr ~src:0 ~dst:1 ~kind:"c" "queued, never wired";
          Transport.close tr;
          let s = Transport.stats tr in
          Alcotest.(check int) "pending counted dropped" 3 s.Transport.dropped)

(* A blocking pump (negative timeout) must still wake for reconnect
   backoff deadlines instead of selecting forever on an empty fd set. *)
let test_tcp_blocking_pump_backoff () =
  match free_port () with
  | exception Unix.Unix_error (e, _, _) ->
      Printf.printf "skipping: loopback unavailable (%s)\n%!"
        (Unix.error_message e)
  | port ->
      with_tcp ~serving:[] ~endpoints:[ (1, ep port) ] (fun _sched tr ->
          Transport.send tr ~src:0 ~dst:1 ~kind:"m" "x";
          for _ = 1 to 5 do
            ignore (Transport.pump tr ~timeout:(-1.0))
          done;
          Alcotest.(check bool) "pump returned" true true)

(* Sends made during one instant are written when the instant ends:
   the peer receives them although the sender never pumps again. *)
let test_tcp_write_at_instant_end () =
  let sched_b = Sched.create () in
  match Tcp.create ~sched:sched_b ~serving:[ 1 ] ~endpoints:[ (1, ep 0) ] () with
  | exception Unix.Unix_error (e, _, _) ->
      Printf.printf "skipping: loopback unavailable (%s)\n%!"
        (Unix.error_message e)
  | tcp_b ->
      let tr_b = Tcp.transport tcp_b in
      Fun.protect ~finally:(fun () -> Transport.close tr_b) @@ fun () ->
      let got = ref [] in
      Transport.set_handler tr_b 1 (fun ~src:_ ~kind:_ ~payload ~off ~len ->
          got := String.sub payload off len :: !got);
      let port = Tcp.bound_port tcp_b 1 in
      with_tcp ~serving:[] ~endpoints:[ (1, ep port) ] (fun sched_a tr_a ->
          (* Connect first: the sender's pump dials out. *)
          Transport.send tr_a ~src:0 ~dst:1 ~kind:"m" "hello";
          let t0 = Unix.gettimeofday () in
          while !got = [] && Unix.gettimeofday () -. t0 < 10.0 do
            ignore (Transport.pump tr_a ~timeout:0.01);
            ignore (Transport.pump tr_b ~timeout:0.01);
            ignore (Sched.run sched_a);
            ignore (Sched.run sched_b)
          done;
          Alcotest.(check (list string)) "connected" [ "hello" ] !got;
          Sched.spawn sched_a (fun () ->
              List.iter
                (fun s -> Transport.send tr_a ~src:0 ~dst:1 ~kind:"m" s)
                [ "one"; "two"; "three" ]);
          ignore (Sched.run sched_a);
          let t0 = Unix.gettimeofday () in
          while List.length !got < 4 && Unix.gettimeofday () -. t0 < 10.0 do
            ignore (Transport.pump tr_b ~timeout:0.01);
            ignore (Sched.run sched_b)
          done;
          Alcotest.(check (list string))
            "delivered without a sender pump"
            [ "hello"; "one"; "two"; "three" ]
            (List.rev !got))

(* A payload several times the receive buffer arrives whole, across
   several full reads. *)
let test_tcp_large_payload () =
  with_tcp ~serving:[ 0; 1 ] ~endpoints:[ (0, ep 0); (1, ep 0) ]
    (fun sched tr ->
      let payload = String.init (200 * 1024) (fun i -> Char.chr (i * 7 land 0xff)) in
      let got = ref [] in
      Transport.set_handler tr 1 (fun ~src:_ ~kind:_ ~payload ~off ~len ->
          got := String.sub payload off len :: !got);
      Transport.send tr ~src:0 ~dst:1 ~kind:"big" payload;
      Transport.send tr ~src:0 ~dst:1 ~kind:"small" "after";
      drive sched tr ~until:(fun () -> List.length !got = 2);
      Alcotest.(check int) "length" (String.length payload)
        (String.length (List.nth !got 1));
      Alcotest.(check bool) "intact" true (List.nth !got 1 = payload);
      Alcotest.(check string) "next frame" "after" (List.hd !got))

(* --- faulty decorator ----------------------------------------------------- *)

let faulty_pair ?(seed = 42L) () =
  let sched = Sched.create () in
  let net = Net.create ~sched ~seed () in
  let tr = Faulty.wrap ~sched ~seed (Transport_sim.of_net net) in
  (sched, tr)

let test_faulty_send_gate () =
  let sched, tr = faulty_pair () in
  let got = ref 0 in
  Transport.set_handler tr 1 (fun ~src:_ ~kind:_ ~payload:_ ~off:_ ~len:_ ->
      incr got);
  Transport.crash tr 0;
  Transport.send tr ~src:0 ~dst:1 ~kind:"m" "x";
  ignore (Sched.run sched);
  let s = Transport.stats tr in
  Alcotest.(check int) "nothing delivered" 0 !got;
  Alcotest.(check int) "dropped" 1 s.Transport.dropped;
  Alcotest.(check int) "src-crashed" 1 s.Transport.dropped_src_crashed;
  Alcotest.(check int) "never reached the wire" 0 s.Transport.sent;
  Transport.restore tr 0;
  Transport.send tr ~src:0 ~dst:1 ~kind:"m" "x";
  ignore (Sched.run sched);
  Alcotest.(check int) "delivered after restore" 1 !got

(* A crash injected while the message is in flight is caught by the
   decorator's receive gate — the path real sockets rely on. *)
let test_faulty_receive_gate () =
  let sched, tr = faulty_pair () in
  let got = ref 0 in
  Transport.set_handler tr 1 (fun ~src:_ ~kind:_ ~payload:_ ~off:_ ~len:_ ->
      incr got);
  Transport.send tr ~src:0 ~dst:1 ~kind:"m" "x";
  Transport.crash tr 1;
  ignore (Sched.run sched);
  let s = Transport.stats tr in
  Alcotest.(check int) "nothing delivered" 0 !got;
  Alcotest.(check int) "dropped in flight" 1 s.Transport.dropped;
  Alcotest.(check int) "dst-crashed" 1 s.Transport.dropped_dst_crashed;
  Alcotest.(check int) "delivered stat" 0 s.Transport.delivered

let test_faulty_partition_filter () =
  let sched, tr = faulty_pair () in
  let got = ref [] in
  Transport.set_handler tr 1 (fun ~src:_ ~kind ~payload:_ ~off:_ ~len:_ ->
      got := kind :: !got);
  Transport.set_partitioned tr 0 1 true;
  Transport.send tr ~src:0 ~dst:1 ~kind:"cut" "x";
  ignore (Sched.run sched);
  Alcotest.(check (list string)) "partitioned" [] !got;
  Transport.heal_all tr;
  Transport.set_filter tr (Some (fun ~src:_ ~dst:_ ~kind -> kind <> "bad"));
  Transport.send tr ~src:0 ~dst:1 ~kind:"bad" "x";
  Transport.send tr ~src:0 ~dst:1 ~kind:"good" "x";
  ignore (Sched.run sched);
  Transport.set_filter tr None;
  Alcotest.(check (list string)) "filter" [ "good" ] !got;
  Alcotest.(check int) "two gate drops" 2 (Transport.stats tr).Transport.dropped

let test_faulty_burst_deterministic () =
  let sched, tr = faulty_pair ~seed:7L () in
  let got = ref 0 in
  Transport.set_handler tr 1 (fun ~src:_ ~kind:_ ~payload:_ ~off:_ ~len:_ ->
      incr got);
  Transport.set_burst tr ~src:0 ~dst:1 ~loss:1.0 ~until:infinity ();
  for _ = 1 to 5 do
    Transport.send tr ~src:0 ~dst:1 ~kind:"m" "x"
  done;
  ignore (Sched.run sched);
  Alcotest.(check int) "total loss" 0 !got;
  Alcotest.(check int) "all dropped" 5 (Transport.stats tr).Transport.dropped;
  Transport.set_burst tr ~src:0 ~dst:1 ~until:neg_infinity ();
  for _ = 1 to 5 do
    Transport.send tr ~src:0 ~dst:1 ~kind:"m" "x"
  done;
  ignore (Sched.run sched);
  Alcotest.(check int) "burst expired" 5 !got

(* Bare TCP advertises no fault hooks; predicates answer "no fault". *)
let test_no_faults () =
  let nf = Transport.no_faults ~name:"tcp" in
  Alcotest.(check bool) "not crashed" false (nf.Transport.f_is_crashed 0);
  Alcotest.(check bool) "not partitioned" false (nf.Transport.f_partitioned 0 1);
  match nf.Transport.f_crash 0 with
  | () -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let () =
  Alcotest.run "transport"
    [
      ( "frame",
        [
          Alcotest.test_case "exact codec" `Quick test_frame_exact;
          Alcotest.test_case "corrupt inputs" `Quick test_frame_corrupt;
          Alcotest.test_case "reserved flags" `Quick test_frame_reserved_flags;
          Alcotest.test_case "one-byte feed" `Quick test_frame_one_byte_feed;
        ] );
      ("frame props", List.map QCheck_alcotest.to_alcotest frame_props);
      ( "tcp",
        [
          Alcotest.test_case "loopback roundtrip" `Quick test_tcp_roundtrip;
          Alcotest.test_case "coalesced frame" `Quick test_tcp_coalesce;
          Alcotest.test_case "reconnect with backoff" `Quick test_tcp_reconnect;
          Alcotest.test_case "torn reply survives reconnect" `Quick
            test_tcp_torn_reply_reconnect;
          Alcotest.test_case "close drops pending" `Quick
            test_tcp_close_drops_pending;
          Alcotest.test_case "blocking pump honours backoff" `Quick
            test_tcp_blocking_pump_backoff;
          Alcotest.test_case "writes at the end of the instant" `Quick
            test_tcp_write_at_instant_end;
          Alcotest.test_case "large payload" `Quick test_tcp_large_payload;
        ] );
      ( "faulty",
        [
          Alcotest.test_case "send gate" `Quick test_faulty_send_gate;
          Alcotest.test_case "receive gate" `Quick test_faulty_receive_gate;
          Alcotest.test_case "partition and filter" `Quick
            test_faulty_partition_filter;
          Alcotest.test_case "burst windows" `Quick
            test_faulty_burst_deterministic;
          Alcotest.test_case "bare backend refuses faults" `Quick
            test_no_faults;
        ] );
    ]

(* Tests for the benchmark's own code: the self-time arithmetic of the
   span recorder, the percentile function, and the transparency of the
   tracing transport decorator and codec wrappers. *)

open Perfbench
module W = Workloads
module R = Netobj_core.Runtime
module Stub = Netobj_core.Stub
module Transport = Netobj_transport.Transport

(* --- self time ----------------------------------------------------------- *)

(* Spans as (start, stop, parent), numbered in order of start. *)
let self_of spans =
  let a = Array.of_list spans in
  let get f i = f a.(i) in
  Spans.self_times (Array.length a)
    ~start:(get (fun (s, _, _) -> s))
    ~stop:(get (fun (_, e, _) -> e))
    ~parent:(get (fun (_, _, p) -> p))
  |> Array.to_list

let test_self_overlapping () =
  (* Root [0,100]; children [10,40] and [30,60] overlap each other,
     [90,120] sticks out of the root; [12,20] is a grandchild. *)
  let spans =
    [ (0, 100, -1); (10, 40, 0); (12, 20, 1); (30, 60, 0); (90, 120, 0) ]
  in
  (* Root: 100 minus the union [10,60] + [90,100] = 60. *)
  Alcotest.(check (list int)) "self times" [ 40; 22; 8; 30; 30 ] (self_of spans)

let test_self_contained () =
  (* A child inside an earlier sibling covers nothing new. *)
  let spans = [ (0, 50, -1); (10, 40, 0); (15, 20, 0); (45, 50, 0) ] in
  Alcotest.(check (list int)) "self times" [ 15; 30; 5; 5 ] (self_of spans)

let test_self_unclosed () =
  (* A span that never closed (stop < start) counts 0 and covers
     nothing of its parent. *)
  let spans = [ (0, 10, -1); (2, 0, 0); (3, 5, 0) ] in
  Alcotest.(check (list int)) "self times" [ 8; 0; 2 ] (self_of spans)

let test_self_recorded () =
  (* The same arithmetic on spans taken by the recorder itself. *)
  Spans.reset ();
  Spans.start ();
  Spans.with_span Spans.sched_run ~op:(-1) (fun () ->
      Spans.with_span Spans.t_pump ~op:(-1) (fun () ->
          Spans.with_span Spans.app ~op:7 ignore));
  Spans.stop ();
  match Spans.buffers () with
  | [ b ] ->
      Alcotest.(check int) "three spans" 3 (Spans.count b);
      Alcotest.(check int) "parent of pump" 0 (Spans.parent_of b 1);
      Alcotest.(check int) "parent of app" 1 (Spans.parent_of b 2);
      Alcotest.(check int) "op of app" 7 (Spans.op_of b 2);
      let self =
        Spans.self_times 3 ~start:(Spans.start_of b) ~stop:(Spans.stop_of b)
          ~parent:(Spans.parent_of b)
      in
      let dur i = Spans.stop_of b i - Spans.start_of b i in
      Alcotest.(check int) "self times add up to the root" (dur 0)
        (Array.fold_left ( + ) 0 self)
  | bs -> Alcotest.failf "expected one buffer, got %d" (List.length bs)

(* --- percentiles --------------------------------------------------------- *)

let percentile_of_list xs p =
  let n = List.length xs in
  let a = Bigarray.(Array1.create int c_layout (max 1 n)) in
  List.iteri (fun i x -> a.{i} <- x) xs;
  Samples.percentile a n p

let test_percentile_exact () =
  let xs = List.init 100 (fun i -> 100 - i) in
  let p q = percentile_of_list xs q in
  Alcotest.(check int) "p50 of 1..100" 50 (p 0.50);
  Alcotest.(check int) "p99 of 1..100" 99 (p 0.99);
  Alcotest.(check int) "p100 of 1..100" 100 (p 1.0);
  Alcotest.(check int) "p1 of 1..100" 1 (p 0.01);
  Alcotest.(check int) "p50 of three" 3 (percentile_of_list [ 5; 1; 3 ] 0.5);
  Alcotest.(check int) "single sample" 9 (percentile_of_list [ 9 ] 0.99);
  Alcotest.(check int) "ties" 2 (percentile_of_list [ 2; 2; 2; 1 ] 0.5)

let test_percentile_random () =
  (* Quickselect on chunked buffers agrees with sorting. *)
  let st = Random.State.make [| 42 |] in
  let bufs = List.init 3 (fun _ -> Samples.create ()) in
  let all = ref [] in
  List.iteri
    (fun k b ->
      for _ = 1 to 10_000 + (k * 7_000) do
        let v = Random.State.int st 1_000 in
        Samples.push b v;
        all := v :: !all
      done)
    bufs;
  let sorted = Array.of_list (List.sort compare !all) in
  let n = Array.length sorted in
  List.iter
    (fun p ->
      let a, m = Samples.merge bufs in
      Alcotest.(check int) "merged length" n m;
      let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
      Alcotest.(check int)
        (Printf.sprintf "p%g" (p *. 100.))
        sorted.(max 0 (rank - 1))
        (Samples.percentile a m p))
    [ 0.001; 0.25; 0.5; 0.9; 0.99; 0.999; 1.0 ]

let test_buckets () =
  (* A 1 s window from t0 = 10 s, cut into four 250 ms sub-windows. *)
  let t0 = 10_000_000_000 and q = Samples.bucket_ns in
  let lat = Samples.create () and fin = Samples.create () in
  let op ~at l =
    Samples.push lat l;
    Samples.push fin at
  in
  for i = 1 to 100 do
    op ~at:(t0 + i) (101 - i)
  done;
  op ~at:(t0 + (2 * q)) 7;
  op ~at:(t0 + (3 * q) - 1) 9;
  op ~at:(t0 - 1) 1_000;  (* before the window *)
  op ~at:(t0 + (4 * q)) 1_000;  (* after it: the drain *)
  let bs = Samples.buckets ~t0 ~window_ns:(4 * q) ~lat:[ lat ] ~fin:[ fin ] in
  let show b = (b.Samples.b_ops, b.Samples.b_p50, b.Samples.b_p99) in
  Alcotest.(check (list (triple int int int)))
    "ops, p50, p99 per sub-window"
    [ (100, 50, 99); (0, 0, 0); (2, 7, 9); (0, 0, 0) ]
    (List.map show bs);
  Alcotest.(check (float 1e-12)) "width" 0.25 (List.hd bs).Samples.b_width_s

(* --- decorator transparency ---------------------------------------------- *)

(* [n] sequential [incr] calls from one client fiber over loopback TCP,
   traced (decorated transport, wrapped codecs, recording on) or bare.
   Returns the replies and the transport's counters. *)
let short_echo ~traced n =
  Spans.reset ();
  let rt = R.create (W.tcp_config ~seed:7 ~nspaces:2 ~traced) in
  let owner = R.space rt 0 and client = R.space rt 1 in
  let count = ref 0 in
  R.publish owner "counter" (W.counter_obj ~traced owner count);
  let d = { W.slices = 0; idle = 0 } in
  let h = W.in_fiber rt d (fun () -> R.lookup client ~at:0 "counter") in
  if traced then Spans.start ();
  let m = W.m_incr ~traced in
  let replies =
    W.in_fiber rt d (fun () -> List.init n (fun op -> Stub.call client h m op))
  in
  Spans.stop ();
  ignore (W.settle rt ~limit:(W.drain_limit ()));
  let st = Transport.stats (R.transport rt) in
  Transport.close (R.transport rt);
  (replies, st, !count)

let test_decorator_transparent () =
  let n = 200 in
  let bare, sb, cb = short_echo ~traced:false n in
  let traced, st, ct = short_echo ~traced:true n in
  let spans = List.fold_left (fun acc b -> acc + Spans.count b) 0 (Spans.buffers ()) in
  Alcotest.(check bool) "spans were recorded" true (spans > n);
  Alcotest.(check (list int)) "replies" (List.init n (fun i -> i + 1)) bare;
  Alcotest.(check (list int)) "same replies" bare traced;
  Alcotest.(check int) "same counter" cb ct;
  Alcotest.(check int) "same payloads sent" sb.Transport.sent st.Transport.sent;
  Alcotest.(check int) "same messages delivered" sb.Transport.delivered
    st.Transport.delivered;
  Alcotest.(check int) "same bytes" sb.Transport.bytes st.Transport.bytes;
  Alcotest.(check int) "nothing dropped" 0 (sb.Transport.dropped + st.Transport.dropped)

let () =
  Alcotest.run "perfbench"
    [
      ( "self time",
        [
          Alcotest.test_case "overlapping children" `Quick test_self_overlapping;
          Alcotest.test_case "contained child" `Quick test_self_contained;
          Alcotest.test_case "unclosed span" `Quick test_self_unclosed;
          Alcotest.test_case "recorded spans" `Quick test_self_recorded;
        ] );
      ( "percentile",
        [
          Alcotest.test_case "nearest rank" `Quick test_percentile_exact;
          Alcotest.test_case "agrees with sorting" `Quick test_percentile_random;
          Alcotest.test_case "sub-windows" `Quick test_buckets;
        ] );
      ( "decorator",
        [ Alcotest.test_case "transparent on echo" `Quick test_decorator_transparent ] );
    ]

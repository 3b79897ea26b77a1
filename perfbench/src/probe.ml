(* Probes at the public boundaries the benchmark controls.  Each one
   either returns its argument unchanged (untraced runs pay nothing) or
   wraps it so that calls through it are recorded as {!Spans}, without
   changing what crosses the boundary: the same bytes are written, the
   same values returned, the same messages sent and delivered. *)

module R = Netobj_core.Runtime
module Pickle = Netobj_pickle.Pickle
module Wire = Netobj_pickle.Wire
module Transport = Netobj_transport.Transport

(* Method codecs: one [pickle.encode]/[pickle.decode] span per top-level
   write or read, with the bytes it produced and the words it allocated
   (including any nested reference marshalling).  [op_of] extracts the
   op number when the value carries it. *)
let codec ~traced ?(op_of = fun _ -> -1) c =
  if not traced then c
  else
    Pickle.custom ~name:(Pickle.describe c)
      ~write:(fun w v ->
        if not (Spans.on ()) then Pickle.write c w v
        else begin
          let b = Spans.buf () in
          let len0 = Wire.Writer.length w and words0 = Gc.minor_words () in
          Spans.with_span Spans.pickle_encode ~op:(op_of v) (fun () ->
              Pickle.write c w v);
          b.Spans.pickle_bytes <-
            b.Spans.pickle_bytes + (Wire.Writer.length w - len0);
          b.Spans.pickle_alloc_words <-
            b.Spans.pickle_alloc_words +. (Gc.minor_words () -. words0)
        end)
      ~read:(fun r ->
        if not (Spans.on ()) then Pickle.read c r
        else begin
          let b = Spans.buf () in
          let words0 = Gc.minor_words () in
          let i = Spans.enter Spans.pickle_decode ~op:(-1) in
          let v =
            match Pickle.read c r with
            | v -> v
            | exception e ->
                Spans.leave i;
                raise e
          in
          Spans.set_op i (op_of v);
          Spans.leave i;
          b.Spans.pickle_alloc_words <-
            b.Spans.pickle_alloc_words +. (Gc.minor_words () -. words0);
          v
        end)

(* When each reference finished unmarshalling, keyed by its wireRep, so
   the caller that receives it can time the dirty round trip it then
   blocks on.  Only used on the single-domain TCP engine. *)
let ref_read_at : (int, int) Hashtbl.t = Hashtbl.create 64

(* Network-object references: [runtime.ref_encode]/[runtime.ref_decode]
   spans around {!R.handle_codec} (pinning, surrogate lookup and the
   dirty call it may send). *)
let handle_codec ~traced =
  if not traced then R.handle_codec
  else
    Pickle.custom
      ~name:(Pickle.describe R.handle_codec)
      ~write:(fun w h ->
        Spans.with_span Spans.ref_encode ~op:(-1) (fun () ->
            Pickle.write R.handle_codec w h))
      ~read:(fun r ->
        let h =
          Spans.with_span Spans.ref_decode ~op:(-1) (fun () ->
              Pickle.read R.handle_codec r)
        in
        if Spans.on () then
          Hashtbl.replace ref_read_at
            (Netobj_core.Wirerep.key (R.wirerep h))
            (Mclock.now_ns ());
        h)

(* After a call returned reference [h]: record the time its caller was
   blocked between unmarshalling it and getting it back. *)
let ref_returned ~op h =
  let k = Netobj_core.Wirerep.key (R.wirerep h) in
  match Hashtbl.find_opt ref_read_at k with
  | Some t0 ->
      Hashtbl.remove ref_read_at k;
      Spans.record Spans.ref_wait ~op ~start:t0 ~stop:(Mclock.now_ns ())
  | None -> ()

(* The benchmark's own code (method bodies, the workers' checksum). *)
let app ~traced ?(op = -1) f =
  if traced then Spans.with_span Spans.app ~op f else f ()

let collect ~traced sp =
  if traced then Spans.with_span Spans.collect ~op:(-1) (fun () -> R.collect sp)
  else R.collect sp

(* A transport that behaves exactly as [t] does and records a span per
   post/send, flush, pump and delivered message (per message kind). *)
let decorate (t : Transport.t) : Transport.t =
  let span name f = Spans.with_span name ~op:(-1) f in
  {
    t with
    Transport.t_send =
      (fun ~src ~dst ~kind payload ->
        span Spans.t_post (fun () -> t.Transport.t_send ~src ~dst ~kind payload));
    t_post =
      (fun ~src ~dst ~kind payload ->
        span Spans.t_post (fun () -> t.Transport.t_post ~src ~dst ~kind payload));
    t_flush = (fun () -> span Spans.t_flush t.Transport.t_flush);
    t_pump =
      (fun ~timeout ->
        let n = span Spans.t_pump (fun () -> t.Transport.t_pump ~timeout) in
        if Spans.on () then begin
          let b = Spans.buf () in
          b.Spans.pumps <- b.Spans.pumps + 1;
          if n = 0 then b.Spans.empty_pumps <- b.Spans.empty_pumps + 1
        end;
        n);
    t_set_handler =
      (fun addr h ->
        t.Transport.t_set_handler addr (fun ~src ~kind ~payload ~off ~len ->
            span (Spans.recv_of_kind kind) (fun () ->
                h ~src ~kind ~payload ~off ~len)));
  }

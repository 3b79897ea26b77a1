(* One benchmark run: [main.exe --workload W --seed N --seconds S
   --trace 0|1 [--spans-out FILE]].

   The run is a sequence of segments (see {!Perfbench.Workloads}) that
   together fill about [S] seconds.  Untraced ([--trace 0]) every
   segment is untraced and the run reports the end-to-end metrics.
   Traced ([--trace 1]) untraced and traced segments alternate: the
   traced ones give the per-layer metrics, the untraced ones the base of
   [trace.overhead]; with [--spans-out] the last traced segment's spans
   are written to FILE at the end.  A segment whose correctness checks
   fail fails the run.  The host block goes to standard error; the last line of
   standard output is the JSON result. *)

open Perfbench
module W = Workloads

let usage () =
  prerr_endline
    ("usage: main.exe --workload {" ^ String.concat "|" W.names
   ^ "} --seed N --seconds S --trace 0|1 [--spans-out FILE]");
  exit 2

let args () =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None and spans_out = ref None in
  let int_arg r v = match int_of_string_opt v with Some n -> r := Some n | None -> usage () in
  let rec go = function
    | "--workload" :: v :: rest -> workload := Some v; go rest
    | "--seed" :: v :: rest -> int_arg seed v; go rest
    | "--seconds" :: v :: rest -> int_arg seconds v; go rest
    | "--trace" :: v :: rest -> int_arg trace v; go rest
    | "--spans-out" :: v :: rest -> spans_out := Some v; go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some s, Some secs, Some t when secs > 0 && (t = 0 || t = 1) ->
      (w, s, secs, t = 1, !spans_out)
  | _ -> usage ()

let host_block ~workload ~traced =
  Printf.eprintf
    "host: nproc=%d ocaml=%s domain_pool=%d clock=CLOCK_MONOTONIC \
     traffic=%s workload=%s traced=%b\n%!"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version
    (if workload = "storm" then W.pool_size W.storm_domains else 1)
    (if workload = "storm" then "in-process (no sockets)" else "loopback only (127.0.0.1)")
    workload traced

(* How long each segment measures.  Loopback TCP state (buffer sizing,
   ACK timing) and the runtime's own timers differ from one fresh
   runtime to the next, so a run is many short segments rather than a
   few long ones: medians over segments then rest on more independent
   samples.  A second holds thousands of ops on every workload. *)
let window_of seconds = Float.min 1.0 (float_of_int seconds /. 4.0)

(* The process's first seconds run cold (heap growth, first domain
   spawns, code and data not yet in cache) and read up to a third
   slower than the rest: they are checked but not measured. *)
let warmup_of seconds = Float.min 2.0 (float_of_int seconds /. 4.0)

let () =
  let workload, seed, seconds, traced, spans_out = args () in
  let run = match W.runner workload ~seed with Some r -> r | None -> usage () in
  host_block ~workload ~traced;
  let window_s = window_of seconds in
  let t_start = Mclock.now_ns () in
  let budget_ns = int_of_float (float_of_int seconds *. 1e9) in
  let untraced = ref [] and layers = Report.new_layers () in
  let checks = ref [] and warm = ref [] in
  let segment ?(warmup = false) ~traced window_s =
    (* Also clears the buffer-full flag a traced segment may have set,
       which would end an untraced window at once. *)
    Spans.reset ();
    (* Every segment starts from a collected heap, outside its timing. *)
    Gc.compact ();
    let s = run ~traced ~window_s in
    List.iter (fun c -> checks := c :: !checks) s.W.checks;
    if warmup then warm := [ s ]
    else if traced then Report.add_traced layers s
    else untraced := s :: !untraced;
    Printf.eprintf
      "segment: traced=%b ops=%d failed=%d latency_samples=%d wall=%.3fs \
       setup=%.4fs cross_shard_share=%.2f\n%!"
      traced s.W.ops s.W.failed s.W.samples s.W.wall_s s.W.setup_s
      s.W.cross_shard_share
  in
  segment ~warmup:true ~traced:false (warmup_of seconds);
  (* At least three segments of each kind; more while the next one
     still fits in the budget (the last segment's cost estimates the
     next). *)
  let k = ref 0 and last_ns = ref 0 in
  let min_rounds = 3 in
  let continue () =
    let used = Mclock.now_ns () - t_start in
    !k < min_rounds || used + !last_ns <= budget_ns
  in
  while continue () && !checks = [] do
    let t0 = Mclock.now_ns () in
    segment ~traced:false window_s;
    if traced && !checks = [] then segment ~traced:true window_s;
    last_ns := Mclock.now_ns () - t0;
    incr k
  done;
  (* Rounds end with their traced segment, so the recorder still holds
     the last traced segment's spans. *)
  (match spans_out with
  | Some f when traced ->
      let oc = open_out f in
      Spans.dump oc;
      close_out oc
  | _ -> ());
  let all = !warm @ !untraced @ layers.Report.segs in
  let attempted = List.fold_left (fun acc s -> acc + s.W.ops + s.W.failed) 0 all in
  let failed = List.fold_left (fun acc s -> acc + s.W.failed) 0 all in
  let checks = List.rev !checks in
  List.iter (fun c -> Printf.eprintf "check failed: %s\n%!" c) checks;
  if traced then
    Printf.eprintf "spans: recorded=%d misnested=%d\n%!" layers.Report.spans
      layers.Report.misnested;
  let metrics =
    if traced then Report.per_layer layers ~untraced:!untraced
    else Report.end_to_end !untraced
  in
  let correct = checks = [] && failed = 0 && attempted > 0 in
  print_endline
    (Report.result_line ~correct ~attempted:(max 1 attempted) ~failed metrics);
  exit (if correct then 0 else 1)

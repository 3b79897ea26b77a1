(* The benchmark's only clock: CLOCK_MONOTONIC in nanoseconds, read
   through bechamel's allocation-free stub.  Wall-clock time
   (gettimeofday) can step and is microsecond-quantised, so nothing in
   the benchmark uses it. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9

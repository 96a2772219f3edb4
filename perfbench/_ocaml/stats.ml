(* Measurement primitives of the benchmark: the clock and its
   overhead, exact percentiles over stored samples, a bounded sample
   store that thins itself uniformly, the Zipf key sampler and the
   open-loop pacing rule. Pure except for [now_ns], so the self-tests
   can drive every piece on synthetic inputs. *)

let now_ns = Harness.Runner.now_ns

(* Cost of one clock read, as the mean of the middle half of [n]
   back-to-back deltas: a float, so it carries all its digits. *)
let clock_overhead_ns ?(n = 20_001) () =
  let d = Array.make n 0 in
  for i = 0 to n - 1 do
    let a = now_ns () in
    let b = now_ns () in
    d.(i) <- b - a
  done;
  Array.sort compare d;
  let lo = n / 4 and hi = 3 * n / 4 in
  let s = ref 0 in
  for i = lo to hi - 1 do
    s := !s + d.(i)
  done;
  float_of_int !s /. float_of_int (hi - lo)

(* Nearest-rank percentile [num/den] of an ascending array: the
   smallest sample with at least [num/den] of all samples at or below
   it. Integer arithmetic, so p99 of 1..100 is 99, never 100. *)
let percentile sorted ~num ~den =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  if num <= 0 || num > den then invalid_arg "Stats.percentile: rank";
  let k = ((num * n) + den - 1) / den in
  sorted.(k - 1)

(* A fixed-size store of every [period]-th observation. When full it
   keeps every second sample and doubles the period, so the stored
   subset stays spread evenly over the whole run however long it
   lasts: the kept samples and the one being added all sit at
   multiples of the new period. [calls] counts every observation
   offered, sampled or not. *)
module Samples = struct
  type t = {
    buf : int array;
    mutable len : int;
    mutable period : int;
    mutable skip : int;
    mutable calls : int;
  }

  let create ?(cap = 1 lsl 17) ~period () =
    if period < 1 || cap < 2 || cap land 1 = 1 then
      invalid_arg "Samples.create";
    { buf = Array.make cap 0; len = 0; period; skip = period; calls = 0 }

  let reset s =
    s.len <- 0;
    s.calls <- 0;
    s.skip <- s.period

  (* Whether this observation is one to time. *)
  let due s =
    s.calls <- s.calls + 1;
    s.skip <- s.skip - 1;
    if s.skip = 0 then begin
      s.skip <- s.period;
      true
    end
    else false

  let add s v =
    if s.len = Array.length s.buf then begin
      let half = s.len / 2 in
      for i = 0 to half - 1 do
        s.buf.(i) <- s.buf.(2 * i)
      done;
      s.len <- half;
      s.period <- 2 * s.period;
      s.skip <- s.period
    end;
    s.buf.(s.len) <- v;
    s.len <- s.len + 1

  let merge ss =
    let total = List.fold_left (fun a s -> a + s.len) 0 ss in
    let out = Array.make total 0 in
    let pos = ref 0 in
    List.iter
      (fun s ->
        Array.blit s.buf 0 out !pos s.len;
        pos := !pos + s.len)
      ss;
    Array.sort compare out;
    out

  let mean_of sorted =
    let n = Array.length sorted in
    if n = 0 then 0.
    else float_of_int (Array.fold_left ( + ) 0 sorted) /. float_of_int n
end

(* Percentile of timed samples with the clock overhead taken off. *)
let timed_percentile sorted ~overhead ~num ~den =
  Float.max 0. (float_of_int (percentile sorted ~num ~den) -. overhead)

(* Zipf(s) over ranks 0 .. n-1 (rank r drawn with weight
   1/(r+1)^s), by inverse CDF with a binary search. *)
module Zipf = struct
  type t = float array

  let create ~n ~s : t =
    let cdf = Array.make n 0. in
    let acc = ref 0. in
    for r = 0 to n - 1 do
      acc := !acc +. (1. /. Float.pow (float_of_int (r + 1)) s);
      cdf.(r) <- !acc
    done;
    let h = !acc in
    Array.map (fun c -> c /. h) cdf

  let prob (z : t) r = if r = 0 then z.(0) else z.(r) -. z.(r - 1)

  let sample (z : t) rng =
    let u = Sched.Rng.float rng in
    let lo = ref 0 and hi = ref (Array.length z - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if z.(mid) > u then hi := mid else lo := mid + 1
    done;
    !lo
end

(* The open-loop generator. Arrival [i] is due at [t0 + i*interval];
   the generator waits for it, runs [send i], and records
   [lag] = start - due and [lat] = end - due: latency counts from
   when the arrival was due, so a stall is charged to every arrival
   that fell due during it. [after i] is the arrival's untimed
   follow-up work; it delays later arrivals but is not part of this
   one's latency. *)
let open_loop ~now ~wait ~t0 ~interval ~n ~send ~after ~record =
  for i = 0 to n - 1 do
    let due = t0 + (i * interval) in
    let t = ref (now ()) in
    while !t < due do
      wait ();
      t := now ()
    done;
    send i;
    let fin = now () in
    record ~lag:(!t - due) ~lat:(fin - due);
    after i
  done

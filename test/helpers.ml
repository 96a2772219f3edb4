(* Shared test utilities. *)

module Mm = Mm_intf
module Value = Shmem.Value
module Arena = Shmem.Arena

let tc name fn = Alcotest.test_case name `Quick fn
let tc_slow name fn = Alcotest.test_case name `Slow fn

(* The process's own stderr, taken before alcotest redirects each
   test's output into its log file: a deadline diagnostic must reach
   the console even when the test never returns to be reported. *)
let console = Unix.dup Unix.stderr

(* Run [f] under a deadline. One watchdog domain per call (not per
   worker domain) polls a done flag; if [f] has not returned after
   [seconds], it prints [name] and exits the whole run non-zero, so a
   hang fails with a diagnostic instead of stalling until the CI
   job's timeout. The watchdog sleeps in [Unix.sleepf], outside the
   runtime lock, so it never delays the workers' stop-the-world
   collections. *)
let with_deadline ~seconds name f =
  let finished = Atomic.make false in
  let watchdog =
    Domain.spawn (fun () ->
        let deadline = Unix.gettimeofday () +. seconds in
        while not (Atomic.get finished) do
          if Unix.gettimeofday () > deadline then begin
            let msg =
              Printf.sprintf "DEADLINE: %s did not finish within %.0f s\n"
                name seconds
            in
            ignore (Unix.write_substring console msg 0 (String.length msg));
            Unix._exit 124
          end;
          Unix.sleepf 0.05
        done)
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set finished true;
      Domain.join watchdog)
    f

(* A test case whose body spawns domains, run under {!with_deadline}.
   The 300 s budget is far above any such test's normal running time,
   sanitizer builds included. *)
let tc_domains name fn =
  tc name (fun () -> with_deadline ~seconds:300. name fn)

(* QCheck_alcotest tags everything `Slow; re-tag as `Quick so the
   property tests run in every `dune runtest`. *)
let qc ?(count = 200) name gen prop =
  let n, _speed, fn =
    QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)
  in
  (n, `Quick, fn)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let fails_with ?substring f =
  match f () with
  | _ -> Alcotest.fail "expected an exception"
  | exception e -> (
      match substring with
      | None -> ()
      | Some s ->
          let msg = Printexc.to_string e in
          if not (contains msg s) then
            Alcotest.failf "expected exception mentioning %S, got %S" s msg)

(* Standard configs *)
let small_cfg ?backend ?(threads = 2) ?(capacity = 16) ?(num_links = 1)
    ?(num_data = 1) ?(num_roots = 2) () =
  Mm.config ?backend ~threads ~capacity ~num_links ~num_data ~num_roots ()

let all_schemes = Harness.Registry.names
let rc_schemes = Harness.Registry.rc_names

let mm_of scheme cfg = Harness.Registry.instantiate scheme cfg

(* Test-name label for a scheme; a Native-backend run is tagged so its
   cases sit beside the default Sim ones under distinct names. *)
let scheme_label ?backend scheme =
  match backend with
  | Some Atomics.Backend.Native -> scheme ^ " native"
  | _ -> scheme

(* The DeRefLinks [f] issues, read as a delta of [mm]'s [Deref]
   counter. *)
let derefs mm f =
  let c = Mm.counters mm in
  let before = Atomics.Counters.(total c Deref) in
  f ();
  Atomics.Counters.(total c Deref) - before

(* Assert no leak: every node is back in the allocator's custody. *)
let assert_all_free ?(reserved = 0) mm =
  let cfg = Mm.conf mm in
  Mm.validate mm;
  check_int "all nodes free (minus reserved)" (cfg.capacity - reserved)
    (Mm.free_count mm)

(* Run a deterministic-scheduler sweep and fail the test on the first
   counterexample, printing the schedule for replay. *)
let sweep_ok ?(runs = 200) ?(seed = 9_000) ~threads mk =
  match (Sched.Explore.random_sweep ~threads ~runs ~seed mk).failure with
  | None -> ()
  | Some f ->
      Alcotest.failf "schedule violation: %s" (Sched.Explore.failure_message f)

let exhaustive_ok ?(max_schedules = 20_000) ~threads mk =
  let r = Sched.Explore.exhaustive ~max_schedules ~threads mk in
  (match r.failure with
  | None -> ()
  | Some f ->
      Alcotest.failf "exhaustive violation: %s"
        (Sched.Explore.failure_message f));
  r

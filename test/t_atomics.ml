(* Primitives, counters, backoff and the scheduling hook. *)

open Helpers
module P = Atomics.Primitives
module C = Atomics.Counters

let primitives_tests =
  [
    tc "figure 2 semantics" (fun () ->
        let c = P.make 10 in
        check_int "read" 10 (P.read c);
        P.write c 20;
        check_int "write" 20 (P.read c);
        check_int "faa returns old" 20 (P.faa c 5);
        check_int "faa added" 25 (P.read c);
        check_int "faa negative" 25 (P.faa c (-10));
        check_int "after" 15 (P.read c);
        check_bool "cas hit" true (P.cas c ~old:15 ~nw:1);
        check_bool "cas miss leaves value" false (P.cas c ~old:15 ~nw:99);
        check_int "value" 1 (P.read c);
        check_int "swap returns old" 1 (P.swap c 7);
        check_int "swap stored" 7 (P.read c));
    tc "parallel faa counter is exact" (fun () ->
        let c = P.make 0 in
        let domains =
          Array.init 4 (fun _ ->
              Domain.spawn (fun () ->
                  for _ = 1 to 10_000 do
                    ignore (P.faa c 1)
                  done))
        in
        Array.iter Domain.join domains;
        check_int "sum" 40_000 (P.read c));
    tc "parallel cas increments are exact" (fun () ->
        let c = P.make 0 in
        let domains =
          Array.init 3 (fun _ ->
              Domain.spawn (fun () ->
                  for _ = 1 to 2_000 do
                    let rec incr () =
                      let v = P.read c in
                      if not (P.cas c ~old:v ~nw:(v + 1)) then incr ()
                    in
                    incr ()
                  done))
        in
        Array.iter Domain.join domains;
        check_int "sum" 6_000 (P.read c));
  ]

let schedpoint_tests =
  [
    tc "default hook is a no-op" (fun () ->
        Atomics.Schedpoint.reset ();
        check_bool "not installed" false (Atomics.Schedpoint.is_installed ());
        Atomics.Schedpoint.hit () (* must not raise *));
    tc "with_hook counts primitive crossings" (fun () ->
        let n = ref 0 in
        Atomics.Schedpoint.with_hook
          (fun () -> incr n)
          (fun () ->
            let c = P.make 0 in
            ignore (P.read c);
            ignore (P.faa c 1);
            ignore (P.swap c 2);
            ignore (P.cas c ~old:2 ~nw:3);
            P.write c 4);
        check_int "five crossings" 5 !n;
        check_bool "restored" false (Atomics.Schedpoint.is_installed ()));
    tc "with_hook restores on exception" (fun () ->
        (try
           Atomics.Schedpoint.with_hook ignore (fun () -> failwith "boom")
         with Failure _ -> ());
        check_bool "restored" false (Atomics.Schedpoint.is_installed ()));
  ]

let counters_tests =
  [
    tc "incr/add/get/total" (fun () ->
        let t = C.create ~threads:3 () in
        C.incr t ~tid:0 Alloc;
        C.add t ~tid:1 Alloc 4;
        C.incr t ~tid:2 Free;
        check_int "tid0" 1 (C.get t ~tid:0 Alloc);
        check_int "tid1" 4 (C.get t ~tid:1 Alloc);
        check_int "total alloc" 5 (C.total t Alloc);
        check_int "total free" 1 (C.total t Free);
        check_int "untouched" 0 (C.total t Cas_failure));
    tc "reset clears everything" (fun () ->
        let t = C.create ~threads:2 () in
        C.add t ~tid:0 Deref 9;
        C.reset t;
        check_int "cleared" 0 (C.total t Deref));
    tc "snapshot lists only non-zero events" (fun () ->
        let t = C.create ~threads:1 () in
        C.incr t ~tid:0 Swap;
        C.add t ~tid:0 Release 3;
        let snap = C.snapshot t in
        check_int "two entries" 2 (List.length snap);
        check_bool "has swap" true (List.mem_assoc C.Swap snap));
    tc "bad tid rejected" (fun () ->
        let t = C.create ~threads:2 () in
        fails_with (fun () -> C.incr t ~tid:2 Alloc);
        fails_with (fun () -> C.get t ~tid:(-1) Alloc));
    tc "event names unique" (fun () ->
        let names = List.map C.event_name C.all_events in
        check_int "no duplicates"
          (List.length names)
          (List.length (List.sort_uniq compare names)));
    tc "parallel per-thread increments don't interfere" (fun () ->
        let t = C.create ~threads:4 () in
        let domains =
          Array.init 4 (fun tid ->
              Domain.spawn (fun () ->
                  for _ = 1 to 5_000 do
                    C.incr t ~tid Cas_attempt
                  done))
        in
        Array.iter Domain.join domains;
        check_int "total" 20_000 (C.total t Cas_attempt);
        for tid = 0 to 3 do
          check_int "per thread" 5_000 (C.get t ~tid Cas_attempt)
        done);
  ]

let backoff_tests =
  [
    tc "doubles up to max" (fun () ->
        let b = Atomics.Backoff.create ~min:2 ~max:16 () in
        check_int "start" 2 (Atomics.Backoff.current b);
        Atomics.Backoff.once b;
        check_int "doubled" 4 (Atomics.Backoff.current b);
        Atomics.Backoff.once b;
        Atomics.Backoff.once b;
        Atomics.Backoff.once b;
        check_int "capped" 16 (Atomics.Backoff.current b);
        Atomics.Backoff.reset b;
        check_int "reset" 2 (Atomics.Backoff.current b));
    tc "invalid bounds rejected" (fun () ->
        fails_with (fun () -> Atomics.Backoff.create ~min:0 ~max:4 ());
        fails_with (fun () -> Atomics.Backoff.create ~min:8 ~max:4 ()));
    tc "under a hook it yields instead of spinning" (fun () ->
        let hits = ref 0 in
        Atomics.Schedpoint.with_hook
          (fun () -> incr hits)
          (fun () ->
            let b = Atomics.Backoff.create ~min:1024 ~max:4096 () in
            Atomics.Backoff.once b);
        check_int "one yield, no spin" 1 !hits);
  ]

(* Park/unpark eventcount: the prepare/re-check/park discipline, the
   waiter accounting wake relies on for Park_wake counting, and an
   actual cross-domain sleep/wake round trip. *)
module Park = Atomics.Park

let park_tests =
  [
    tc "wake with no waiters is cheap and false" (fun () ->
        let p = Park.create () in
        check_int "no waiters" 0 (Park.waiters p);
        check_bool "nothing woken" false (Park.wake p));
    tc "prepare registers, cancel deregisters" (fun () ->
        let p = Park.create () in
        let _gen = Park.prepare p in
        check_int "registered" 1 (Park.waiters p);
        Park.cancel p;
        check_int "deregistered" 0 (Park.waiters p));
    tc "wake reports a registered parker" (fun () ->
        let p = Park.create () in
        let gen = Park.prepare p in
        check_bool "parker seen" true (Park.wake p);
        (* generation already moved past [gen]: park returns at once *)
        Park.park p ~gen ~timeout_ns:(-1);
        check_int "deregistered on return" 0 (Park.waiters p));
    tc "timed park returns on timeout" (fun () ->
        let p = Park.create () in
        let gen = Park.prepare p in
        (* nobody will ever wake: only the timeout lets this return *)
        Park.park p ~gen ~timeout_ns:5_000_000 (* 5ms *);
        check_int "deregistered" 0 (Park.waiters p));
    tc "cross-domain wake ends an untimed park" (fun () ->
        let p = Park.create () in
        let woken = Atomic.make false in
        let d =
          Domain.spawn (fun () ->
              let gen = Park.prepare p in
              Park.park p ~gen ~timeout_ns:(-1);
              Atomic.set woken true)
        in
        (* wait until the parker is registered, then wake it *)
        while Park.waiters p = 0 do
          Domain.cpu_relax ()
        done;
        while not (Park.wake p) && not (Atomic.get woken) do
          Domain.cpu_relax ()
        done;
        Domain.join d;
        check_bool "parker resumed" true (Atomic.get woken));
    (* Lost-wakeup regression: one wake that saw the parker registered
       must end its untimed park, with no condition to re-check. A
       parker still asleep after the deadline is rescued by more wakes
       so the test fails instead of hanging. *)
    tc "untimed park/wake handshake never loses a wake (200 rounds)"
      (fun () ->
        let deadline_s = 5.0 in
        for round = 1 to 200 do
          let p = Park.create () in
          let woken = Atomic.make false in
          let d =
            Domain.spawn (fun () ->
                let gen = Park.prepare p in
                Park.park p ~gen ~timeout_ns:(-1);
                Atomic.set woken true)
          in
          while Park.waiters p = 0 do
            Domain.cpu_relax ()
          done;
          (* [false] only if a spurious return already deregistered it *)
          ignore (Park.wake p);
          let t0 = Unix.gettimeofday () in
          while
            (not (Atomic.get woken)) && Unix.gettimeofday () -. t0 < deadline_s
          do
            Domain.cpu_relax ()
          done;
          let lost = not (Atomic.get woken) in
          while not (Atomic.get woken) do
            ignore (Park.wake p);
            Unix.sleepf 0.001
          done;
          Domain.join d;
          if lost then Alcotest.failf "round %d: wake lost" round
        done);
  ]

(* Timed-park liveness: the OOM degradation path (Freestore.wait_free,
   Chaos stalls) leans on [park ~timeout_ns] returning without any
   waker, including under wake storms that race the prepare/park
   window. A hang here is an unbounded alloc wait. *)
let park_timeout_tests =
  [
    tc "park with a zero timeout returns at once" (fun () ->
        let p = Park.create () in
        let gen = Park.prepare p in
        Park.park p ~gen ~timeout_ns:0;
        check_int "deregistered" 0 (Park.waiters p));
    qc ~count:25 "timed park with no waker returns for any timeout"
      QCheck.(int_range 0 1_000_000)
      (fun timeout_ns ->
        let p = Park.create () in
        let gen = Park.prepare p in
        Park.park p ~gen ~timeout_ns;
        Park.waiters p = 0);
    tc "timed park never hangs under a spurious-wake storm" (fun () ->
        let p = Park.create () in
        let stop = Atomic.make false in
        let storm =
          Domain.spawn (fun () ->
              while not (Atomic.get stop) do
                ignore (Park.wake p);
                Domain.cpu_relax ()
              done)
        in
        (* every park either times out or is woken spuriously; either
           way it must return and leave no waiter registered *)
        for _ = 1 to 100 do
          let gen = Park.prepare p in
          Park.park p ~gen ~timeout_ns:1_000_000
        done;
        Atomic.set stop true;
        Domain.join storm;
        check_int "no waiter left behind" 0 (Park.waiters p));
    tc "wake racing the prepare/park window still lets park return"
      (fun () ->
        let p = Park.create () in
        for _ = 1 to 50 do
          let gen = Park.prepare p in
          (* the generation moves before we sleep: park must notice
             and return immediately, not wait out the timeout *)
          ignore (Park.wake p);
          let t0 = Unix.gettimeofday () in
          Park.park p ~gen ~timeout_ns:2_000_000_000;
          let dt = Unix.gettimeofday () -. t0 in
          check_bool "returned well before the 2s timeout" true (dt < 1.0)
        done;
        check_int "no waiter left behind" 0 (Park.waiters p));
  ]

let once_waiting_tests =
  [
    tc "sim: once_waiting is exactly once — ready never consulted" (fun () ->
        let hits = ref 0 in
        Atomics.Schedpoint.with_hook
          (fun () -> incr hits)
          (fun () ->
            let b = Atomics.Backoff.create ~min:2 ~max:8 () in
            Atomics.Backoff.once_waiting b ~ready:(fun () ->
                Alcotest.fail "ready consulted under Sim"));
        check_int "one scheduling point" 1 !hits);
    tc "native without a park spot never blocks" (fun () ->
        let b =
          Atomics.Backoff.create ~backend:Atomics.Backend.Native ~min:1 ~max:2
            ()
        in
        (* saturate the budget, then keep going: must stay a spin *)
        for _ = 1 to 10 do
          Atomics.Backoff.once_waiting b ~ready:(fun () -> false)
        done);
    tc "native with a park spot sleeps only when not ready" (fun () ->
        let p = Park.create () in
        let parks = ref 0 in
        let b =
          Atomics.Backoff.create ~backend:Atomics.Backend.Native ~min:1 ~max:2
            ~park:p
            ~on_park:(fun () -> incr parks)
            ()
        in
        (* ready re-check true: registers, re-checks, cancels — no sleep *)
        for _ = 1 to 10 do
          Atomics.Backoff.once_waiting b ~ready:(fun () -> true)
        done;
        check_int "never slept" 0 !parks;
        check_int "no waiter left behind" 0 (Park.waiters p);
        (* not ready: a remote domain publishes and wakes *)
        let stop = Atomic.make false in
        let waker =
          Domain.spawn (fun () ->
              while not (Atomic.get stop) do
                ignore (Park.wake p);
                Domain.cpu_relax ()
              done)
        in
        for _ = 1 to 10 do
          Atomics.Backoff.once_waiting b ~ready:(fun () -> false)
        done;
        Atomic.set stop true;
        Domain.join waker;
        check_bool "budget saturation reached the park tail" true (!parks > 0));
  ]

let suite =
  primitives_tests @ schedpoint_tests @ counters_tests @ backoff_tests
  @ park_tests @ park_timeout_tests @ once_waiting_tests

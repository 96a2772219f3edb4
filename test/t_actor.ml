(* The actor/mailbox runtime (lib/actor) and the bugfix sweep that
   rode along with it: MPSC mailbox linearizability across all six
   schemes, crash-mid-send custody under the deterministic scheduler,
   timer-deadline saturation, the registry sizing probe, mailbox
   teardown idempotency, the per-thread op split, and the audit's
   deferred-closure regression the service workload exposed. *)

open Helpers
module B = Atomics.Backend
module Service = Actor.Service
module Timer = Actor.Timer
module Queue = Structures.Queue
module Hmap = Structures.Hmap
module Audit = Harness.Audit
module Recovery = Harness.Recovery
module Workload = Harness.Workload
module Rng = Sched.Rng
module Queue_check = Lincheck.Checker.Make (Lincheck.Specs.Queue_ops)

(* ---------------- MPSC mailbox lincheck bed ------------------------- *)

(* The service uses each Queue as an MPSC mailbox: any thread
   enqueues, the (current) owner dequeues, and ownership itself can
   migrate. The bed runs producer+consumer on one thread against a
   pure producer on the other — the smallest history shape with both
   contended enqueues and an owner racing them. *)
let mk_mailbox scheme () =
  let cfg = small_cfg ~threads:2 ~capacity:16 () in
  let mm = mm_of scheme cfg in
  let q = Queue.create mm ~head_root:0 ~tail_root:1 ~tid:0 in
  let hist = Lincheck.History.create ~threads:2 in
  let enq tid v =
    ignore
      (Lincheck.History.record hist ~tid (Lincheck.Specs.Queue_ops.Enq v)
         (fun () ->
           Queue.enqueue q ~tid v;
           Lincheck.Specs.Queue_ops.Unit))
  and deq tid =
    ignore
      (Lincheck.History.record hist ~tid Lincheck.Specs.Queue_ops.Deq
         (fun () ->
           match Queue.dequeue q ~tid with
           | Some v -> Lincheck.Specs.Queue_ops.Value v
           | None -> Lincheck.Specs.Queue_ops.Empty))
  in
  let body tid =
    if tid = 0 then begin
      enq 0 10;
      deq 0;
      deq 0
    end
    else begin
      enq 1 20;
      enq 1 21
    end
  in
  let check () =
    if not (Queue_check.check (Lincheck.History.events hist)) then
      failwith "mailbox history not linearizable"
  in
  (body, check)

let mailbox_tests =
  List.map
    (fun scheme ->
      tc (scheme ^ ": MPSC mailbox sweeps linearizable") (fun () ->
          sweep_ok ~runs:150 ~seed:64_000 ~threads:2 (mk_mailbox scheme)))
    all_schemes

(* ---------------- Crash-mid-send custody (Sim fault sweep) ---------- *)

(* E18's sim leg, miniature and pinned: the victim sends forever and
   is crashed mid-traffic; after the survivors drain and the service
   tears down, recovery must leave nothing leaked — the stranded
   mailbox nodes land in the crash_held class and come back. Swept
   over 60 seeds so the crash lands in every hp/ebr window where the
   victim holds a node outside its custody records (custody.in_hand):
   the pool pop before the hazard publish or the link, the unlink
   before the retire, the reclaim before the pool push. *)
let crash_mid_send scheme ~seed =
  let threads = 3 and actors = 8 and buckets = 8 in
  let victim = threads - 1 in
  let capacity = (2 * buckets) + 2 + (2 * actors) + 128 in
  let cfg =
    Service.mm_config ~backend:B.Sim ~threads ~capacity ~max_actors:actors
      ~buckets ()
  in
  let mm = mm_of scheme cfg in
  let svc = Service.create mm ~max_actors:actors ~buckets ~seed ~tid:0 in
  let published = Array.init actors (fun _ -> Atomic.make (-1)) in
  for _ = 1 to 5 do
    match Service.spawn svc ~tid:0 with
    | Some id -> Atomic.set published.(id mod actors) id
    | None -> ()
  done;
  let rngs = Workload.per_thread ~threads ~seed:(seed + 1) (fun rng -> rng) in
  let body tid =
    let rng = rngs.(tid) in
    let n = if tid = victim then max_int else 40 in
    for _ = 1 to n do
      let dst = Atomic.get published.(Rng.int rng actors) in
      if dst >= 0 then
        if Rng.int rng 3 = 0 then ignore (Service.receive svc ~tid ~self:dst)
        else ignore (Service.send svc ~tid ~dst 7)
    done
  in
  let faults = [ Sched.Fault.crash ~tid:victim ~at_step:(150 + seed) ] in
  match
    Sched.Engine.run ~max_steps:300_000 ~faults ~threads
      ~policy:(Sched.Policy.random ~seed:(seed + 2))
      body
  with
  | _ ->
      Harness.Exp_support.drain_survivors mm ~survivors:[ 0; 1 ];
      ignore (Service.teardown svc ~tid:0);
      let o = Recovery.run ~dead:[ victim ] ~by:0 mm in
      check_int (scheme ^ ": pre-recovery leaked") 0
        o.Recovery.pre.Audit.leaked;
      check_int (scheme ^ ": post-recovery leaked") 0
        o.Recovery.post.Audit.leaked;
      check_bool (scheme ^ ": post-recovery audit ok") true
        (Audit.ok o.Recovery.post)
  | exception Sched.Engine.Out_of_steps ->
      (* Only the lock-based scheme may block here: the victim died
         holding the lock and the survivors spin forever — the
         paper's §1 blocking argument (E10). Non-blocking schemes
         must always finish. *)
      if scheme <> "lockrc" then
        Alcotest.fail (scheme ^ ": engine ran out of steps")

let fault_tests =
  [
    tc "crash-mid-send strands crash_held, recovers leak-free (all schemes)"
      (fun () ->
        List.iter
          (fun scheme ->
            for seed = 1 to 60 do
              crash_mid_send scheme ~seed
            done)
          all_schemes);
  ]

(* ---------------- Routing by the slot in the id --------------------- *)

(* [send] takes the slot from the id itself and lets the guard's
   generation check decide liveness, so it issues no registry
   DeRefLink: a live send costs exactly the tail deref of
   [Queue.link_last], a dead or negative id none at all. Two buckets
   for eight actors put four ids on every chain, so a registry lookup
   would show up as extra derefs. *)
let route_tests =
  List.map
    (fun backend ->
      tc
        (Printf.sprintf "wfrc %s: send routes by slot, 1 deref live, 0 dead"
           (B.name backend))
        (fun () ->
          let actors = 8 and buckets = 2 in
          let cfg =
            Service.mm_config ~backend ~threads:1 ~capacity:64
              ~max_actors:actors ~buckets ()
          in
          let mm = mm_of "wfrc" cfg in
          let svc =
            Service.create mm ~max_actors:actors ~buckets ~seed:5 ~tid:0
          in
          let derefs = derefs mm in
          let ids =
            List.init actors (fun _ -> Option.get (Service.spawn svc ~tid:0))
          in
          List.iter
            (fun id ->
              check_int "live send" 1
                (derefs (fun () ->
                     check_bool "delivered" true
                       (Service.send svc ~tid:0 ~dst:id 1))))
            ids;
          let a = List.hd ids in
          check_bool "retired" true (Service.retire svc ~tid:0 a);
          let dropped () = (Service.totals svc).Service.send_drop in
          let drops = dropped () in
          let dead dst =
            check_int
              (Printf.sprintf "send to %d" dst)
              0
              (derefs (fun () ->
                   check_bool "dropped" false (Service.send svc ~tid:0 ~dst 2)))
          in
          dead a;
          dead (-1);
          check_int "both drops counted" (drops + 2) (dropped ());
          (* the stale id still drops once its slot is live again *)
          let b = Option.get (Service.spawn svc ~tid:0) in
          check_int "slot recycled" (a mod actors) (b mod actors);
          dead a;
          check_int "live send to the new id" 1
            (derefs (fun () ->
                 check_bool "delivered" true (Service.send svc ~tid:0 ~dst:b 3)));
          ignore (Service.teardown svc ~tid:0);
          let r = Audit.run mm in
          check_bool "audit ok" true (Audit.ok r)))
    [ B.Sim; B.Native ]

(* Thread 0 keeps sending to id [a] while thread 1 retires [a] and
   spawns [b], which lands in [a]'s slot whenever the retire did not
   have to park it as a zombie. Whatever the interleaving, [b] never
   receives a message meant for [a], and every message the service
   accepted is received or discarded. *)
let a_tag = 1 and b_tag = 2

let mk_stale scheme ~recycled () =
  let actors = 2 and buckets = 2 in
  let cfg =
    Service.mm_config ~backend:B.Sim ~threads:2 ~capacity:64
      ~max_actors:actors ~buckets ()
  in
  let mm = mm_of scheme cfg in
  let svc = Service.create mm ~max_actors:actors ~buckets ~seed:9 ~tid:0 in
  (* slot 1 is on thread 1's free list, so its retire returns the slot
     to the list its spawn pops *)
  let a = Option.get (Service.spawn svc ~tid:1) in
  let b = ref (-1) and got_b = ref [] and stop = Atomic.make false in
  let rec drain ~tid id =
    match Service.receive svc ~tid ~self:id with
    | Some v ->
        got_b := v :: !got_b;
        drain ~tid id
    | None -> ()
  in
  let body tid =
    if tid = 0 then
      let i = ref 0 in
      while (not (Atomic.get stop)) && !i < 10_000 do
        incr i;
        ignore (Service.send svc ~tid ~dst:a a_tag);
        (* a dropped send crosses no scheduling point; yield so the
           sends spread over thread 1's retire and spawn *)
        Atomics.Schedpoint.hit ()
      done
    else begin
      ignore (Service.receive svc ~tid ~self:a);
      ignore (Service.retire svc ~tid a);
      match Service.spawn svc ~tid with
      | None -> ()
      | Some id ->
          b := id;
          ignore (Service.send svc ~tid ~dst:id b_tag);
          drain ~tid id
    end;
    if tid = 1 then Atomic.set stop true
  in
  let check () =
    (* a stale send that landed after [b]'s own drain is still queued *)
    if !b >= 0 then drain ~tid:0 !b;
    List.iter
      (fun v -> if v <> b_tag then failwith (Printf.sprintf "b received %d" v))
      !got_b;
    if !b >= 0 && !b mod actors = a mod actors then incr recycled;
    let leftover = Service.teardown svc ~tid:0 in
    let tot = Service.totals svc in
    if tot.Service.sent <> tot.Service.received + tot.Service.discarded + leftover
    then
      failwith
        (Printf.sprintf "sent %d <> received %d + discarded %d + %d"
           tot.Service.sent tot.Service.received tot.Service.discarded leftover);
    let r = Audit.run mm in
    if not (Audit.ok r) then failwith (Audit.to_string r)
  in
  (body, check)

let stale_tests =
  List.map
    (fun scheme ->
      tc (scheme ^ ": stale id never reaches the slot's new actor") (fun () ->
          let recycled = ref 0 in
          sweep_ok ~runs:200 ~seed:71_000 ~threads:2
            (mk_stale scheme ~recycled);
          check_bool "slot recycled in some schedules" true (!recycled > 0)))
    all_schemes

(* The same race with real parallelism: domain 0 sends to 16 actors
   and retires+respawns one on ~1% of sends, domain 1 drains them
   round-robin. A message carries its send sequence number above the
   destination id, so the drainer checks both the destination and the
   per-actor FIFO order. After each respawn the sender also sends to
   the id it just retired, which must be refused — not delivered to
   the actor now in that slot, where the drainer would see it. *)
let native_race_tests =
  [
    tc "wfrc native: send/retire/spawn race conserves messages" (fun () ->
        let threads = 2 and actors = 16 and max_actors = 256 in
        let buckets = 16 and sends = 20_000 and id_bits = 20 in
        let cfg =
          Service.mm_config ~backend:B.Native ~threads ~capacity:16_384
            ~max_actors ~buckets ()
        in
        let mm = mm_of "wfrc" cfg in
        let svc =
          Service.create mm ~max_actors ~buckets ~seed:13 ~tid:0
        in
        let table =
          Array.init actors (fun _ ->
              Atomic.make (Option.get (Service.spawn svc ~tid:0)))
        in
        let finished = Atomic.make false in
        let accepted = ref 0 and delivered = ref 0 in
        let misrouted = ref 0 and out_of_order = ref 0 in
        let stale_accepted = ref 0 in
        ignore
          (Harness.Runner.run ~threads (fun ~tid ->
               if tid = 0 then begin
                 let rng = Rng.create 17 in
                 for seq = 1 to sends do
                   let k = Rng.int rng actors in
                   let id = Atomic.get table.(k) in
                   if id >= 0 then begin
                     assert (id < 1 lsl id_bits);
                     if Service.send svc ~tid ~dst:id ((seq lsl id_bits) lor id)
                     then incr accepted;
                     if Rng.int rng 100 = 0 then begin
                       ignore (Service.retire svc ~tid id);
                       Atomic.set table.(k)
                         (match Service.spawn svc ~tid with
                         | Some fresh -> fresh
                         | None -> -1);
                       if Service.send svc ~tid ~dst:id ((seq lsl id_bits) lor id)
                       then incr stale_accepted
                     end
                   end
                 done;
                 Atomic.set finished true
               end
               else begin
                 let last = Hashtbl.create 64 in
                 let rec drain id =
                   match Service.receive svc ~tid ~self:id with
                   | None -> ()
                   | Some v ->
                       incr delivered;
                       if v land ((1 lsl id_bits) - 1) <> id then
                         incr misrouted;
                       let seq = v lsr id_bits in
                       (match Hashtbl.find_opt last id with
                       | Some prev when prev >= seq -> incr out_of_order
                       | _ -> ());
                       Hashtbl.replace last id seq;
                       drain id
                 in
                 let rec poll () =
                   let fin = Atomic.get finished in
                   Array.iter
                     (fun cell ->
                       let id = Atomic.get cell in
                       if id >= 0 then drain id)
                     table;
                   if not fin then poll ()
                 in
                 poll ()
               end));
        let leftover = Service.teardown svc ~tid:0 in
        let tot = Service.totals svc in
        check_int "stale sends accepted" 0 !stale_accepted;
        check_int "misrouted" 0 !misrouted;
        check_int "out of order" 0 !out_of_order;
        check_int "sent = accepted" !accepted tot.Service.sent;
        check_int "received = delivered" !delivered tot.Service.received;
        check_int "sent = received + discarded" tot.Service.sent
          (tot.Service.received + tot.Service.discarded + leftover);
        check_bool "some retires" true (tot.Service.retired > 0);
        let r = Audit.run mm in
        check_int "leaked" 0 r.Audit.leaked;
        check_bool "audit ok" true (Audit.ok r));
  ]

(* ---------------- Timer-deadline saturation ------------------------- *)

let timer_tests =
  [
    tc "deadline saturates into the skiplist key range" (fun () ->
        (* overflow past max_int degrades to "effectively never" *)
        check_int "max timeout clamps" (max_int - 1)
          (Timer.deadline ~now_ns:0 ~timeout_ns:max_int);
        check_int "overflowing sum clamps"
          (max_int - 1)
          (Timer.deadline ~now_ns:(max_int - 5) ~timeout_ns:max_int);
        (* the reserved sentinel keys are never produced *)
        let lo = Timer.deadline ~now_ns:min_int ~timeout_ns:0 in
        check_bool "low end above min_int" true (lo > min_int);
        let d = Timer.deadline ~now_ns:100 ~timeout_ns:23 in
        check_int "ordinary sums untouched" 123 d);
    tc "boundary deadlines are schedulable; raw max_int still rejected"
      (fun () ->
        let cfg =
          Service.mm_config ~backend:B.Sim ~threads:1 ~capacity:64
            ~max_actors:4 ~buckets:4 ()
        in
        let mm = mm_of "wfrc" cfg in
        let svc = Service.create mm ~max_actors:4 ~buckets:4 ~seed:7 ~tid:0 in
        (match Service.wheel svc with
        | None -> Alcotest.fail "wfrc service must have a wheel"
        | Some w ->
            Timer.schedule w ~tid:0
              ~deadline:(Timer.deadline ~now_ns:0 ~timeout_ns:max_int)
              1;
            Timer.schedule w ~tid:0
              ~deadline:(Timer.deadline ~now_ns:min_int ~timeout_ns:0)
              2;
            fails_with ~substring:"reserved" (fun () ->
                Timer.schedule w ~tid:0 ~deadline:max_int 3);
            check_int "both boundary timers drain" 2
              (List.length (Timer.drain w ~tid:0)));
        ignore (Service.teardown svc ~tid:0));
  ]

(* ---------------- Registry sizing probe ----------------------------- *)

let probe_tests =
  [
    tc "probe surfaces the fixed-bucket degradation" (fun () ->
        let actors = 32 and buckets = 4 in
        let capacity = (2 * buckets) + 2 + (2 * actors) + 64 in
        let cfg =
          Service.mm_config ~backend:B.Sim ~threads:1 ~capacity
            ~max_actors:actors ~buckets ()
        in
        let mm = mm_of "wfrc" cfg in
        let svc =
          Service.create mm ~max_actors:actors ~buckets ~seed:3 ~tid:0
        in
        let spawned = ref 0 in
        for _ = 1 to actors do
          if Service.spawn svc ~tid:0 <> None then incr spawned
        done;
        check_bool "spawned enough to overload" true (!spawned >= 16);
        let p = Service.probe svc ~tid:0 in
        check_int "entries" !spawned p.Hmap.entries;
        check_bool "load factor is entries per bucket" true
          (abs_float (p.Hmap.load -. (float_of_int !spawned /. 4.)) < 0.01);
        check_bool "pigeonhole: some chain at least n/buckets" true
          (p.Hmap.max_chain * buckets >= !spawned);
        ignore (Service.teardown svc ~tid:0));
  ]

(* ---------------- Mailbox teardown idempotency ---------------------- *)

let destroy_tests =
  [
    tc "destroy is idempotent and finishes a crashed destroy (all schemes)"
      (fun () ->
        List.iter
          (fun scheme ->
            let cfg = small_cfg ~threads:1 ~capacity:16 () in
            let mm = mm_of scheme cfg in
            let q = Queue.create mm ~head_root:0 ~tail_root:1 ~tid:0 in
            Queue.enqueue q ~tid:0 1;
            Queue.enqueue q ~tid:0 2;
            check_int (scheme ^ ": leftovers discarded") 2
              (Queue.destroy q ~tid:0);
            check_int (scheme ^ ": second destroy is a no-op") 0
              (Queue.destroy q ~tid:0);
            (* a destroyer that crashed between the two root stores:
               head already null, tail still pinning the sentinel *)
            let q2 = Queue.create mm ~head_root:0 ~tail_root:1 ~tid:0 in
            let arena = Mm.arena mm in
            Mm.store_link mm ~tid:0 (Arena.root_addr arena 0) Value.null;
            check_int (scheme ^ ": adopting destroy finishes the clearing")
              0
              (Queue.destroy q2 ~tid:0);
            let r = Audit.run mm in
            check_int (scheme ^ ": nothing reachable") 0 r.Audit.reachable;
            check_int (scheme ^ ": nothing leaked") 0 r.Audit.leaked)
          all_schemes);
  ]

(* ---------------- Workload split (completed-ops rounding) ----------- *)

let split_tests =
  [
    tc "split_ops: completed equals requested over odd combos" (fun () ->
        List.iter
          (fun (threads, ops) ->
            let c = Workload.split_ops ~threads ~ops in
            check_int
              (Printf.sprintf "%d threads / %d ops sum" threads ops)
              ops
              (Array.fold_left ( + ) 0 c);
            let mx = Array.fold_left max 0 c
            and mn = Array.fold_left min max_int c in
            check_bool "spread stays within one op" true (mx - mn <= 1))
          [
            (3, 200_000);
            (7, 199_999);
            (6, 1);
            (4, 0);
            (5, 23);
            (16, 1_000_003);
          ]);
  ]

(* ---------------- Audit deferred closure ---------------------------- *)

(* Regression for the service-teardown leak misreport: a node whose
   reclamation waits on a buffered decrement keeps its whole link
   chain waiting with it, and the auditor must class that chain
   deferred (flush-reclaimable), not leaked. Build the exact shape:
   a -> b where b's own decrement has already flushed and a's is
   still parked. *)
let closure_tests =
  [
    tc "chain behind a parked decrement audits deferred, not leaked"
      (fun () ->
        let cfg =
          Mm.config ~backend:B.Sim ~threads:1 ~capacity:8 ~num_links:1
            ~num_data:1 ~num_roots:1 ~defer:2 ()
        in
        let mm = mm_of "wfrc_deferred" cfg in
        let arena = Mm.arena mm in
        let a = Mm.alloc mm ~tid:0 in
        let b = Mm.alloc mm ~tid:0 in
        Mm.store_link mm ~tid:0 (Arena.link_addr arena a 0) b;
        (* flush b's decrement (and a filler's) so only the link keeps
           b alive; a's decrement then parks alone in the row *)
        Mm.release mm ~tid:0 b;
        let f = Mm.alloc mm ~tid:0 in
        Mm.release mm ~tid:0 f;
        Mm.release mm ~tid:0 a;
        let r = Audit.run mm in
        check_int "nothing reachable" 0 r.Audit.reachable;
        check_int "leaked" 0 r.Audit.leaked;
        check_int "chain is deferred end to end" 2 r.Audit.deferred;
        check_bool "audit ok" true (Audit.ok r);
        check_bool "no violations" true (r.Audit.violations = []));
  ]

let suite =
  mailbox_tests @ fault_tests @ route_tests @ stale_tests @ native_race_tests
  @ timer_tests @ probe_tests @ destroy_tests
  @ split_tests @ closure_tests

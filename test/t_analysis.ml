(* The analysis layer (lib/analysis): vector-clock happens-before,
   the reclamation-safety oracle, instrumentation hygiene, failure
   reporting, oracle-guarded exploration of all five managers, and
   non-vacuity — seeded bugs (skipped hazard validation, over-release,
   dropped release) must be caught with a replayable trace. *)

open Helpers
module Sp = Atomics.Schedpoint
module C = Atomics.Counters
module Hb = Analysis.Hb
module Reclaim = Analysis.Reclaim
module Layout = Shmem.Layout
module Oset = Structures.Oset
module Queue_ = Structures.Queue

(* ---------------- Happens-before ---------------------------------- *)

let hb_tests =
  [
    tc "write/read pair orders across threads" (fun () ->
        let hb = Hb.create ~threads:2 in
        (* tick t0 so its clock is distinguishable from the origin *)
        Hb.on_access hb ~tid:0 ~addr:(-1) Sp.Cas;
        let s0 = Hb.snapshot hb ~tid:0 in
        check_bool "not ordered yet" false (Hb.hb_after hb ~tid:1 s0);
        Hb.on_access hb ~tid:0 ~addr:100 Sp.Write;
        Hb.on_access hb ~tid:1 ~addr:100 Sp.Read;
        check_bool "ordered through location 100" true
          (Hb.hb_after hb ~tid:1 s0));
    tc "disjoint locations do not order" (fun () ->
        let hb = Hb.create ~threads:2 in
        Hb.on_access hb ~tid:0 ~addr:(-1) Sp.Cas;
        let s0 = Hb.snapshot hb ~tid:0 in
        Hb.on_access hb ~tid:0 ~addr:100 Sp.Write;
        Hb.on_access hb ~tid:1 ~addr:101 Sp.Read;
        check_bool "still unordered" false (Hb.hb_after hb ~tid:1 s0));
    tc "rmws chain through the coarse non-arena channel" (fun () ->
        let hb = Hb.create ~threads:2 in
        Hb.on_access hb ~tid:0 ~addr:(-1) Sp.Cas;
        let s0 = Hb.snapshot hb ~tid:0 in
        (* any two non-arena cells share one channel: t0 releases via a
           faa on "one cell", t1 acquires via a cas on "another" *)
        Hb.on_access hb ~tid:0 ~addr:(-1) Sp.Faa;
        Hb.on_access hb ~tid:1 ~addr:(-1) Sp.Cas;
        check_bool "ordered through the coarse channel" true
          (Hb.hb_after hb ~tid:1 s0));
    tc "dominated is pointwise" (fun () ->
        check_bool "le" true (Hb.dominated [| 1; 2 |] [| 2; 2 |]);
        check_bool "eq" true (Hb.dominated [| 1; 2 |] [| 1; 2 |]);
        check_bool "incomparable" false (Hb.dominated [| 2; 1 |] [| 1; 2 |]));
    tc "out-of-engine tids are inert" (fun () ->
        let hb = Hb.create ~threads:2 in
        Hb.on_access hb ~tid:(-1) ~addr:100 Sp.Write;
        Hb.on_access hb ~tid:5 ~addr:100 Sp.Cas;
        Alcotest.(check (array int))
          "snapshot is the origin" [| 0; 0 |]
          (Hb.snapshot hb ~tid:(-1));
        check_bool "hb_after is conservatively false" false
          (Hb.hb_after hb ~tid:(-1) [| 0; 0 |]);
        (* and nothing leaked into real threads *)
        Hb.on_access hb ~tid:1 ~addr:100 Sp.Read;
        Alcotest.(check (array int))
          "t1 unaffected" [| 0; 0 |]
          (Hb.snapshot hb ~tid:1));
  ]

(* ---------------- Instrumentation hooks --------------------------- *)

let instr_tests =
  [
    tc "with_hook restores a validator installed inside" (fun () ->
        check_bool "none before" false (Sp.validator_installed ());
        Sp.with_hook
          (fun () -> ())
          (fun () ->
            Sp.install_validator (fun ~addr:_ _ -> ());
            check_bool "installed inside" true (Sp.validator_installed ()));
        check_bool "restored after the run" false (Sp.validator_installed ()));
    tc "with_validator restores on exception" (fun () ->
        (try
           Sp.with_validator
             (fun ~addr:_ _ -> ())
             (fun () -> failwith "boom")
         with Failure _ -> ());
        check_bool "restored" false (Sp.validator_installed ()));
    tc "hit_at delivers address and kind" (fun () ->
        let got = ref [] in
        Sp.with_validator
          (fun ~addr k -> got := (addr, k) :: !got)
          (fun () ->
            Sp.hit_at ~addr:7 Sp.Read;
            Sp.hit_at ~addr:(-1) Sp.Faa);
        check_bool "both deliveries, in order" true
          (List.rev !got = [ (7, Sp.Read); ((-1), Sp.Faa) ]));
    tc "Sim arena word ops report global addresses" (fun () ->
        let layout = Layout.create ~num_links:1 ~num_data:1 in
        let arena = Arena.create ~layout ~capacity:2 ~num_roots:1 () in
        let base = Arena.addr_base arena in
        let r = Arena.root_addr arena 0 in
        let got = ref [] in
        Sp.with_validator
          (fun ~addr k -> got := (addr, k) :: !got)
          (fun () ->
            ignore (Arena.read arena r);
            Arena.write arena r 4;
            ignore (Arena.cas arena r ~old:4 ~nw:6);
            ignore (Arena.faa arena r 2);
            ignore (Arena.swap arena r 0));
        check_bool "five accesses at base + root, right kinds" true
          (List.rev !got
          = [
              (base + r, Sp.Read);
              (base + r, Sp.Write);
              (base + r, Sp.Cas);
              (base + r, Sp.Faa);
              (base + r, Sp.Swap);
            ]));
    tc "managers emit lifecycle events" (fun () ->
        List.iter
          (fun scheme ->
            let mm = mm_of scheme (small_cfg ~capacity:8 ()) in
            let log = ref [] in
            let handle = ref 0 in
            Mm.Events.with_listener
              (fun ~tid:_ p lc -> log := (Value.handle p, lc) :: !log)
              (fun () ->
                Mm.enter_op mm ~tid:0;
                let a = Mm.alloc mm ~tid:0 in
                handle := Value.handle a;
                Arena.write_data (Mm.arena mm) a 0 7;
                Mm.release mm ~tid:0 a;
                Mm.terminate mm ~tid:0 a;
                Mm.exit_op mm ~tid:0;
                (* wfrc_deferred parks the decrement in its rc buffer;
                   quiescence (free_count drains every buffer) makes the
                   Free event land like the eager schemes' *)
                if scheme = "wfrc_deferred" then ignore (Mm.free_count mm));
            let expected =
              if Mm.refcounted mm then
                [ (!handle, Mm.Events.Alloc); (!handle, Mm.Events.Free) ]
              else [ (!handle, Mm.Events.Alloc); (!handle, Mm.Events.Retire) ]
            in
            if List.rev !log <> expected then
              Alcotest.failf "%s: unexpected lifecycle stream [%s]" scheme
                (String.concat "; "
                   (List.rev_map
                      (fun (h, lc) ->
                        Printf.sprintf "#%d %s" h (Mm.Events.lifecycle_name lc))
                      !log)))
          all_schemes;
        check_bool "listener restored" false (Mm.Events.installed ()));
  ]

(* ---------------- Oracle unit tests ------------------------------- *)

let mk_det ?counters () =
  let layout = Layout.create ~num_links:1 ~num_data:2 in
  let arena = Arena.create ~layout ~capacity:4 ~num_roots:1 () in
  (arena, Reclaim.create ?counters ~arena ~threads:2 ())

let data_ga arena p i = Arena.addr_base arena + Arena.data_addr arena p i

let oracle_tests =
  [
    tc "free-node data access is a use-after-free" (fun () ->
        let arena, det = mk_det () in
        let p = Value.of_handle 1 in
        Reclaim.on_event det ~tid:0 p Mm.Events.Alloc;
        Reclaim.on_event det ~tid:0 p Mm.Events.Free;
        (* header words stay accessible — the allocator's channel *)
        Reclaim.on_access det ~tid:1
          ~addr:(Arena.addr_base arena + Arena.mm_ref_addr arena p)
          Sp.Faa;
        Reclaim.on_access det ~tid:1
          ~addr:(Arena.addr_base arena + Arena.mm_next_addr arena p)
          Sp.Write;
        fails_with ~substring:"use-after-free" (fun () ->
            Reclaim.on_access det ~tid:1 ~addr:(data_ga arena p 0) Sp.Read);
        check_bool "violation recorded" true
          (List.exists
             (fun m -> contains m "use-after-free")
             (Reclaim.violations det)));
    tc "roots and out-of-window cells are never flagged" (fun () ->
        let arena, det = mk_det () in
        (* all nodes FREE, yet none of these accesses is an error *)
        Reclaim.on_access det ~tid:0
          ~addr:(Arena.addr_base arena + Arena.root_addr arena 0)
          Sp.Cas;
        Reclaim.on_access det ~tid:0 ~addr:(-1) Sp.Write;
        Reclaim.on_access det ~tid:0
          ~addr:(Arena.addr_base arena + Arena.num_cells arena + 17)
          Sp.Read;
        check_int "only in-window accesses counted" 1 (Reclaim.accesses det));
    tc "double free and bad retire" (fun () ->
        let _, det = mk_det () in
        let p = Value.of_handle 2 in
        fails_with ~substring:"bad retire" (fun () ->
            Reclaim.on_event det ~tid:0 p Mm.Events.Retire);
        Reclaim.on_event det ~tid:0 p Mm.Events.Alloc;
        Reclaim.on_event det ~tid:1 p Mm.Events.Retire;
        Reclaim.on_event det ~tid:1 p Mm.Events.Free;
        fails_with ~substring:"double-free" (fun () ->
            Reclaim.on_event det ~tid:0 p Mm.Events.Free));
    tc "allocation of a live node is corruption" (fun () ->
        let _, det = mk_det () in
        let p = Value.of_handle 1 in
        Reclaim.on_event det ~tid:0 p Mm.Events.Alloc;
        fails_with ~substring:"corrupt allocation" (fun () ->
            Reclaim.on_event det ~tid:1 p Mm.Events.Alloc));
    tc "allocation must happen after the reclaiming free" (fun () ->
        let _, det = mk_det () in
        let p = Value.of_handle 1 in
        Reclaim.on_access det ~tid:0 ~addr:(-1) Sp.Cas;
        Reclaim.on_event det ~tid:0 p Mm.Events.Alloc;
        Reclaim.on_event det ~tid:0 p Mm.Events.Free;
        fails_with ~substring:"unordered allocation" (fun () ->
            Reclaim.on_event det ~tid:1 p Mm.Events.Alloc);
        (* after acquiring the freer's clock the allocation is legal *)
        Reclaim.on_access det ~tid:0 ~addr:200 Sp.Write;
        Reclaim.on_access det ~tid:1 ~addr:200 Sp.Read;
        Reclaim.on_event det ~tid:1 p Mm.Events.Alloc);
    tc "stale access across a reclamation is unordered" (fun () ->
        let arena, det = mk_det () in
        let p = Value.of_handle 1 in
        Reclaim.on_access det ~tid:0 ~addr:(-1) Sp.Cas;
        Reclaim.on_event det ~tid:0 p Mm.Events.Alloc;
        Reclaim.on_event det ~tid:0 p Mm.Events.Free;
        Reclaim.on_event det ~tid:0 p Mm.Events.Alloc;
        (* t1 holds a reference from before the free: ABA shape *)
        fails_with ~substring:"unordered access" (fun () ->
            Reclaim.on_access det ~tid:1 ~addr:(data_ga arena p 0) Sp.Write);
        (* ...but a reader ordered after the free is fine *)
        Reclaim.on_access det ~tid:0 ~addr:300 Sp.Write;
        Reclaim.on_access det ~tid:1 ~addr:300 Sp.Read;
        Reclaim.on_access det ~tid:1 ~addr:(data_ga arena p 0) Sp.Write);
    tc "leak accounting: live leaks, retired does not" (fun () ->
        let _, det = mk_det () in
        Reclaim.on_event det ~tid:0 (Value.of_handle 1) Mm.Events.Alloc;
        Reclaim.on_event det ~tid:0 (Value.of_handle 2) Mm.Events.Alloc;
        Reclaim.on_event det ~tid:0 (Value.of_handle 2) Mm.Events.Retire;
        Alcotest.(check (list int)) "only the live node" [ 1 ]
          (Reclaim.leaked det);
        fails_with ~substring:"leak" (fun () -> Reclaim.check_all_free det);
        Reclaim.check_all_free ~reserved:1 det);
    tc "instrumented accesses tally into Counters" (fun () ->
        let ctr = C.create ~threads:2 () in
        let arena, det = mk_det ~counters:ctr () in
        let p = Value.of_handle 1 in
        Reclaim.on_event det ~tid:0 p Mm.Events.Alloc;
        let ga = data_ga arena p 0 in
        Reclaim.on_access det ~tid:0 ~addr:ga Sp.Read;
        Reclaim.on_access det ~tid:0 ~addr:ga Sp.Write;
        Reclaim.on_access det ~tid:1 ~addr:ga Sp.Faa;
        Reclaim.on_access det ~tid:0 ~addr:(-1) Sp.Swap;
        Reclaim.on_access det ~tid:(-1) ~addr:ga Sp.Cas;
        check_int "reads" 1 (C.total ctr C.Read);
        check_int "writes" 1 (C.total ctr C.Write);
        check_int "faa" 1 (C.total ctr C.Faa);
        check_int "swap outside the window untallied" 0 (C.total ctr C.Swap);
        check_int "out-of-engine access untallied" 0
          (C.total ctr C.Cas_attempt);
        check_int "window accesses" 4 (Reclaim.accesses det));
  ]

(* ---------------- Counterexample reporting ------------------------ *)

let report_tests =
  [
    tc "failure_message carries seed, trace and replay recipe" (fun () ->
        let f =
          {
            Sched.Explore.schedule = [| 0; 1; 1; 0 |];
            seed = Some 42;
            exn = Failure "boom";
          }
        in
        let msg = Sched.Explore.failure_message f in
        List.iter
          (fun s -> check_bool s true (contains msg s))
          [
            "boom";
            "random policy seed: 42";
            "choice trace (4 decisions)";
            "replay with Explore.replay ~schedule:[|0;1;1;0|]";
          ]);
    tc "random sweep failures replay deterministically" (fun () ->
        (* a lost update: non-atomic read-modify-write on one cell *)
        let mk () =
          let layout = Layout.create ~num_links:0 ~num_data:0 in
          let arena = Arena.create ~layout ~capacity:1 ~num_roots:1 () in
          let r = Arena.root_addr arena 0 in
          let body _tid =
            let v = Arena.read arena r in
            Arena.write arena r (v + 1)
          in
          let check () =
            if Arena.read arena r <> 2 then failwith "lost update"
          in
          (body, check)
        in
        match
          (Sched.Explore.random_sweep ~threads:2 ~runs:200 ~seed:7 mk).failure
        with
        | None -> Alcotest.fail "expected a lost update"
        | Some f -> (
            check_bool "seed recorded" true (f.seed <> None);
            match Sched.Explore.replay ~threads:2 ~schedule:f.schedule mk with
            | Some f' ->
                check_bool "replay reproduces the same failure" true
                  (contains (Printexc.to_string f'.exn) "lost update")
            | None -> Alcotest.fail "replay did not reproduce the failure"));
  ]

(* ---------------- Oracle-guarded exploration of the managers ------ *)

(* Program A — private-node churn: each thread allocates, touches the
   data words, releases and terminates. Exercises alloc/free ordering
   (R2/R3) across the free store with zero shared links. *)
let churn_factory scheme () =
  let cfg =
    Mm.config ~threads:2 ~capacity:8 ~num_links:1 ~num_data:1 ~num_roots:1 ()
  in
  let mm = mm_of scheme cfg in
  let arena = Mm.arena mm in
  ( arena,
    fun () ->
      let body tid =
        Mm.enter_op mm ~tid;
        let a = Mm.alloc mm ~tid in
        Arena.write_data arena a 0 (100 + tid);
        ignore (Arena.read_data arena a 0);
        Mm.release mm ~tid a;
        Mm.terminate mm ~tid a;
        Mm.exit_op mm ~tid
      in
      (body, fun () -> Mm.validate mm) )

(* Program B — one contended root link: both threads try to swing the
   root to their own node, the winner's predecessor is unlinked,
   terminated and reclaimed while the loser still holds references.
   Exercises deref/cas_link/free races, i.e. rules R1 and R2. *)
let contend_factory scheme () =
  let cfg =
    Mm.config ~threads:2 ~capacity:8 ~num_links:1 ~num_data:1 ~num_roots:1 ()
  in
  let mm = mm_of scheme cfg in
  let arena = Mm.arena mm in
  ( arena,
    fun () ->
      let root = Arena.root_addr arena 0 in
      let x = Mm.alloc mm ~tid:0 in
      Arena.write_data arena x 0 99;
      Mm.store_link mm ~tid:0 root x;
      Mm.release mm ~tid:0 x;
      let body tid =
        Mm.enter_op mm ~tid;
        let a = Mm.alloc mm ~tid in
        Arena.write_data arena a 0 (10 + tid);
        let old = Mm.deref mm ~tid root in
        if Mm.cas_link mm ~tid root ~old ~nw:a then begin
          if not (Value.is_null old) then Mm.terminate mm ~tid old
        end
        else
          (* lost the race: our node never got linked — discard it *)
          Mm.terminate mm ~tid a;
        if not (Value.is_null old) then Mm.release mm ~tid old;
        Mm.release mm ~tid a;
        Mm.exit_op mm ~tid
      in
      let check () =
        Mm.enter_op mm ~tid:0;
        let w = Mm.deref mm ~tid:0 root in
        Mm.store_link mm ~tid:0 root Value.null;
        if not (Value.is_null w) then begin
          Mm.terminate mm ~tid:0 w;
          Mm.release mm ~tid:0 w
        end;
        Mm.exit_op mm ~tid:0;
        Mm.validate mm
      in
      (body, check) )

(* Program C — an ordered-set traversal racing a remove: keys
   {10, 20, 30}; thread 0 removes 20 while thread 1 looks up 30, so the
   hand-over-hand walk races the mark, its in-place read of a held
   node's next word, and the unlink of a node it carries. The two
   sentinels are immortal, hence reserved. *)
let oset_factory scheme () =
  let cfg = Mm.config ~threads:2 ~capacity:8 ~num_links:1 ~num_data:2 () in
  let mm = mm_of scheme cfg in
  ( Mm.arena mm,
    fun () ->
      let s = Oset.create mm ~tid:0 in
      List.iter (fun k -> ignore (Oset.insert s ~tid:0 k k)) [ 10; 20; 30 ];
      let body tid =
        if tid = 0 then begin
          if not (Oset.remove s ~tid 20) then
            failwith "remove of 20 missed"
        end
        else if Oset.lookup s ~tid 30 <> Some 30 then
          failwith "lookup of 30 missed"
      in
      let check () =
        if List.map fst (Oset.to_list s ~tid:0) <> [ 10; 30 ] then
          failwith "wrong final set";
        ignore (Oset.clear s ~tid:0);
        Mm.validate mm
      in
      (body, check) )

(* Program D — a queue that starts empty: thread 0 enqueues while
   thread 1 dequeues twice, so the empty-check's in-place read of the
   held head node races the link of the first node. *)
let queue_factory scheme () =
  let cfg =
    Mm.config ~threads:2 ~capacity:8 ~num_links:1 ~num_data:1 ~num_roots:2 ()
  in
  let mm = mm_of scheme cfg in
  ( Mm.arena mm,
    fun () ->
      let q = Queue_.create mm ~head_root:0 ~tail_root:1 ~tid:0 in
      let got = ref [] in
      let body tid =
        if tid = 0 then Queue_.enqueue q ~tid 7
        else
          for _ = 1 to 2 do
            Option.iter (fun v -> got := v :: !got) (Queue_.dequeue q ~tid)
          done
      in
      let check () =
        if !got @ Queue_.drain q ~tid:0 <> [ 7 ] then
          failwith "value not conserved";
        ignore (Queue_.destroy q ~tid:0);
        Mm.validate mm
      in
      (body, check) )

let explore_with_oracle ?counters ?reserved ~max_schedules factory =
  Reclaim.with_oracle (fun () ->
      exhaustive_ok ~max_schedules ~threads:2
        (Reclaim.instrument ?counters ~expect_all_free:true ?reserved ~threads:2
           factory))

(* The capped DFS above varies only the tail of a schedule. A seeded
   uniform sweep adds preemptions inside both threads' operations,
   which is where an in-place read of a node the reader does not hold
   would meet its reclamation. *)
let explore_and_sweep_with_oracle ?reserved ~max_schedules ~runs factory =
  ignore (explore_with_oracle ?reserved ~max_schedules factory);
  Reclaim.with_oracle (fun () ->
      sweep_ok ~runs ~threads:2
        (Reclaim.instrument ~expect_all_free:true ?reserved ~threads:2 factory))

let manager_tests =
  List.concat_map
    (fun scheme ->
      [
        tc
          (Printf.sprintf "%s: churn program clean under the oracle" scheme)
          (fun () ->
            ignore (explore_with_oracle ~max_schedules:5_000 (churn_factory scheme)));
        tc
          (Printf.sprintf "%s: contended-root program clean under the oracle"
             scheme)
          (fun () ->
            ignore
              (explore_with_oracle ~max_schedules:3_000 (contend_factory scheme)));
        tc
          (Printf.sprintf "%s: oset remove/lookup program clean under the oracle"
             scheme)
          (fun () ->
            explore_and_sweep_with_oracle ~reserved:2 ~max_schedules:1_000
              ~runs:300 (oset_factory scheme));
        tc
          (Printf.sprintf "%s: queue enqueue/dequeue program clean under the oracle"
             scheme)
          (fun () ->
            explore_and_sweep_with_oracle ~max_schedules:1_000 ~runs:300
              (queue_factory scheme));
      ])
    all_schemes
  @ [
      tc "oracle access tally reaches the counters" (fun () ->
          let ctr = C.create ~threads:2 () in
          ignore
            (explore_with_oracle ~counters:ctr ~max_schedules:50
               (churn_factory "wfrc"));
          check_bool "reads observed" true (C.total ctr C.Read > 0);
          check_bool "writes observed" true (C.total ctr C.Write > 0);
          check_bool "faas observed" true (C.total ctr C.Faa > 0));
    ]

(* ---------------- Non-vacuity: seeded bugs ------------------------ *)

(* Skipped hazard validation — the classic HP bug: the slot is
   published but the link is not re-read, so a node reclaimed between
   the read and the publish is used after free. The race needs the
   reader parked across a whole retirement scan, so it is surfaced
   with a biased sweep that starves the reader. *)
let hp_factory mutated () =
  let cfg =
    Mm.config ~threads:2 ~capacity:16 ~num_links:1 ~num_data:1 ~num_roots:1 ()
  in
  let h = Hazard.create cfg in
  if mutated then Hazard.unsafe_skip_validation h;
  let arena = Hazard.arena h in
  ( arena,
    fun () ->
      let root = Arena.root_addr arena 0 in
      let x0 = Hazard.alloc h ~tid:0 in
      Arena.write_data arena x0 0 1;
      Hazard.store_link h ~tid:0 root x0;
      Hazard.release h ~tid:0 x0;
      let body tid =
        if tid = 0 then
          for _ = 1 to 10 do
            let w = Hazard.deref h ~tid root in
            if not (Value.is_null w) then begin
              ignore (Arena.read_data arena (Value.unmark w) 0);
              Hazard.release h ~tid w
            end
          done
        else
          for i = 1 to 8 do
            let n = Hazard.alloc h ~tid in
            Arena.write_data arena n 0 (i + 1);
            let old = Hazard.deref h ~tid root in
            if Hazard.cas_link h ~tid root ~old ~nw:n then begin
              if not (Value.is_null old) then Hazard.terminate h ~tid old
            end;
            if not (Value.is_null old) then Hazard.release h ~tid old;
            Hazard.release h ~tid n
          done
      in
      (body, fun () -> ()) )

let hp_sweep mutated =
  Reclaim.with_oracle (fun () ->
      Sched.Explore.policy_sweep ~threads:2 ~runs:200
        ~policy:(fun i ->
          Sched.Policy.biased ~seed:(7_000 + i) ~victim:0 ~weight:24)
        (Reclaim.instrument ~threads:2 (hp_factory mutated)))

(* Over-release — a client releases the same reference twice, so the
   node is reclaimed while the root still links it (premature free). *)
let overrelease_factory extra () =
  let cfg =
    Mm.config ~threads:2 ~capacity:8 ~num_links:1 ~num_data:1 ~num_roots:1 ()
  in
  let mm = mm_of "wfrc" cfg in
  let arena = Mm.arena mm in
  ( arena,
    fun () ->
      let root = Arena.root_addr arena 0 in
      let x = Mm.alloc mm ~tid:0 in
      Arena.write_data arena x 0 5;
      Mm.store_link mm ~tid:0 root x;
      Mm.release mm ~tid:0 x;
      let body tid =
        if tid = 0 then begin
          let v = Mm.deref mm ~tid root in
          if not (Value.is_null v) then begin
            Mm.release mm ~tid v;
            if extra then Mm.release mm ~tid v
          end
        end
        else begin
          let w = Mm.deref mm ~tid root in
          if not (Value.is_null w) then begin
            ignore (Arena.read_data arena (Value.unmark w) 0);
            Mm.release mm ~tid w
          end
        end
      in
      (body, fun () -> ()) )

let overrelease_explore extra =
  Reclaim.with_oracle (fun () ->
      Sched.Explore.exhaustive ~max_schedules:400 ~threads:2
        (Reclaim.instrument ~threads:2 (overrelease_factory extra)))

(* Dropped release — an unbalanced deref/alloc leaks the node. *)
let leak_factory dropped () =
  let cfg =
    Mm.config ~threads:2 ~capacity:8 ~num_links:1 ~num_data:1 ~num_roots:1 ()
  in
  let mm = mm_of "wfrc" cfg in
  let arena = Mm.arena mm in
  ( arena,
    fun () ->
      let body tid =
        Mm.enter_op mm ~tid;
        let a = Mm.alloc mm ~tid in
        Arena.write_data arena a 0 tid;
        if not dropped then Mm.release mm ~tid a;
        Mm.exit_op mm ~tid
      in
      (body, fun () -> ()) )

let leak_explore dropped =
  Reclaim.with_oracle (fun () ->
      Sched.Explore.exhaustive ~max_schedules:60 ~threads:2
        (Reclaim.instrument ~expect_all_free:true ~threads:2
           (leak_factory dropped)))

let assert_clean what (r : Sched.Explore.result) =
  match r.failure with
  | None -> ()
  | Some f ->
      Alcotest.failf "%s flagged a clean run: %s" what
        (Sched.Explore.failure_message f)

let assert_caught what ~rule (r : Sched.Explore.result) ~replay =
  match r.failure with
  | None -> Alcotest.failf "%s: seeded bug not caught" what
  | Some f -> (
      let msg = Sched.Explore.failure_message f in
      check_bool (what ^ ": right rule fired") true (contains msg rule);
      check_bool (what ^ ": trace in the report") true
        (contains msg "choice trace");
      match replay f.Sched.Explore.schedule with
      | Some f' ->
          check_bool
            (what ^ ": replay reproduces the violation")
            true
            (contains (Printexc.to_string f'.Sched.Explore.exn) rule)
      | None -> Alcotest.failf "%s: replay did not reproduce" what)

let mutation_tests =
  [
    tc "clean hp survives the starved-reader sweep" (fun () ->
        assert_clean "hp sweep" (hp_sweep false));
    tc "seeded hp validation skip is caught and replays" (fun () ->
        assert_caught "hp validation skip" ~rule:"use-after-free"
          (hp_sweep true) ~replay:(fun schedule ->
            Reclaim.with_oracle (fun () ->
                Sched.Explore.replay ~threads:2 ~schedule
                  (Reclaim.instrument ~threads:2 (hp_factory true)))));
    tc "seeded wfrc over-release is caught and replays" (fun () ->
        assert_clean "over-release control" (overrelease_explore false);
        assert_caught "over-release" ~rule:"use-after-free"
          (overrelease_explore true) ~replay:(fun schedule ->
            Reclaim.with_oracle (fun () ->
                Sched.Explore.replay ~threads:2 ~schedule
                  (Reclaim.instrument ~threads:2 (overrelease_factory true)))));
    tc "seeded dropped release is caught as a leak" (fun () ->
        assert_clean "leak control" (leak_explore false);
        assert_caught "dropped release" ~rule:"leak" (leak_explore true)
          ~replay:(fun schedule ->
            Reclaim.with_oracle (fun () ->
                Sched.Explore.replay ~threads:2 ~schedule
                  (Reclaim.instrument ~expect_all_free:true ~threads:2
                     (leak_factory true)))));
  ]

let suite =
  hb_tests @ instr_tests @ oracle_tests @ report_tests @ manager_tests
  @ mutation_tests

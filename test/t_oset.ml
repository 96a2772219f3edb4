(* Ordered set (Michael's list-based set): sequential semantics vs a
   map model, qcheck differential tests, concurrency, and sim sweeps —
   on ALL five schemes, including the retire-based ones. *)

open Helpers
module Oset = Structures.Oset
module Mm = Mm_intf

let mk scheme ?backend ?(threads = 2) ?(capacity = 64) () =
  let cfg =
    Mm.config ?backend ~threads ~capacity ~num_links:1 ~num_data:2
      ~num_roots:0 ()
  in
  let mm = mm_of scheme cfg in
  (mm, Oset.create mm ~tid:0)

let flush mm =
  for _ = 1 to 100 do
    Mm.enter_op mm ~tid:0;
    Mm.exit_op mm ~tid:0
  done

let seq_tests scheme =
  let pre name = Printf.sprintf "%s: %s" scheme name in
  [
    tc (pre "insert/mem/remove basics") (fun () ->
        let mm, s = mk scheme () in
        check_bool "insert 5" true (Oset.insert s ~tid:0 5 50);
        check_bool "insert 3" true (Oset.insert s ~tid:0 3 30);
        check_bool "insert dup refused" false (Oset.insert s ~tid:0 5 99);
        check_bool "mem 3" true (Oset.mem s ~tid:0 3);
        check_bool "mem 4" false (Oset.mem s ~tid:0 4);
        check_bool "lookup" true (Oset.lookup s ~tid:0 5 = Some 50);
        check_bool "lookup dup kept original" true
          (Oset.lookup s ~tid:0 5 = Some 50);
        check_bool "remove 3" true (Oset.remove s ~tid:0 3);
        check_bool "remove 3 again" false (Oset.remove s ~tid:0 3);
        check_bool "mem gone" false (Oset.mem s ~tid:0 3);
        ignore mm);
    tc (pre "keys come back sorted") (fun () ->
        let mm, s = mk scheme () in
        List.iter
          (fun k -> ignore (Oset.insert s ~tid:0 k k))
          [ 9; 1; 7; 3; 5 ];
        check_bool "sorted" true
          (List.map fst (Oset.to_list s ~tid:0) = [ 1; 3; 5; 7; 9 ]);
        check_int "size" 5 (Oset.size s ~tid:0);
        ignore mm);
    tc (pre "reserved keys rejected") (fun () ->
        let mm, s = mk scheme () in
        fails_with (fun () -> Oset.insert s ~tid:0 max_int 0);
        fails_with (fun () -> Oset.insert s ~tid:0 min_int 0);
        ignore mm);
    tc (pre "insert/remove cycles recycle memory") (fun () ->
        let mm, s = mk scheme ~capacity:16 () in
        for round = 0 to 40 do
          for i = 1 to 8 do
            ignore (Oset.insert s ~tid:0 ((round mod 3) + (i * 10)) i)
          done;
          ignore (Oset.clear s ~tid:0)
        done;
        flush mm;
        assert_all_free ~reserved:2 mm);
    qc ~count:80
      (pre "differential vs sorted association list")
      QCheck.(list_of_size (Gen.int_range 0 80) (pair (int_range 1 20) (int_range 0 2)))
      (fun script ->
        let mm, s = mk scheme ~capacity:128 () in
        let model = Hashtbl.create 16 in
        let ok =
          List.for_all
            (fun (k, op) ->
              match op with
              | 0 ->
                  let fresh = not (Hashtbl.mem model k) in
                  if fresh then Hashtbl.replace model k k;
                  Oset.insert s ~tid:0 k k = fresh
              | 1 ->
                  let present = Hashtbl.mem model k in
                  Hashtbl.remove model k;
                  Oset.remove s ~tid:0 k = present
              | _ -> Oset.mem s ~tid:0 k = Hashtbl.mem model k)
            script
        in
        ignore mm;
        ok
        && List.map fst (Oset.to_list s ~tid:0)
           = List.sort compare (List.of_seq (Hashtbl.to_seq_keys model)));
  ]

(* [backend] defaults to Sim; a Native run uses the Native default
   rep, Unboxed. *)
let conc_tests ?backend scheme =
  let pre name = Printf.sprintf "%s: %s" (scheme_label ?backend scheme) name in
  let mk = mk ?backend in
  [
    tc_domains (pre "disjoint key ranges: all inserts land") (fun () ->
        let threads = 4 in
        let mm, s = mk scheme ~threads ~capacity:256 () in
        ignore
          (Harness.Runner.run ~threads (fun ~tid ->
               for i = 1 to 40 do
                 ignore (Oset.insert s ~tid ((tid * 100) + i) i)
               done));
        check_int "all present" 160 (Oset.size s ~tid:0);
        for tid = 0 to 3 do
          for i = 1 to 40 do
            if not (Oset.mem s ~tid:0 ((tid * 100) + i)) then
              Alcotest.failf "key %d missing" ((tid * 100) + i)
          done
        done;
        ignore (Oset.clear s ~tid:0);
        flush mm;
        assert_all_free ~reserved:2 mm);
    tc_domains (pre "contended single key: exactly one winner per round")
      (fun () ->
        let threads = 4 in
        let mm, s = mk scheme ~threads ~capacity:64 () in
        let wins = Array.make threads 0 in
        let removals = Array.make threads 0 in
        ignore
          (Harness.Runner.run ~threads (fun ~tid ->
               for _ = 1 to 500 do
                 (* EBR can transiently exhaust the pool while a
                    preempted thread pins the epoch: an OOM'd insert
                    simply isn't a win *)
                 (match Oset.insert s ~tid 42 tid with
                 | true -> wins.(tid) <- wins.(tid) + 1
                 | false -> ()
                 | exception Mm.Out_of_memory | exception Mm.Out_of_nodes _ -> ());
                 if Oset.remove s ~tid 42 then
                   removals.(tid) <- removals.(tid) + 1
               done));
        let total_wins = Array.fold_left ( + ) 0 wins in
        let total_removals = Array.fold_left ( + ) 0 removals in
        let still = if Oset.mem s ~tid:0 42 then 1 else 0 in
        check_int "inserts = removals + residue" total_wins
          (total_removals + still);
        ignore (Oset.clear s ~tid:0);
        flush mm;
        assert_all_free ~reserved:2 mm);
    tc_domains (pre "mixed churn conserves memory") (fun () ->
        let threads = 4 in
        let mm, s = mk scheme ~threads ~capacity:128 () in
        ignore
          (Harness.Runner.run ~threads (fun ~tid ->
               let rng = Sched.Rng.create (tid * 31) in
               for _ = 1 to 1_000 do
                 let k = 1 + Sched.Rng.int rng 64 in
                 match Sched.Rng.int rng 3 with
                 | 0 -> (
                     try ignore (Oset.insert s ~tid k tid)
                     with Mm.Out_of_memory | Mm.Out_of_nodes _ -> ())
                 | 1 -> ignore (Oset.remove s ~tid k)
                 | _ -> ignore (Oset.mem s ~tid k)
               done));
        ignore (Oset.clear s ~tid:0);
        flush mm;
        assert_all_free ~reserved:2 mm);
  ]

let sim_tests =
  (* the retire-based schemes are the interesting ones here: this is
     the structure that must be safe on them *)
  let sweep scheme =
    tc (Printf.sprintf "%s: deterministic sweep (insert/remove/mem races)"
          scheme) (fun () ->
        sweep_ok ~runs:150 ~threads:2 (fun () ->
            let mm, s = mk scheme ~capacity:16 () in
            ignore (Oset.insert s ~tid:0 10 0);
            let body tid =
              if tid = 0 then begin
                ignore (Oset.insert s ~tid 5 50);
                ignore (Oset.remove s ~tid 10)
              end
              else begin
                ignore (Oset.mem s ~tid 10);
                ignore (Oset.insert s ~tid 15 150);
                ignore (Oset.remove s ~tid 5)
              end
            in
            let check () =
              (* 10 removed; 15 present; 5 present iff t0's insert
                 preceded t1's remove — either way the set is
                 well-formed and memory balanced after clear *)
              let keys = List.map fst (Oset.to_list s ~tid:0) in
              if not (List.mem 15 keys) then failwith "lost insert of 15";
              if List.mem 10 keys then failwith "remove of 10 lost";
              if List.sort compare keys <> keys then failwith "unsorted";
              ignore (Oset.clear s ~tid:0);
              flush mm;
              Mm.validate mm;
              if Mm.free_count mm <> 14 then failwith "leak"
            in
            (body, check)))
  in
  List.map sweep [ "wfrc"; "lfrc"; "hp"; "ebr" ]

(* Deref-count pins for the traversal discipline (DESIGN.md §6.5): a
   lookup of the i-th key takes i DeRefLinks, the stopping step none. *)
let deref_tests =
  List.map
    (fun backend ->
      tc
        (Printf.sprintf "wfrc %s: one deref per traversal step"
           (Atomics.Backend.name backend))
        (fun () ->
          let mm, s = mk "wfrc" ~backend ~capacity:16 () in
          let derefs = derefs mm in
          check_int "mem on an empty set" 1
            (derefs (fun () -> ignore (Oset.mem s ~tid:0 5)));
          List.iter (fun k -> ignore (Oset.insert s ~tid:0 k k)) [ 10; 20; 30; 40 ];
          List.iteri
            (fun i k ->
              check_int (Printf.sprintf "lookup of key %d" k) (i + 1)
                (derefs (fun () ->
                     check_bool "found" true (Oset.lookup s ~tid:0 k = Some k))))
            [ 10; 20; 30; 40 ];
          check_int "key past the last" 5
            (derefs (fun () -> ignore (Oset.lookup s ~tid:0 50)))))
    [ Atomics.Backend.Sim; Atomics.Backend.Native ]

let suite =
  List.concat_map seq_tests all_schemes
  @ List.concat_map conc_tests all_schemes
  @ conc_tests ~backend:Atomics.Backend.Native "wfrc"
  @ sim_tests @ deref_tests

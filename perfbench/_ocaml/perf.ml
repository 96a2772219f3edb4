(* The repository benchmark: three workloads over the paper's scheme
   (wfrc, Native backend, every other manager knob at its library
   default), each run on 2 domains from one process.

     churn      closed loop: per-domain ring of live nodes, each
                operation one AllocNode plus one ReleaseRef of the
                ring's oldest node.
     hmap_zipf  closed loop: Hmap lookups/inserts/removes with
                Zipf-skewed keys, checked against per-domain models.
     actor_open open loop: a paced sender and a round-robin drainer
                over a pre-spawned Actor.Service.

   Usage:
     perf.exe run --workload W --seed N --seconds S --trace 0|1

   With --trace 0 the last stdout line is a JSON object holding the
   end-to-end metrics; with --trace 1 it holds the per-layer metrics of
   a traced run (plus an untraced run of the same length before it,
   for the tracing overhead). Every other stdout line is a readable
   "metric" line. Output checks that fail, or a run that overruns its
   deadline, exit non-zero. *)

module Mm = Mm_intf
module C = Atomics.Counters
module Rng = Sched.Rng
module Hmap = Structures.Hmap
module Service = Actor.Service
module Arena = Shmem.Arena
module Value = Shmem.Value
module S = Stats.Samples

let now = Stats.now_ns
let threads = 2

(* ------------------------------------------------------------------ *)
(* Deadline                                                            *)

(* What the run is doing, for the deadline report. *)
let phase = Atomic.make "start"
let set_phase p = Atomic.set phase p
let diagnostics : (unit -> string) Atomic.t = Atomic.make (fun () -> "")

(* A watchdog domain: if the run is still going after [limit_s], print
   the workload, the phase and the counter totals, and exit 3. Returns
   the function that disarms it. *)
let watchdog ~workload ~limit_s =
  let finished = Atomic.make false in
  let t0 = now () in
  let limit = int_of_float (limit_s *. 1e9) in
  let d =
    Domain.spawn (fun () ->
        while (not (Atomic.get finished)) && now () - t0 < limit do
          Unix.sleepf 0.05
        done;
        if not (Atomic.get finished) then begin
          prerr_string
            (Printf.sprintf
               "perfbench: deadline: workload %s still running after %.0f s, \
                in phase %s\n\
                %s\n"
               workload limit_s (Atomic.get phase)
               ((Atomic.get diagnostics) ()));
          flush stderr;
          Unix._exit 3
        end)
  in
  fun () ->
    Atomic.set finished true;
    Domain.join d

let counter_totals ctr =
  String.concat " "
    (List.map
       (fun (e, n) -> Printf.sprintf "%s=%d" (C.event_name e) n)
       (C.snapshot ctr))

(* ------------------------------------------------------------------ *)
(* Worker domains                                                      *)

(* A fixed crew of domains: tid 0 is the calling domain, tids 1.. are
   spawned once at set-up and run one job after another. *)
module Crew = struct
  type t = {
    job : (tid:int -> unit) Atomic.t;
    gen : int Atomic.t; (* bumped per job; -1 tells workers to exit *)
    finished : int Atomic.t;
    failure : exn option Atomic.t;
    doms : unit Domain.t array;
  }

  let wait_for cond =
    let spins = ref 0 in
    while not (cond ()) do
      if !spins < 20_000 then begin
        incr spins;
        Domain.cpu_relax ()
      end
      else Unix.sleepf 0.0002
    done

  let start () =
    let job = Atomic.make (fun ~tid:_ -> ()) in
    let gen = Atomic.make 0 and finished = Atomic.make 0 in
    let failure = Atomic.make None and ready = Atomic.make 0 in
    let worker tid () =
      Atomic.incr ready;
      let rec loop seen =
        wait_for (fun () -> Atomic.get gen <> seen);
        let g = Atomic.get gen in
        if g >= 0 then begin
          (try (Atomic.get job) ~tid with e -> Atomic.set failure (Some e));
          Atomic.incr finished;
          loop g
        end
      in
      loop 0
    in
    let doms =
      Array.init (threads - 1) (fun i -> Domain.spawn (worker (i + 1)))
    in
    wait_for (fun () -> Atomic.get ready = threads - 1);
    { job; gen; finished; failure; doms }

  (* Run [f ~tid] on every tid and wait for all of them. *)
  let run t f =
    Atomic.set t.finished 0;
    Atomic.set t.job f;
    Atomic.incr t.gen;
    (try f ~tid:0 with e -> Atomic.set t.failure (Some e));
    wait_for (fun () -> Atomic.get t.finished = threads - 1);
    match Atomic.get t.failure with Some e -> raise e | None -> ()

  (* [f ~tid] on every domain; its results, by tid. Whatever [f]
     allocates lives in the heap of the domain that will use it. *)
  let per_domain t f =
    let out = Array.make threads None in
    run t (fun ~tid -> out.(tid) <- Some (f ~tid));
    Array.map Option.get out

  let stop t =
    Atomic.set t.gen (-1);
    Array.iter Domain.join t.doms
end

(* Both domains leave this together; returns the common start time. *)
let start_barrier () =
  let arrived = Atomic.make 0 and start = Atomic.make 0 in
  fun ~tid ->
    Atomic.incr arrived;
    if tid = 0 then begin
      Crew.wait_for (fun () -> Atomic.get arrived = threads);
      Atomic.set start (now ())
    end
    else Crew.wait_for (fun () -> Atomic.get start <> 0);
    Atomic.get start

(* ------------------------------------------------------------------ *)
(* Results                                                             *)

type metric = { name : string; value : float; unit_ : string; n : int }

let metric ?(n = 0) name unit_ value = { name; value; unit_; n }

(* What one timed phase produced, common to all workloads. *)
type phase_result = {
  rates : float array; (* ops/s of each slice of the window *)
  total_ops : int; (* completed over the whole phase, for per-op counts *)
  attempted : int;
  failed : int;
  wall_ns : int;
  lat : int array; (* sorted sampled op latencies, raw ns *)
  ctr : (C.event * int) list; (* counter deltas over the phase *)
  minor_words : float;
  major_collections : int;
  errors : string list; (* failed output checks *)
  layer : metric list; (* workload-specific per-layer metrics *)
}

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let counters_delta ctr f =
  let before = List.map (fun e -> (e, C.total ctr e)) C.all_events in
  let r = f () in
  (List.map (fun (e, n) -> (e, C.total ctr e - n)) before, r)

let delta ctr e = try List.assoc e ctr with Not_found -> 0

let median_float a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let slice_ns = 250_000_000

(* What the closed-loop timed phase measured. *)
type loop_result = {
  rates : float array; (* completed ops/s in each 250 ms slice *)
  tried : int; (* every operation attempted, the last chunk included *)
  refused : int;
  wall : int;
  words : float; (* minor-heap words allocated by both domains *)
}

(* The closed-loop timed phase: every domain runs [step ~tid] (true =
   completed, false = refused) in chunks until [seconds] have passed,
   crediting each chunk to the 250 ms slice it ended in. Throughput is
   the median slice rate, so a short stall moves one slice, not the
   result. Each domain keeps its tallies in memory it allocated itself,
   so the two never write to a shared cache line. *)
let closed_loop crew ~seconds ~chunk ~step =
  let nslices = max 1 (int_of_float (seconds *. 1e9) / slice_ns) in
  let dur = nslices * slice_ns in
  let barrier = start_barrier () in
  let t0 = Atomic.make 0 in
  let per =
    Crew.per_domain crew (fun ~tid ->
        let counts = Array.make nslices 0 in
        let tried = ref 0 and refused = ref 0 in
        let start = barrier ~tid in
        if tid = 0 then Atomic.set t0 start;
        let w0 = Gc.minor_words () in
        let rec loop () =
          let ok = ref 0 in
          for _ = 1 to chunk do
            if step ~tid then incr ok
          done;
          tried := !tried + chunk;
          refused := !refused + chunk - !ok;
          let el = now () - start in
          if el < dur then begin
            let j = el / slice_ns in
            counts.(j) <- counts.(j) + !ok;
            loop ()
          end
        in
        loop ();
        (counts, !tried, !refused, now (), Gc.minor_words () -. w0))
  in
  let sum f = Array.fold_left (fun a x -> a + f x) 0 per in
  let rates =
    Array.init nslices (fun j ->
        float_of_int (sum (fun (c, _, _, _, _) -> c.(j)))
        /. (float_of_int slice_ns /. 1e9))
  in
  {
    rates;
    tried = sum (fun (_, t, _, _, _) -> t);
    refused = sum (fun (_, _, r, _, _) -> r);
    wall =
      Array.fold_left (fun a (_, _, _, e, _) -> max a e) 0 per
      - Atomic.get t0;
    words = Array.fold_left (fun a (_, _, _, _, w) -> a +. w) 0. per;
  }

(* A prepared workload: set-up is done and the crew is running. [go]
   runs the timed phase once, then the output checks. *)
type prepared = {
  crew : Crew.t;
  mm : Mm.instance;
  probes : Traced.Wfrc.t option;
  go : seconds:float -> overhead:float -> phase_result;
}

let make_mm ~trace cfg =
  if trace then
    let inst, it = Traced.instantiate cfg in
    (inst, Some it)
  else (Harness.Registry.instantiate "wfrc" cfg, None)

(* The quiescent custody audit every workload ends with. *)
let audit_errors mm =
  let r = Harness.Audit.run mm in
  (if r.Harness.Audit.leaked <> 0 then
     [ Printf.sprintf "audit: %d nodes leaked" r.Harness.Audit.leaked ]
   else [])
  @ List.map (fun v -> "audit: " ^ v) r.Harness.Audit.violations

(* Counter and GC deltas around the timed phase. *)
let timed mm f =
  let maj0 = (Gc.quick_stat ()).Gc.major_collections in
  let ctr, r = counters_delta (Mm.counters mm) f in
  (ctr, r, (Gc.quick_stat ()).Gc.major_collections - maj0)

let check cond msg = if cond then [] else [ msg ]

(* Result of a closed-loop workload's timed phase. *)
let closed_result ~(lr : loop_result) ~lat ~ctr ~majors ~errors ~layer =
  {
    rates = lr.rates;
    total_ops = lr.tried - lr.refused;
    attempted = lr.tried;
    failed = lr.refused;
    wall_ns = lr.wall;
    lat;
    ctr;
    minor_words = lr.words;
    major_collections = majors;
    errors;
    layer;
  }

(* A percentile of timed samples, clock overhead removed, with the
   sample count beside it; 0 when the layer was not entered. *)
let pct_metric ?(scale = 1.) ?(unit_ = "ns") ~overhead name sorted ~num ~den =
  let n = Array.length sorted in
  if n = 0 then metric name unit_ 0.
  else
    metric ~n name unit_
      (Stats.timed_percentile sorted ~overhead ~num ~den /. scale)

(* Share of the two domains' time spent inside a layer: for each call
   kind, mean sampled duration (overhead removed) times its calls. *)
let busy_share ~overhead ~wall parts =
  let ns =
    List.fold_left
      (fun a (sorted, calls) ->
        a
        +. Float.max 0. (S.mean_of sorted -. overhead) *. float_of_int calls)
      0. parts
  in
  if wall <= 0 then 0. else ns /. (float_of_int wall *. float_of_int threads)

let peak_rss_mib () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
    | _ -> find ()
    | exception End_of_file -> 0
  in
  let kb = find () in
  close_in ic;
  float_of_int kb /. 1024.

(* ------------------------------------------------------------------ *)
(* churn                                                               *)

let churn_ring = 1024
let churn_capacity = 16 * 1024

type churn_state = {
  ring : Value.ptr array;
  stamp : int array; (* what each ring node's data word must hold *)
  mutable pos : int;
  mutable next : int;
  mutable bad : int;
  clat : S.t;
}

(* Inputs: the seeded stamps each domain writes into its nodes. *)
let churn ~seed ~seconds:_ =
  let rng = Rng.create seed in
  let stamps =
    Array.init threads (fun _ ->
        (Array.init churn_ring (fun _ -> Rng.next_int rng), Rng.next_int rng))
  in
  fun ~trace ->
    let cfg =
      Mm.config ~backend:Atomics.Backend.Native ~threads
        ~capacity:churn_capacity ~num_links:1 ~num_data:1 ()
    in
    let mm, probes = make_mm ~trace cfg in
    let arena = Mm.arena mm in
    let crew = Crew.start () in
    let st =
      Crew.per_domain crew (fun ~tid ->
          let stamp, next = stamps.(tid) in
          let stamp = Array.copy stamp in
          let ring =
            Array.map
              (fun s ->
                let p = Mm.alloc mm ~tid in
                Arena.write_data arena p 0 s;
                p)
              stamp
          in
          let clat = S.create ~period:64 () in
          { ring; stamp; pos = 0; next; bad = 0; clat })
    in
    let pair ~tid =
      let s = st.(tid) in
      Mm.enter_op mm ~tid;
      let ok =
        match Mm.alloc mm ~tid with
        | exception (Mm.Out_of_memory | Mm.Out_of_nodes _) -> false
        | p ->
            let i = s.pos in
            let old = s.ring.(i) in
            if Arena.read_data arena old 0 <> s.stamp.(i) then
              s.bad <- s.bad + 1;
            Mm.release mm ~tid old;
            let v = s.next in
            s.next <- (v * 0x2545F4914F6CDD1D) + 1;
            Arena.write_data arena p 0 v;
            s.ring.(i) <- p;
            s.stamp.(i) <- v;
            s.pos <- (i + 1) land (churn_ring - 1);
            true
      in
      Mm.exit_op mm ~tid;
      ok
    in
    let step ~tid =
      let s = st.(tid) in
      if S.due s.clat then begin
        let t0 = now () in
        let ok = pair ~tid in
        S.add s.clat (now () - t0);
        ok
      end
      else pair ~tid
    in
    let go ~seconds ~overhead:_ =
      let ctr, lr, majors =
        timed mm (fun () -> closed_loop crew ~seconds ~chunk:32 ~step)
      in
      set_phase "check";
      let bad = Array.fold_left (fun a s -> a + s.bad) 0 st in
      let held = threads * churn_ring in
      let free_before = Mm.free_count mm in
      Array.iteri
        (fun tid s -> Array.iter (fun p -> Mm.release mm ~tid p) s.ring)
        st;
      let free_after = Mm.free_count mm in
      let errors =
        check (bad = 0)
          (Printf.sprintf "churn: %d ring nodes lost their stamp" bad)
        @ check
            (free_before = churn_capacity - held)
            (Printf.sprintf "churn: %d free with %d held, capacity %d"
               free_before held churn_capacity)
        @ check
            (free_after = churn_capacity)
            (Printf.sprintf "churn: %d of %d free at the end" free_after
               churn_capacity)
        @ audit_errors mm
      in
      let lat = S.merge (Array.to_list (Array.map (fun s -> s.clat) st)) in
      closed_result ~lr ~lat ~ctr ~majors ~errors ~layer:[]
    in
    { crew; mm; probes; go }

(* ------------------------------------------------------------------ *)
(* hmap_zipf                                                           *)

let hz_buckets = 16 * 1024
let hz_universe = 64 * 1024
let hz_ring = 1 lsl 18 (* pre-generated operations per domain, cycled *)
let hz_capacity = (2 * hz_buckets) + hz_universe + (16 * 1024)
let hz_skew = 0.99

type hz_state = {
  code : int array; (* key lsl 2 lor kind: 0 lookup, 1 insert, 2 remove *)
  mutable at : int;
  model : int array; (* value of each own-parity key, -1 when absent *)
  mutable value : int;
  mutable wrong : int;
  mutable lookups : int;
  mutable hits : int;
  olat : S.t; (* every sampled operation *)
  klat : S.t array; (* the same samples split by kind *)
}

(* Inputs: a seeded rank-to-key permutation, the prefill set and each
   domain's Zipf(0.99) operation stream, 90% lookup / 5% insert / 5%
   remove. Domain d only writes keys of parity d, so its inserts,
   removes and own-parity lookups have exact expected answers. *)
let hmap_zipf ~seed ~seconds:_ =
  let rng = Rng.create seed in
  let perm = Array.init hz_universe Fun.id in
  Rng.shuffle rng perm;
  let prefill = Array.init hz_universe Fun.id in
  Rng.shuffle rng prefill;
  let prefill = Array.sub prefill 0 (hz_universe / 2) in
  let zipf = Stats.Zipf.create ~n:hz_universe ~s:hz_skew in
  let codes =
    Array.init threads (fun d ->
        let r = Rng.split rng in
        Array.init hz_ring (fun _ ->
            let key = perm.(Stats.Zipf.sample zipf r) in
            let u = Rng.int r 100 in
            let kind = if u < 90 then 0 else if u < 95 then 1 else 2 in
            let key = if kind = 0 then key else key land lnot 1 lor d in
            (key lsl 2) lor kind))
  in
  fun ~trace ->
    let cfg =
      Mm.config ~backend:Atomics.Backend.Native ~threads ~capacity:hz_capacity
        ~num_links:1 ~num_data:2 ~num_roots:hz_buckets ()
    in
    let mm, probes = make_mm ~trace cfg in
    let h = Hmap.create mm ~buckets:hz_buckets ~tid:0 in
    let arena = Mm.arena mm in
    Array.iteri
      (fun i head -> Mm.store_link mm ~tid:0 (Arena.root_addr arena i) head)
      (Hmap.heads h);
    let fresh s =
      let v = s.value in
      s.value <- v + threads;
      v
    in
    (* Each domain builds its own state and prefills its own keys. *)
    let crew = Crew.start () in
    let st =
      Crew.per_domain crew (fun ~tid ->
          let s =
            {
              code = codes.(tid);
              at = 0;
              model = Array.make hz_universe (-1);
              value = tid;
              wrong = 0;
              lookups = 0;
              hits = 0;
              olat = S.create ~period:16 ();
              klat = Array.init 3 (fun _ -> S.create ~period:1 ());
            }
          in
          Array.iter
            (fun key ->
              if key land 1 = tid then begin
                let v = fresh s in
                if not (Hmap.insert h ~tid key v) then s.wrong <- s.wrong + 1;
                s.model.(key) <- v
              end)
            prefill;
          s)
    in
    let op ~tid s code =
      let key = code lsr 2 in
      match code land 3 with
      | 0 ->
          s.lookups <- s.lookups + 1;
          let r = Hmap.lookup h ~tid key in
          (match r with Some _ -> s.hits <- s.hits + 1 | None -> ());
          if key land 1 = tid then begin
            let m = s.model.(key) in
            match r with
            | Some v when v = m -> ()
            | None when m < 0 -> ()
            | _ -> s.wrong <- s.wrong + 1
          end;
          true
      | 1 -> (
          let v = fresh s in
          match Hmap.insert h ~tid key v with
          | exception (Mm.Out_of_memory | Mm.Out_of_nodes _) -> false
          | ins ->
              if ins = (s.model.(key) >= 0) then s.wrong <- s.wrong + 1;
              if ins then s.model.(key) <- v;
              true)
      | _ ->
          let rm = Hmap.remove h ~tid key in
          if rm <> (s.model.(key) >= 0) then s.wrong <- s.wrong + 1;
          if rm then s.model.(key) <- -1;
          true
    in
    let step ~tid =
      let s = st.(tid) in
      let code = s.code.(s.at) in
      s.at <- (s.at + 1) land (hz_ring - 1);
      if S.due s.olat then begin
        let t0 = now () in
        let r = op ~tid s code in
        let d = now () - t0 in
        S.add s.olat d;
        S.add s.klat.(code land 3) d;
        r
      end
      else op ~tid s code
    in
    let go ~seconds ~overhead =
      let ctr, lr, majors =
        timed mm (fun () -> closed_loop crew ~seconds ~chunk:16 ~step)
      in
      set_phase "check";
      let wrong = Array.fold_left (fun a s -> a + s.wrong) 0 st in
      let expected =
        List.init hz_universe Fun.id
        |> List.filter_map (fun k ->
               let m = st.(k land 1).model.(k) in
               if m >= 0 then Some (k, m) else None)
      in
      let contents = Hmap.to_list h ~tid:0 in
      let probe = Hmap.probe h ~tid:0 in
      let errors =
        check (wrong = 0)
          (Printf.sprintf "hmap_zipf: %d answers disagree with the models"
             wrong)
        @ check (contents = expected)
            (Printf.sprintf
               "hmap_zipf: final map (%d entries) differs from the union of \
                the models (%d entries)"
               (List.length contents) (List.length expected))
        @ audit_errors mm
      in
      let lat = S.merge (Array.to_list (Array.map (fun s -> s.olat) st)) in
      let kind k =
        S.merge (Array.to_list (Array.map (fun s -> s.klat.(k)) st))
      in
      let lookups = Array.fold_left (fun a s -> a + s.lookups) 0 st in
      let hits = Array.fold_left (fun a s -> a + s.hits) 0 st in
      let pct = pct_metric ~overhead in
      let layer =
        [
          pct "structures.hmap_lookup_ns_p50" (kind 0) ~num:1 ~den:2;
          pct "structures.hmap_lookup_ns_p99" (kind 0) ~num:99 ~den:100;
          pct "structures.hmap_insert_ns_p50" (kind 1) ~num:1 ~den:2;
          pct "structures.hmap_remove_ns_p50" (kind 2) ~num:1 ~den:2;
          metric "structures.hmap_hit_ratio" "ratio" (ratio hits lookups);
          metric "structures.hmap_max_chain" "count"
            (float_of_int probe.Hmap.max_chain);
          metric "structures.busy_share" "ratio"
            (busy_share ~overhead ~wall:lr.wall [ (lat, lr.tried) ]);
        ]
      in
      closed_result ~lr ~lat ~ctr ~majors ~errors ~layer
    in
    { crew; mm; probes; go }

(* ------------------------------------------------------------------ *)
(* actor_open                                                          *)

let ao_actors = 16 * 1024
let ao_spare = 1024 (* free slots beyond the live set, for zombies *)
let ao_max = ao_actors + ao_spare
let ao_buckets = ao_actors / 8 (* as Harness.Bench.run_actor_point *)
let ao_capacity = (2 * ao_buckets) + 2 + (2 * ao_max) + (1 lsl 18)
let ao_rate = 55_000 (* offered sends per second *)
let ao_lifecycle_pct = 1

type drain = {
  last : int array; (* last stamp received per table entry *)
  mutable delivered : int;
  mutable out_of_order : int;
  recv_ns : S.t;
  wait_ns : S.t;
}

let new_drain () =
  {
    last = Array.make ao_actors 0;
    delivered = 0;
    out_of_order = 0;
    recv_ns = S.create ~period:8 ();
    wait_ns = S.create ~period:8 ();
  }

(* Inputs: arrival i sends to table entry [code land 0x7fff]; when
   [code lsr 15 = r + 1] it is also one of the ~1% arrivals that
   retire entry r's actor and spawn its replacement. *)
let actor_open ~seed ~seconds =
  let rng = Rng.create seed in
  let n = int_of_float (float_of_int ao_rate *. seconds) + 1 in
  let codes =
    Array.init n (fun _ ->
        let k = Rng.int rng ao_actors in
        if Rng.int rng 100 < ao_lifecycle_pct then
          k lor ((Rng.int rng ao_actors + 1) lsl 15)
        else k)
  in
  fun ~trace ->
    let cfg =
      Service.mm_config ~backend:Atomics.Backend.Native ~threads
        ~capacity:ao_capacity ~max_actors:ao_max ~buckets:ao_buckets ()
    in
    let mm, probes = make_mm ~trace cfg in
    let svc =
      Service.create mm ~max_actors:ao_max ~buckets:ao_buckets ~seed ~tid:0
    in
    let table = Array.make ao_actors (-1) in
    let crew = Crew.start () in
    Crew.run crew (fun ~tid ->
        let share = ao_actors / threads in
        for k = tid * share to ((tid + 1) * share) - 1 do
          match Service.spawn svc ~tid with
          | Some id -> table.(k) <- id
          | None -> failwith "actor_open: pre-spawn refused"
        done);
    let go ~seconds ~overhead =
      let n =
        min (Array.length codes)
          (int_of_float (float_of_int ao_rate *. seconds))
      in
      let interval = 1_000_000_000 / ao_rate in
      let gen_done = Atomic.make false in
      let barrier = start_barrier () in
      (* generator (tid 0) *)
      let due_lat = S.create ~period:1 () and lag = S.create ~period:1 () in
      let send_ns = S.create ~period:1 () in
      let spawn_ns = S.create ~period:1 () in
      let retire_ns = S.create ~period:1 () in
      let sends = ref 0 and refused = ref 0 and spawns = ref 0 in
      let retire_missed = ref 0 in
      let t0 = Atomic.make 0 and t_end = Atomic.make 0 in
      let send ~t0 i =
        let id = table.(codes.(i) land 0x7fff) in
        if id >= 0 then begin
          incr sends;
          if not (Service.send svc ~tid:0 ~dst:id (now () - t0)) then
            incr refused
        end
      in
      let lifecycle i =
        let r = (codes.(i) lsr 15) - 1 in
        if r >= 0 && table.(r) >= 0 then begin
          let ta = now () in
          if not (Service.retire svc ~tid:0 table.(r)) then incr retire_missed;
          let tb = now () in
          S.add retire_ns (tb - ta);
          incr spawns;
          (match Service.spawn svc ~tid:0 with
          | Some id -> table.(r) <- id
          | None ->
              table.(r) <- -1;
              incr refused);
          S.add spawn_ns (now () - tb)
        end
      in
      (* The drainer (tid 1), with its state in its own heap. *)
      let drainer ~t0 =
        let d = new_drain () in
        let rec drain id k =
          let timed = trace && S.due d.recv_ns in
          let ta = if timed then now () else 0 in
          let r = Service.receive svc ~tid:1 ~self:id in
          if timed then S.add d.recv_ns (now () - ta);
          match r with
          | None -> ()
          | Some stamp ->
              if stamp < d.last.(k) then d.out_of_order <- d.out_of_order + 1;
              d.last.(k) <- stamp;
              d.delivered <- d.delivered + 1;
              if trace && S.due d.wait_ns then
                S.add d.wait_ns (now () - t0 - stamp);
              drain id k
        in
        let k = ref 0 in
        while not (Atomic.get gen_done) do
          let id = table.(!k) in
          if id >= 0 then drain id !k;
          k := (!k + 1) land (ao_actors - 1)
        done;
        Atomic.set t_end (now ());
        d
      in
      let ctr, per, majors =
        timed mm (fun () ->
            Crew.per_domain crew (fun ~tid ->
                let start = barrier ~tid in
                let w0 = Gc.minor_words () in
                let d =
                  if tid = 0 then begin
                    Atomic.set t0 start;
                    Stats.open_loop ~now ~wait:Domain.cpu_relax ~t0:start
                      ~interval ~n ~send:(send ~t0:start) ~after:lifecycle
                      ~record:(fun ~lag:l ~lat ->
                        S.add lag l;
                        S.add due_lat lat;
                        S.add send_ns (lat - l));
                    Atomic.set gen_done true;
                    None
                  end
                  else Some (drainer ~t0:start)
                in
                (d, Gc.minor_words () -. w0)))
      in
      let d = Option.get (fst per.(1)) in
      let words = Array.fold_left (fun a (_, w) -> a +. w) 0. per in
      set_phase "check";
      let wall = Atomic.get t_end - Atomic.get t0 in
      let tot = Service.totals svc in
      let probe = Service.probe svc ~tid:0 in
      let backlog = tot.Service.sent - tot.Service.received in
      set_phase "teardown";
      let discarded = Service.teardown svc ~tid:0 in
      let errors =
        check (d.out_of_order = 0)
          (Printf.sprintf "actor_open: %d stamps went backwards" d.out_of_order)
        @ check (!retire_missed = 0)
            (Printf.sprintf "actor_open: %d retires found their actor dead"
               !retire_missed)
        @ check
            (tot.Service.received = d.delivered)
            (Printf.sprintf
               "actor_open: service counted %d receives, drainer %d"
               tot.Service.received d.delivered)
        @ check
            (tot.Service.sent
            = tot.Service.received + tot.Service.discarded + discarded)
            (Printf.sprintf
               "actor_open: messages not conserved: %d sent, %d received, %d \
                discarded by retire, %d by teardown"
               tot.Service.sent tot.Service.received tot.Service.discarded
               discarded)
        @ audit_errors mm
      in
      let lat = S.merge [ due_lat ] in
      let sorted s = S.merge [ s ] in
      let pct = pct_metric ~overhead in
      let send_sorted = sorted send_ns and recv_sorted = sorted d.recv_ns in
      let receives = tot.Service.received + tot.Service.recv_empty in
      let layer =
        [
          pct "actor.send_ns_p50" send_sorted ~num:1 ~den:2;
          pct "actor.send_ns_p99" send_sorted ~num:99 ~den:100;
          pct "actor.receive_ns_p50" recv_sorted ~num:1 ~den:2;
          pct ~scale:1e3 ~unit_:"us" "actor.delivery_wait_p50_us"
            (sorted d.wait_ns) ~num:1 ~den:2;
          pct "actor.spawn_ns_p50" (sorted spawn_ns) ~num:1 ~den:2;
          pct "actor.retire_ns_p50" (sorted retire_ns) ~num:1 ~den:2;
          metric "actor.derefs_per_msg" "count"
            (ratio (delta ctr C.Deref) d.delivered);
          metric "actor.recv_empty_ratio" "ratio"
            (ratio tot.Service.recv_empty receives);
          metric "actor.backlog_end" "count" (float_of_int backlog);
          metric "actor.zombied" "count" (float_of_int tot.Service.zombied);
          metric "actor.busy_share" "ratio"
            (busy_share ~overhead ~wall
               [
                 (send_sorted, !sends);
                 (recv_sorted, receives);
                 (sorted spawn_ns, !spawns);
                 (sorted retire_ns, !spawns);
               ]);
          metric "structures.hmap_max_chain" "count"
            (float_of_int probe.Hmap.max_chain);
          pct_metric ~overhead:0. "driver.gen_lag_p99_ns" (sorted lag) ~num:99
            ~den:100;
        ]
      in
      {
        rates = [| float_of_int d.delivered /. (float_of_int wall /. 1e9) |];
        total_ops = d.delivered;
        attempted = !sends + !spawns;
        failed = !refused;
        wall_ns = wall;
        lat;
        ctr;
        minor_words = words;
        major_collections = majors;
        errors;
        layer;
      }
    in
    { crew; mm; probes; go }

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

(* Per-layer metrics every workload reports, from the counter deltas
   and the traced manager's probes. Every count is a counter the
   library keeps; none is inferred from another. The Native path
   counts no free-list CAS and no rc-word FAA, so those are not
   reported: free-list contention shows as A3/F7 retries, and rc work
   taken off the shared words as [core.rc_deferred_per_op]. *)
let common_layer ~overhead (r : phase_result) probes =
  let d = delta r.ctr in
  let per x = ratio x r.total_ops in
  let probe f =
    match probes with
    | None -> ([||], 0)
    | Some it ->
        let ss = Array.to_list (f it) in
        (S.merge ss, List.fold_left (fun a s -> a + s.S.calls) 0 ss)
  in
  let alloc = probe (fun it -> it.Traced.Wfrc.alloc_p) in
  let release = probe (fun it -> it.Traced.Wfrc.release_p) in
  let deref = probe (fun it -> it.Traced.Wfrc.deref_p) in
  let pct = pct_metric ~overhead in
  let count name v = metric name "count" v in
  [
    pct "core.alloc_ns_p50" (fst alloc) ~num:1 ~den:2;
    pct "core.alloc_ns_p99" (fst alloc) ~num:99 ~den:100;
    pct "core.release_ns_p50" (fst release) ~num:1 ~den:2;
    pct "core.release_ns_p99" (fst release) ~num:99 ~den:100;
    count "core.alloc_retry_per_alloc" (ratio (d C.Alloc_retry) (d C.Alloc));
    metric "core.alloc_helped_ratio" "ratio"
      (ratio (d C.Alloc_helped) (d C.Alloc));
    count "core.free_retry_per_free" (ratio (d C.Free_retry) (d C.Free));
    count "core.reclaimed_per_op" (per (d C.Node_reclaimed));
    metric "core.busy_share" "ratio"
      (busy_share ~overhead ~wall:r.wall_ns [ alloc; release; deref ]);
    count "core.deref_per_op" (per (d C.Deref));
    metric "core.deref_helped_ratio" "ratio"
      (ratio (d C.Deref_helped) (d C.Deref));
    count "core.help_scan_per_op" (per (d C.Help_scan));
    count "core.oom_backpressure" (float_of_int (d C.Oom_backpressure));
    count "core.rc_deferred_per_op" (per (d C.Rc_defer));
    count "atomics.link_cas_per_op" (per (d C.Cas_attempt));
    metric "atomics.link_cas_fail_ratio" "ratio"
      (ratio (d C.Cas_failure) (d C.Cas_attempt));
    count "atomics.park_waits" (float_of_int (d C.Park_wait));
    count "shmem.cache_refill_per_op" (per (d C.Cache_refill));
    count "shmem.steal_per_op" (per (d C.Steal));
    count "shmem.free_remote_per_op" (per (d C.Free_remote));
    metric "runtime.minor_words_per_op" "words"
      (if r.total_ops = 0 then 0.
       else r.minor_words /. float_of_int r.total_ops);
    count "runtime.major_collections" (float_of_int r.major_collections);
  ]

(* The per-layer metrics the final JSON line carries, in order: those
   every workload can report. Latencies of a layer only some workloads
   enter (hmap and actor call times, generator lag) are printed on the
   metric lines only; a layer a workload does not enter reads 0. *)
let json_layer =
  [
    ("core.alloc_ns_p50", "ns");
    ("core.alloc_ns_p99", "ns");
    ("core.release_ns_p50", "ns");
    ("core.release_ns_p99", "ns");
    ("core.alloc_retry_per_alloc", "count");
    ("core.alloc_helped_ratio", "ratio");
    ("core.free_retry_per_free", "count");
    ("core.reclaimed_per_op", "count");
    ("core.busy_share", "ratio");
    ("core.deref_per_op", "count");
    ("core.deref_helped_ratio", "ratio");
    ("core.help_scan_per_op", "count");
    ("core.oom_backpressure", "count");
    ("core.rc_deferred_per_op", "count");
    ("atomics.link_cas_per_op", "count");
    ("atomics.link_cas_fail_ratio", "ratio");
    ("atomics.park_waits", "count");
    ("shmem.cache_refill_per_op", "count");
    ("shmem.steal_per_op", "count");
    ("shmem.free_remote_per_op", "count");
    ("structures.hmap_hit_ratio", "ratio");
    ("structures.hmap_max_chain", "count");
    ("structures.busy_share", "ratio");
    ("actor.derefs_per_msg", "count");
    ("actor.recv_empty_ratio", "ratio");
    ("actor.backlog_end", "count");
    ("actor.zombied", "count");
    ("actor.busy_share", "ratio");
    ("runtime.minor_words_per_op", "words");
    ("runtime.major_collections", "count");
    ("op_p99_ns", "ns");
    ("driver.clock_overhead_ns", "ns");
    ("trace.overhead_ratio", "ratio");
  ]


(* Shortest decimal that reads back as the same float. *)
let number v =
  if not (Float.is_finite v) then "0"
  else
    let s = Printf.sprintf "%.15g" v in
    if float_of_string s = v then s else Printf.sprintf "%.17g" v

let print_metric m =
  Printf.printf "metric %-30s %s %s%s\n" m.name (number m.value) m.unit_
    (if m.n > 0 then Printf.sprintf " samples=%d" m.n else "")

let print_json ~correct ~attempted ~failed ms =
  let fields =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
          (number m.value) m.unit_)
      ms
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed
    (String.concat ", " fields)

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)

let workloads =
  [ ("churn", churn); ("hmap_zipf", hmap_zipf); ("actor_open", actor_open) ]
let rounds = 10

(* [setup_s] is the median of at least [setup_samples] set-ups, or of
   as many as fit in [setup_budget_s] when each is slow: the rounds'
   own, then set-ups that are torn down at once. A set-up of a few
   milliseconds, mostly zeroing the fresh arena, varies by a third
   from one to the next, and ten of them do not pin a median. *)
let setup_samples = 40
let setup_budget_s = 1.

(* Build the workload (timed), after dropping the last manager so that
   its memory is reused. One full major cycle does not always run the
   finaliser that frees the last arena: about one set-up in fifty then
   held two arenas at once and raised [peak_rss_mib] by a whole arena
   (110 MiB on actor_open). With a second cycle, none of 300 set-ups
   did. *)
let timed_setup setup ~trace =
  Atomic.set diagnostics (fun () -> "");
  Gc.full_major ();
  Gc.full_major ();
  set_phase "setup";
  let t0 = now () in
  let p = setup ~trace in
  (p, float_of_int (now () - t0) /. 1e9)

(* One round: set up (timed), run the timed phase, check, stop the
   crew. Returns the result, the set-up seconds and the probes. *)
let round setup ~trace ~seconds ~overhead =
  let p, setup_s = timed_setup setup ~trace in
  Atomic.set diagnostics (fun () -> counter_totals (Mm.counters p.mm));
  Option.iter
    (fun it ->
      List.iter (Array.iter S.reset)
        Traced.Wfrc.[ it.alloc_p; it.release_p; it.deref_p ])
    p.probes;
  set_phase (if trace then "timed (traced)" else "timed");
  let r = p.go ~seconds ~overhead in
  Crew.stop p.crew;
  List.iter (Printf.eprintf "perfbench: check failed: %s\n") r.errors;
  (r, setup_s, p.probes)

let sorted_concat arrays =
  let a = Array.concat arrays in
  Array.sort compare a;
  a

let run ~workload ~seed ~seconds ~trace =
  let prepare =
    match List.assoc_opt workload workloads with
    | Some w -> w
    | None ->
        Printf.eprintf "perfbench: unknown workload %s (known: %s)\n" workload
          (String.concat ", " (List.map fst workloads));
        exit 2
  in
  let overhead = Stats.clock_overhead_ns () in
  set_phase "inputs";
  let setup = prepare ~seed ~seconds in
  Printf.printf "workload %s seed %d seconds %g trace %d\n" workload seed
    seconds
    (if trace then 1 else 0);
  let p99 lat = pct_metric ~overhead "op_p99_ns" lat ~num:99 ~den:100 in
  if not trace then begin
    (* [rounds] rounds, each with a fresh manager and its own timed
       set-up, so one unlucky memory placement or slow spell of the
       host moves one round, not the result. Throughput is the median
       over every round's slices, latencies pool every round's
       samples, set-up time is the median set-up. *)
    let rs =
      List.init rounds (fun _ ->
          let r, setup_s, _ =
            round setup ~trace:false
              ~seconds:(seconds /. float_of_int rounds)
              ~overhead
          in
          (r, setup_s))
    in
    let rs, times = List.split rs in
    let rec more times =
      if
        List.length times >= setup_samples
        || List.fold_left ( +. ) 0. times >= setup_budget_s
      then times
      else begin
        let p, t = timed_setup setup ~trace:false in
        Crew.stop p.crew;
        more (t :: times)
      end
    in
    let times = more times in
    let sum f = List.fold_left (fun a r -> a + f r) 0 rs in
    let lat = sorted_concat (List.map (fun r -> r.lat) rs) in
    let attempted = sum (fun r -> r.attempted) in
    let failed = sum (fun r -> r.failed) in
    let e2e =
      [
        metric "ops_per_s" "1/s"
          (median_float
             (Array.concat (List.map (fun (r : phase_result) -> r.rates) rs)));
        pct_metric ~overhead "op_p50_ns" lat ~num:1 ~den:2;
        metric ~n:(List.length times) "setup_s" "s"
          (median_float (Array.of_list times));
        metric "peak_rss_mib" "MiB" (peak_rss_mib ());
      ]
    in
    List.iter print_metric e2e;
    (* Printed only: the per-layer set reports it, because the
       open-loop tail moves with host stalls far more than any bound
       allows (see README.md). *)
    print_metric (p99 lat);
    print_metric (metric "fail_ratio" "ratio" (ratio failed attempted));
    let correct = List.for_all (fun r -> r.errors = []) rs in
    print_json ~correct ~attempted ~failed e2e;
    correct
  end
  else begin
    (* Untraced then traced, half the time each: the ratio of their
       throughputs is the tracing overhead. *)
    let half = seconds /. 2. in
    let plain, _, _ = round setup ~trace:false ~seconds:half ~overhead in
    let r, _, probes = round setup ~trace:true ~seconds:half ~overhead in
    let layer =
      common_layer ~overhead r probes
      @ r.layer
      @ [
          p99 plain.lat;
          metric "driver.clock_overhead_ns" "ns" overhead;
          metric "trace.overhead_ratio" "ratio"
            (median_float plain.rates /. median_float r.rates);
        ]
    in
    List.iter print_metric layer;
    print_metric (metric "fail_ratio" "ratio" (ratio r.failed r.attempted));
    let json =
      List.map
        (fun (name, unit_) ->
          match List.find_opt (fun m -> m.name = name) layer with
          | Some m -> m
          | None -> metric name unit_ 0.)
        json_layer
    in
    let correct = plain.errors = [] && r.errors = [] in
    print_json ~correct ~attempted:(plain.attempted + r.attempted)
      ~failed:(plain.failed + r.failed) json;
    correct
  end

(* ------------------------------------------------------------------ *)
(* Self-tests of the measurement code                                  *)

let selftest () =
  let failures = ref [] in
  let expect name cond = if not cond then failures := name :: !failures in
  (* exact nearest-rank percentiles *)
  let a = Array.init 100 (fun i -> i + 1) in
  Rng.shuffle (Rng.create 1) a;
  Array.sort compare a;
  expect "p50 of 1..100" (Stats.percentile a ~num:1 ~den:2 = 50);
  expect "p99 of 1..100" (Stats.percentile a ~num:99 ~den:100 = 99);
  expect "p100 of 1..100" (Stats.percentile a ~num:1 ~den:1 = 100);
  expect "p50 of [1;2]" (Stats.percentile [| 1; 2 |] ~num:1 ~den:2 = 1);
  expect "p99 of [7]" (Stats.percentile [| 7 |] ~num:99 ~den:100 = 7);
  expect "p99 of 1..1000"
    (Stats.percentile (Array.init 1000 (fun i -> i + 1)) ~num:99 ~den:100
    = 990);
  expect "overhead subtracted"
    (Stats.timed_percentile a ~overhead:20.5 ~num:1 ~den:2 = 29.5);
  (* the sample store thins itself to an even spacing *)
  let s = S.create ~cap:4 ~period:1 () in
  for v = 0 to 12 do
    if S.due s then S.add s v
  done;
  expect "decimated samples"
    (Array.sub s.S.buf 0 s.S.len = [| 0; 4; 8; 12 |] && s.S.calls = 13);
  (* Zipf(0.99) frequencies within 5 sigma of the law *)
  let n = 65_536 and draws = 400_000 in
  let z = Stats.Zipf.create ~n ~s:0.99 in
  let counts = Array.make n 0 in
  let rng = Rng.create 42 in
  for _ = 1 to draws do
    let r = Stats.Zipf.sample z rng in
    counts.(r) <- counts.(r) + 1
  done;
  let within obs p =
    let mu = float_of_int draws *. p in
    Float.abs (float_of_int obs -. mu) <= 5. *. sqrt (mu *. (1. -. p))
  in
  for r = 0 to 9 do
    expect
      (Printf.sprintf "zipf rank %d" r)
      (within counts.(r) (Stats.Zipf.prob z r))
  done;
  let tail = ref 0 and ptail = ref 0. in
  for r = 1024 to n - 1 do
    tail := !tail + counts.(r);
    ptail := !ptail +. Stats.Zipf.prob z r
  done;
  expect "zipf tail mass" (within !tail !ptail);
  expect "zipf rank 1 vs 2"
    (let r = Stats.Zipf.prob z 0 /. Stats.Zipf.prob z 1 in
     Float.abs (r -. Float.pow 2. 0.99) < 1e-9);
  (* open-loop lateness on a synthetic clock: arrivals every 100 ns,
     sends cost 10 ns, arrival 3's send stalls for 1000 ns *)
  let clock = ref 0 in
  let lats = ref [] and lags = ref [] in
  Stats.open_loop
    ~now:(fun () -> !clock)
    ~wait:(fun () -> incr clock)
    ~t0:0 ~interval:100 ~n:10
    ~send:(fun i -> clock := !clock + if i = 3 then 1000 else 10)
    ~after:(fun _ -> ())
    ~record:(fun ~lag ~lat ->
      lags := lag :: !lags;
      lats := lat :: !lats);
  expect "open-loop latency from due"
    (List.rev !lats = [ 10; 10; 10; 1000; 910; 820; 730; 640; 550; 460 ]);
  expect "open-loop generator lag"
    (List.rev !lags = [ 0; 0; 0; 0; 900; 810; 720; 630; 540; 450 ]);
  (* untimed follow-up work delays later arrivals only *)
  clock := 0;
  lats := [];
  Stats.open_loop
    ~now:(fun () -> !clock)
    ~wait:(fun () -> incr clock)
    ~t0:0 ~interval:100 ~n:4
    ~send:(fun _ -> clock := !clock + 10)
    ~after:(fun i -> if i = 1 then clock := !clock + 300)
    ~record:(fun ~lag:_ ~lat -> lats := lat :: !lats);
  expect "open-loop follow-up work" (List.rev !lats = [ 10; 10; 220; 130 ]);
  match !failures with
  | [] -> true
  | fs ->
      List.iter
        (Printf.eprintf "perfbench: self-test failed: %s\n")
        (List.rev fs);
      false

let usage () =
  prerr_endline
    "usage: perf.exe run --workload (churn|hmap_zipf|actor_open) --seed N \
     --seconds S --trace 0|1";
  exit 2

let () =
  match Array.to_list Sys.argv with
  | _ :: "run" :: args ->
      let workload = ref "" and seed = ref 1 and seconds = ref 10. in
      let trace = ref false in
      let rec parse = function
        | "--workload" :: w :: rest -> workload := w; parse rest
        | "--seed" :: n :: rest -> seed := int_of_string n; parse rest
        | "--seconds" :: n :: rest -> seconds := float_of_string n; parse rest
        | "--trace" :: ("0" | "1" as t) :: rest -> trace := t = "1"; parse rest
        | [] -> ()
        | _ -> usage ()
      in
      (try parse args with Failure _ -> usage ());
      if !workload = "" || !seconds <= 0. then usage ();
      if not (selftest ()) then exit 1;
      let disarm =
        watchdog ~workload:!workload
          ~limit_s:(Float.min 170. ((2. *. !seconds) +. 60.))
      in
      let ok =
        try run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:!trace
        with e ->
          Printf.eprintf "perfbench: %s failed in phase %s: %s\n" !workload
            (Atomic.get phase) (Printexc.to_string e);
          false
      in
      disarm ();
      exit (if ok then 0 else 1)
  | _ -> usage ()

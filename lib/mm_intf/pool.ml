[@@@wfrc.progress "lock_free"] (* static progress contract; checked by `wfrc_lint --pass progress` *)

(* The free pool shared by the baseline managers (hp, ebr, lfrc,
   lockrc).

   The schemes differ only in how they decide that a node is free — a
   hazard scan, an epoch grace period, a count reaching zero (§3,
   ReleaseRef/FreeNode). Where the node goes next, and how an empty
   pool degrades, is the same for all of them; that part lives here
   (the allocator/pool half of the allocator/pool/reclaimer split of
   Brown's record managers). A pool is one of:

   - [Treiber]: one stamp-tagged head with CAS push and pop, the
     unsharded free list (the only shape under [Sim]);
   - [Locked]: the same list behind a plain head, for a caller that
     serialises every access under its own lock (lockrc). Plain reads
     and writes, no CAS, so its schedules stay those of a critical
     section;
   - [Sharded]: a {!Shmem.Freestore} (stripes, return buffers and
     per-thread caches) for the sharded Native configurations.

   {!claim} is the one allocation loop: a pass, then the scheme's
   [between] hook after each empty pass (hp scans its retired list,
   ebr advances the epoch, lfrc and hp park on the store), and after
   [limit] such rounds a typed exhaustion signal — [Out_of_memory] on
   a single head; on the sharded store one adoption of declared-dead
   peers' caches and one more pass first, then [Out_of_nodes]. Wfrc
   keeps the paper's 2N lists (Figure 5) and does not use this
   module. *)

module C = Atomics.Counters
module Hot = Atomics.Hot
module Value = Shmem.Value
module Arena = Shmem.Arena
module Freestore = Shmem.Freestore

exception Out_of_memory
exception Out_of_nodes of { retries : int; waits : int }

type store = Treiber of Hot.t | Locked of Hot.t | Sharded of Freestore.t

type t = {
  arena : Arena.t;
  ctr : C.t;
  dead : Dead.t;
  store : store;
  park_rounds : int;
}

(* Count protection for a Treiber pop (§3.1): [hold] runs on the
   candidate before its [mm_next] is read, [drop] undoes it when the
   head CAS fails. *)
type pin = { hold : Value.ptr -> unit; drop : Value.ptr -> unit }

let create ?(locked = false) ~backend ~rep ~arena ~counters ~dead ~stripes ()
    =
  let head init = Hot.create ~backend ~rep 1 ~init:(fun _ -> init) in
  let store, park_rounds =
    match stripes with
    | Some (shards, batch, threads) ->
        ( Sharded
            (Freestore.create ~backend ~rep ~arena ~counters ~shards ~batch
               ~threads ()),
          (16 * threads) + 16 )
    | None ->
        let cap = Arena.capacity arena in
        for h = 1 to cap do
          Arena.write_mm_next arena (Value.of_handle h)
            (if h < cap then Value.of_handle (h + 1) else Value.null)
        done;
        let first = Value.of_handle 1 in
        ( (if locked then Locked (head first)
           else Treiber (head (Value.pack_stamped ~stamp:0 ~ptr:first))),
          0 )
  in
  { arena; ctr = counters; dead; store; park_rounds }

let sharded t = match t.store with Sharded _ -> true | _ -> false

(* Rounds a sharded claim may park before giving up: nodes parked in
   other threads' caches are invisible and wake nobody, so the budget
   is the same envelope as WFRC's A7 scan limit. 0 for a single head,
   where an empty pass is conclusive. *)
let park_rounds t = t.park_rounds

(* The node enters allocator custody; it is privately owned here. *)
let push t ~tid node =
  Events.emit ~tid node Events.Free;
  C.incr t.ctr ~tid Free;
  match t.store with
  | Sharded fs -> Freestore.free fs ~tid node
  | Locked h ->
      Arena.write_mm_next t.arena node (Hot.read h 0);
      Hot.write h 0 node
  | Treiber h ->
      let rec go () =
        let hv = Hot.read h 0 in
        Arena.write_mm_next t.arena node (Value.stamped_ptr hv);
        let nw =
          Value.pack_stamped ~stamp:(Value.stamped_stamp hv + 1) ~ptr:node
        in
        if not (Hot.cas h 0 ~old:hv ~nw) then begin
          C.incr t.ctr ~tid Free_retry;
          go ()
        end
      in
      go ()
[@@wfrc.expect_unbounded
  "stamped Treiber push: the head CAS can lose to concurrent pushes and \
   pops indefinitely"]

(* One allocation pass: a node, or null when the pool looks empty. *)
let pop ?pin t ~tid =
  match t.store with
  | Sharded fs -> (
      match Freestore.alloc fs ~tid with Some p -> p | None -> Value.null)
  | Locked h ->
      let node = Hot.read h 0 in
      if not (Value.is_null node) then
        Hot.write h 0 (Arena.read_mm_next t.arena node);
      node
  | Treiber h ->
      let rec go () =
        let hv = Hot.read h 0 in
        let node = Value.stamped_ptr hv in
        if Value.is_null node then node
        else begin
          (match pin with Some p -> p.hold node | None -> ());
          let next = Arena.read_mm_next t.arena node in
          let nw =
            Value.pack_stamped ~stamp:(Value.stamped_stamp hv + 1) ~ptr:next
          in
          if Hot.cas h 0 ~old:hv ~nw then node
          else begin
            C.incr t.ctr ~tid Alloc_retry;
            (match pin with Some p -> p.drop node | None -> ());
            go ()
          end
        end
      in
      go ()
[@@wfrc.expect_unbounded
  "stamped Treiber pop: the head CAS can lose to concurrent pushes and \
   pops indefinitely — the lock-free allocation path of the baselines"]

(* Drain declared-dead threads' private caches back into circulation
   (sharded only: a single head has no per-thread custody). *)
let adopt_dead t ~tid =
  match t.store with
  | Sharded fs -> Freestore.adopt fs ~tid ~dead:(Dead.list t.dead)
  | Treiber _ | Locked _ -> 0

let park t ~tid =
  match t.store with
  | Sharded fs -> Freestore.wait_free fs ~tid ~timeout_ns:200_000
  | Treiber _ | Locked _ -> ()

let claim ?pin t ~tid ~limit ~between =
  let rec go rounds =
    let node = pop ?pin t ~tid in
    if not (Value.is_null node) then node
    else if rounds < limit then begin
      between rounds;
      C.incr t.ctr ~tid Alloc_retry;
      go (rounds + 1)
    end
    else
      match t.store with
      | Treiber _ | Locked _ -> raise Out_of_memory
      | Sharded _ ->
          (* one more pass over whatever adoption returned, then give up *)
          let adopted = adopt_dead t ~tid > 0 in
          let node = if adopted then pop ?pin t ~tid else Value.null in
          if not (Value.is_null node) then node
          else begin
            C.incr t.ctr ~tid Oom_backpressure;
            raise
              (Out_of_nodes
                 {
                   retries = (limit + if adopted then 2 else 1);
                   waits = limit;
                 })
          end
  [@@wfrc.bounded
    "round counter: rounds advances toward limit at every between-pass \
     and is never reset, so at most limit+2 passes before Out_of_memory \
     or typed Out_of_nodes"]
  in
  go 0

(* Every node in the pool. Cycles go to [violation]; duplicates are the
   caller's to detect, and [f] returns [false] on one to end the chain
   it is on. Quiescent only. *)
let iter_free t ~violation ~f =
  match t.store with
  | Sharded fs -> Freestore.iter_free fs ~violation ~f
  | Treiber h | Locked h ->
      let head = Value.stamped_ptr (Hot.read h 0) in
      if not (Arena.iter_chain t.arena ~f head) then
        violation "cycle in the free pool"

(* The common memory-manager contract.

   This is the paper's §3.2 user model, factored as a signature so the
   same data-structure code runs on the wait-free scheme (lib/core),
   the Valois-style lock-free baseline, hazard pointers, epochs and
   the lock-based strawman. The operations mirror the paper's API:

     alloc      = AllocNode          deref  = DeRefLink
     release    = ReleaseRef         copy   = FixRef(node, +2)
     cas_link   = CompareAndSwapLink (Figure 6: CAS + HelpDeRef duty)
     store_link = direct write, only valid when the old value is known
                  to be null and no update races (§3.2)
     terminate  = "this node is now fully unlinked": a no-op for
                  reference counting, the retire point for HP/EBR.

   Pointers may carry deletion-mark bits (as in the skiplist of [18]);
   managers ignore marks and operate on the underlying node. *)

exception Out_of_memory = Pool.Out_of_memory
(* Raised by [alloc] when the free-list is exhausted (paper fn. 4). *)

exception Out_of_nodes = Pool.Out_of_nodes
(* Typed backpressure from the bounded-wait allocation path: the free
   store stayed empty through [retries] passes, with [waits] rounds of
   the scheme's between-pass work (parks, scans, epoch advances) in
   between; a recovery attempt for declared-dead holders was made, and
   the caller should back off / shed load rather than block. Distinct
   from {!Out_of_memory}, which is the Sim/legacy hard exhaustion
   signal with unchanged semantics. *)

type config = {
  threads : int;      (* fixed number of participating threads (N) *)
  capacity : int;     (* number of nodes in the arena *)
  num_links : int;    (* link slots per node, released on reclaim (R3) *)
  num_data : int;     (* uninterpreted data words per node *)
  num_roots : int;    (* root link cells for the client structure *)
  backend : Atomics.Backend.t;
  (* shared-memory backend every layer below inherits: [Sim] for
     deterministic-scheduler/lincheck runs (one scheduling point per
     primitive), [Native] for hook-free Domain-parallel runs with
     contention padding. *)
  rep : Atomics.Backend.rep;
  (* cell representation every layer below inherits: [Boxed] is the
     dense [int Atomic.t] store (the only choice under [Sim]);
     [Unboxed] — the [Native] default — puts the arena, the managers'
     hot globals and the free-store heads on raw out-of-heap word
     blocks driven by C stubs. *)
  shards : int;
  (* free-store stripes for the [Native] backend. 1 = the single
     legacy free-list; > 1 splits the node range into per-domain
     stripes with padded heads and per-stripe remote-free buffers.
     Ignored (must be 1) under [Sim], whose byte-for-byte behaviour
     the deterministic scheduler and lincheck depend on. *)
  batch : int;
  (* domain-local allocation-cache batch size [B]: caches hold up to
     [2*B] nodes and grab/return them [B] at a time. 1 = no cache
     (every alloc/free goes straight to a stripe, the legacy path). *)
  defer : int;
  (* per-domain rc-buffer capacity for the deferred-rc variant: each
     thread may park up to [defer] decrements locally before a
     buffer-full flush touches the shared rc words. 0 — the default —
     is fully eager: every ReleaseRef hits the shared word at once,
     the legacy wfrc/lfrc/lockrc behaviour. *)
}

let config ?(num_links = 0) ?(num_data = 0) ?(num_roots = 0)
    ?(backend = Atomics.Backend.Sim) ?rep ?(shards = 1) ?(batch = 1)
    ?(defer = 0) ~threads ~capacity () =
  if threads < 1 then invalid_arg "Mm_intf.config: threads";
  if capacity < 1 then invalid_arg "Mm_intf.config: capacity";
  if shards < 1 then invalid_arg "Mm_intf.config: shards";
  if batch < 1 then invalid_arg "Mm_intf.config: batch";
  if defer < 0 then invalid_arg "Mm_intf.config: defer";
  if shards > capacity then invalid_arg "Mm_intf.config: shards > capacity";
  if backend = Atomics.Backend.Sim && (shards > 1 || batch > 1) then
    invalid_arg "Mm_intf.config: sharding requires the Native backend";
  let rep =
    match rep with
    | Some r -> r
    | None -> Atomics.Backend.default_rep backend
  in
  if backend = Atomics.Backend.Sim && rep = Atomics.Backend.Unboxed then
    invalid_arg "Mm_intf.config: the unboxed rep requires the Native backend";
  {
    threads;
    capacity;
    num_links;
    num_data;
    num_roots;
    backend;
    rep;
    shards;
    batch;
    defer;
  }

(* Whether a config opts into the sharded free store (stripes +
   domain-local caches). [shards = 1, batch = 1] — the default — keeps
   every manager on its legacy free-list code path. *)
let sharded cfg =
  cfg.backend = Atomics.Backend.Native && (cfg.shards > 1 || cfg.batch > 1)

(* The arena a config describes. With [claimed] every node starts at
   mm_ref = 1, the reference-counting schemes' "free, claimed by the
   allocator" value. *)
let make_arena ?(claimed = false) cfg =
  let layout =
    Shmem.Layout.create ~num_links:cfg.num_links ~num_data:cfg.num_data
  in
  let arena =
    Shmem.Arena.create ~backend:cfg.backend ~rep:cfg.rep ~layout
      ~capacity:cfg.capacity ~num_roots:cfg.num_roots ()
  in
  if claimed then
    Shmem.Arena.iter_nodes arena (fun p ->
        Shmem.Arena.write arena (Shmem.Arena.mm_ref_addr arena p) 1);
  arena

(* Node lifecycle events (Alloc / Free / Retire); see events.ml. *)
module Events = Events

(* The declared-dead set and the shared free pool; see dead.ml and
   pool.ml. *)
module Dead = Dead
module Pool = Pool

(* The pool a config asks for: a Freestore when [sharded], else one
   head — stamped, or plain under the caller's lock when [locked]. *)
let pool ?locked cfg ~arena ~counters ~dead =
  Pool.create ?locked ~backend:cfg.backend ~rep:cfg.rep ~arena ~counters ~dead
    ~stripes:
      (if sharded cfg then Some (cfg.shards, cfg.batch, cfg.threads) else None)
    ()

(* Fault-tolerant accounting snapshot for the post-run auditor
   (Harness.Audit). Unlike [validate]/[free_count] the [custody]
   accessor must never raise — structural damage is reported in
   [violations] — so it can be taken after a run in which threads
   crashed or were abandoned mid-operation and left announcements,
   hazard slots or half-pushed free-list nodes behind. *)
type custody = {
  free : bool array;
      (* indexed by node handle 1..capacity (slot 0 unused): the node
         is in a free store and immediately allocatable *)
  pending : (int * int) list;
      (* (tid, handle): in allocator custody but parked under that
         thread — annAlloc donations (wfrc), retired lists (hp),
         limbo bags (ebr). Reclaimable only through that thread, so a
         crashed owner strands them. *)
  pinned : (int * int) list;
      (* (tid, handle): protection published by that thread which
         blocks reclamation — hazard slots (hp), unretracted
         announcement answers (wfrc) *)
  deferred : (int * int) list;
      (* (tid, handle): a decrement parked in that thread's rc buffer
         (the deferred-rc variant). The shared count over-approximates
         the true count by 2 per entry until the owner flushes;
         duplicates are legal — one entry per outstanding decrement.
         Empty for eager schemes. *)
  in_hand : (int * int) list;
      (* (tid, handle): a node that thread held inside its current
         operation outside every other record — popped from the pool
         but not yet hazarded (hp) or linked (ebr), unlinked by its
         [cas_link] but not yet retired, or taken off its retired list
         or limbo bag but not yet back in the pool (see {!Hand}). A
         superset: entries may since have become free, reachable or
         parked, so only the auditor's crash attribution reads it.
         Empty for the reference-counting schemes, whose counts
         already betray such nodes. *)
  violations : string list;
      (* structural damage found while walking (cycles, double
         custody); empty on a healthy snapshot *)
}

(* The per-thread in-hand record behind [custody.in_hand] for the
   non-refcounted schemes (hp/ebr). With no count to betray it, a node
   a thread holds between leaving one custody record and entering the
   next is invisible to an external observer, so a crash in that
   window would read as a leak. The owner records the node on the way
   out: [hold] at the pool pop and for the old target of each
   successful [cas_link], [reclaiming] for the whole batch a
   scan/collect is about to push. [clear] runs at [enter_op] and for
   dead tids in [recover]. Single holds live in a ring of the last
   [ring] entries — an operation has at most a few nodes in hand at
   once — so a caller that never brackets its operations costs a
   fixed array, not a growing list. Owner-written, read only at
   quiescence. *)
module Hand = struct
  let ring = 16

  type t = { held : int array; mutable n : int; mutable batch : int list }

  let create () = { held = Array.make ring 0; n = 0; batch = [] }

  let hold h p =
    h.held.(h.n land (ring - 1)) <- p;
    h.n <- h.n + 1

  let reclaiming h ps = h.batch <- ps

  let clear h =
    h.n <- 0;
    h.batch <- []

  let to_list h =
    List.init (min h.n ring) (fun i -> h.held.((h.n - 1 - i) land (ring - 1)))
    @ h.batch
end

(* Building and reading custody snapshots. [make] assembles the record
   from an iterator over the free pool (typically {!Pool.iter_free})
   and [(tid, node)] lists that default to empty, and runs the checks
   every scheme shares: a node twice in the pool, a pending node that
   is also free or pending twice, a deferred decrement on a free node.
   A manager only says where its nodes are. The readers below are the
   raising, quiescent view [validate] and [free_count] take. *)
module Custody = struct
  module Value = Shmem.Value
  module Arena = Shmem.Arena

  (* [(tid, node)] entries from a per-thread array. *)
  let per_thread threads f =
    List.concat
      (List.mapi
         (fun tid x -> List.map (fun p -> (tid, p)) (f x))
         (Array.to_list threads))

  let make ~capacity ?(pending = []) ?(pinned = []) ?(deferred = [])
      ?(in_hand = []) ?(violations = []) iter_free =
    let found = ref [] in
    let violation fmt =
      Printf.ksprintf (fun s -> found := s :: !found) fmt
    in
    let free = Array.make (capacity + 1) false in
    iter_free ~violation:(violation "%s") ~f:(fun p ->
        let h = Value.handle p in
        if free.(h) then begin
          violation "node #%d in the pool twice" h;
          false
        end
        else begin
          free.(h) <- true;
          true
        end);
    let handles = List.map (fun (tid, p) -> (tid, Value.handle p)) in
    let pending = handles pending in
    let parked = Hashtbl.create 16 in
    List.iter
      (fun (tid, h) ->
        if free.(h) then
          violation "node #%d pending under thread %d is also in the pool" h
            tid
        else if Hashtbl.mem parked h then violation "node #%d pending twice" h;
        Hashtbl.replace parked h ())
      pending;
    let deferred = handles deferred in
    List.iter
      (fun (tid, h) ->
        if h >= 1 && h <= capacity && free.(h) then
          violation "rc buffer[%d] entry #%d is in the pool" tid h)
      deferred;
    {
      free;
      pending;
      pinned = handles pinned;
      deferred;
      in_hand = handles in_hand;
      violations = violations @ List.rev !found;
    }

  (* Fails on the first violation; otherwise the table of nodes in
     allocator custody, free or pending. *)
  let strict ~who c =
    (match c.violations with v :: _ -> failwith (who ^ ": " ^ v) | [] -> ());
    if c.pending = [] then c.free
    else begin
      let s = Array.copy c.free in
      List.iter (fun (_, h) -> s.(h) <- true) c.pending;
      s
    end

  let count s = Array.fold_left (fun n b -> if b then n + 1 else n) 0 s

  (* [strict] for the reference-counting schemes, which also hold
     every node in allocator custody at mm_ref = 1 ([pending_ref] for
     a pending one: wfrc's donations carry the F3 inflation). *)
  let free_refs ~who ~arena ?(pending_ref = 1) c =
    let s = strict ~who c in
    let expect want h =
      let r = Arena.read_mm_ref arena (Value.of_handle h) in
      if r <> want then
        failwith
          (Printf.sprintf "%s: free node #%d has mm_ref=%d, expected %d" who h
             r want)
    in
    Array.iteri (fun h free -> if free then expect 1 h) c.free;
    List.iter (fun (_, h) -> expect pending_ref h) c.pending;
    s

  (* Every node outside [free_set] carries an even, non-negative
     count. *)
  let allocated_refs ~who ~arena free_set =
    Arena.iter_nodes arena (fun p ->
        if not free_set.(Value.handle p) then begin
          let r = Arena.read_mm_ref arena p in
          if r < 0 || r land 1 = 1 then
            failwith
              (Printf.sprintf "%s: allocated node #%d has bad mm_ref=%d" who
                 (Value.handle p) r)
        end)
end

(* What one recovery pass over the declared-dead set accomplished.
   [adopted] counts nodes moved from dead-thread custody (annAlloc
   donations, retired lists, limbo bags, allocation caches) back into
   allocator circulation; [released] counts surplus references dropped
   on dead threads' behalf (each may cascade and reclaim several
   nodes); [cleared] counts per-thread metadata slots wiped
   (announcement-pool rows, hazard slots, epoch pins, a held lock). *)
type recovery = { adopted : int; released : int; cleared : int }

let no_recovery = { adopted = 0; released = 0; cleared = 0 }

(* Shared recovery analysis for the reference-counting schemes
   (wfrc/lfrc/lockrc). At quiescence, with the survivors drained and
   the dead threads' published metadata already cleared, every
   remaining reference anomaly is attributable to a crashed thread
   (the same attribution argument as Harness.Audit):

     even count above the 2-per-link inbound share
                      — the dead thread still holds references it
                        acquired; drop them one release at a time, so
                        the scheme's own reclamation cascade runs;
     odd count, unreachable, no inbound
                      — crashed inside ReleaseRef/FreeNode after the
                        R2 claim (possibly with the F3 donation
                        inflation); finish the free it never completed;
     zero count, unreachable, no inbound
                      — crashed between the R1 decrement and the R2
                        claim; same revival.

   [next] re-analyses from scratch and returns one action, or [None]
   at the fixpoint; [run] drives actions to the fixpoint with a
   budget. One action per analysis round keeps the walk sound while
   release cascades rewrite the free set underneath it — recovery is
   rare and quiescent, so the O(anomalies * capacity) cost is fine.
   Revival is gated on zero inbound links: forcing the claimed count
   while another (crash-held) node still links to the victim would
   corrupt the count when that linker is later reclaimed, so such
   nodes wait for their linkers' cascades to resolve first. *)
module Rc_anomaly = struct
  module Value = Shmem.Value
  module Arena = Shmem.Arena

  type action =
    | Drop_excess of Value.ptr (* release one surplus reference *)
    | Revive of Value.ptr      (* finish a crashed thread's free *)

  let next ~arena ~free ~is_pending =
    let cap = Arena.capacity arena in
    let num_links = Shmem.Layout.num_links (Arena.layout arena) in
    let is_free h = h >= 1 && h <= cap && free.(h) in
    let skip h = is_free h || is_pending h in
    let reach = Array.make (cap + 1) false in
    let rec visit h =
      if h >= 1 && h <= cap && (not (is_free h)) && not reach.(h) then begin
        reach.(h) <- true;
        let p = Value.of_handle h in
        for i = 0 to num_links - 1 do
          let v = Arena.read_link arena p i in
          if not (Value.is_null v) then visit (Value.handle (Value.unmark v))
        done
      end
    in
    let inbound = Array.make (cap + 1) 0 in
    let count v =
      if not (Value.is_null v) then begin
        let h = Value.handle (Value.unmark v) in
        if h >= 1 && h <= cap then inbound.(h) <- inbound.(h) + 2
      end
    in
    for r = 0 to Arena.num_roots arena - 1 do
      let v = Arena.read arena (Arena.root_addr arena r) in
      if not (Value.is_null v) then visit (Value.handle (Value.unmark v));
      count v
    done;
    for h = 1 to cap do
      if not (skip h) then
        let p = Value.of_handle h in
        for i = 0 to num_links - 1 do
          count (Arena.read_link arena p i)
        done
    done;
    let found = ref None in
    (try
       for h = 1 to cap do
         if not (skip h) then begin
           let r = Arena.read_mm_ref arena (Value.of_handle h) in
           if r land 1 = 0 && r > inbound.(h) then begin
             found := Some (Drop_excess (Value.of_handle h));
             raise Exit
           end
         end
       done;
       for h = 1 to cap do
         if (not (skip h)) && (not reach.(h)) && inbound.(h) = 0 then begin
           let r = Arena.read_mm_ref arena (Value.of_handle h) in
           if r land 1 = 1 || r = 0 then begin
             found := Some (Revive (Value.of_handle h));
             raise Exit
           end
         end
       done
     with Exit -> ());
    !found

  (* Drive to the fixpoint. [custody] must re-snapshot (the free set
     moves under the cascades); [release]/[revive] are the scheme's
     callbacks, each counted as a [Recovery_release]/[Recovery_adopt]
     event for [tid]. Returns [(revived, releases)]. *)
  let run ~arena ~counters ~tid ~custody ~release ~revive =
    let cap = Arena.capacity arena in
    let budget = ref ((4 * cap) + 16) in
    let revived = ref 0 and releases = ref 0 in
    let continue_ = ref true in
    while !continue_ && !budget > 0 do
      decr budget;
      let (c : custody) = custody () in
      let pend = Array.make (cap + 1) false in
      List.iter
        (fun ((_ : int), h) -> if h >= 1 && h <= cap then pend.(h) <- true)
        c.pending;
      match next ~arena ~free:c.free ~is_pending:(fun h -> pend.(h)) with
      | None -> continue_ := false
      | Some (Drop_excess p) ->
          incr releases;
          Atomics.Counters.incr counters ~tid Recovery_release;
          release p
      | Some (Revive p) ->
          incr revived;
          Atomics.Counters.incr counters ~tid Recovery_adopt;
          revive p
    done;
    (!revived, !releases)
end

(* Orphan sweep for the non-refcounted schemes (hp/ebr). A thread
   that crashes between unlinking a node and retiring it leaves the
   node unreachable, in no custody record, and — with no reference
   count — carrying no anomaly that could flag it: normal operation
   can never reclaim it. At recovery time the premises are exactly
   the auditor's (quiescent instance, survivors drained, dead
   declared), so any node of snapshot [c] that is neither free, nor
   reachable from the roots, nor pending or pinned (retired lists,
   limbo bags, published hazards) is unreclaimable garbage the
   adopter may free. [sweep] marks from the roots and hands each such
   node to [reclaim]; returns how many it freed. *)
module Orphan = struct
  module Value = Shmem.Value
  module Arena = Shmem.Arena

  let sweep ~arena (c : custody) ~reclaim =
    let cap = Arena.capacity arena in
    let num_links = Shmem.Layout.num_links (Arena.layout arena) in
    let is_free h = h >= 1 && h <= cap && c.free.(h) in
    let keep = Array.make (cap + 1) false in
    List.iter (fun (_, h) -> keep.(h) <- true) (c.pending @ c.pinned);
    let reach = Array.make (cap + 1) false in
    let rec visit h =
      if h >= 1 && h <= cap && (not (is_free h)) && not reach.(h) then begin
        reach.(h) <- true;
        let p = Value.of_handle h in
        for i = 0 to num_links - 1 do
          let v = Arena.read_link arena p i in
          if not (Value.is_null v) then visit (Value.handle (Value.unmark v))
        done
      end
    in
    for r = 0 to Arena.num_roots arena - 1 do
      let v = Arena.read arena (Arena.root_addr arena r) in
      if not (Value.is_null v) then visit (Value.handle (Value.unmark v))
    done;
    let n = ref 0 in
    for h = 1 to cap do
      if (not (is_free h)) && (not reach.(h)) && not keep.(h) then begin
        incr n;
        reclaim (Value.of_handle h)
      end
    done;
    !n
end

let recovery_add a b =
  {
    adopted = a.adopted + b.adopted;
    released = a.released + b.released;
    cleared = a.cleared + b.cleared;
  }

module type S = sig
  type t

  val name : string
  (** Short scheme identifier used in reports ("wfrc", "lfrc", ...). *)

  val refcounted : bool
  (** Whether the scheme tracks per-node reference counts in the
      arena's [mm_ref] word with the shared two-units-per-reference
      convention (wfrc/lfrc/lockrc). The auditor only runs refcount
      conservation checks on such schemes. *)

  val create : config -> t
  (** Build the manager; all [capacity] nodes start free. *)

  val config : t -> config
  val arena : t -> Shmem.Arena.t
  val counters : t -> Atomics.Counters.t

  val enter_op : t -> tid:int -> unit
  (** Bracket opening a client data-structure operation. No-op for
      reference-counting schemes; EBR pins its epoch here. *)

  val exit_op : t -> tid:int -> unit
  (** Bracket closing an operation; HP clears slots, EBR unpins. *)

  val alloc : t -> tid:int -> Shmem.Value.ptr
  (** The paper's [AllocNode]: a fresh node holding one reference owned
      by the caller. Raises {!Out_of_memory} when exhausted. *)

  val deref : t -> tid:int -> Shmem.Value.addr -> int
  (** The paper's [DeRefLink]: read link and acquire a guaranteed-safe
      reference to the node it points to. The result is the raw word
      (possibly null, possibly mark-tagged). *)

  val release : t -> tid:int -> Shmem.Value.ptr -> unit
  (** The paper's [ReleaseRef]; accepts null (no-op) and marked
      pointers (mark ignored). *)

  val copy_ref : t -> tid:int -> Shmem.Value.ptr -> Shmem.Value.ptr
  (** Duplicate a held reference (the paper's [FixRef(node, 2)]);
      returns its argument for convenience. Null is a no-op. *)

  val cas_link :
    t -> tid:int -> Shmem.Value.addr -> old:int -> nw:int -> bool
  (** The paper's [CompareAndSwapLink] (Figure 6): CAS the link and, on
      success, perform the scheme's post-update duty (for WFRC,
      [HelpDeRef]). The {e link's own} reference is managed internally:
      on success, reference-counting schemes transfer the link's share
      from [old] to [nw] (FixRef(+2) on [nw] before the CAS, release of
      [old]'s share after the help). The caller must hold its own
      reference on [nw] across the call and remains responsible only
      for the references it acquired itself via [alloc]/[deref]/
      [copy_ref]. *)

  val store_link : t -> tid:int -> Shmem.Value.addr -> Shmem.Value.ptr -> unit
  (** Plain link write, legal only when no concurrent update can race
      (private nodes, initialisation — §3.2). Manages the link's share
      like {!cas_link}: acquires a share on the new value and releases
      the share held through the previous value, so it can also be
      used to clear or re-point private link slots. *)

  val terminate : t -> tid:int -> Shmem.Value.ptr -> unit
  (** Client promise: the node is no longer reachable from the
      structure's links. Reference-counting schemes ignore this;
      HP/EBR use it as the retire point. *)

  val make_immortal : t -> tid:int -> Shmem.Value.ptr -> unit
  (** Declare a freshly allocated node a permanent sentinel: it will
      never be unlinked, released or terminated. Reference-counting
      schemes keep the allocation reference (no-op); hazard pointers
      drop the hazard slot (the node needs no protection since it is
      never retired). Call at structure-creation time only. *)

  val validate : t -> unit
  (** Quiescent invariant check (single-threaded): raises
      [Failure _] describing the first violated invariant. *)

  val free_count : t -> int
  (** Quiescent count of nodes currently free (reachable by the
      allocator). For conservation tests. *)

  val custody : t -> custody
  (** Quiescent custody snapshot for the auditor. Never raises, even
      when crashed threads left the scheme's metadata non-quiescent
      (live announcements, published hazards, a held lock). *)

  val declare_dead : t -> tid:int -> unit
  (** Declare thread [tid] permanently dead: it will never run another
      operation. Idempotent. The declaration is consulted by
      {!recover} and by the bounded-wait allocation path (which may
      adopt dead threads' allocation caches under pressure). Like the
      auditor protocol, the caller guarantees the tid really has
      stopped — this is a harness/supervisor-level declaration, not
      something the scheme can detect on its own. *)

  val dead : t -> int list
  (** Sorted tids declared dead so far. *)

  val recover : t -> tid:int -> recovery
  (** Adopt the declared-dead threads' state from surviving thread
      [tid]: clear their published metadata (announcement-pool rows,
      hazard slots, epoch pins, a held lock), re-run the scheme's
      release protocol on references they still held, and drain their
      parked nodes (annAlloc donations, retired lists, limbo bags,
      per-thread caches) back into circulation. Quiescent-survivors
      protocol, same as {!custody}/{!validate}: call it after the
      surviving threads have drained, from a single thread. Idempotent
      — a second pass finds nothing left to adopt. *)
end

(* First-class packaging so the harness can treat schemes uniformly. *)

module type INSTANCE = sig
  module M : S

  val it : M.t
end

type instance = (module INSTANCE)

let instantiate (module M : S) cfg : instance =
  (module struct
    module M = M

    let it = M.create cfg
  end)

let name (module I : INSTANCE) = I.M.name
let arena (module I : INSTANCE) = I.M.arena I.it
let counters (module I : INSTANCE) = I.M.counters I.it
let conf (module I : INSTANCE) = I.M.config I.it
let enter_op (module I : INSTANCE) ~tid = I.M.enter_op I.it ~tid
let exit_op (module I : INSTANCE) ~tid = I.M.exit_op I.it ~tid
let alloc (module I : INSTANCE) ~tid = I.M.alloc I.it ~tid
let deref (module I : INSTANCE) ~tid addr = I.M.deref I.it ~tid addr
let release (module I : INSTANCE) ~tid p = I.M.release I.it ~tid p
let copy_ref (module I : INSTANCE) ~tid p = I.M.copy_ref I.it ~tid p

let cas_link (module I : INSTANCE) ~tid addr ~old ~nw =
  I.M.cas_link I.it ~tid addr ~old ~nw

let store_link (module I : INSTANCE) ~tid addr p =
  I.M.store_link I.it ~tid addr p

let terminate (module I : INSTANCE) ~tid p = I.M.terminate I.it ~tid p
let declare_dead (module I : INSTANCE) ~tid = I.M.declare_dead I.it ~tid
let dead (module I : INSTANCE) = I.M.dead I.it
let recover (module I : INSTANCE) ~tid = I.M.recover I.it ~tid
let make_immortal (module I : INSTANCE) ~tid p = I.M.make_immortal I.it ~tid p
let validate (module I : INSTANCE) = I.M.validate I.it
let free_count (module I : INSTANCE) = I.M.free_count I.it
let custody (module I : INSTANCE) = I.M.custody I.it
let refcounted (module I : INSTANCE) = I.M.refcounted

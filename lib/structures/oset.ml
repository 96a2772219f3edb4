(* Lock-free ordered set (dictionary) — Michael's list-based set
   (PODC 2002 [11]), written against the scheme-independent MM
   signature.

   Unlike the multi-level skiplist, this structure is safe on every
   scheme, including the retire-based ones, because it follows
   Michael's discipline exactly:

   - traversal never follows a marked next pointer: it either unlinks
     the marked node (becoming its owner, and thus the one to call
     [terminate]) or restarts from the head;
   - a node is retired precisely once, by the thread whose CAS
     physically unlinked it — at which point it is unreachable.

   Like Michael's [cur := next], the traversal costs one DeRefLink per
   step: it enters from the borrowed (uncounted) head sentinel, carries
   each dereferenced successor forward as the next [cur], and reads the
   held [cur]'s next word in place, dereferencing only to advance or to
   unlink (DESIGN.md §6.5). A lookup of the i-th key takes i derefs.

   That the same client code runs on reference counting, hazard
   pointers and epochs is the §3.2 compatibility story; that the
   skiplist cannot is the §1 applicability story. Together with
   [Pqueue] this repo demonstrates both.

   Node layout: link 0 = next, data 0 = key, data 1 = value. Keys in
   (min_int, max_int) exclusive; head/tail sentinels are immortal. *)

module Mm = Mm_intf
module Value = Shmem.Value
module Arena = Shmem.Arena

exception Restart

type t = {
  mm : Mm.instance;
  head : Value.ptr;
  tail : Value.ptr;
}

let create mm ~tid =
  let arena = Mm.arena mm in
  let layout = Arena.layout arena in
  if Shmem.Layout.num_links layout < 1 then
    invalid_arg "Oset.create: layout needs a next link";
  if Shmem.Layout.num_data layout < 2 then
    invalid_arg "Oset.create: layout needs key and value words";
  Mm.enter_op mm ~tid;
  let head = Mm.alloc mm ~tid in
  let tail = Mm.alloc mm ~tid in
  Arena.write_data arena head 0 min_int;
  Arena.write_data arena tail 0 max_int;
  Mm.store_link mm ~tid (Arena.link_addr arena tail 0) Value.null;
  Mm.store_link mm ~tid (Arena.link_addr arena head 0) tail;
  (* Sentinels are permanent: RC keeps the allocation reference, HP
     drops the hazard slot (they are never retired). *)
  Mm.make_immortal mm ~tid head;
  Mm.make_immortal mm ~tid tail;
  Mm.exit_op mm ~tid;
  { mm; head; tail }

let head t = t.head

let key t p = Arena.read_data (Mm.arena t.mm) (Value.unmark p) 0
let next_addr t p = Arena.link_addr (Mm.arena t.mm) (Value.unmark p) 0

(* A held node's next word, read in place instead of dereferenced:
   the caller's reference keeps the node from being reclaimed or
   reused (DESIGN.md §6.5). *)
let read_next t p = Arena.read (Mm.arena t.mm) (next_addr t p)

(* The head sentinel is only ever borrowed (see [find]), so it is the
   one node [release] must skip. *)
let release t ~tid p =
  if not (Value.is_null p || p = t.head) then Mm.release t.mm ~tid p

(* Find the position for [k]: returns [(pred, cur)], [cur] the first
   node with key >= k, with a reference held on [cur] and on [pred]
   (borrowed when [pred] is the head, and [release] knows it).
   Unlinks (and terminates) marked nodes en route; raises [Restart]
   when the footing is lost.

   Hand-over-hand, one DeRefLink per step (DESIGN.md §6.5):
   - the head is entered uncounted: it is immortal on every scheme;
   - the reference [deref cur.next] returns is carried forward as the
     next [cur], never taken a second time through [pred.next];
   - the held [cur]'s next word is read in place, so the step that
     stops takes no reference on its successor.
   Safety of the in-place read: we hold [cur], so it is neither
   reclaimed nor reused, and R3 clears links only at a zero count, so
   never under a holder; a mark never clears once set. An unmarked
   read at or past [k] is therefore a valid linearization point, and a
   marked read means the deref that follows sees the mark too. *)
let rec find_from t ~tid k pred cur =
  let w = read_next t cur in
  if Value.is_marked w then
    (* cur is logically deleted: take its frozen successor to unlink *)
    unlink t ~tid k pred cur (Mm.deref t.mm ~tid (next_addr t cur))
  else if cur = t.tail || key t cur >= k then (pred, cur)
  else begin
    (* cur is never the tail here, so its next is never null *)
    let w = Mm.deref t.mm ~tid (next_addr t cur) in
    if Value.is_marked w then unlink t ~tid k pred cur w
    else begin
      (* An unmarked [w] means [cur] was live and pointed at [w], so
         [w] was reachable: the reference (a validated hazard under
         HP) is safe to carry forward. *)
      release t ~tid pred;
      find_from t ~tid k cur w
    end
  end

(* [cur] is marked and [w] is its (held, marked) successor: unlink
   [cur] from [pred], or restart. *)
and unlink t ~tid k pred cur w =
  let ok =
    Mm.cas_link t.mm ~tid (next_addr t pred) ~old:cur ~nw:(Value.unmark w)
  in
  release t ~tid w;
  release t ~tid cur;
  if ok then begin
    (* we unlinked it: we own the retirement *)
    Mm.terminate t.mm ~tid cur;
    step t ~tid k pred
  end
  else begin
    release t ~tid pred;
    raise Restart
  end

(* Take a reference on [pred]'s successor and go on from there. *)
and step t ~tid k pred =
  let cur = Mm.deref t.mm ~tid (next_addr t pred) in
  if Value.is_marked cur then begin
    (* pred itself is deleted *)
    release t ~tid cur;
    release t ~tid pred;
    raise Restart
  end
  else
    (* cur is never null: the tail sentinel bounds the list *)
    find_from t ~tid k pred cur

let rec find t ~tid k =
  match step t ~tid k t.head with
  | res -> res
  | exception Restart -> find t ~tid k

(* The operation brackets below are spelled out as a [match] rather
   than [Fun.protect], which allocates closures on every call. *)
let leave t ~tid e bt =
  Mm.exit_op t.mm ~tid;
  Printexc.raise_with_backtrace e bt

let mem_body t ~tid k =
  let pred, cur = find t ~tid k in
  let found = cur <> t.tail && key t cur = k in
  release t ~tid cur;
  release t ~tid pred;
  found

let mem t ~tid k =
  Mm.enter_op t.mm ~tid;
  match mem_body t ~tid k with
  | r ->
      Mm.exit_op t.mm ~tid;
      r
  | exception e -> leave t ~tid e (Printexc.get_raw_backtrace ())

let lookup_body t ~tid k =
  let pred, cur = find t ~tid k in
  let res =
    if cur <> t.tail && key t cur = k then
      Some (Arena.read_data (Mm.arena t.mm) cur 1)
    else None
  in
  release t ~tid cur;
  release t ~tid pred;
  res

let lookup t ~tid k =
  Mm.enter_op t.mm ~tid;
  match lookup_body t ~tid k with
  | r ->
      Mm.exit_op t.mm ~tid;
      r
  | exception e -> leave t ~tid e (Printexc.get_raw_backtrace ())

(* Insert [k -> v]; returns false if [k] is already present. [n] is
   the speculatively allocated node of an earlier attempt, or null. *)
let rec insert_body t ~tid k v n =
  let pred, cur = find t ~tid k in
  if cur <> t.tail && key t cur = k then begin
    release t ~tid cur;
    release t ~tid pred;
    (* undo the speculative allocation, if any *)
    if not (Value.is_null n) then begin
      Mm.store_link t.mm ~tid (next_addr t n) Value.null;
      Mm.release t.mm ~tid n;
      Mm.terminate t.mm ~tid n
    end;
    false
  end
  else begin
    let n =
      if Value.is_null n then begin
        let arena = Mm.arena t.mm in
        let n = Mm.alloc t.mm ~tid in
        Arena.write_data arena n 0 k;
        Arena.write_data arena n 1 v;
        n
      end
      else n
    in
    Mm.store_link t.mm ~tid (next_addr t n) cur;
    let ok = Mm.cas_link t.mm ~tid (next_addr t pred) ~old:cur ~nw:n in
    release t ~tid cur;
    release t ~tid pred;
    if ok then begin
      Mm.release t.mm ~tid n;
      true
    end
    else insert_body t ~tid k v n
  end

let insert t ~tid k v =
  if k = max_int || k = min_int then invalid_arg "Oset.insert: key reserved";
  Mm.enter_op t.mm ~tid;
  match insert_body t ~tid k v Value.null with
  | r ->
      Mm.exit_op t.mm ~tid;
      r
  | exception e -> leave t ~tid e (Printexc.get_raw_backtrace ())

(* Remove [k]; returns false if absent. *)
let rec remove_body t ~tid k =
  let pred, cur = find t ~tid k in
  if cur = t.tail || key t cur <> k then begin
    release t ~tid cur;
    release t ~tid pred;
    false
  end
  else begin
    let w = Mm.deref t.mm ~tid (next_addr t cur) in
    if Value.is_marked w then begin
      (* someone else is deleting it; let find clean up *)
      release t ~tid w;
      release t ~tid cur;
      release t ~tid pred;
      remove_body t ~tid k
    end
    else if
      (* logical deletion: mark cur.next *)
      Mm.cas_link t.mm ~tid (next_addr t cur) ~old:w ~nw:(Value.mark w)
    then begin
      (* physical unlink: here, or by a later traversal *)
      if Mm.cas_link t.mm ~tid (next_addr t pred) ~old:cur ~nw:w then begin
        release t ~tid w;
        release t ~tid cur;
        release t ~tid pred;
        Mm.terminate t.mm ~tid cur
      end
      else begin
        release t ~tid w;
        release t ~tid cur;
        release t ~tid pred;
        (* a find pass adopts the unlink (and the terminate) *)
        let p', c' = find t ~tid k in
        release t ~tid c';
        release t ~tid p'
      end;
      true
    end
    else begin
      release t ~tid w;
      release t ~tid cur;
      release t ~tid pred;
      remove_body t ~tid k
    end
  end

let remove t ~tid k =
  Mm.enter_op t.mm ~tid;
  match remove_body t ~tid k with
  | r ->
      Mm.exit_op t.mm ~tid;
      r
  | exception e -> leave t ~tid e (Printexc.get_raw_backtrace ())

(* Quiescent ascending key list (sequential contexts only). *)
let to_list t ~tid =
  Mm.enter_op t.mm ~tid;
  Fun.protect ~finally:(fun () -> Mm.exit_op t.mm ~tid) @@ fun () ->
  let arena = Mm.arena t.mm in
  let rec go acc p =
    let w = Mm.deref t.mm ~tid (next_addr t p) in
    let u = Value.unmark w in
    if u = t.tail then begin
      release t ~tid w;
      release t ~tid p;
      List.rev acc
    end
    else begin
      (* a marked word means [p] is deleted, not [u]; include [u]
         unless [u] itself is logically deleted, which the held [u]'s
         next word shows in place *)
      let deleted = Value.is_marked (read_next t u) in
      let acc =
        if deleted then acc
        else (Arena.read_data arena u 0, Arena.read_data arena u 1) :: acc
      in
      release t ~tid p;
      (* the deref reference on [u] (via [w]) transfers to the next
         iteration's [p] *)
      go acc u
    end
  in
  go [] t.head

let size t ~tid = List.length (to_list t ~tid)

(* Remove every element (quiescent teardown helper). *)
let clear t ~tid =
  let rec go n =
    match to_list t ~tid with
    | [] -> n
    | kvs ->
        let removed =
          List.fold_left
            (fun acc (k, _) -> if remove t ~tid k then acc + 1 else acc)
            0 kvs
        in
        go (n + removed)
  in
  go 0

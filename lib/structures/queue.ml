(* Michael–Scott queue against the scheme-independent MM signature.

   Two root cells (head, tail) and a sentinel node. The dequeuer never
   moves head past tail (the standard first==last check), which keeps
   the tail link pointing at a node still in the queue — necessary for
   the HP/EBR schemes, whose safety derives from [terminate] being
   called only on unlinked nodes.

   A held node's next word is read in place rather than dereferenced
   (DESIGN.md §6.5): an empty dequeue and an uncontended enqueue each
   take one DeRefLink, a non-empty dequeue three. The successor is
   dereferenced only when the operation needs a reference on it — to
   swing head or to help a lagging tail.

   Node layout: link 0 = next, data 0 = value. *)

module Mm = Mm_intf
module Value = Shmem.Value

type t = {
  mm : Mm.instance;
  head : Value.addr;
  tail : Value.addr;
}

let create mm ~head_root ~tail_root ~tid =
  let arena = Mm.arena mm in
  if Shmem.Layout.num_links (Shmem.Arena.layout arena) < 1 then
    invalid_arg "Queue.create: layout needs a next link";
  if Shmem.Layout.num_data (Shmem.Arena.layout arena) < 1 then
    invalid_arg "Queue.create: layout needs a value word";
  let head = Shmem.Arena.root_addr arena head_root in
  let tail = Shmem.Arena.root_addr arena tail_root in
  let dummy = Mm.alloc mm ~tid in
  Mm.store_link mm ~tid (Shmem.Arena.link_addr arena dummy 0) Value.null;
  Mm.store_link mm ~tid head dummy;
  Mm.store_link mm ~tid tail dummy;
  Mm.release mm ~tid dummy;
  { mm; head; tail }

let next_addr t p = Shmem.Arena.link_addr (Mm.arena t.mm) p 0

(* A held node's next word, read in place instead of dereferenced:
   the caller's reference keeps the node from being reclaimed or
   reused (DESIGN.md §6.5). *)
let read_next t p = Shmem.Arena.read (Mm.arena t.mm) (next_addr t p)

(* The operation brackets below are spelled out as a [match] rather
   than [Fun.protect], which allocates closures on every call. *)
let leave t ~tid e bt =
  Mm.exit_op t.mm ~tid;
  Printexc.raise_with_backtrace e bt

(* One deref (the tail) when the tail is current: [last]'s next word
   is read in place, and the successor is dereferenced only to help a
   lagging tail, where [cas_link] needs a reference on its [nw]. *)
let rec link_last t ~tid n =
  let last = Mm.deref t.mm ~tid t.tail in
  if not (Value.is_null (read_next t last)) then begin
    (* Tail is lagging: help advance it, then retry. *)
    let nextw = Mm.deref t.mm ~tid (next_addr t last) in
    ignore (Mm.cas_link t.mm ~tid t.tail ~old:last ~nw:(Value.unmark nextw));
    Mm.release t.mm ~tid nextw;
    Mm.release t.mm ~tid last;
    link_last t ~tid n
  end
  else if Mm.cas_link t.mm ~tid (next_addr t last) ~old:Value.null ~nw:n
  then begin
    (* Linked; swing the tail (best effort). *)
    ignore (Mm.cas_link t.mm ~tid t.tail ~old:last ~nw:n);
    Mm.release t.mm ~tid last
  end
  else begin
    Mm.release t.mm ~tid last;
    link_last t ~tid n
  end

let enqueue_body t ~tid v =
  let arena = Mm.arena t.mm in
  let n = Mm.alloc t.mm ~tid in
  Shmem.Arena.write_data arena n 0 v;
  Mm.store_link t.mm ~tid (next_addr t n) Value.null;
  link_last t ~tid n;
  Mm.release t.mm ~tid n

let enqueue t ~tid v =
  Mm.enter_op t.mm ~tid;
  match enqueue_body t ~tid v with
  | () -> Mm.exit_op t.mm ~tid
  | exception e -> leave t ~tid e (Printexc.get_raw_backtrace ())

(* Drop the three references one non-empty dequeue attempt holds. *)
let release_all t ~tid ~first ~last nextw =
  Mm.release t.mm ~tid nextw;
  Mm.release t.mm ~tid last;
  Mm.release t.mm ~tid first

(* [first]'s next word is read in place while [first] is held. A
   dequeued node always had a non-null next, and a held node's next
   never reverts to null, so a null read means [first] is still the
   head and the queue is empty at that read: [None] after one deref.
   Only a non-empty queue dereferences the tail and the successor. *)
let rec dequeue_body t ~tid =
  let first = Mm.deref t.mm ~tid t.head in
  if Value.is_null (read_next t first) then begin
    Mm.release t.mm ~tid first;
    None
  end
  else begin
    let last = Mm.deref t.mm ~tid t.tail in
    (* non-null: it was non-null in place and cannot revert *)
    let nextw = Mm.deref t.mm ~tid (next_addr t first) in
    let next = Value.unmark nextw in
    if first = last then begin
      (* Tail lagging behind a pending enqueue: help, retry. *)
      ignore (Mm.cas_link t.mm ~tid t.tail ~old:last ~nw:next);
      release_all t ~tid ~first ~last nextw;
      dequeue_body t ~tid
    end
    else begin
      let v = Shmem.Arena.read_data (Mm.arena t.mm) next 0 in
      if Mm.cas_link t.mm ~tid t.head ~old:first ~nw:next then begin
        release_all t ~tid ~first ~last nextw;
        Mm.terminate t.mm ~tid first;
        Some v
      end
      else begin
        release_all t ~tid ~first ~last nextw;
        dequeue_body t ~tid
      end
    end
  end

let dequeue t ~tid =
  Mm.enter_op t.mm ~tid;
  match dequeue_body t ~tid with
  | r ->
      Mm.exit_op t.mm ~tid;
      r
  | exception e -> leave t ~tid e (Printexc.get_raw_backtrace ())

(* One deref: the held head node's next word is read in place, as in
   [dequeue_body]. *)
let is_empty_body t ~tid =
  let first = Mm.deref t.mm ~tid t.head in
  let empty = Value.is_null (read_next t first) in
  Mm.release t.mm ~tid first;
  empty

let is_empty t ~tid =
  Mm.enter_op t.mm ~tid;
  match is_empty_body t ~tid with
  | r ->
      Mm.exit_op t.mm ~tid;
      r
  | exception e -> leave t ~tid e (Printexc.get_raw_backtrace ())

let drain t ~tid =
  let rec go acc = match dequeue t ~tid with
    | None -> List.rev acc
    | Some v -> go (v :: acc)
  in
  go []

(* Quiescent teardown: discard leftovers, then free the sentinel and
   null both root cells so they can host a fresh queue. After the
   drain the current sentinel is the only node left and both roots
   point at it; nulling them makes it unreachable, which licenses the
   terminate on every scheme (same ordering as [dequeue]).

   Idempotent, and tolerant of a destroyer that crashed between the
   two root stores: if the head root is already null, there is
   nothing to drain — the second call just finishes clearing the tail
   root (releasing the sentinel it may still pin) instead of
   dereferencing null. Crash-adopting teardown loops rely on being
   able to call this unconditionally. *)
let destroy t ~tid =
  let live =
    Mm.enter_op t.mm ~tid;
    Fun.protect ~finally:(fun () -> Mm.exit_op t.mm ~tid) @@ fun () ->
    let s = Mm.deref t.mm ~tid t.head in
    if Value.is_null s then false
    else begin
      Mm.release t.mm ~tid s;
      true
    end
  in
  if not live then begin
    Mm.enter_op t.mm ~tid;
    Fun.protect ~finally:(fun () -> Mm.exit_op t.mm ~tid) @@ fun () ->
    let s = Mm.deref t.mm ~tid t.tail in
    if not (Value.is_null s) then begin
      Mm.store_link t.mm ~tid t.tail Value.null;
      Mm.release t.mm ~tid s;
      Mm.terminate t.mm ~tid s
    end;
    0
  end
  else begin
    let leftovers = List.length (drain t ~tid) in
    Mm.enter_op t.mm ~tid;
    Fun.protect ~finally:(fun () -> Mm.exit_op t.mm ~tid) @@ fun () ->
    let s = Mm.deref t.mm ~tid t.head in
    Mm.store_link t.mm ~tid t.head Value.null;
    Mm.store_link t.mm ~tid t.tail Value.null;
    Mm.release t.mm ~tid s;
    Mm.terminate t.mm ~tid s;
    leftovers
  end

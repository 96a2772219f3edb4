(* Node lifecycle events. Every manager reports the three custody
   transitions the reclamation-safety oracle (Analysis.Reclaim) needs:

     Alloc  — the node left allocator custody: [alloc] is handing it
              to the caller (emitted after the manager has claimed it);
     Free   — the node entered allocator custody: the scheme decided
              its count/grace period allows reuse (emitted before it
              is pushed on any free store);
     Retire — the client promised the node unreachable ([terminate]
              under HP/EBR): not yet reusable, but no longer part of
              the structure.

   The listener is a process-global hook in the style of
   [Atomics.Schedpoint]: a named no-op closure by default, so the cost
   with no listener installed is one indirect call per alloc/free —
   nothing on any per-word path — and installation is detectable by
   physical equality. Listeners are installed only by Sim-side
   analysis; emission is unconditional but carries no shared state, so
   Native multi-domain runs just pay the no-op call. *)

type lifecycle = Alloc | Free | Retire

let lifecycle_name = function
  | Alloc -> "alloc"
  | Free -> "free"
  | Retire -> "retire"

let no_listener ~tid:(_ : int) (_ : Shmem.Value.ptr) (_ : lifecycle) = ()
let listener = ref no_listener
let emit ~tid node lc = !listener ~tid node lc

let with_listener f body =
  let saved = !listener in
  listener := f;
  Fun.protect ~finally:(fun () -> listener := saved) body

let installed () = !listener != no_listener

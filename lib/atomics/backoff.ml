(* Bounded exponential backoff, with an optional parking tail.

   Used only by baselines that spin (lock-free retry loops); the
   wait-free algorithms never need it, which is itself part of the
   paper's point. [once] spins with [Domain.cpu_relax] so it behaves
   sensibly both on real cores and under pure time slicing.

   [once_waiting] is the blocking-aware variant for waiters with a
   re-checkable condition (a lock word, a free-list head): it spins
   while the budget grows, then — Native only, when a {!Park} spot was
   supplied — parks until the owner's release wakes it. Under [Sim]
   it is byte-for-byte [once]: one scheduling point, no condition
   probe, so deterministic schedules are untouched. *)

type t = {
  backend : Backend.t;
  min : int;
  max : int;
  mutable cur : int;
  park : Park.t option;
  on_park : unit -> unit;
}

let nothing () = ()

let create ?(backend = Backend.Sim) ?(min = 1) ?(max = 256) ?park
    ?(on_park = nothing) () =
  if min < 1 || max < min then invalid_arg "Backoff.create";
  { backend; min; max; cur = min; park; on_park }

let reset b = b.cur <- b.min

let spin b =
  for _ = 1 to b.cur do
    Domain.cpu_relax ()
  done

let bump b = if b.cur < b.max then b.cur <- b.cur * 2

let once b =
  (match b.backend with
  | Backend.Sim ->
      (* Under the deterministic scheduler spinning would only lengthen
         traces without changing interleavings, so collapse to one
         yield. *)
      if Schedpoint.is_installed () then Schedpoint.hit () else spin b
  | Backend.Native ->
      (* Hook-free by construction: never consult the schedpoint. *)
      spin b);
  bump b

let once_waiting b ~ready =
  match b.backend with
  | Backend.Sim ->
      (* Identical to [once]: the deterministic scheduler sees exactly
         one crossing, and [ready] is never consulted — Sim schedules
         stay byte-for-byte those of the spin-only backoff. *)
      if Schedpoint.is_installed () then Schedpoint.hit () else spin b;
      bump b
  | Backend.Native -> (
      match b.park with
      | Some p when b.cur >= b.max ->
          (* Spin budget exhausted: sleep until the owner wakes us.
             [await]'s re-check closes the race with a release that
             lands between our failed attempt and the sleep. *)
          Park.await p ~ready ~timeout_ns:(-1) ~on_park:b.on_park
      | _ ->
          spin b;
          bump b)

let current b = b.cur

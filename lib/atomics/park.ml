(* Park/unpark: blocking waits for the Native backend.

   Spin-only backoff burns a full time slice whenever the thread it
   waits for is descheduled — on an oversubscribed box that turns a
   microsecond handoff into a multi-millisecond stall. A parking spot
   lets a waiter sleep in the kernel and be woken by the releasing
   thread directly.

   The protocol is an eventcount:

     parker: gen := read gen      (prepare, first half)
             incr waiters         (prepare, second half; full fence)
             re-check the condition; if satisfied, cancel
             park ~gen            (sleeps only while gen unchanged)

     waker:  publish the condition (its own atomic op)
             bump gen
             if waiters > 0 then wake

   The generation is read before the waiter registers. Under
   sequential consistency either the waker's bump follows the parker's
   gen read — then the gen the parker sleeps on is stale and the sleep
   is a no-op — or it precedes it, and then the condition published
   before the bump is visible to the parker's re-check. Whenever the
   waker reads a zero waiter count the registration (and so the
   parker's sleep) comes after the bump, which is one of those two
   cases. So a wake that observes a registered waiter can never be
   lost, even to a parker with no condition to re-check.

   The opposite order (register, then read gen) is wrong: a wake that
   lands between the two sees the registration, bumps the generation
   and wakes nobody, and the parker then reads the new generation and
   sleeps on it forever.

   Implementation: a futex on Linux (one 32-bit generation word in
   malloc'd memory, FUTEX_WAIT/WAKE_PRIVATE via stubs), falling back
   to Mutex/Condition elsewhere. The fallback has no timed wait in the
   stdlib, so a timed park degrades to a bounded spin — only correct
   callers that also re-poll (the free store's OOM loop) use
   timeouts.

   This module never touches {!Schedpoint}: parking is a Native-only
   path, and the Sim backend's backoff collapses to one scheduling
   point exactly as before. *)

type futex

external futex_available : unit -> bool = "caml_wfrc_futex_available"
external futex_make : unit -> futex = "caml_wfrc_futex_make"
external futex_get : futex -> int = "caml_wfrc_futex_get" [@@noalloc]
external futex_bump : futex -> unit = "caml_wfrc_futex_bump" [@@noalloc]
external futex_wait : futex -> int -> int -> unit = "caml_wfrc_futex_wait"
external futex_wake : futex -> unit = "caml_wfrc_futex_wake" [@@noalloc]

let available = futex_available

type impl = Futex | Condvar

type state =
  | Fut of futex
  | Cond of { m : Mutex.t; c : Condition.t; mutable gen : int }

type t = { waiters : int Atomic.t; state : state }

let create () =
  let state =
    if futex_available () then Fut (futex_make ())
    else Cond { m = Mutex.create (); c = Condition.create (); gen = 0 }
  in
  { waiters = Atomic.make 0; state }

let impl t = match t.state with Fut _ -> Futex | Cond _ -> Condvar
let waiters t = Atomic.get t.waiters

let prepare t =
  let gen =
    match t.state with
    | Fut f -> futex_get f
    | Cond c ->
        Mutex.lock c.m;
        let g = c.gen in
        Mutex.unlock c.m;
        g
  in
  Atomic.incr t.waiters;
  gen

let cancel t = Atomic.decr t.waiters

(* Bounded-spin stand-in for a timed condvar wait (no
   [Condition.timed_wait] in the stdlib). Callers using timeouts also
   re-poll their condition, so precision only costs latency. *)
let spin_a_while () =
  for _ = 1 to 4096 do
    Domain.cpu_relax ()
  done

let park t ~gen ~timeout_ns =
  (match t.state with
  | Fut f -> futex_wait f gen timeout_ns
  | Cond c ->
      Mutex.lock c.m;
      if timeout_ns < 0 then
        while c.gen = gen do
          Condition.wait c.c c.m
        done
      else if c.gen = gen then begin
        Mutex.unlock c.m;
        spin_a_while ();
        Mutex.lock c.m
      end;
      Mutex.unlock c.m);
  Atomic.decr t.waiters

(* The whole parker side of the protocol in one call, so no caller
   can get the order wrong. *)
let await ?on_park t ~ready ~timeout_ns =
  let gen = prepare t in
  if ready () then cancel t
  else begin
    (match on_park with Some f -> f () | None -> ());
    park t ~gen ~timeout_ns
  end

let wake t =
  (match t.state with
  | Fut f -> futex_bump f
  | Cond c ->
      Mutex.lock c.m;
      c.gen <- c.gen + 1;
      Mutex.unlock c.m);
  if Atomic.get t.waiters > 0 then begin
    (match t.state with
    | Fut f -> futex_wake f
    | Cond c ->
        Mutex.lock c.m;
        Condition.broadcast c.c;
        Mutex.unlock c.m);
    true
  end
  else false

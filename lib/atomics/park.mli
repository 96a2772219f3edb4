(** Park/unpark for the [Native] backend: an eventcount over a Linux
    futex (stub), with a [Mutex]/[Condition] fallback elsewhere.

    Usage (parker):
    {[
      Park.await p ~ready:condition_now_satisfied ~timeout_ns
    ]}
    and (waker), after publishing the condition:
    {[
      if Park.wake p then Counters.incr ctr ~tid Park_wake
    ]}

    {!await} runs the prepare / re-check / park sequence whose order
    closes the lost-wakeup race (see park.ml). Never used under the
    [Sim] backend — parking is invisible to the deterministic
    scheduler. *)

type t

val create : unit -> t

val available : unit -> bool
(** Whether the futex stub is live (Linux). When [false], [create]
    builds the [Mutex]/[Condition] fallback. *)

type impl = Futex | Condvar

val impl : t -> impl
val waiters : t -> int
(** Registered parkers ([prepare]d, not yet returned). Approximate
    under concurrency; exact at quiescence. *)

val await :
  ?on_park:(unit -> unit) ->
  t ->
  ready:(unit -> bool) ->
  timeout_ns:int ->
  unit
(** Wait for the condition [ready] reports: register, re-check
    [ready], and sleep unless it already holds, until a {!wake}, the
    timeout ([timeout_ns < 0] = none) or a spurious wakeup. [on_park]
    runs just before an actual sleep (callers count [Park_wait]
    there). Returns without re-checking: callers re-poll their
    condition. A stall nothing wakes passes [ready = fun () -> false]
    and a finite timeout. *)

(** {1 The layer beneath [await]}

    The eventcount primitives {!await} is built from. Callers use
    {!await}; these stay exposed for the ordering and lost-wakeup
    tests, which drive the steps one at a time. *)

val prepare : t -> int
(** Read the current generation, then register as a waiter (in that
    order — see park.ml for why the reverse loses wakeups). Must be
    followed by a re-check of the awaited condition, then either
    {!cancel} or {!park}. *)

val cancel : t -> unit
(** Deregister without sleeping (the re-check found the condition). *)

val park : t -> gen:int -> timeout_ns:int -> unit
(** Sleep until the generation moves past [gen], the timeout elapses
    ([timeout_ns < 0] = no timeout), or a spurious kernel wakeup.
    Deregisters on return. With the condvar fallback a timed park is a
    bounded spin (the stdlib has no timed condition wait); untimed
    parks are exact on both implementations. *)

val wake : t -> bool
(** Bump the generation and wake all registered parkers. Returns
    [true] if any parker was registered — callers use it to count
    [Park_wake] events. Cheap when nobody waits: one atomic add and
    one load. *)

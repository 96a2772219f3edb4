(** The blocking strawman: reference counting with every operation
    serialised by a test-and-set spinlock (counted via
    [Lock_acquire]). Correct, simple, and subject to the convoying /
    priority-inversion behaviour that motivates the paper's
    non-blocking design. The lock is a CAS spinlock on an atomic cell,
    so the scheme also runs under the deterministic scheduler. *)

include Mm_intf.S

val pool : t -> Mm_intf.Pool.t
(** The instance's free pool, for tests that corrupt it on purpose. *)

(** The lock-free reference-counting baseline (Valois [19] as
    corrected by Michael & Scott [14]) — the "default lock-free memory
    management scheme" of the paper's §5 comparison.

    [deref] is the unbounded-retry read/FAA/validate loop of §3 (the
    retries are visible in the [Deref_retry] counter); the free-list
    is one stamp-tagged Treiber stack. Same reference-count
    conventions as {!Wfrc}. *)

include Mm_intf.S

val pool : t -> Mm_intf.Pool.t
(** The instance's free pool, for tests that corrupt it on purpose. *)

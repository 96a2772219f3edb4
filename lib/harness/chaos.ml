(* Native chaos injection: interpret a [Sched.Fault] plan on real
   Domains. The Sim engine fires faults at scheduling points; Native
   code has none, so the countdown unit here is the manager's
   lifecycle events ([Mm_intf.Events]) — each Alloc/Free/Retire a
   thread emits ticks its budget down, and the fault fires at an
   emission, i.e. at a stub-crossing boundary in the middle of an
   operation fragment:

   - a Crash raises a private exception that nothing between the
     emission point and the worker body handles, so the victim
     abandons the operation with its announcements, hazards,
     reference counts and half-pushed nodes exactly as they were —
     the stopped-process model of the paper's §2. (Exception: lockrc
     funnels every operation through an unlock-on-exception wrapper,
     so a Native crash there cannot die holding the lock the way a
     Sim crash can.)
   - a Stall parks on a spot nobody ever wakes, with a timeout: the
     thread sleeps through the window mid-operation like a
     de-scheduled reader, then resumes as if nothing happened.

   The per-tid countdown arrays are only ever touched from their own
   thread (the emitting tid), so the interpreter needs no atomics. *)

module Fault = Sched.Fault
module Park = Atomics.Park

exception Crashed of int

type t = {
  threads : int;
  crash_in : int array;  (* events until crash; -1 = no crash planned *)
  stall_in : int array;  (* events until stall; -1 = none *)
  stall_ns : int array;
  crashed : bool array;  (* fault actually fired (victim was active) *)
  stalled : bool array;
  park : Park.t;         (* private spot: timed parks, never woken *)
}

let of_plan ?(ns_per_step = 1_000) ~threads plan =
  Fault.validate ~threads plan;
  let t =
    {
      threads;
      crash_in = Array.make threads (-1);
      stall_in = Array.make threads (-1);
      stall_ns = Array.make threads 0;
      crashed = Array.make threads false;
      stalled = Array.make threads false;
      park = Park.create ();
    }
  in
  List.iter
    (function
      | Fault.Crash { tid; at_step } -> t.crash_in.(tid) <- at_step
      | Fault.Stall { tid; from_step; duration } ->
          t.stall_in.(tid) <- from_step;
          t.stall_ns.(tid) <- duration * ns_per_step)
    plan;
  t

let crashed t =
  let acc = ref [] in
  for tid = t.threads - 1 downto 0 do
    if t.crashed.(tid) then acc := tid :: !acc
  done;
  !acc

let survivors t =
  let acc = ref [] in
  for tid = t.threads - 1 downto 0 do
    if not t.crashed.(tid) then acc := tid :: !acc
  done;
  !acc

let listener t ~tid (_ : Shmem.Value.ptr) (_ : Mm_intf.Events.lifecycle) =
  if tid >= 0 && tid < t.threads then begin
    (match t.stall_in.(tid) with
    | 0 ->
        t.stall_in.(tid) <- -1;
        t.stalled.(tid) <- true;
        (* nothing wakes a stall: it lasts its whole timeout *)
        Park.await t.park ~ready:(fun () -> false) ~timeout_ns:t.stall_ns.(tid)
    | n when n > 0 -> t.stall_in.(tid) <- n - 1
    | _ -> ());
    match t.crash_in.(tid) with
    | 0 ->
        t.crash_in.(tid) <- -1;
        t.crashed.(tid) <- true;
        raise (Crashed tid)
    | n when n > 0 -> t.crash_in.(tid) <- n - 1
    | _ -> ()
  end

(* Run [body] on [threads] Domains with the plan armed. Each worker's
   crash is absorbed at the body boundary — everything below it is
   abandoned in place. Returns the Runner timing result; query
   {!crashed} afterwards for which victims actually fired (a plan
   countdown larger than the victim's event budget never fires). *)
let run t body =
  Mm_intf.Events.with_listener (listener t) @@ fun () ->
  Runner.run ~threads:t.threads (fun ~tid ->
      try body ~tid with Crashed id when id = tid -> ())

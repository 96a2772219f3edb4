(* The traced manager: the same scheme behind the same Mm_intf.S
   signature, with every alloc / release / deref counted per thread
   and every [period]-th one timed. Structures and the actor service
   built on a traced instance call the manager only through these
   functions, so the core layer is measured from outside the library
   without touching it. *)

module Wfrc = struct
  module M = Wfrc

  type probe = Stats.Samples.t array (* one store per thread id *)

  type t = { m : M.t; alloc_p : probe; release_p : probe; deref_p : probe }

  let period = 8

  let name = M.name
  let refcounted = M.refcounted

  (* A thread's store is allocated by the first call it makes, so it
     lives in that domain's heap and never shares a cache line with
     another domain's hot counters. *)
  let unset = Stats.Samples.create ~cap:2 ~period ()

  let store (p : probe) tid =
    let s = p.(tid) in
    if s != unset then s
    else begin
      let s = Stats.Samples.create ~period () in
      p.(tid) <- s;
      s
    end

  let create (cfg : Mm_intf.config) =
    let probe () = Array.make cfg.threads unset in
    {
      m = M.create cfg;
      alloc_p = probe ();
      release_p = probe ();
      deref_p = probe ();
    }

  (* Written out per function, not through a closure, so tracing
     adds no allocation to the call. *)
  let alloc t ~tid =
    let s = store t.alloc_p tid in
    if Stats.Samples.due s then begin
      let t0 = Stats.now_ns () in
      let r = M.alloc t.m ~tid in
      Stats.Samples.add s (Stats.now_ns () - t0);
      r
    end
    else M.alloc t.m ~tid

  let release t ~tid p =
    let s = store t.release_p tid in
    if Stats.Samples.due s then begin
      let t0 = Stats.now_ns () in
      M.release t.m ~tid p;
      Stats.Samples.add s (Stats.now_ns () - t0)
    end
    else M.release t.m ~tid p

  let deref t ~tid a =
    let s = store t.deref_p tid in
    if Stats.Samples.due s then begin
      let t0 = Stats.now_ns () in
      let r = M.deref t.m ~tid a in
      Stats.Samples.add s (Stats.now_ns () - t0);
      r
    end
    else M.deref t.m ~tid a

  let config t = M.config t.m
  let arena t = M.arena t.m
  let counters t = M.counters t.m
  let enter_op t ~tid = M.enter_op t.m ~tid
  let exit_op t ~tid = M.exit_op t.m ~tid
  let copy_ref t ~tid p = M.copy_ref t.m ~tid p
  let cas_link t ~tid a ~old ~nw = M.cas_link t.m ~tid a ~old ~nw
  let store_link t ~tid a p = M.store_link t.m ~tid a p
  let terminate t ~tid p = M.terminate t.m ~tid p
  let make_immortal t ~tid p = M.make_immortal t.m ~tid p
  let validate t = M.validate t.m
  let free_count t = M.free_count t.m
  let custody t = M.custody t.m
  let declare_dead t ~tid = M.declare_dead t.m ~tid
  let dead t = M.dead t.m
  let recover t ~tid = M.recover t.m ~tid
end

(* The instance and its probes, kept together so the report can read
   the probes after the run. *)
let instantiate cfg =
  let it = Wfrc.create cfg in
  let inst : Mm_intf.instance =
    (module struct
      module M = Wfrc

      let it = it
    end)
  in
  (inst, it)

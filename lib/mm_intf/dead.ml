(* The declared-dead set every manager keeps for [Mm_intf.S.declare_dead]:
   tids the harness or a supervisor has declared permanently stopped.
   Written only by the declaring thread; read by recovery and by the
   bounded-wait allocation paths, which adopt dead threads' caches. *)

type t = bool array

let create threads = Array.make threads false

let declare d ~who =
  if who < 0 || who >= Array.length d then invalid_arg "Mm_intf.Dead.declare";
  d.(who) <- true

let mem d id = d.(id)
let any d = Array.exists Fun.id d

(* Sorted ascending. *)
let list d = List.filter (mem d) (List.init (Array.length d) Fun.id)

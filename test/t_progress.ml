(* The static progress analyzer (wfrc_lint --pass progress):

   - the real tree carries its contracts: zero violations, every
     lib/core cycle statically-bounded or helping-bounded, alloc's
     helping loop recognized via its helping witness;
   - the [@@wfrc.expect_unbounded] assertions on the lock-free
     baselines hold (Lfrc.deref is still the Valois retry);
   - a seeded mutation that strips the helping vocabulary from the
     wfrc alloc loop flips the analyzer red;
   - classification is stable under mechanical alpha-renaming and
     let-flattening of the core sources (the classifier keys on
     structure, not spelling). *)

module P = Lint.Progress

(* Resolve lib/ relative to the dune sandbox, as t_lint does. *)
let lib_dir () =
  let candidates =
    [ "lib"; "../lib"; "../../lib"; "../../../lib"; "../../../../lib" ]
  in
  List.find_opt
    (fun d -> Sys.file_exists (Filename.concat d "mm_intf"))
    candidates

let with_lib f = match lib_dir () with None -> () | Some lib -> f lib

let basename_is name file = Filename.basename file = name

(* ---- the real tree ------------------------------------------------ *)

let test_tree_clean () =
  with_lib @@ fun lib ->
  let r = P.analyze ~roots:[ lib ] in
  List.iter
    (fun (v : P.violation) ->
      Printf.printf "%s:%d: %s\n" v.v_file v.v_line v.v_msg)
    r.violations;
  Alcotest.(check int) "zero progress violations" 0 (List.length r.violations)

let test_core_is_bounded_or_helping () =
  with_lib @@ fun lib ->
  let r = P.analyze ~roots:[ lib ] in
  let core =
    List.filter
      (fun (c : P.cls) ->
        List.mem (Filename.basename c.c_file)
          [ "gc.ml"; "ann.ml"; "rcbuf.ml"; "wfrc.ml"; "wfrc_deferred.ml" ])
      r.classifications
  in
  Alcotest.(check bool)
    "core has a substantial cycle inventory" true
    (List.length core > 15);
  List.iter
    (fun (c : P.cls) ->
      if not (List.mem c.c_level [ P.Bounded; P.Helping ]) then
        Alcotest.failf "core cycle exceeds wait-freedom: %s" (P.pp_cls c))
    core

let test_alloc_loop_is_helping () =
  with_lib @@ fun lib ->
  let r = P.analyze ~roots:[ lib ] in
  match
    List.find_opt
      (fun (c : P.cls) ->
        basename_is "gc.ml" c.c_file && c.c_func = "alloc_loop")
      r.classifications
  with
  | None -> Alcotest.fail "gc.ml alloc_loop not classified"
  | Some c ->
      Alcotest.(check string)
        "alloc_loop is helping-bounded" "helping-bounded"
        (P.level_name c.c_level);
      Alcotest.(check bool)
        "evidence names the helping call" true
        (let has sub s =
           let n = String.length sub and m = String.length s in
           let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
           go 0
         in
         has "helping" c.c_evidence)

let test_expectations_hold () =
  with_lib @@ fun lib ->
  let r = P.analyze ~roots:[ lib ] in
  Alcotest.(check bool)
    "expectations are declared" true
    (List.length r.expectations >= 4);
  List.iter
    (fun (file, fn, ok) ->
      if not ok then
        Alcotest.failf "expect_unbounded regressed: %s %s" file fn)
    r.expectations;
  Alcotest.(check bool)
    "Lfrc.deref is asserted expected-unbounded" true
    (List.exists
       (fun (file, fn, _) -> basename_is "lfrc.ml" file && fn = "deref")
       r.expectations)

(* The shared free pool: its Treiber pop and push are the baselines'
   lock-free allocation path (asserted expected-unbounded), while the
   claim loop around them is bounded by its round counter. *)
let test_pool_contracts () =
  with_lib @@ fun lib ->
  let r = P.analyze ~roots:[ lib ] in
  let expected fn =
    List.exists
      (fun (file, f, ok) -> basename_is "pool.ml" file && f = fn && ok)
      r.expectations
  in
  Alcotest.(check bool) "Pool.pop is expected-unbounded" true (expected "pop");
  Alcotest.(check bool)
    "Pool.push is expected-unbounded" true (expected "push");
  match
    List.find_opt
      (fun (c : P.cls) ->
        basename_is "pool.ml" c.c_file && c.c_func = "claim.go")
      r.classifications
  with
  | None -> Alcotest.fail "pool.ml claim loop not classified"
  | Some c ->
      Alcotest.(check string)
        "claim loop is bounded" "statically-bounded" (P.level_name c.c_level)

(* ---- seeded mutation flips red ------------------------------------ *)

let read_file file =
  let ic = open_in_bin file in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let replace ~sub ~by s =
  let b = Buffer.create (String.length s) in
  let n = String.length sub in
  let i = ref 0 in
  while !i <= String.length s - n do
    if String.sub s !i n = sub then begin
      Buffer.add_string b by;
      i := !i + n
    end
    else begin
      Buffer.add_char b s.[!i];
      incr i
    end
  done;
  Buffer.add_substring b s !i (String.length s - !i);
  Buffer.contents b

let in_temp_copy src f =
  let dir = Filename.temp_file "progress" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let file = Filename.concat dir "gc.ml" in
  let oc = open_out_bin file in
  output_string oc src;
  close_out oc;
  Fun.protect
    ~finally:(fun () ->
      Sys.remove file;
      Sys.rmdir dir)
    (fun () -> f file)

let test_mutation_flips_red () =
  with_lib @@ fun lib ->
  let src = read_file (Filename.concat lib "core/gc.ml") in
  (* Strip the helping vocabulary: the announcement-slot read and the
     dead-cache adoption are what make alloc_loop helping-bounded. *)
  let mutated =
    src
    |> replace ~sub:"hw_ann" ~by:"hw_qnn"
    |> replace ~sub:"adopt_dead_caches" ~by:"takeover_dead_caches"
  in
  in_temp_copy mutated @@ fun file ->
  let r = P.analyze ~roots:[ file ] in
  Alcotest.(check bool)
    "mutated alloc loop violates wait_free" true
    (List.exists
       (fun (v : P.violation) ->
         let has sub s =
           let n = String.length sub and m = String.length s in
           let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
           go 0
         in
         has "alloc_loop" v.v_msg)
       r.violations)

(* ---- property: stable under alpha-renaming and let-flattening ----- *)

(* Mechanical alpha-renaming: a fixed map over names that occur only
   as parameters/locals in the core sources (never as unit names), so
   the qualified classification keys are unchanged. Applied to both
   binding patterns and identifier uses. *)
let rename_map =
  [
    ("tid", "tid_alpha");
    ("sp", "sp_alpha");
    ("node", "node_alpha");
    ("from", "from_alpha");
    ("rounds", "rounds_alpha");
    ("waits", "waits_alpha");
  ]

let renamed n = try Some (List.assoc n rename_map) with Not_found -> None

let alpha_mapper =
  let open Parsetree in
  {
    Ast_mapper.default_mapper with
    pat =
      (fun self p ->
        let p = Ast_mapper.default_mapper.pat self p in
        match p.ppat_desc with
        | Ppat_var ({ txt; _ } as v) -> (
            match renamed txt with
            | Some t -> { p with ppat_desc = Ppat_var { v with txt = t } }
            | None -> p)
        | _ -> p);
    expr =
      (fun self e ->
        let e = Ast_mapper.default_mapper.expr self e in
        match e.pexp_desc with
        | Pexp_ident ({ txt = Longident.Lident n; _ } as id) -> (
            match renamed n with
            | Some t ->
                {
                  e with
                  pexp_desc = Pexp_ident { id with txt = Longident.Lident t };
                }
            | None -> e)
        | _ -> e);
  }

(* Mechanical let-flattening: hoist [let x = (let y = a in b) in c] to
   [let y = a in let x = b in c] when the hoist cannot capture (no
   name bound by the inner let is free in [c]). *)
let bound_names vbs =
  let out = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      pat =
        (fun self p ->
          (match p.Parsetree.ppat_desc with
          | Parsetree.Ppat_var { txt; _ } -> out := txt :: !out
          | _ -> ());
          Ast_iterator.default_iterator.pat self p);
    }
  in
  List.iter (fun vb -> it.pat it vb.Parsetree.pvb_pat) vbs;
  !out

let mentions_any names e =
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self x ->
          (match x.Parsetree.pexp_desc with
          | Parsetree.Pexp_ident { txt = Longident.Lident n; _ }
            when List.mem n names ->
              found := true
          | _ -> ());
          Ast_iterator.default_iterator.expr self x);
    }
  in
  it.expr it e;
  !found

let flatten_mapper =
  let open Parsetree in
  let open Asttypes in
  {
    Ast_mapper.default_mapper with
    expr =
      (fun self e ->
        let e = Ast_mapper.default_mapper.expr self e in
        match e.pexp_desc with
        | Pexp_let
            ( Nonrecursive,
              [ ({ pvb_attributes = []; _ } as vb) ],
              body )
          when match vb.pvb_expr.pexp_desc with
               | Pexp_let (Nonrecursive, ivbs, _) ->
                   not (mentions_any (bound_names ivbs) body)
               | _ -> false -> (
            match vb.pvb_expr.pexp_desc with
            | Pexp_let (Nonrecursive, ivbs, ibody) ->
                {
                  e with
                  pexp_desc =
                    Pexp_let
                      ( Nonrecursive,
                        ivbs,
                        {
                          e with
                          pexp_desc =
                            Pexp_let
                              ( Nonrecursive,
                                [ { vb with pvb_expr = ibody } ],
                                body );
                        } );
                }
            | _ -> e)
        | _ -> e);
  }

let parse_string ~filename src =
  let lb = Lexing.from_string src in
  Lexing.set_filename lb filename;
  Parse.implementation lb

let key_of (c : P.cls) = (c.c_func, c.c_kind, P.level_name c.c_level)

let classify_file file =
  let r = P.analyze ~roots:[ file ] in
  List.sort compare (List.map key_of r.classifications)

let test_stable_under_transform () =
  with_lib @@ fun lib ->
  let src_file = Filename.concat lib "core/gc.ml" in
  let baseline = classify_file src_file in
  Alcotest.(check bool) "baseline nonempty" true (baseline <> []);
  let str = parse_string ~filename:"gc.ml" (read_file src_file) in
  let transformed =
    let s = alpha_mapper.structure alpha_mapper str in
    flatten_mapper.structure flatten_mapper s
  in
  let printed = Format.asprintf "%a" Pprintast.structure transformed in
  in_temp_copy printed @@ fun file ->
  let got = classify_file file in
  Alcotest.(check (list (triple string string string)))
    "classification stable under alpha-rename + let-flatten" baseline got

let suite =
  [
    Alcotest.test_case "tree has zero progress violations" `Quick
      test_tree_clean;
    Alcotest.test_case "every core cycle is bounded or helping" `Quick
      test_core_is_bounded_or_helping;
    Alcotest.test_case "alloc loop is helping-bounded" `Quick
      test_alloc_loop_is_helping;
    Alcotest.test_case "expect_unbounded assertions hold" `Quick
      test_expectations_hold;
    Alcotest.test_case "pool pop is expected-unbounded, claim bounded" `Quick
      test_pool_contracts;
    Alcotest.test_case "seeded helping mutation flips red" `Quick
      test_mutation_flips_red;
    Alcotest.test_case "stable under alpha-rename + let-flatten" `Quick
      test_stable_under_transform;
  ]

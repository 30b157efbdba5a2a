(** qcheck properties for the annotation-suppression mechanism and the
    call-graph builder.

    Suppress (Section 6.1): an annotation that matches a warning must
    silence exactly that warning — never a diagnostic elsewhere — and an
    annotation that matches nothing must be scored unused without hiding
    anything.  Callgraph: the edge set is a property of the program, not
    of declaration order. *)

let t = Alcotest.test_case

(* ------------------------------------------------------------------ *)
(* Suppress                                                            *)
(* ------------------------------------------------------------------ *)

let two_handler_spec =
  {
    Flash_api.p_name = "props";
    p_handlers =
      [
        {
          Flash_api.h_name = "H";
          h_kind = Flash_api.Hw_handler;
          h_lane_allowance = [| 1; 1; 1; 1 |];
          h_no_stack = false;
        };
        {
          Flash_api.h_name = "D";
          h_kind = Flash_api.Hw_handler;
          h_lane_allowance = [| 1; 1; 1; 1 |];
          h_no_stack = false;
        };
      ];
    p_free_funcs = [];
    p_use_funcs = [];
    p_cond_free_funcs = [];
  }

(* H leaks its buffer (no FREE_DB on any path) unless annotated; D
   double-frees no matter what.  [a]/[b] vary the padding so the paths
   differ run to run. *)
let leaky_program ~annot a b =
  Printf.sprintf
    "void H(void) { HANDLER_DEFS(); SIM_HANDLER_HOOK(); long v; v = %d; if \
     (v > %d) { v = v + 1; } %s}\n\
     void D(void) { HANDLER_DEFS(); SIM_HANDLER_HOOK(); long w; w = %d; \
     FREE_DB(); FREE_DB(); }\n"
    a b
    (if annot then "no_free_needed(); " else "")
    (a + b)

let outcome_of src =
  let tus =
    Parsed.ok (Frontend.parse_strings [ ("p.c", Prelude.text ^ src) ])
  in
  Buffer_mgmt.run_with_annotations ~spec:two_handler_spec tus

let diags_in func (o : Buffer_mgmt.outcome) =
  List.filter (fun d -> String.equal d.Diag.func func) o.Buffer_mgmt.diags
  |> List.map Diag.key

let prop_matching_annotation_suppresses =
  QCheck.Test.make
    ~name:"no_free_needed silences the leak it matches and nothing else"
    ~count:60
    QCheck.(pair small_nat small_nat)
    (fun (a, b) ->
      let plain = outcome_of (leaky_program ~annot:false a b) in
      let annotated = outcome_of (leaky_program ~annot:true a b) in
      (* the un-annotated leak is real *)
      diags_in "H" plain <> []
      (* suppressed diagnostic is never reported *)
      && diags_in "H" annotated = []
      (* a suppression in H never hides D's double free *)
      && diags_in "D" plain <> []
      && diags_in "D" annotated = diags_in "D" plain
      (* and the annotation is scored useful, not unused *)
      && annotated.Buffer_mgmt.useful_annotations = 1
      && annotated.Buffer_mgmt.unused_annotations = 0)

(* has_buffer() while the checker already believes the buffer is held
   matches nothing: it must change no verdict and be scored unused. *)
let clean_program ~annot a =
  Printf.sprintf
    "void H(void) { HANDLER_DEFS(); SIM_HANDLER_HOOK(); long v; v = %d; %sv \
     = v + 1; FREE_DB(); }\n\
     void D(void) { HANDLER_DEFS(); SIM_HANDLER_HOOK(); FREE_DB(); \
     FREE_DB(); }\n"
    a
    (if annot then "has_buffer(); " else "")

let prop_non_matching_annotation_never_hides =
  QCheck.Test.make
    ~name:"a non-matching has_buffer hides nothing and is scored unused"
    ~count:60 QCheck.small_nat
    (fun a ->
      let plain = outcome_of (clean_program ~annot:false a) in
      let annotated = outcome_of (clean_program ~annot:true a) in
      diags_in "H" annotated = diags_in "H" plain
      && diags_in "D" annotated = diags_in "D" plain
      && annotated.Buffer_mgmt.useful_annotations = 0
      && annotated.Buffer_mgmt.unused_annotations = 1)

(* ------------------------------------------------------------------ *)
(* Callgraph                                                           *)
(* ------------------------------------------------------------------ *)

let edge_set tus =
  let cg = Callgraph.build tus in
  Callgraph.functions cg
  |> List.concat_map (fun (f : Ast.func) ->
         List.map
           (fun (cs : Callgraph.call_site) ->
             (f.Ast.f_name, cs.Callgraph.cs_callee))
           (Callgraph.callees cg f.Ast.f_name))
  |> List.sort compare

let shuffle_globals seed (tu : Ast.tunit) =
  let rng = Rng.create ~seed in
  let a = Array.of_list tu.Ast.tu_globals in
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  { tu with Ast.tu_globals = Array.to_list a }

let prop_callgraph_order_invariant =
  QCheck.Test.make
    ~name:"callgraph edge set is invariant under global reordering" ~count:40
    QCheck.(pair (int_bound 100_000) (int_bound 100_000))
    (fun (seed, perm_seed) ->
      let p = Fuzz_gen.generate ~seed () in
      let tus = p.Fuzz_gen.tus in
      let shuffled = List.map (shuffle_globals perm_seed) tus in
      let roots =
        List.map
          (fun (h : Flash_api.handler_spec) -> h.Flash_api.h_name)
          p.Fuzz_gen.spec.Flash_api.p_handlers
      in
      let reach ts =
        List.sort String.compare (Callgraph.reachable_from (Callgraph.build ts) roots)
      in
      edge_set shuffled = edge_set tus && reach shuffled = reach tus)

(* ------------------------------------------------------------------ *)
(* Symbol interning                                                    *)
(* ------------------------------------------------------------------ *)

(* A physically fresh copy of [s]: equal contents, distinct block, so
   any accidental reliance on pointer identity in the interner or the
   matcher shows up. *)
let fresh s = String.init (String.length s) (String.get s)

let prop_symtab_roundtrip =
  QCheck.Test.make
    ~name:"symtab: intern/name round-trip, id uniqueness, canon sharing"
    ~count:200
    QCheck.(pair string string)
    (fun (s1, s2) ->
      let id1 = Symtab.intern s1 in
      let id2 = Symtab.intern s2 in
      (* name is the exact spelling interned *)
      String.equal (Symtab.name id1) s1
      (* a fresh physical copy maps to the same id *)
      && Symtab.intern (fresh s1) = id1
      (* ids are equal exactly when spellings are *)
      && String.equal s1 s2 = (id1 = id2)
      (* canon returns one shared block regardless of which copy asks *)
      && Symtab.canon s1 == Symtab.canon (fresh s1)
      (* find sees what intern published *)
      && Symtab.find s1 = Some id1)

(* Interned matching must be observationally identical to the old
   string-compare semantics: matching an event against a physically
   fresh deep copy (every string re-allocated) yields the same verdict
   and the same bindings.  The events come from fuzz-generated handler
   code flattened by the same [Prep] pass the engine replays. *)
let rec copy_expr (e : Ast.expr) : Ast.expr =
  let edesc =
    match e.Ast.edesc with
    | Ast.Int_lit (v, sp) -> Ast.Int_lit (v, fresh sp)
    | Ast.Float_lit (v, sp) -> Ast.Float_lit (v, fresh sp)
    | Ast.Str_lit s -> Ast.Str_lit (fresh s)
    | Ast.Char_lit c -> Ast.Char_lit c
    | Ast.Ident s -> Ast.Ident (fresh s)
    | Ast.Call (f, args) -> Ast.Call (copy_expr f, List.map copy_expr args)
    | Ast.Unop (op, a) -> Ast.Unop (op, copy_expr a)
    | Ast.Binop (op, a, b) -> Ast.Binop (op, copy_expr a, copy_expr b)
    | Ast.Assign (a, b) -> Ast.Assign (copy_expr a, copy_expr b)
    | Ast.Op_assign (op, a, b) -> Ast.Op_assign (op, copy_expr a, copy_expr b)
    | Ast.Cond (a, b, c) -> Ast.Cond (copy_expr a, copy_expr b, copy_expr c)
    | Ast.Cast (t, a) -> Ast.Cast (t, copy_expr a)
    | Ast.Field (a, f) -> Ast.Field (copy_expr a, fresh f)
    | Ast.Arrow (a, f) -> Ast.Arrow (copy_expr a, fresh f)
    | Ast.Index (a, b) -> Ast.Index (copy_expr a, copy_expr b)
    | Ast.Comma (a, b) -> Ast.Comma (copy_expr a, copy_expr b)
    | Ast.Sizeof_expr a -> Ast.Sizeof_expr (copy_expr a)
    | Ast.Sizeof_type t -> Ast.Sizeof_type t
  in
  { e with Ast.edesc }

let match_patterns =
  lazy
    [
      Pattern.expr "FREE_DB()";
      Pattern.expr ~decls:[ ("addr", Pattern.Any) ] "WAIT_FOR_DB_FULL(addr)";
      Pattern.expr ~decls:[ ("x", Pattern.Any); ("y", Pattern.Any) ] "x = y";
      Pattern.call "SIM_HANDLER_HOOK" ~arity:0;
    ]

let same_binding b1 b2 =
  let n1 = List.sort String.compare (Binding.names b1) in
  let n2 = List.sort String.compare (Binding.names b2) in
  n1 = n2
  && List.for_all
       (fun n ->
         match (Binding.find b1 n, Binding.find b2 n) with
         | Some e1, Some e2 ->
           String.equal (Pp.expr_to_string e1) (Pp.expr_to_string e2)
         | None, None -> true
         | _ -> false)
       n1

let prop_interned_matching_string_semantics =
  QCheck.Test.make
    ~name:"interned matching = string-compare matching on fresh copies"
    ~count:30
    QCheck.(int_bound 100_000)
    (fun seed ->
      let p = Fuzz_gen.generate ~seed () in
      let funcs =
        List.concat_map
          (fun (tu : Ast.tunit) ->
            List.filter_map
              (function Ast.Gfunc f -> Some f | _ -> None)
              tu.Ast.tu_globals)
          p.Fuzz_gen.tus
      in
      List.for_all
        (fun f ->
          let prep = Prep.build f in
          Array.for_all
            (fun e ->
              let e' = copy_expr e in
              List.for_all
                (fun pat ->
                  match
                    (Pattern.match_expr pat e, Pattern.match_expr pat e')
                  with
                  | None, None -> true
                  | Some b, Some b' -> same_binding b b'
                  | _ -> false)
                (Lazy.force match_patterns))
            prep.Prep.soa.Prep.ev_expr)
        funcs)

let suite =
  ( "props",
    [
      QCheck_alcotest.to_alcotest prop_matching_annotation_suppresses;
      QCheck_alcotest.to_alcotest prop_non_matching_annotation_never_hides;
      QCheck_alcotest.to_alcotest prop_callgraph_order_invariant;
      QCheck_alcotest.to_alcotest prop_symtab_roundtrip;
      QCheck_alcotest.to_alcotest prop_interned_matching_string_semantics;
    ] )

(** Regenerates every table of the paper's evaluation from the synthetic
    corpus, printing paper-published and measured values side by side
    ("paper/ours" cells, or separate columns where that reads better). *)

type class_counts = { bugs : int; minors : int; fps : int }

let classify_diags (p : Corpus.protocol) ~checker (diags : Diag.t list) :
    class_counts =
  List.fold_left
    (fun acc (d : Diag.t) ->
      match
        Manifest.classify p.Corpus.manifest ~checker ~protocol:p.Corpus.name
          ~func:d.Diag.func
      with
      | Some e -> (
        match e.Manifest.kind with
        | Manifest.Bug -> { acc with bugs = acc.bugs + 1 }
        | Manifest.Minor -> { acc with minors = acc.minors + 1 }
        | Manifest.False_positive -> { acc with fps = acc.fps + 1 })
      | None ->
        (* a diagnostic at an unseeded site would be a true false positive
           of our reproduction; count it so regressions are visible *)
        { acc with fps = acc.fps + 1 })
    { bugs = 0; minors = 0; fps = 0 }
    diags

let run_checker (p : Corpus.protocol) name : Diag.t list =
  match Registry.find name with
  | Some c -> Registry.run c ~spec:p.Corpus.spec p.Corpus.tus
  | None -> []

let applied (p : Corpus.protocol) name : int =
  match Registry.find name with
  | Some c -> c.Registry.applied p.Corpus.tus
  | None -> 0

let fraction a b = Printf.sprintf "%d/%d" a b

(* ------------------------------------------------------------------ *)
(* Table 1                                                             *)
(* ------------------------------------------------------------------ *)

let table1 (corpus : Corpus.t) : Table.t =
  let rows =
    List.map
      (fun (p : Corpus.protocol) ->
        let stats =
          List.concat_map
            (fun tu ->
              List.map
                (fun f -> Paths.analyze (Cfg.build f))
                (Ast.functions tu))
            p.Corpus.tus
        in
        let agg = Paths.aggregate stats in
        let ploc, ppaths, pavg, pmax =
          List.assoc p.Corpus.name Paper_data.table1
        in
        [
          p.Corpus.name;
          fraction ploc p.Corpus.loc;
          fraction ppaths agg.Paths.paths;
          fraction pavg (int_of_float (Float.round agg.Paths.avg_length));
          fraction pmax agg.Paths.max_path_length;
        ])
      corpus.Corpus.protocols
  in
  Table.make
    ~title:
      "Table 1: protocol size (cells are paper/measured; LOC excludes \
       headers)"
    ~header:[ "protocol"; "LOC"; "# of paths"; "ave path"; "max path" ]
    rows
    ~notes:
      [
        "path counts use the acyclic-path convention (back edges cut \
         once), as a path profiler would";
      ]

(* ------------------------------------------------------------------ *)
(* Tables 2 and 3 share a shape                                        *)
(* ------------------------------------------------------------------ *)

let errors_fp_applied ~checker ~title ~paper (corpus : Corpus.t) : Table.t =
  let totals = ref (0, 0, 0) in
  let rows =
    List.map
      (fun (p : Corpus.protocol) ->
        let diags = run_checker p checker in
        let c = classify_diags p ~checker diags in
        let ap = applied p checker in
        let perr, pfp, pap = List.assoc p.Corpus.name paper in
        let te, tf, ta = !totals in
        totals := (te + c.bugs, tf + c.fps, ta + ap);
        [
          p.Corpus.name;
          fraction perr c.bugs;
          fraction pfp c.fps;
          fraction pap ap;
        ])
      corpus.Corpus.protocols
  in
  let sum_paper f = List.fold_left (fun acc (_, t) -> acc + f t) 0 paper in
  let te, tf, ta = !totals in
  let total_row =
    [
      "total";
      fraction (sum_paper (fun (e, _, _) -> e)) te;
      fraction (sum_paper (fun (_, f, _) -> f)) tf;
      fraction (sum_paper (fun (_, _, a) -> a)) ta;
    ]
  in
  Table.make ~title
    ~header:[ "protocol"; "errors"; "false pos"; "applied" ]
    (rows @ [ total_row ])

let table2 corpus =
  errors_fp_applied ~checker:"wait_for_db"
    ~title:
      "Table 2: buffer race-condition checker (paper/measured)"
    ~paper:Paper_data.table2 corpus

let table3 corpus =
  errors_fp_applied ~checker:"msg_length"
    ~title:"Table 3: message-length checker (paper/measured)"
    ~paper:Paper_data.table3 corpus

(* ------------------------------------------------------------------ *)
(* Table 4                                                             *)
(* ------------------------------------------------------------------ *)

let table4 (corpus : Corpus.t) : Table.t =
  let checker = "buffer_mgmt" in
  let rows =
    List.map
      (fun (p : Corpus.protocol) ->
        let outcome =
          Buffer_mgmt.run_with_annotations ~spec:p.Corpus.spec p.Corpus.tus
        in
        let c = classify_diags p ~checker outcome.Buffer_mgmt.diags in
        let perr, pminor, puseful, puseless =
          List.assoc p.Corpus.name Paper_data.table4
        in
        [
          p.Corpus.name;
          fraction perr c.bugs;
          fraction pminor c.minors;
          fraction puseful outcome.Buffer_mgmt.useful_annotations;
          fraction puseless c.fps;
        ])
      corpus.Corpus.protocols
  in
  Table.make
    ~title:"Table 4: buffer management checker (paper/measured)"
    ~header:[ "protocol"; "errors"; "minor"; "useful"; "useless" ]
    rows
    ~notes:
      [
        "useful = annotations that suppressed a warning; useless = false \
         positives an annotation would silence";
      ]

(* ------------------------------------------------------------------ *)
(* Lanes (Section 7)                                                   *)
(* ------------------------------------------------------------------ *)

let lanes_table (corpus : Corpus.t) : Table.t =
  let rows =
    List.map
      (fun (p : Corpus.protocol) ->
        let diags = run_checker p "lanes" in
        let c = classify_diags p ~checker:"lanes" diags in
        let pbugs = List.assoc p.Corpus.name Paper_data.lanes in
        [ p.Corpus.name; fraction pbugs c.bugs; fraction 0 c.fps ])
      corpus.Corpus.protocols
  in
  Table.make
    ~title:
      "Section 7: lane-allowance (deadlock) checker (paper/measured)"
    ~header:[ "protocol"; "errors"; "false pos" ]
    rows
    ~notes:
      [ "loops whose sends are covered by space checks are fixed points" ]

(* ------------------------------------------------------------------ *)
(* Table 5                                                             *)
(* ------------------------------------------------------------------ *)

let table5 (corpus : Corpus.t) : Table.t =
  let checker = "exec_restrict" in
  let rows =
    List.map
      (fun (p : Corpus.protocol) ->
        let diags = run_checker p checker in
        let c = classify_diags p ~checker diags in
        let handlers = applied p checker in
        let vars = Exec_restrict.vars_checked p.Corpus.tus in
        let pviol, phandlers, pvars =
          List.assoc p.Corpus.name Paper_data.table5
        in
        [
          p.Corpus.name;
          fraction pviol c.bugs;
          fraction phandlers handlers;
          fraction pvars vars;
        ])
      corpus.Corpus.protocols
  in
  Table.make
    ~title:
      "Table 5: execution-restriction checker (paper/measured)"
    ~header:[ "protocol"; "violations"; "handlers"; "vars" ]
    rows
    ~notes:
      [
        "sci's three hook omissions sit in unimplemented routines and are \
         not counted, as in the paper";
      ]

(* ------------------------------------------------------------------ *)
(* Table 6                                                             *)
(* ------------------------------------------------------------------ *)

let table6 (corpus : Corpus.t) : Table.t =
  let cell p checker (pfp, pap) =
    let diags = run_checker p checker in
    let c = classify_diags p ~checker diags in
    (* the directory checker's single real bug is reported in the text,
       not the FP column, exactly as the paper footnotes it *)
    [ fraction pfp c.fps; fraction pap (applied p checker) ]
  in
  let rows =
    List.map
      (fun (p : Corpus.protocol) ->
        let alloc_p, dir_p, sw_p =
          List.assoc p.Corpus.name Paper_data.table6
        in
        (p.Corpus.name
         :: (cell p "alloc_check" alloc_p
            @ cell p "dir_entry" dir_p
            @ cell p "send_wait" sw_p)))
      corpus.Corpus.protocols
  in
  Table.make
    ~title:
      "Table 6: the three lower-yield checks (paper/measured)"
    ~header:
      [
        "protocol"; "alloc FP"; "applied"; "dir FP"; "applied"; "sw FP";
        "applied";
      ]
    rows
    ~notes:[ "the directory-entry check also found 1 bug in bitvector" ]

(* ------------------------------------------------------------------ *)
(* Table 7                                                             *)
(* ------------------------------------------------------------------ *)

let table7 (corpus : Corpus.t) : Table.t =
  let count_all checker =
    (* the paper's Table 7 reports hook violations in Table 5 only: the
       execution-restriction row shows zero errors there *)
    if String.equal checker "exec_restrict" then (0, 0)
    else
      List.fold_left
        (fun (bugs, fps) (p : Corpus.protocol) ->
          let diags = run_checker p checker in
          let c = classify_diags p ~checker diags in
          (bugs + c.bugs, fps + c.fps))
        (0, 0) corpus.Corpus.protocols
  in
  let ours_loc = Checker_loc.by_name in
  let rows =
    List.map
      (fun (c : Registry.checker) ->
        let bugs, fps = count_all c.Registry.name in
        let ploc, perr, pfp =
          match List.assoc_opt c.Registry.name Paper_data.table7 with
          | Some t -> t
          | None -> (0, 0, 0)
        in
        let our_loc =
          match List.assoc_opt c.Registry.name ours_loc with
          | Some n -> n
          | None -> 0
        in
        [
          c.Registry.name;
          string_of_int ploc;
          string_of_int our_loc;
          fraction perr bugs;
          fraction pfp fps;
        ])
      Registry.all
  in
  let tot_bugs, tot_fps =
    List.fold_left
      (fun (b, f) (c : Registry.checker) ->
        let bugs, fps = count_all c.Registry.name in
        ignore c;
        (b + bugs, f + fps))
      (0, 0) Registry.all
  in
  let ploc, perr, pfp = Paper_data.table7_totals in
  let total_row =
    [
      "total";
      string_of_int ploc;
      string_of_int (List.fold_left (fun a (_, n) -> a + n) 0 ours_loc);
      fraction perr tot_bugs;
      fraction pfp tot_fps;
    ]
  in
  Table.make
    ~title:"Table 7: checker summary (errors and FPs are paper/measured)"
    ~header:
      [ "checker"; "metal LOC"; "our LOC"; "errors"; "false pos" ]
    (rows @ [ total_row ])
    ~notes:
      [
        "hook violations appear in Table 5, not in the error column, as \
         in the paper";
      ]

(* ------------------------------------------------------------------ *)
(* Everything                                                          *)
(* ------------------------------------------------------------------ *)

let all (corpus : Corpus.t) : Table.t list =
  [
    table1 corpus;
    table2 corpus;
    table3 corpus;
    table4 corpus;
    lanes_table corpus;
    table5 corpus;
    table6 corpus;
    table7 corpus;
  ]

(** The Mcobs observability layer: span nesting discipline across
    domains, exporter output validity, registry deltas, and the
    --explain witness paths. *)

let t = Alcotest.test_case

(* Every test restores the enable flag so the rest of the suite sees
   whatever OBS_TRACE asked for. *)
let with_tracing f =
  let was = Mcobs.enabled () in
  Mcobs.set_enabled true;
  Mcobs.reset ();
  Fun.protect ~finally:(fun () -> Mcobs.set_enabled was) f

(* ------------------------------------------------------------------ *)
(* span nesting well-formedness                                        *)
(* ------------------------------------------------------------------ *)

(* Each domain records a small recursive span tree; afterwards, within
   any one trace track (tid), every pair of spans must be either nested
   or disjoint, and each span's recorded depth must match the number of
   spans that strictly contain it. *)

(* spin until the shared clock visibly advances, so every span has a
   non-zero duration and a begin time distinct from its parent's —
   without this, zero-length sibling spans at the same microsecond are
   indistinguishable from nesting *)
let spin_us us =
  let t0 = Mcobs.now_us () in
  while Mcobs.now_us () -. t0 < us do
    Domain.cpu_relax ()
  done

let rec nest d =
  Mcobs.with_span (Printf.sprintf "lvl%d" d) (fun () ->
      spin_us 1.0;
      if d > 0 then begin
        nest (d - 1);
        nest (d - 1)
      end;
      spin_us 1.0)

let span_workload () =
  for _ = 1 to 3 do
    nest 3
  done

let contains a b =
  (* [a] contains [b] (endpoints may touch) *)
  a.Mcobs.sp_begin_us <= b.Mcobs.sp_begin_us
  && b.sp_begin_us +. b.sp_dur_us <= a.sp_begin_us +. a.sp_dur_us

let disjoint a b =
  a.Mcobs.sp_begin_us +. a.sp_dur_us <= b.Mcobs.sp_begin_us
  || b.sp_begin_us +. b.sp_dur_us <= a.sp_begin_us

let check_track tid spans =
  List.iteri
    (fun i a ->
      List.iteri
        (fun j b ->
          if i < j then
            Alcotest.(check bool)
              (Printf.sprintf "tid %d: %s/%s nested or disjoint" tid
                 a.Mcobs.sp_name b.Mcobs.sp_name)
              true
              (contains a b || contains b a || disjoint a b))
        spans)
    spans;
  List.iter
    (fun s ->
      let enclosing =
        List.length
          (List.filter (fun o -> o != s && contains o s) spans)
      in
      Alcotest.(check int)
        (Printf.sprintf "tid %d: depth of %s" tid s.Mcobs.sp_name)
        enclosing s.Mcobs.sp_depth)
    spans

let check_nesting domains () =
  with_tracing (fun () ->
      let workers =
        List.init (domains - 1) (fun _ -> Domain.spawn span_workload)
      in
      span_workload ();
      List.iter Domain.join workers;
      let snap = Mcobs.snapshot () in
      Alcotest.(check int) "nothing dropped" 0 snap.Mcobs.dropped_spans;
      (* 15 spans per nest 3, 3 nests per workload, one per domain *)
      Alcotest.(check int) "span count" (45 * domains)
        (List.length snap.Mcobs.spans);
      let tids =
        List.sort_uniq compare
          (List.map (fun s -> s.Mcobs.sp_tid) snap.Mcobs.spans)
      in
      Alcotest.(check int) "one track per domain" domains
        (List.length tids);
      List.iter
        (fun tid ->
          check_track tid
            (List.filter
               (fun s -> s.Mcobs.sp_tid = tid)
               snap.Mcobs.spans))
        tids)

let nesting_cases =
  [
    t "span nesting, 1 domain" `Quick (check_nesting 1);
    t "span nesting, 2 domains" `Quick (check_nesting 2);
    t "span nesting, 4 domains" `Quick (check_nesting 4);
    t "disabled tracing records no spans, metrics stay on" `Quick (fun () ->
        let was = Mcobs.enabled () in
        Mcobs.set_enabled false;
        Mcobs.reset ();
        Fun.protect
          ~finally:(fun () -> Mcobs.set_enabled was)
          (fun () ->
            let r = Mcobs.with_span "ghost" (fun () -> 41 + 1) in
            Mcobs.inc (Mcobs.counter "test.ghost");
            Mcobs.observe (Mcobs.hist "test.ghost_ms") 1.0;
            Alcotest.(check int) "thunk value" 42 r;
            let snap = Mcobs.snapshot () in
            Alcotest.(check int) "no spans" 0
              (List.length snap.Mcobs.spans);
            Alcotest.(check (list (pair string int))) "the counter counted"
              [ ("test.ghost", 1) ] snap.Mcobs.counters;
            Alcotest.(check (list string))
              "the hist observed" [ "test.ghost_ms" ]
              (List.map fst snap.Mcobs.hists)));
  ]

(* ------------------------------------------------------------------ *)
(* Chrome trace-event export: a minimal JSON reader                    *)
(* ------------------------------------------------------------------ *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad_json of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at %d" msg !pos)) in
  let peek () = if !pos < n then s.[!pos] else '\255' in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () = c then advance ()
    else fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    String.iter expect word;
    v
  in
  let string_body () =
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        (match peek () with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'n' -> Buffer.add_char buf '\n'
        | 't' -> Buffer.add_char buf '\t'
        | 'r' -> Buffer.add_char buf '\r'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'u' ->
          advance ();
          for _ = 1 to 3 do
            advance ()
          done;
          Buffer.add_char buf '?'
        | _ -> fail "bad escape");
        advance ();
        go ()
      | '\255' -> fail "unterminated string"
      | c when Char.code c < 0x20 -> fail "raw control char in string"
      | c ->
        Buffer.add_char buf c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let number () =
    let start = !pos in
    let numchar c =
      (c >= '0' && c <= '9')
      || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
    in
    while numchar (peek ()) do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "bad number"
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '{' ->
      advance ();
      skip_ws ();
      if peek () = '}' then begin
        advance ();
        Obj []
      end
      else begin
        let fields = ref [] in
        let rec members () =
          skip_ws ();
          expect '"';
          let k = string_body () in
          skip_ws ();
          expect ':';
          let v = value () in
          fields := (k, v) :: !fields;
          skip_ws ();
          match peek () with
          | ',' ->
            advance ();
            members ()
          | '}' -> advance ()
          | _ -> fail "expected , or }"
        in
        members ();
        Obj (List.rev !fields)
      end
    | '[' ->
      advance ();
      skip_ws ();
      if peek () = ']' then begin
        advance ();
        Arr []
      end
      else begin
        let items = ref [] in
        let rec elements () =
          let v = value () in
          items := v :: !items;
          skip_ws ();
          match peek () with
          | ',' ->
            advance ();
            elements ()
          | ']' -> advance ()
          | _ -> fail "expected , or ]"
        in
        elements ();
        Arr (List.rev !items)
      end
    | '"' ->
      advance ();
      Str (string_body ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> number ()
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing input";
  v

let field name = function
  | Obj fields -> List.assoc_opt name fields
  | _ -> None

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

(* exercise the escaper: args with quotes, backslashes, newlines, and
   control characters must still produce valid JSON *)
let nasty_args =
  [
    ("quote", {|say "hi"|});
    ("backslash", {|C:\flash\ni.c|});
    ("newline", "a\nb");
    ("control", "bell\007end");
  ]

let chrome_snapshot () =
  Mcobs.with_span ~args:nasty_args "outer" (fun () ->
      Mcobs.with_span "inner" (fun () ->
          Mcobs.inc ~by:3 (Mcobs.counter "test.widgets")));
  Mcobs.inc (Mcobs.counter "test.widgets");
  Mcobs.observe (Mcobs.hist "test.latency") 0.5;
  Mcobs.snapshot ()

let check_chrome_export () =
  with_tracing (fun () ->
      let snap = chrome_snapshot () in
      let path = Filename.temp_file "mcobs" ".json" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Mcobs.export_chrome_file path snap;
          let doc =
            match parse_json (read_file path) with
            | doc -> doc
            | exception Bad_json msg -> Alcotest.fail ("invalid JSON: " ^ msg)
          in
          let events =
            match field "traceEvents" doc with
            | Some (Arr es) -> es
            | _ -> Alcotest.fail "missing traceEvents array"
          in
          Alcotest.(check bool) "has events" true (events <> []);
          List.iter
            (fun e ->
              let str_field k =
                match field k e with
                | Some (Str s) -> s
                | _ -> Alcotest.fail (k ^ " missing or not a string")
              in
              let num_field k =
                match field k e with
                | Some (Num f) -> f
                | _ -> Alcotest.fail (k ^ " missing or not a number")
              in
              ignore (str_field "name");
              ignore (num_field "ts");
              ignore (num_field "pid");
              ignore (num_field "tid");
              match str_field "ph" with
              | "X" -> ignore (num_field "dur")
              | "C" -> ()
              | ph -> Alcotest.fail ("unexpected phase " ^ ph))
            events;
          let span_named name =
            List.exists
              (fun e ->
                field "name" e = Some (Str name)
                && field "ph" e = Some (Str "X"))
              events
          in
          Alcotest.(check bool) "outer span present" true
            (span_named "outer");
          Alcotest.(check bool) "inner span present" true
            (span_named "inner");
          Alcotest.(check bool) "counter event present" true
            (List.exists
               (fun e -> field "ph" e = Some (Str "C"))
               events);
          (* the nasty args survived the escaper *)
          let outer =
            List.find
              (fun e -> field "name" e = Some (Str "outer"))
              events
          in
          match field "args" outer with
          | Some (Obj _ as args) ->
            Alcotest.(check bool) "quote arg intact" true
              (field "quote" args = Some (Str {|say "hi"|}))
          | _ -> Alcotest.fail "outer span lost its args"))

let exporter_cases =
  [
    t "chrome export is valid JSON with the right shape" `Quick
      check_chrome_export;
  ]

(* ------------------------------------------------------------------ *)
(* registry deltas                                                     *)
(* ------------------------------------------------------------------ *)

(* A serve worker ships [diff after before] of its registry and the
   daemon [merge]s it, so the delta must hold exactly the moves made in
   between, and merging it must make exactly those moves again. *)

let moves_gen =
  QCheck2.Gen.(
    pair
      (list_size (int_bound 12)
         (pair (oneofl [ "qc.a"; "qc.b"; "qc.c" ]) (int_range 1 1000)))
      (list_size (int_bound 12) (float_range 0.0 20000.0)))

let apply_moves (bumps, samples) =
  List.iter (fun (name, by) -> Mcobs.inc ~by (Mcobs.counter name)) bumps;
  List.iter (Mcobs.observe (Mcobs.hist "qc.h")) samples

(* the counters and the histogram's count and buckets a delta holds *)
let delta_shape (d : Mcobs.metrics) =
  ( List.filter (fun (n, _) -> String.starts_with ~prefix:"qc." n)
      d.Mcobs.m_counters,
    Option.map
      (fun (h : Mcobs.hist_snapshot) -> (h.Mcobs.count, h.Mcobs.buckets))
      (List.assoc_opt "qc.h" d.Mcobs.m_hists) )

let delta_props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:200 ~name:"a registry delta holds the moves"
         moves_gen (fun ((bumps, samples) as moves) ->
           let before = Mcobs.metrics () in
           apply_moves moves;
           let counters, hist =
             delta_shape (Mcobs.diff (Mcobs.metrics ()) before)
           in
           let expected =
             List.filter_map
               (fun name ->
                 match
                   List.fold_left
                     (fun acc (n, by) -> if n = name then acc + by else acc)
                     0 bumps
                 with
                 | 0 -> None
                 | total -> Some (name, total))
               [ "qc.a"; "qc.b"; "qc.c" ]
           in
           counters = expected
           && Option.fold ~none:0 ~some:fst hist = List.length samples));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:200 ~name:"merging a delta replays it"
         moves_gen (fun moves ->
           let before = Mcobs.metrics () in
           apply_moves moves;
           let after = Mcobs.metrics () in
           let d = Mcobs.diff after before in
           Mcobs.merge d;
           delta_shape (Mcobs.diff (Mcobs.metrics ()) after) = delta_shape d));
  ]

(* ------------------------------------------------------------------ *)
(* quantile estimation                                                 *)
(* ------------------------------------------------------------------ *)

(* The estimator interpolates inside the bucket holding the target
   rank, so two properties pin it down: it is monotone in [p], and the
   estimate lies inside the bounds of the bucket an independent rank
   computation selects, the upper bound capped at the recorded max. *)

let quantile (snap : Mcobs.snapshot) name p =
  Mcobs.quantile_hist (List.assoc name snap.Mcobs.hists) p

let observe_all name samples =
  List.iter (Mcobs.observe (Mcobs.hist name)) samples

(* the bucket the implementation should land in for quantile [p] of
   [samples], computed from the raw samples rather than the snapshot *)
let reference_bucket_bounds samples p =
  let bounds = Mcobs.hist_bounds_ms in
  let nb = Array.length bounds + 1 in
  let counts = Array.make nb 0 in
  let bucket_of v =
    let rec go i =
      if i >= Array.length bounds then Array.length bounds
      else if v <= bounds.(i) then i
      else go (i + 1)
    in
    go 0
  in
  List.iter (fun v -> counts.(bucket_of v) <- counts.(bucket_of v) + 1) samples;
  let count = List.length samples in
  let max_ms = List.fold_left Float.max 0. samples in
  let target = p *. float_of_int count in
  let rec go i cum =
    if i >= nb then
      (* past every bucket: the implementation answers max_ms *)
      (max_ms, max_ms)
    else
      let cum' = cum + counts.(i) in
      if counts.(i) > 0 && float_of_int cum' >= target then
        let lo = if i = 0 then 0. else bounds.(i - 1) in
        let hi =
          if i < Array.length bounds then Float.min bounds.(i) max_ms
          else max_ms
        in
        (lo, Float.max lo hi)
      else go (i + 1) cum'
  in
  go 0 0

let samples_gen =
  (* positive latencies spread across the log-scale buckets, overflow
     included *)
  QCheck2.Gen.(
    list_size (int_range 1 40)
      (map (fun x -> 0.001 *. (1.5 ** float_of_int x)) (int_bound 45)))

let quantile_of samples p =
  Mcobs.set_enabled true;
  Mcobs.reset ();
  observe_all "test.q" samples;
  let snap = Mcobs.snapshot () in
  Mcobs.reset ();
  quantile snap "test.q" p

let quantile_props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:100 ~name:"quantile monotone in p"
         samples_gen
         (fun samples ->
           let ps = [ 0.0; 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 1.0 ] in
           Mcobs.set_enabled true;
           Mcobs.reset ();
           observe_all "test.q" samples;
           let snap = Mcobs.snapshot () in
           Mcobs.reset ();
           let qs =
             List.map
               (fun p ->
                 match quantile snap "test.q" p with
                 | Some q -> q
                 | None -> QCheck2.Test.fail_report "no estimate")
               ps
           in
           let rec nondecreasing = function
             | a :: (b :: _ as rest) -> a <= b && nondecreasing rest
             | _ -> true
           in
           nondecreasing qs));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:100
         ~name:"quantile bracketed by its rank bucket"
         QCheck2.Gen.(pair samples_gen (float_range 0.0 1.0))
         (fun (samples, p) ->
           match quantile_of samples p with
           | None -> false
           | Some q ->
             let lo, hi = reference_bucket_bounds samples p in
             q >= lo -. 1e-9 && q <= hi +. 1e-9));
  ]

let quantile_cases =
  [
    t "quantile interpolates deterministically" `Quick (fun () ->
        (* one 0.5 ms sample lands in the (0.1, 1.0] bucket, capped at
           the 0.5 ms max; the median rank is halfway through it:
           0.1 + 0.5 * (0.5 - 0.1) = 0.3 *)
        match quantile_of [ 0.5 ] 0.5 with
        | None -> Alcotest.fail "no estimate"
        | Some q ->
          Alcotest.(check (float 1e-9)) "interpolated median" 0.3 q);
    t "no quantile exceeds the recorded max" `Quick (fun () ->
        List.iter
          (fun p ->
            match quantile_of [ 28.7 ] p with
            | None -> Alcotest.fail "no estimate"
            | Some q ->
              if q > 28.7 then
                Alcotest.failf "p%g = %g ms above the 28.7 ms max"
                  (100. *. p) q)
          [ 0.0; 0.5; 0.9; 0.99; 1.0 ]);
    t "quantile: empty histograms and p outside [0,1] answer None" `Quick
      (fun () ->
        with_tracing (fun () ->
            Alcotest.(check bool) "empty hist" true
              (Mcobs.quantile_hist
                 { Mcobs.count = 0; sum_ms = 0.; max_ms = 0.; buckets = [||] }
                 0.5
              = None);
            Mcobs.observe (Mcobs.hist "test.h") 1.0;
            let snap = Mcobs.snapshot () in
            Alcotest.(check bool) "p out of range" true
              (quantile snap "test.h" 1.5 = None
              && quantile snap "test.h" (-0.1) = None)));
  ]

(* ------------------------------------------------------------------ *)
(* per-trace span harvest                                              *)
(* ------------------------------------------------------------------ *)

let trace_cases =
  [
    t "drain_trace takes one trace's spans and leaves the rest" `Quick
      (fun () ->
        with_tracing (fun () ->
            Mcobs.with_trace "t-one" (fun () ->
                Mcobs.with_span "traced.outer" (fun () ->
                    (* separate the begin times so the ascending-begin
                       order is deterministic *)
                    spin_us 1.0;
                    Mcobs.with_span "traced.inner" ignore));
            Mcobs.with_span "untraced" ignore;
            Mcobs.inc (Mcobs.counter "test.survivor");
            let harvested = Mcobs.drain_trace "t-one" in
            Alcotest.(check (list string))
              "the trace's spans, ascending begin"
              [ "traced.outer"; "traced.inner" ]
              (List.map (fun sp -> sp.Mcobs.sp_name) harvested);
            List.iter
              (fun sp ->
                Alcotest.(check string) "stamped with the trace" "t-one"
                  sp.Mcobs.sp_trace)
              harvested;
            Alcotest.(check (list string)) "second harvest is empty" []
              (List.map
                 (fun sp -> sp.Mcobs.sp_name)
                 (Mcobs.drain_trace "t-one"));
            let snap = Mcobs.snapshot () in
            Alcotest.(check (list string)) "untraced span survives"
              [ "untraced" ]
              (List.map (fun sp -> sp.Mcobs.sp_name) snap.Mcobs.spans);
            Alcotest.(check bool) "the registry untouched" true
              (List.mem_assoc "test.survivor" snap.Mcobs.counters)));
  ]

(* ------------------------------------------------------------------ *)
(* --explain witness paths                                             *)
(* ------------------------------------------------------------------ *)

let spec_for handlers : Flash_api.spec =
  {
    Flash_api.p_name = "test";
    p_handlers =
      List.map
        (fun name ->
          {
            Flash_api.h_name = name;
            h_kind = Flash_api.Hw_handler;
            h_lane_allowance = [| 1; 1; 1; 1 |];
            h_no_stack = false;
          })
        handlers;
    p_free_funcs = [];
    p_use_funcs = [];
    p_cond_free_funcs = [];
  }

let parse src =
  Parsed.ok (Frontend.parse_strings [ ("t.c", Prelude.text ^ src) ])

let check_step msg (step : Diag.step) ~event_prefix ~from_state ~to_state =
  let prefix p s =
    String.length s >= String.length p
    && String.equal (String.sub s 0 (String.length p)) p
  in
  Alcotest.(check bool)
    (msg ^ ": event " ^ step.Diag.w_event)
    true
    (prefix event_prefix step.Diag.w_event);
  Alcotest.(check string) (msg ^ ": from") from_state step.Diag.w_from;
  Alcotest.(check string) (msg ^ ": to") to_state step.Diag.w_to

let witness_cases =
  [
    t "send_wait witness names the transitions in order" `Quick (fun () ->
        let tus =
          parse "void H(void) { PI_SEND(F_NODATA, 0, 0, W_WAIT, 1, 0); }"
        in
        let diags = Checks.run Send_wait.name ~spec:(spec_for [ "H" ]) tus in
        Alcotest.(check int) "one diagnostic" 1 (List.length diags);
        let d = List.hd diags in
        Alcotest.(check int) "two witness steps" 2
          (List.length d.Diag.witness);
        (match d.Diag.witness with
        | [ send; ret ] ->
          check_step "step 1" send ~event_prefix:"PI_SEND("
            ~from_state:"idle" ~to_state:"waiting_PI";
          check_step "step 2" ret ~event_prefix:"return"
            ~from_state:"waiting_PI" ~to_state:"waiting_PI"
        | _ -> Alcotest.fail "witness shape");
        (* and the --explain rendering shows both *)
        let rendered = Format.asprintf "%a" Diag.pp_explain d in
        let contains_sub hay needle =
          let nh = String.length hay and nn = String.length needle in
          let rec go i =
            i + nn <= nh
            && (String.equal (String.sub hay i nn) needle || go (i + 1))
          in
          go 0
        in
        Alcotest.(check bool) "rendering mentions witness" true
          (contains_sub rendered "witness");
        Alcotest.(check bool) "rendering shows the send step" true
          (contains_sub rendered "PI_SEND"));
    t "every corpus diagnostic carries a non-empty witness" `Quick
      (fun () ->
        let tus =
          parse
            "void H(void) { FREE_DB(); FREE_DB(); }"
        in
        let diags =
          Checks.run Buffer_mgmt.name ~spec:(spec_for [ "H" ]) tus
        in
        Alcotest.(check bool) "has diags" true (diags <> []);
        List.iter
          (fun d ->
            Alcotest.(check bool) "witness non-empty" true
              (d.Diag.witness <> []))
          diags);
  ]

(* the pool's runs in the trace: each [mcd.worker] span names the
   front-end or scheduler phase it worked for *)
let phase_cases =
  [
    t "pool runs carry their phase; cfront.front its domains" `Quick
      (fun () ->
        with_tracing (fun () ->
            let src name =
              (name, Prelude.text ^ "void " ^ name ^ "(void) { int x = 1; }\n")
            in
            let tus =
              Parsed.ok (Frontend.parse_strings ~domains:2 [ src "A"; src "B" ])
            in
            ignore (Mcd.check_jobs ~jobs:2 [ { Mcd.spec = spec_for []; tus } ]);
            let spans = (Mcobs.snapshot ()).Mcobs.spans in
            let phases =
              List.filter_map
                (fun sp ->
                  if sp.Mcobs.sp_name = "mcd.worker" then
                    List.assoc_opt "phase" sp.Mcobs.sp_args
                  else None)
                spans
              |> List.sort_uniq compare
            in
            Alcotest.(check (list string)) "every pool run's phase"
              [ "parse"; "prescan"; "typecheck"; "units" ]
              phases;
            match
              List.find_opt (fun sp -> sp.Mcobs.sp_name = "cfront.front") spans
            with
            | None -> Alcotest.fail "no cfront.front span"
            | Some sp ->
              Alcotest.(check (option string)) "domains" (Some "2")
                (List.assoc_opt "domains" sp.Mcobs.sp_args);
              Alcotest.(check (option string)) "mispredicted" (Some "0")
                (List.assoc_opt "mispredicted" sp.Mcobs.sp_args)));
  ]

let suite =
  ( "obs",
    nesting_cases @ exporter_cases @ delta_props @ quantile_props
    @ quantile_cases @ trace_cases @ witness_cases @ phase_cases )

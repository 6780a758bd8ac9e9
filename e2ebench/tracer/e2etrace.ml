(* The traced, in-process half of the end-to-end benchmark.

     e2etrace judge --timeout T --spans OUT FILE...
     e2etrace model --spans OUT FILE...
     e2etrace serve --requests IN --replies OUT --spans OUT

   [judge] and [model] stage what `bddfc judge` / `bddfc model` run, one
   public library call at a time (parse, class recognition, kappa,
   normalization, chase, skeleton, coloring, refinement, quotient,
   saturation, verification, naive search, absence), and record a span
   around each call.  The staging mirrors Judge.judge and
   Pipeline.construct with the CLI's default parameters, so its verdict
   must equal the CLI's; the caller checks that.  [serve] replays a
   request stream through Server.handle_line and, beside it, keeps a
   mirror of every session's resident chase prefixes to time
   Maintain.apply on its own.

   Registry snapshots and GC counters are taken at the boundary of every
   program or request.  Spans are kept in memory and written to the
   --spans file at exit; one JSON line of aggregates goes to stdout.
   Every mode also runs the same inputs untraced (straight library
   calls) so the caller can report the tracing overhead. *)

open Bddfc
module Json = Obs.Json
module Budget = Bddfc.Budget
module Chase = Chase.Chase
module Maintain = Bddfc.Chase.Maintain
module Skeleton = Bddfc.Chase.Skeleton
module Termination = Bddfc.Chase.Termination
module Instance = Structure.Instance
module Theory = Logic.Theory
module Parser = Logic.Parser
module Pipeline = Finitemodel.Pipeline
module Judge = Finitemodel.Judge
module Naive = Finitemodel.Naive
module Certificate = Finitemodel.Certificate
module Normalize = Finitemodel.Normalize
module Model_check = Finitemodel.Model_check
module Rewrite = Rewriting.Rewrite

let origin = Unix.gettimeofday ()

(* Seconds since start-up: small enough that the JSON dump keeps
   microsecond resolution. *)
let now () = Unix.gettimeofday () -. origin

(* ------------------------------------------------------------ spans *)

type span = {
  id : int;
  parent : int; (* -1 for a root *)
  req : int; (* the program or request the span belongs to *)
  name : string;
  t0 : float;
  mutable t1 : float;
}

let spans : span list ref = ref []
let open_spans : span list ref = ref []
let next_id = ref 0
let current_req = ref 0

let span name f =
  let parent = match !open_spans with p :: _ -> p.id | [] -> -1 in
  let s = { id = !next_id; parent; req = !current_req; name; t0 = now (); t1 = 0. } in
  incr next_id;
  open_spans := s :: !open_spans;
  Fun.protect f ~finally:(fun () ->
      s.t1 <- now ();
      open_spans := List.tl !open_spans;
      spans := s :: !spans)

(* Self time per span name: a span's duration minus its children's. *)
let self_times () =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (s.t1 -. s.t0 +. Option.value (Hashtbl.find_opt child s.parent) ~default:0.))
    !spans;
  let self = Hashtbl.create 16 and count = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let d = s.t1 -. s.t0 -. Option.value (Hashtbl.find_opt child s.id) ~default:0. in
      Hashtbl.replace self s.name (d +. Option.value (Hashtbl.find_opt self s.name) ~default:0.);
      Hashtbl.replace count s.name (1 + Option.value (Hashtbl.find_opt count s.name) ~default:0))
    !spans;
  (self, count)

let root_total () =
  List.fold_left (fun acc s -> if s.parent < 0 then acc +. (s.t1 -. s.t0) else acc) 0. !spans

let write_spans path =
  let oc = open_out path in
  output_string oc "[";
  List.iteri
    (fun i s ->
      if i > 0 then output_string oc ",\n";
      output_string oc
        (Json.to_string
           (Json.O
              [ ("id", Json.N (float_of_int s.id));
                ("parent", Json.N (float_of_int s.parent));
                ("req", Json.N (float_of_int s.req));
                ("name", Json.S s.name);
                ("start", Json.N s.t0);
                ("end", Json.N s.t1) ])))
    (List.rev !spans);
  output_string oc "]\n";
  close_out oc

(* ------------------------------------------ registry and GC deltas *)

let counters : (string, int) Hashtbl.t = Hashtbl.create 64
let timers : (string, float) Hashtbl.t = Hashtbl.create 16
let minor_words = ref 0. and major_words = ref 0.

let timer_names =
  [ "rewrite.run"; "chase.run"; "judge.run"; "pipeline.construct"; "naive.search" ]

(* Run [f] and add the registry and GC activity it caused to the totals. *)
let measured f =
  let g0 = Gc.quick_stat () and s0 = Obs.Metrics.snapshot () in
  let r = f () in
  let s1 = Obs.Metrics.snapshot () and g1 = Gc.quick_stat () in
  List.iter
    (fun (k, d) ->
      Hashtbl.replace counters k (d + Option.value (Hashtbl.find_opt counters k) ~default:0))
    (Obs.Metrics.ints_delta ~before:s0 ~after:s1);
  List.iter
    (fun k ->
      match (Obs.Metrics.find_timer s0 k, Obs.Metrics.find_timer s1 k) with
      | Some (_, a), Some (_, b) ->
          Hashtbl.replace timers k (b -. a +. Option.value (Hashtbl.find_opt timers k) ~default:0.)
      | _ -> ())
    timer_names;
  minor_words := !minor_words +. (g1.Gc.minor_words -. g0.Gc.minor_words);
  major_words := !major_words +. (g1.Gc.major_words -. g0.Gc.major_words);
  r

(* Pipeline facts the spans cannot carry. *)
let kappa_calls = ref 0 and kappa_complete = ref 0
let refine_calls = ref 0 and refine_classes = ref 0
let compression_sum = ref 0.
let verify_calls = ref 0 and quotient_attempts = ref 0

(* ------------------------------------------------ staged pipeline *)

let params budget = { Pipeline.default_params with Pipeline.budget }

let kappa p theory =
  span "rewriting.kappa" @@ fun () ->
  let k =
    Rewrite.kappa ?budget:p.Pipeline.budget ~eval:p.Pipeline.eval ~hc:p.Pipeline.hc
      ~max_disjuncts:p.Pipeline.rewrite_max_disjuncts
      ~max_steps:p.Pipeline.rewrite_max_steps theory
  in
  incr kappa_calls;
  if k.Rewrite.all_complete then incr kappa_complete;
  k

let is_valid cert =
  incr verify_calls;
  Certificate.is_valid cert

(* Pipeline.construct_at, one layer per span. *)
let construct_at (p : Pipeline.params) ~budget ~(hidden : Normalize.hidden) ~t2
    ?(terminating = false) theory db query ~depth =
  let qp = hidden.Normalize.query_pred in
  let chase =
    span "chase.run" @@ fun () ->
    if terminating then
      Chase.run ~strategy:p.Pipeline.strategy ~eval:p.Pipeline.eval ?budget ~watch:qp t2 db
    else
      Chase.run ~strategy:p.Pipeline.strategy ~eval:p.Pipeline.eval ?budget ~watch:qp
        ~max_rounds:depth ~max_elements:p.Pipeline.max_chase_elements t2 db
  in
  let entailed =
    chase.Chase.outcome = Chase.Watched
    || Instance.facts_with_pred chase.Chase.instance qp <> []
  in
  let unknown = Pipeline.Unknown ("", Pipeline.empty_stats) in
  if entailed then
    Pipeline.Query_entailed
      (match chase.Chase.watch_round with Some r -> max 0 (r - 2) | None -> chase.Chase.rounds)
  else if chase.Chase.outcome = Chase.Fixpoint then
    span "finitemodel.verify" @@ fun () ->
    let model = Pipeline.original_signature_model theory db chase.Chase.instance in
    let cert = { Certificate.theory; database = db; query; model } in
    if is_valid cert then Pipeline.Model (cert, Pipeline.empty_stats) else unknown
  else
    match
      match chase.Chase.outcome with
      | Chase.Exhausted (Budget.Deadline as r) -> Some r
      | Chase.Exhausted r when terminating -> Some r
      | _ -> Option.bind budget Budget.exhausted_now
    with
    | Some _ -> unknown
    | None ->
        let sk = span "chase.skeleton" (fun () -> Skeleton.extract t2 chase) in
        let kap = kappa { p with Pipeline.budget } t2 in
        let m =
          match p.Pipeline.coloring_m with
          | Some m -> m
          | None ->
              let base = max (Theory.max_body_vars t2) (Logic.Cq.num_vars query) in
              if kap.Rewrite.all_complete then max kap.Rewrite.kappa base else base
        in
        let coloring = span "ptp.coloring" (fun () -> Ptp.Coloring.natural ~m sk.Skeleton.skeleton) in
        let try_n n =
          incr quotient_attempts;
          let refinement =
            span "ptp.refine" @@ fun () ->
            let g = Structure.Bgraph.make coloring.Ptp.Coloring.colored in
            Ptp.Refine.compute ~mode:p.Pipeline.refine_mode ?budget ~depth:n g
          in
          incr refine_calls;
          refine_classes := !refine_classes + Ptp.Refine.num_classes refinement;
          let m0 =
            span "ptp.quotient" @@ fun () ->
            let q = Ptp.Quotient.of_refinement coloring.Ptp.Coloring.colored refinement in
            compression_sum := !compression_sum +. Ptp.Quotient.compression_ratio q;
            Instance.copy q.Ptp.Quotient.quotient
          in
          let sat =
            span "chase.saturate" @@ fun () ->
            Chase.saturate_datalog ~strategy:p.Pipeline.strategy ~eval:p.Pipeline.eval ?budget
              ~max_rounds:p.Pipeline.saturation_rounds t2 m0
          in
          span "finitemodel.verify" @@ fun () ->
          let m1 = sat.Chase.instance in
          if not (Chase.is_model sat) then None
          else if Instance.facts_with_pred m1 qp <> [] then None
          else if
            match p.Pipeline.hc with
            | Hom.Hc.Structural -> Hom.Eval.holds ~engine:p.Pipeline.eval m1 query
            | Hom.Hc.Interned -> Hom.Hc.holds_memo ~engine:p.Pipeline.eval m1 ~init:[] query
          then None
          else
            match Model_check.violations ~limit:1 ~eval:p.Pipeline.eval t2 m1 with
            | _ :: _ -> None
            | [] ->
                let model = Pipeline.original_signature_model theory db m1 in
                let cert = { Certificate.theory; database = db; query; model } in
                if is_valid cert then Some cert else None
        in
        let rec search = function
          | [] -> unknown
          | n :: rest -> (
              match Option.bind budget Budget.exhausted_now with
              | Some _ -> unknown
              | None -> (
                  match try_n n with
                  | Some cert -> Pipeline.Model (cert, Pipeline.empty_stats)
                  | None -> search rest))
        in
        search p.Pipeline.n_schedule

(* Pipeline.construct without the slicer (the CLI default): pre-flight,
   then the depth schedule with the deadline split across attempts. *)
let construct (p : Pipeline.params) theory db query =
  let normalized =
    span "finitemodel.normalize" @@ fun () ->
    let hidden = Normalize.hide_query theory query in
    match Normalize.spade5 hidden.Normalize.theory with
    | exception Normalize.Unsupported _ -> None
    | split ->
        let t2 = split.Normalize.theory in
        Some (hidden, t2, p.Pipeline.preflight
                          && (Termination.weakly_acyclic t2 || Termination.jointly_acyclic t2))
  in
  let unknown = Pipeline.Unknown ("", Pipeline.empty_stats) in
  match normalized with
  | None -> unknown
  | Some (hidden, t2, acyclic) -> (
      let pre =
        if not acyclic then None
        else
          let budget =
            Some (match p.Pipeline.budget with
                  | Some b -> Budget.deadline_only b
                  | None -> Budget.unlimited)
          in
          match
            construct_at p ~budget ~hidden ~t2 ~terminating:true theory db query
              ~depth:p.Pipeline.chase_depth
          with
          | Pipeline.Unknown _ -> None
          | o -> Some o
      in
      match pre with
      | Some o -> o
      | None ->
          let rec over_depths = function
            | [] -> unknown
            | mult :: rest -> (
                match Option.bind p.Pipeline.budget Budget.exhausted_now with
                | Some _ -> unknown
                | None -> (
                    let budget =
                      match p.Pipeline.budget with
                      | None -> None
                      | Some b -> (
                          match Budget.remaining_s b with
                          | Some rem when rem > 0. ->
                              Some (Budget.with_deadline_s
                                      (rem /. float_of_int (1 + List.length rest)) b)
                          | _ -> Some b)
                    in
                    match
                      construct_at p ~budget ~hidden ~t2 theory db query
                        ~depth:(p.Pipeline.chase_depth * mult)
                    with
                    | Pipeline.Unknown _ when rest <> [] -> over_depths rest
                    | o -> o))
          in
          over_depths (match p.Pipeline.depth_growth with [] -> [ 1 ] | l -> l))

(* Judge.judge, staged. *)
let judge (p : Pipeline.params) theory db query =
  let jb = Judge.default_budget in
  ignore (span "classes.recognize" (fun () -> Classes.Recognize.report theory));
  if Theory.all_single_head theory then ignore (kappa p theory);
  match construct p theory db query with
  | Pipeline.Query_entailed _ -> "certain"
  | Pipeline.Model _ -> "countermodel"
  | Pipeline.Unknown _ -> (
      let budget = p.Pipeline.budget in
      let found m =
        span "finitemodel.verify" @@ fun () ->
        if is_valid { Certificate.theory; database = db; query; model = m } then "countermodel"
        else "open"
      in
      match
        span "finitemodel.naive" @@ fun () ->
        Naive.search ?budget ~strategy:p.Pipeline.strategy ~eval:p.Pipeline.eval
          ~params:jb.Judge.search_params theory db query
      with
      | Naive.Found m -> found m
      | Naive.Exhausted | Naive.Budget_out _ -> (
          match
            span "finitemodel.absence" @@ fun () ->
            Naive.exhaustive_absence ?budget ~eval:p.Pipeline.eval
              ~max_candidates:jb.Judge.exhaustive_candidates
              ~max_extra:jb.Judge.exhaustive_extra theory db query
          with
          | Naive.No_model -> "no_small_model"
          | Naive.Counter_model m -> found m
          | Naive.Too_large _ | Naive.Absence_exhausted _ -> "open"))

let verdict_of_judge (v : Judge.verdict) =
  match v.Judge.evidence with
  | Judge.Certain _ -> "certain"
  | Judge.Witness _ -> "countermodel"
  | Judge.No_small_model _ -> "no_small_model"
  | Judge.Open _ -> "open"

let read_file path = In_channel.with_open_bin path In_channel.input_all

let load path =
  let p = Parser.parse_program (read_file path) in
  ( Theory.make p.Parser.rules,
    Instance.of_atoms p.Parser.facts,
    List.hd p.Parser.queries )

(* -------------------------------------------------- judge / model *)

let run_programs ~mode ~timeout files =
  let budget () = Option.map (fun t -> Budget.v ~deadline_s:t ()) timeout in
  (* untraced: the library's own entry points, as the CLI calls them *)
  let untraced file =
    Hom.Hc.reset ();
    let t0 = now () in
    let b = budget () in
    let theory, db, q = load file in
    let v =
      match mode with
      | `Judge ->
          let jb = { Judge.default_budget with Judge.pipeline_params = params b } in
          verdict_of_judge (Judge.judge ~budget:jb theory db q)
      | `Model -> (
          match Pipeline.construct ~params:(params b) theory db q with
          | Pipeline.Query_entailed _ -> "certain"
          | Pipeline.Model (cert, _) ->
              if Certificate.is_valid cert then "countermodel" else "unverified"
          | Pipeline.Unknown _ -> "open")
    in
    (v, now () -. t0)
  in
  let traced i file =
    Hom.Hc.reset ();
    current_req := i;
    let t0 = now () in
    let v =
      measured @@ fun () ->
      span "program" @@ fun () ->
      let b = budget () in
      let theory, db, q = span "logic.parse" (fun () -> load file) in
      let p = params b in
      match mode with
      | `Judge -> judge p theory db q
      | `Model -> (
          match construct p theory db q with
          | Pipeline.Query_entailed _ -> "certain"
          | Pipeline.Model (cert, _) ->
              (* `bddfc model` prints the certificate's validity again *)
              span "finitemodel.verify" @@ fun () ->
              if is_valid cert then "countermodel" else "unverified"
          | Pipeline.Unknown _ -> "open")
    in
    (v, now () -. t0)
  in
  (* alternate which run goes first, so warm-up favours neither *)
  let runs =
    List.mapi
      (fun i file ->
        if i mod 2 = 0 then
          let u = untraced file in
          (traced i file, u)
        else
          let t = traced i file in
          (t, untraced file))
      files
  in
  ( List.map (fun ((v, _), _) -> v) runs,
    List.map (fun (_, (v, _)) -> v) runs,
    List.fold_left (fun acc (_, (_, s)) -> acc +. s) 0. runs,
    List.fold_left (fun acc ((_, s), _) -> acc +. s) 0. runs )

(* ------------------------------------------------------------ serve *)

type mirror = {
  m_theory : Theory.t;
  m_db : Instance.t;
  prefixes : (int, Maintain.state) Hashtbl.t;
}

let maintain_s = ref 0. and maintain_writes = ref 0
let m_deleted = ref 0 and m_rederived = ref 0 and m_inserted = ref 0 and m_bailouts = ref 0

let str_member k j = match Json.member k j with Some (Json.S s) -> Some s | _ -> None
let int_member k j = match Json.member k j with Some (Json.N f) -> Some (int_of_float f) | _ -> None

(* Keep the mirror in step with what the server does to its sessions. *)
let mirror_step mirrors ~default_rounds req =
  let session () = Option.bind (str_member "session" req) (Hashtbl.find_opt mirrors) in
  match str_member "op" req with
  | Some "load" -> (
      match (str_member "session" req, str_member "program" req) with
      | Some name, Some src ->
          let p = Parser.parse_program src in
          Hashtbl.replace mirrors name
            { m_theory = Theory.make p.Parser.rules;
              m_db = Instance.of_atoms p.Parser.facts;
              prefixes = Hashtbl.create 4 }
      | _ -> ())
  | Some "query" -> (
      match session () with
      | None -> ()
      | Some m ->
          let r = Option.value (int_member "rounds" req) ~default:default_rounds in
          if not (Hashtbl.mem m.prefixes r) then
            Hashtbl.replace m.prefixes r
              (Maintain.saturate ~max_rounds:r m.m_theory m.m_db))
  | Some (("assert" | "retract") as op) -> (
      match (session (), str_member "facts" req) with
      | Some m, Some text ->
          let atoms = Parser.parse_atoms text in
          let insert, retract = if op = "assert" then (atoms, []) else ([], atoms) in
          let t0 = now () in
          span "chase.maintain" (fun () ->
              ignore (Maintain.update_db m.m_db ~insert ~retract);
              List.iter
                (fun k ->
                  let st, stats =
                    Maintain.apply ~max_rounds:k m.m_theory ~db:m.m_db
                      (Hashtbl.find m.prefixes k) ~insert ~retract
                  in
                  Hashtbl.replace m.prefixes k st;
                  m_deleted := !m_deleted + stats.Maintain.deleted;
                  m_rederived := !m_rederived + stats.Maintain.rederived;
                  m_inserted := !m_inserted + stats.Maintain.inserted;
                  if stats.Maintain.bailed_out then incr m_bailouts)
                (List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) m.prefixes [])));
          maintain_s := !maintain_s +. (now () -. t0);
          incr maintain_writes
      | _ -> ())
  | _ -> ()

let run_serve ~requests ~replies_out =
  let lines = In_channel.with_open_bin requests In_channel.input_lines in
  let cfg = Serve.Server.default_config in
  (* untraced: a fresh server fed the same lines *)
  Hom.Hc.reset ();
  let server = Serve.Server.create ~config:cfg () in
  let t0 = now () in
  List.iter (fun l -> ignore (Serve.Server.handle_line server l)) lines;
  let untraced_s = now () -. t0 in
  Hom.Hc.reset ();
  let server = Serve.Server.create ~config:cfg () in
  let mirrors = Hashtbl.create 4 in
  let oc = open_out replies_out in
  let traced_s = ref 0. in
  let per_request =
    List.mapi
      (fun i line ->
        current_req := i;
        let t0 = now () in
        let reply, handle_s =
          measured @@ fun () ->
          span "serve.request" @@ fun () ->
          let h0 = now () in
          let reply = Serve.Server.handle_line server line in
          (reply, now () -. h0)
        in
        traced_s := !traced_s +. (now () -. t0);
        output_string oc reply;
        output_char oc '\n';
        (match Json.parse line with
        | Ok req -> mirror_step mirrors ~default_rounds:cfg.Serve.Server.chase_rounds req
        | Error _ -> ());
        Json.N handle_s)
      lines
  in
  close_out oc;
  (per_request, untraced_s, !traced_s)

(* ------------------------------------------------------------- main *)

let json_tbl tbl f =
  Json.O (List.sort compare (Hashtbl.fold (fun k v acc -> (k, f v) :: acc) tbl []))

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opt name = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> opt name rest
    | [] -> None
  in
  let rec files = function
    | k :: _ :: rest when String.length k > 2 && String.sub k 0 2 = "--" -> files rest
    | f :: rest -> f :: files rest
    | [] -> []
  in
  let mode, rest = match args with m :: rest -> (m, rest) | [] -> ("", []) in
  let spans_out = opt "--spans" rest in
  let extra =
    match mode with
    | "judge" | "model" ->
        let timeout = Option.map float_of_string (opt "--timeout" rest) in
        let m = if mode = "judge" then `Judge else `Model in
        let verdicts, library, untraced_s, traced_s = run_programs ~mode:m ~timeout (files rest) in
        let strs l = Json.A (List.map (fun v -> Json.S v) l) in
        [ ("verdicts", strs verdicts);
          ("library_verdicts", strs library);
          ("untraced_s", Json.N untraced_s);
          ("traced_s", Json.N traced_s) ]
    | "serve" ->
        let requests = Option.get (opt "--requests" rest)
        and replies_out = Option.get (opt "--replies" rest) in
        let handle, untraced_s, traced_s = run_serve ~requests ~replies_out in
        [ ("handle_s", Json.A handle);
          ("untraced_s", Json.N untraced_s);
          ("traced_s", Json.N traced_s);
          ("maintain",
           Json.O
             [ ("s", Json.N !maintain_s);
               ("writes", Json.N (float_of_int !maintain_writes));
               ("deleted", Json.N (float_of_int !m_deleted));
               ("rederived", Json.N (float_of_int !m_rederived));
               ("inserted", Json.N (float_of_int !m_inserted));
               ("bailouts", Json.N (float_of_int !m_bailouts)) ]) ]
    | _ ->
        prerr_endline "usage: e2etrace (judge|model|serve) ...";
        exit 2
  in
  Option.iter write_spans spans_out;
  let self, count = self_times () in
  let n f = Json.N (float_of_int f) in
  let top_heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.
  in
  print_endline
    (Json.to_string
       (Json.O
          (extra
          @ [ ("self_s", json_tbl self (fun v -> Json.N v));
              ("span_counts", json_tbl count n);
              ("root_s", Json.N (root_total ()));
              ("counters", json_tbl counters n);
              ("timers_s", json_tbl timers (fun v -> Json.N v));
              ("minor_words", Json.N !minor_words);
              ("major_words", Json.N !major_words);
              ("top_heap_mb", Json.N top_heap_mb);
              ("kappa_calls", n !kappa_calls);
              ("kappa_complete", n !kappa_complete);
              ("refine_calls", n !refine_calls);
              ("refine_classes", n !refine_classes);
              ("compression_sum", Json.N !compression_sum);
              ("verify_calls", n !verify_calls);
              ("quotient_attempts", n !quotient_attempts) ])))

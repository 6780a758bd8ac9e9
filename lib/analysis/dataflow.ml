(* Whole-theory position dataflow: the predicate dependency graph with
   position-level edges, the null-flow graph, EDB-reachability / rule
   liveness, and the query-directed slicer built on top of them.

   The position graph itself is Termination.dependency_edges — the same
   edges that decide weak/joint acyclicity.  This module adds the
   closures over it: where nulls can flow (special targets, propagated
   along regular edges), which predicates a database can ever populate,
   and — backwards — which rules a query can ever depend on.

   Slicing closure, precisely: a rule is RELEVANT when one of its head
   predicates is; when a rule becomes relevant, all of its body
   predicates AND all of its head predicates become relevant.  Taking
   every head predicate (not just the triggering one) matters for the
   restricted chase: the witness check of a kept rule reads its whole
   head, so every predicate a kept rule reads must keep its exact
   extension.  Dropped rules then only ever write predicates no kept
   rule (and no query atom) reads, which is why the sliced chase agrees
   with the unsliced one on all relevant facts, round by round
   (DESIGN.md section 11). *)

open Bddfc_logic
module Obs = Bddfc_obs.Obs
module Termination = Bddfc_chase.Termination
module Chase = Bddfc_chase.Chase
module Pos_set = Termination.Pos_set

type pos = Pred.t * int

let m_graphs = Obs.Metrics.counter "analysis.graphs_built"
let m_slices = Obs.Metrics.counter "analysis.slices"
let m_rules_sliced = Obs.Metrics.counter "analysis.rules_sliced"
let m_slice_hits = Obs.Metrics.counter "analysis.slice_hits"

type pred_edge = {
  src : Pred.t;
  dst : Pred.t;
  rule : string;
  via : (int * int * string) list;
  special : bool;
}

type graph = {
  theory : Theory.t;
  preds : Pred.t list;
  pred_edges : pred_edge list;
  pos_edges : Termination.edge list;
  nullable : Pos_set.t;
}

(* Null flow: targets of special edges create nulls; regular edges
   copy values, so they propagate nullability source-to-target. *)
let null_flow pos_edges =
  let base =
    List.fold_left
      (fun acc (e : Termination.edge) ->
        if e.special then Pos_set.add e.to_pos acc else acc)
      Pos_set.empty pos_edges
  in
  let regular = List.filter (fun (e : Termination.edge) -> not e.special) pos_edges in
  let rec fix s =
    let s' =
      List.fold_left
        (fun acc (e : Termination.edge) ->
          if Pos_set.mem e.from_pos acc then Pos_set.add e.to_pos acc else acc)
        s regular
    in
    if Pos_set.cardinal s' = Pos_set.cardinal s then s else fix s'
  in
  fix base

let build theory =
  Obs.Metrics.incr m_graphs;
  let pos_edges = Termination.dependency_edges theory in
  (* Summarize to predicate level: one edge per (rule, src pred, dst
     pred), keeping each position pair as a witness.  Group in rule
     order, witnesses in position order. *)
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun (e : Termination.edge) ->
      let (sp, si), (dp, di) = (e.from_pos, e.to_pos) in
      let key = (e.rule, sp, dp, e.special) in
      (match Hashtbl.find_opt tbl key with
      | None ->
          order := key :: !order;
          Hashtbl.add tbl key [ (si, di, e.var) ]
      | Some ws -> Hashtbl.replace tbl key ((si, di, e.var) :: ws)))
    pos_edges;
  let pred_edges =
    List.rev_map
      (fun ((rule, src, dst, special) as key) ->
        let via = List.sort compare (Hashtbl.find tbl key) in
        { src; dst; rule; via; special })
      !order
  in
  {
    theory;
    preds = List.sort Pred.compare (Signature.preds (Theory.signature theory));
    pred_edges;
    pos_edges;
    nullable = null_flow pos_edges;
  }

let nullable g p = Pos_set.mem p g.nullable
let finite_range g p = not (nullable g p)

let positions g =
  List.concat_map
    (fun p -> List.init (Pred.arity p) (fun i -> (p, i)))
    g.preds

let implicit_edb theory =
  let derived =
    List.fold_left
      (fun acc r -> Pred.Set.union acc (Rule.head_preds r))
      Pred.Set.empty (Theory.rules theory)
  in
  Pred.Set.diff (Signature.pred_set (Theory.signature theory)) derived

let reachable_from ~edb theory =
  let rules = Theory.rules theory in
  let rec fix reach =
    let reach' =
      List.fold_left
        (fun acc r ->
          if Pred.Set.subset (Rule.body_preds r) acc then
            Pred.Set.union acc (Rule.head_preds r)
          else acc)
        reach rules
    in
    if Pred.Set.cardinal reach' = Pred.Set.cardinal reach then reach
    else fix reach'
  in
  fix edb

type liveness = { live : Rule.t list; dead : (Rule.t * Pred.t) list }

let liveness ~edb theory =
  let reach = reachable_from ~edb theory in
  let live, dead =
    List.partition_map
      (fun r ->
        match
          List.find_opt
            (fun a -> not (Pred.Set.mem (Atom.pred a) reach))
            (Rule.body r)
        with
        | None -> Left r
        | Some a -> Right (r, Atom.pred a))
      (Theory.rules theory)
  in
  { live; dead }

type slice = {
  full : Theory.t;
  sliced : Theory.t;
  kept : Rule.t list;
  dropped : Rule.t list;
  relevant : Pred.Set.t;
}

let slice_preds theory targets =
  Obs.Metrics.incr m_slices;
  let rules = Theory.rules theory in
  let rec fix relevant =
    let relevant' =
      List.fold_left
        (fun acc r ->
          if Pred.Set.is_empty (Pred.Set.inter (Rule.head_preds r) acc) then
            acc
          else
            Pred.Set.union acc
              (Pred.Set.union (Rule.body_preds r) (Rule.head_preds r)))
        relevant rules
    in
    if Pred.Set.cardinal relevant' = Pred.Set.cardinal relevant then relevant
    else fix relevant'
  in
  let relevant = fix targets in
  let kept, dropped =
    List.partition
      (fun r ->
        not (Pred.Set.is_empty (Pred.Set.inter (Rule.head_preds r) relevant)))
      rules
  in
  Obs.Metrics.add m_rules_sliced (List.length dropped);
  { full = theory; sliced = Theory.make kept; kept; dropped; relevant }

let slice theory ucq =
  let targets =
    List.fold_left
      (fun acc cq ->
        List.fold_left
          (fun acc a -> Pred.Set.add (Atom.pred a) acc)
          acc (Cq.body cq))
      Pred.Set.empty (Ucq.disjuncts ucq)
  in
  slice_preds theory targets

let is_proper sl = sl.dropped <> []
let note_slice_hit () = Obs.Metrics.incr m_slice_hits

let certain ?strategy ?eval ?budget ?max_rounds ?max_elements theory db q =
  let sl = slice theory (Ucq.of_cq q) in
  Chase.certain ?strategy ?eval ?budget ?max_rounds ?max_elements sl.sliced db
    q

(* ------------------------------------------------------------------ *)
(* The [bddfc analyze] report                                          *)

type report = {
  graph : graph;
  edb : Pred.Set.t;
  edb_known : bool;
  reach : Pred.Set.t;
  life : liveness;
  slices : (Cq.t * slice) list;
}

let report ?facts ?(queries = []) theory =
  let graph = build theory in
  let edb_known, edb =
    match facts with
    | Some s -> (true, s)
    | None -> (false, implicit_edb theory)
  in
  let reach = reachable_from ~edb theory in
  let life = liveness ~edb theory in
  let slices =
    List.map (fun q -> (q, slice theory (Ucq.of_cq q))) queries
  in
  { graph; edb; edb_known; reach; life; slices }

let pp_pred ppf p = Fmt.pf ppf "%s/%d" (Pred.name p) (Pred.arity p)

let pp_pred_set ppf s =
  if Pred.Set.is_empty s then Fmt.string ppf "(none)"
  else
    Fmt.(list ~sep:(any " ") pp_pred) ppf
      (List.sort Pred.compare (Pred.Set.elements s))

let nullable_positions_of g p =
  List.filter (fun i -> nullable g (p, i)) (List.init (Pred.arity p) Fun.id)

let pp_report ppf r =
  let g = r.graph in
  Fmt.pf ppf "theory: %d rules over %d predicates@."
    (Theory.size g.theory) (List.length g.preds);
  Fmt.pf ppf "@.== predicates ==@.";
  List.iter
    (fun p ->
      let kind = if Pred.Set.mem p r.edb then "edb" else "idb" in
      let reach =
        if Pred.Set.mem p r.reach then "reachable" else "unreachable"
      in
      let np = nullable_positions_of g p in
      Fmt.pf ppf "  %-12s %s  %s%a@." (Fmt.str "%a" pp_pred p) kind reach
        (fun ppf -> function
          | [] -> ()
          | is ->
              Fmt.pf ppf "  nullable:%a"
                Fmt.(list ~sep:nop (fun ppf i -> Fmt.pf ppf " %a"
                                       Termination.pp_pos (p, i)))
                is)
        np)
    g.preds;
  Fmt.pf ppf "@.== position graph ==@.";
  if g.pos_edges = [] then Fmt.pf ppf "  (no edges)@."
  else
    List.iter (fun e -> Fmt.pf ppf "  %a@." Termination.pp_edge e) g.pos_edges;
  Fmt.pf ppf "@.== null flow ==@.";
  let nullable_l = Pos_set.elements g.nullable in
  let finite =
    List.filter (fun p -> not (Pos_set.mem p g.nullable)) (positions g)
  in
  Fmt.pf ppf "  nullable:     %a@."
    (fun ppf -> function
      | [] -> Fmt.string ppf "(none)"
      | ps -> Fmt.(list ~sep:(any " ") Termination.pp_pos) ppf ps)
    nullable_l;
  Fmt.pf ppf "  finite-range: %a@."
    (fun ppf -> function
      | [] -> Fmt.string ppf "(none)"
      | ps -> Fmt.(list ~sep:(any " ") Termination.pp_pos) ppf ps)
    finite;
  Fmt.pf ppf "@.== reachability ==@.";
  Fmt.pf ppf "  edb%s: %a@."
    (if r.edb_known then "" else " (implicit)")
    pp_pred_set r.edb;
  Fmt.pf ppf "  reachable:   %a@." pp_pred_set r.reach;
  Fmt.pf ppf "  unreachable: %a@." pp_pred_set
    (Pred.Set.diff
       (Signature.pred_set (Theory.signature g.theory))
       r.reach);
  Fmt.pf ppf "@.== rules ==@.";
  List.iter
    (fun ru ->
      match List.assoc_opt ru.Rule.name
              (List.map (fun (d, p) -> (d.Rule.name, p)) r.life.dead)
      with
      | Some p ->
          Fmt.pf ppf "  %s: dead (body predicate %a unreachable)@."
            (Rule.name ru) pp_pred p
      | None -> Fmt.pf ppf "  %s: live@." (Rule.name ru))
    (Theory.rules g.theory);
  if r.slices <> [] then begin
    Fmt.pf ppf "@.== slices ==@.";
    List.iter
      (fun (q, sl) ->
        Fmt.pf ppf "  %a: kept %d/%d rules%a@." Cq.pp q
          (List.length sl.kept) (Theory.size sl.full)
          (fun ppf -> function
            | [] -> ()
            | ds ->
                Fmt.pf ppf "  (dropped%a)"
                  Fmt.(
                    list ~sep:nop (fun ppf d ->
                        Fmt.pf ppf " %s" (Rule.name d)))
                  ds)
          sl.dropped)
      r.slices
  end

let json_pred p =
  Obs.Json.O
    [ ("name", Obs.Json.S (Pred.name p));
      ("arity", Obs.Json.N (float_of_int (Pred.arity p))) ]

let json_pos (p, i) =
  Obs.Json.O
    [ ("pred", Obs.Json.S (Pred.name p));
      ("pos", Obs.Json.N (float_of_int (i + 1))) ]

let report_json r =
  let open Obs.Json in
  let g = r.graph in
  let preds =
    A
      (List.map
         (fun p ->
           O
             [ ("name", S (Pred.name p));
               ("arity", N (float_of_int (Pred.arity p)));
               ("edb", B (Pred.Set.mem p r.edb));
               ("reachable", B (Pred.Set.mem p r.reach));
               ( "nullable_positions",
                 A
                   (List.map
                      (fun i -> N (float_of_int (i + 1)))
                      (nullable_positions_of g p)) ) ])
         g.preds)
  in
  let pos_edges =
    A
      (List.map
         (fun (e : Termination.edge) ->
           O
             [ ("from", json_pos e.from_pos);
               ("to", json_pos e.to_pos);
               ("special", B e.special);
               ("rule", S e.rule);
               ("var", S e.var) ])
         g.pos_edges)
  in
  let pred_edges =
    A
      (List.map
         (fun e ->
           O
             [ ("src", S (Pred.name e.src));
               ("dst", S (Pred.name e.dst));
               ("rule", S e.rule);
               ("special", B e.special) ])
         g.pred_edges)
  in
  let dead_names = List.map (fun (d, _) -> Rule.name d) r.life.dead in
  let rules =
    A
      (List.map
         (fun ru ->
           let base =
             [ ("name", S (Rule.name ru));
               ("live", B (not (List.mem (Rule.name ru) dead_names))) ]
           in
           let base =
             match
               List.find_opt
                 (fun (d, _) -> Rule.name d = Rule.name ru)
                 r.life.dead
             with
             | Some (_, p) -> base @ [ ("blocking", S (Pred.name p)) ]
             | None -> base
           in
           O base)
         (Theory.rules g.theory))
  in
  let slices =
    A
      (List.map
         (fun (q, sl) ->
           O
             [ ("query", S (Fmt.str "%a" Cq.pp q));
               ("kept", N (float_of_int (List.length sl.kept)));
               ("dropped", N (float_of_int (List.length sl.dropped)));
               ( "dropped_rules",
                 A (List.map (fun d -> S (Rule.name d)) sl.dropped) );
               ( "relevant",
                 A
                   (List.map
                      (fun p -> json_pred p)
                      (List.sort Pred.compare
                         (Pred.Set.elements sl.relevant))) ) ])
         r.slices)
  in
  O
    [ ("rules", N (float_of_int (Theory.size g.theory)));
      ("edb_known", B r.edb_known);
      ( "edb",
        A
          (List.map json_pred
             (List.sort Pred.compare (Pred.Set.elements r.edb))) );
      ("predicates", preds);
      ("position_edges", pos_edges);
      ("predicate_edges", pred_edges);
      ("rule_liveness", rules);
      ("slices", slices) ]

let report_dot r =
  let g = r.graph in
  let buf = Buffer.create 256 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "digraph dataflow {\n";
  pf "  rankdir=LR;\n";
  List.iter
    (fun p ->
      let shape = if Pred.Set.mem p r.edb then "box" else "ellipse" in
      let color =
        if Pred.Set.mem p r.reach then "black" else "gray"
      in
      let np = nullable_positions_of g p in
      let label =
        if np = [] then Fmt.str "%s/%d" (Pred.name p) (Pred.arity p)
        else
          Fmt.str "%s/%d\\nnullable: %s" (Pred.name p) (Pred.arity p)
            (String.concat " "
               (List.map (fun i -> Fmt.str "%d" (i + 1)) np))
      in
      pf "  %s [shape=%s, color=%s, label=\"%s\"];\n" (Pred.name p) shape
        color label)
    g.preds;
  List.iter
    (fun e ->
      let style = if e.special then "dashed" else "solid" in
      pf "  %s -> %s [style=%s, label=\"%s\"];\n" (Pred.name e.src)
        (Pred.name e.dst) style e.rule)
    g.pred_edges;
  pf "}\n";
  Buffer.contents buf

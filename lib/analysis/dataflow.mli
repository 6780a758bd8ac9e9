(** Whole-theory position dataflow.

    One pass over a theory computes the three graphs every deeper
    analysis needs:

    - the {e predicate dependency graph} with position-level edges — a
      predicate-to-predicate summary of {!Bddfc_chase.Termination}'s
      position graph, each edge carrying the positions and frontier
      variables that witness it;
    - the {e null-flow graph}: the set of positions that can ever hold a
      labelled null.  Targets of special edges create nulls; regular
      edges propagate them.  The complement is a per-position
      finite-range fact (every value there is a database constant),
      generalizing the all-or-nothing weak/joint-acyclicity checks;
    - {e EDB-reachability and rule liveness}: which predicates can ever
      be populated starting from the database predicates, and which
      rules can therefore ever fire.

    On top of reachability sits a query-directed {e slicer}: the
    backward closure of the query's predicates under "rules that can
    derive them".  [slice] drops every rule outside that closure.  The
    closure is deliberately strong — when a rule is kept, {e all} its
    head predicates join the relevant set (the restricted chase's
    witness check reads the whole head), so the sliced chase derives
    exactly the same facts over relevant predicates, round by round, as
    the unsliced chase (up to null identity).  Certain answers, and the
    depth at which they are reached, are preserved exactly
    (DESIGN.md section 11 gives the model-theoretic argument). *)

open Bddfc_logic
module Termination = Bddfc_chase.Termination

type pos = Pred.t * int
(** A predicate position, 0-based internally; rendered 1-based as
    ["e[2]"] like {!Termination.pp_pos}. *)

type pred_edge = {
  src : Pred.t;  (** a body predicate of the rule *)
  dst : Pred.t;  (** a head predicate of the rule *)
  rule : string;
  via : (int * int * string) list;
      (** position-level witnesses [(src position, dst position, var)],
          0-based; the existential variable for a special edge *)
  special : bool;  (** some witness creates a labelled null *)
}

type graph = {
  theory : Theory.t;
  preds : Pred.t list;  (** the signature, sorted *)
  pred_edges : pred_edge list;
      (** one edge per (rule, body predicate, head predicate) triple
          with at least one position-level witness, in rule order *)
  pos_edges : Termination.edge list;
      (** the underlying position dependency graph (Fagin et al.) *)
  nullable : Termination.Pos_set.t;
      (** positions that can receive a labelled null *)
}

val build : Theory.t -> graph

val nullable : graph -> pos -> bool

val finite_range : graph -> pos -> bool
(** [not (nullable g p)]: every value in this position is a constant of
    the database's active domain. *)

val positions : graph -> pos list
(** Every position of the signature, sorted. *)

val implicit_edb : Theory.t -> Pred.Set.t
(** The predicates no rule head can derive — the extensional schema
    when no database is given. *)

val reachable_from : edb:Pred.Set.t -> Theory.t -> Pred.Set.t
(** Least fixpoint of [edb + heads of rules whose body predicates are
    all reachable]: the predicates that can ever hold a fact in any
    chase from any database over [edb]. *)

type liveness = {
  live : Rule.t list;
  dead : (Rule.t * Pred.t) list;
      (** each dead rule with the first unreachable body predicate
          blocking it *)
}

val liveness : edb:Pred.Set.t -> Theory.t -> liveness

type slice = {
  full : Theory.t;
  sliced : Theory.t;  (** [kept], in original rule order *)
  kept : Rule.t list;
  dropped : Rule.t list;
  relevant : Pred.Set.t;
      (** the backward closure: query predicates, plus every predicate
          of a rule that can (transitively) derive a relevant one *)
}

val slice_preds : Theory.t -> Pred.Set.t -> slice
(** Slice towards a target predicate set.  Bumps
    [analysis.slices] / [analysis.rules_sliced]. *)

val slice : Theory.t -> Ucq.t -> slice
(** [slice_preds] towards the predicates of every disjunct. *)

val is_proper : slice -> bool
(** At least one rule was dropped. *)

val note_slice_hit : unit -> unit
(** Bump [analysis.slice_hits] — callers memoizing slices (the serve
    warm sessions) record cache hits here. *)

val certain :
  ?strategy:Bddfc_chase.Chase.strategy ->
  ?eval:Bddfc_hom.Eval.engine ->
  ?budget:Bddfc_budget.Budget.t ->
  ?max_rounds:int ->
  ?max_elements:int ->
  Theory.t ->
  Bddfc_structure.Instance.t ->
  Cq.t ->
  Bddfc_chase.Chase.certainty
(** [Chase.certain] through the slicer: chase only the rules relevant
    to the query.  Verdicts (including entailment depths) agree with
    the unsliced run whenever both complete. *)

(** {1 The [bddfc analyze] report} *)

type report = {
  graph : graph;
  edb : Pred.Set.t;  (** fact predicates when known, else implicit *)
  edb_known : bool;
  reach : Pred.Set.t;
  life : liveness;
  slices : (Cq.t * slice) list;  (** one per query of the program *)
}

val report : ?facts:Pred.Set.t -> ?queries:Cq.t list -> Theory.t -> report

val pp_report : report Fmt.t
(** The stable text rendering of [bddfc analyze]. *)

val report_json : report -> Bddfc_obs.Obs.Json.t
val report_dot : report -> string

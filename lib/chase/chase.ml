(* The chase (Section 1.1 of the paper).

   We implement the *restricted* (non-oblivious) chase in rounds:
   Chase^{i+1}(D, T) = Chase1(Chase^i(D, T), T), where Chase1 evaluates
   every rule body on the state at the start of the round and

     - for a datalog rule, adds the instantiated head atoms;
     - for an existential rule, checks on that state whether a witness
       already exists and, if not, creates fresh labelled nulls for the
       existential variables — at most once per demanded head instance, so
       that Lemma 3 (at most one TGP successor per element and predicate)
       holds of the skeleton.

   An oblivious variant (one witness per rule-and-body-homomorphism, no
   witness check) is provided for comparison benchmarks.

   Two evaluation strategies produce that round semantics:

     - Naive: copy the instance into a snapshot and re-join every rule
       body against it — O(full join) per round, the reference
       implementation.
     - Seminaive (default): no copy.  Facts are stamped with their birth
       round, round r only enumerates bindings with at least one body
       atom in round r-1's delta (Eval.iter_solutions_delta), and body
       evaluation plus witness checks read the committed prefix (births
       < r) through birth-windowed indexes, so facts added during round r
       are invisible to it — exactly the snapshot semantics, without the
       snapshot.

   The two agree round by round: a datalog fact is new in round r iff
   some body binding first matched against round r-1's delta, and a
   restricted trigger fires at most once ever — at the round its body
   first matches — because witnesses only accumulate (once blocked,
   always blocked).  test/test_differential.ml holds the strategies to
   this equivalence across the zoo and fuzzed theories.

   All truncation is governed by a Budget.t: the engine charges the
   governor per round, per fresh element and per added fact, catches
   Budget.Exhausted at its boundary and returns the partial prefix
   together with the tripped resource (anytime semantics).  The legacy
   [max_rounds]/[max_elements] knobs are local ceilings layered on top of
   the caller's governor. *)

open Bddfc_budget
open Bddfc_logic
open Bddfc_structure
open Bddfc_hom

type variant =
  | Restricted
  | Oblivious

type strategy =
  | Naive
  | Seminaive

type outcome =
  | Fixpoint (* no trigger fired: the result is a model *)
  | Watched (* the watched predicate appeared; stopped early *)
  | Exhausted of Budget.resource (* a budget tripped; the result is a prefix *)

type result = {
  instance : Instance.t;
  rounds : int;
  outcome : outcome;
  base_facts : Fact.t list; (* the facts of the input instance D *)
  new_facts_per_round : int list; (* newest round first *)
  watch_round : int option; (* first round the watched predicate appeared *)
}

let is_model result = result.outcome = Fixpoint

let pp_outcome ppf = function
  | Fixpoint -> Fmt.string ppf "fixpoint (the result is a model)"
  | Watched -> Fmt.string ppf "watched predicate derived"
  | Exhausted r -> Fmt.pf ppf "%s budget exhausted" (Budget.resource_name r)

let src = Logs.Src.create "bddfc.chase" ~doc:"Chase engine"

module Log = (val Logs.src_log src : Logs.LOG)

(* Registry handles, resolved once at module initialisation: the hot
   paths below touch them as plain record mutations.  Counters are
   always on; per-round [chase.round] events (and the attribute lists
   they allocate) are built only when a trace sink is installed, so the
   disabled path costs one branch. *)
module Obs = Bddfc_obs.Obs

let m_runs = Obs.Metrics.counter "chase.runs"
let m_rounds = Obs.Metrics.counter "chase.rounds"
let m_facts = Obs.Metrics.counter "chase.facts_added"
let m_nulls = Obs.Metrics.counter "chase.nulls_invented"
let t_run = Obs.Metrics.timer "chase.run"

let outcome_tag = function
  | Fixpoint -> "fixpoint"
  | Watched -> "watched"
  | Exhausted r -> "exhausted:" ^ Budget.resource_name r

(* Instantiate an atom under a variable binding, creating terms for
   existential variables via [fresh].  Returns the fact. *)
let instantiate inst binding fresh atom =
  let id_of = function
    | Term.Cst c -> Instance.const inst c
    | Term.Var x -> (
        match Smap.find_opt x binding with
        | Some id -> id
        | None -> fresh x)
  in
  Fact.make (Atom.pred atom) (Array.of_list (List.map id_of (Atom.args atom)))

let frontier_init frontier binding =
  Smap.filter (fun x _ -> Rule.SS.mem x frontier) binding

(* Witness check: does the round's visible state satisfy
   [exists Z. head] under the frontier part of [binding]?  Under the
   semi-naive strategy [snapshot] is the live instance and [upto] trims
   the join to the committed prefix (births < round). *)
let witness_exists ?upto ?eval snapshot rule binding =
  Eval.satisfiable
    ~init:(frontier_init (Rule.frontier rule) binding)
    ?upto ?engine:eval snapshot (Rule.head rule)

(* Key identifying the demanded head instance: predicate names and frontier
   arguments, with existential slots anonymized.  Two triggers demanding
   the same head instance create a single witness. *)
let demand_key rule binding =
  let render_atom a =
    let render = function
      | Term.Cst c -> "c:" ^ c
      | Term.Var x -> (
          match Smap.find_opt x binding with
          | Some id -> "e:" ^ string_of_int id
          | None -> "z:" ^ x)
    in
    Pred.name (Atom.pred a) ^ "("
    ^ String.concat "," (List.map render (Atom.args a))
    ^ ")"
  in
  String.concat "&" (List.map render_atom (Rule.head rule))

(* One witness per body homomorphism. *)
let oblivious_key rule binding =
  Rule.name rule ^ "#"
  ^ String.concat ","
      (List.map
         (fun (x, id) -> x ^ ":" ^ string_of_int id)
         (Smap.bindings binding))

type record =
  round:int -> rule:Rule.t -> binding:Eval.binding -> Fact.t -> unit

(* Where one round's commits land: the instance, the governor they are
   charged to, the birth stamp of everything they add, and the round's
   tallies. *)
type sink = {
  inst : Instance.t;
  budget : Budget.t;
  round_no : int;
  record : record option;
  mutable added : int; (* facts added *)
  mutable nulls : int; (* labelled nulls invented *)
}

let sink ?record ~budget ~round_no inst =
  { inst; budget; round_no; record; added = 0; nulls = 0 }

(* The skeleton-forest parent of a trigger's nulls: the first frontier
   element appearing in a head atom. *)
let parent rule binding =
  List.find_map
    (fun a ->
      List.find_map
        (function Term.Var x -> Smap.find_opt x binding | Term.Cst _ -> None)
        (Atom.args a))
    (Rule.head rule)

(* Fire one trigger: instantiate every head atom under [binding],
   inventing one null per existential variable (charged to Elements),
   and add the facts (charged to Facts, each new one reported to the
   [record] hook).  A datalog head has no existential variable, so it
   only adds.  This is the one mutation site of the chase round and of
   Maintain's repair sweep. *)
let commit s rule binding =
  let nulls = ref [] in
  let fresh x =
    match List.assoc_opt x !nulls with
    | Some id -> id
    | None ->
        Budget.charge s.budget Budget.Elements 1;
        let id =
          Instance.fresh_null s.inst ~birth:s.round_no ~rule:(Rule.name rule)
            ~parent:(parent rule binding)
        in
        Obs.Metrics.incr m_nulls;
        s.nulls <- s.nulls + 1;
        nulls := (x, id) :: !nulls;
        id
  in
  List.iter
    (fun atom ->
      let f = instantiate s.inst binding fresh atom in
      if Instance.add_fact ~birth:s.round_no s.inst f then begin
        s.added <- s.added + 1;
        Obs.Metrics.incr m_facts;
        Option.iter (fun r -> r ~round:s.round_no ~rule ~binding f) s.record;
        Budget.charge s.budget Budget.Facts 1
      end)
    (Rule.head rule)

(* One simultaneous chase round into [s].  Body evaluation and witness
   checks read the state at the start of the round: a full copy under
   the Naive strategy, the committed prefix of the instance itself
   (births < round_no, in place) under Seminaive.  Under Seminaive only
   bindings with >= 1 body atom in the previous round's delta are
   enumerated — every other binding already fired (or was
   witness-blocked) in an earlier round.

   Datalog triggers always commit; an existential trigger commits at
   most once per key in [demanded]: its demanded head instance
   (restricted variant, and only when the round's state holds no
   witness) or its body homomorphism (oblivious).  [fired] persists
   [demanded] across rounds (needed for the oblivious variant, where a
   trigger must fire exactly once ever); without it the table is
   per-round, which is enough for the restricted variant because the
   created witness blocks the trigger in later rounds.  A trip mid-round
   leaves a partial round behind (best effort). *)
let round ~variant ~strategy ?eval ~datalog_only ?fired s theory =
  Obs.Metrics.incr m_rounds;
  let demanded =
    match fired with Some t -> t | None -> Hashtbl.create 64
  in
  let inst = s.inst and round_no = s.round_no in
  let snapshot, upto =
    match strategy with
    | Naive -> (Instance.copy inst, None)
    | Seminaive -> (inst, Some round_no)
  in
  let iter_bindings rule yield =
    match strategy with
    | Naive -> Eval.iter_solutions ?engine:eval snapshot (Rule.body rule) yield
    | Seminaive ->
        Eval.iter_solutions_delta ~since:(round_no - 1) ~upto:round_no
          ?engine:eval inst (Rule.body rule) yield
  in
  let key rule binding =
    match variant with
    | Oblivious -> Some (oblivious_key rule binding)
    | Restricted ->
        if witness_exists ?upto ?eval snapshot rule binding then None
        else Some (demand_key rule binding)
  in
  List.iter
    (fun rule ->
      let datalog = Rule.is_datalog rule in
      if (not datalog_only) || datalog then
        iter_bindings rule (fun binding ->
            if datalog then commit s rule binding
            else
              match key rule binding with
              | Some k when not (Hashtbl.mem demanded k) ->
                  Hashtbl.replace demanded k ();
                  commit s rule binding
              | Some _ | None -> ()))
    (Theory.rules theory)

let default_rounds = 64
let default_elements = 100_000

(* Combine a caller-supplied governor with the per-call legacy knobs.
   With a governor, the knobs are local ceilings on top of its shared
   pools; without one, the knobs (or their historical defaults) become a
   fresh self-contained budget. *)
let effective_budget ?budget ?max_rounds ?max_elements () =
  match budget with
  | Some b -> Budget.cap ?rounds:max_rounds ?elements:max_elements b
  | None ->
      Budget.v
        ~rounds:(Option.value max_rounds ~default:default_rounds)
        ~elements:(Option.value max_elements ~default:default_elements)
        ()

let strategy_tag = function
  | Naive -> "naive"
  | Seminaive -> "seminaive"
let variant_tag = function Restricted -> "restricted" | Oblivious -> "oblivious"

(* The round loop behind every entry point: charge a round, run it,
   trace it, and stop at the first round that adds nothing or after
   which [stop] holds of the instance (also checked before the first
   round).  Rounds are numbered from [from_round + 1].  Returns the
   outcome, the last productive round, the per-round fact counts (newest
   first, the final empty round included) and the round at which [stop]
   held. *)
let drive ~variant ~strategy ?eval ~datalog_only ?record
    ?(stop = fun _ -> false) ~budget ~from_round theory inst =
  let fired = if variant = Oblivious then Some (Hashtbl.create 64) else None in
  let per_round = ref [] and last = ref from_round and stopped = ref None in
  let stop_at i =
    stop inst
    && begin
         stopped := Some i;
         true
       end
  in
  (* [frontier] is the previous round's delta size (the whole instance
     before the first round): what the semi-naive windows feed into the
     round's joins. *)
  let rec go round_no frontier =
    Budget.check_deadline budget;
    Budget.charge budget Budget.Rounds 1;
    let probes0 = Eval.probe_count () in
    let s = sink ?record ~budget ~round_no inst in
    round ~variant ~strategy ?eval ~datalog_only ?fired s theory;
    per_round := s.added :: !per_round;
    Log.debug (fun m -> m "round %d: %d new facts" round_no s.added);
    if Obs.Trace.enabled () then
      Obs.Trace.event "chase.round"
        (("round", Obs.Int round_no)
        :: ("frontier", Obs.Int frontier)
        :: ("facts_added", Obs.Int s.added)
        :: ("nulls_invented", Obs.Int s.nulls)
        :: ("join_probes", Obs.Int (Eval.probe_count () - probes0))
        ::
        (match Budget.remaining_fuel budget Budget.Rounds with
        | Some n -> [ ("fuel_rounds", Obs.Int n) ]
        | None -> []));
    if stop_at round_no then begin
      last := round_no;
      Watched
    end
    else if s.added = 0 then Fixpoint
    else begin
      last := round_no;
      go (round_no + 1) s.added
    end
  in
  let outcome =
    try
      if stop_at from_round then Watched
      else go (from_round + 1) (Instance.num_facts inst)
    with Budget.Exhausted r -> Exhausted r
  in
  (outcome, !last, !per_round, !stopped)

(* [run] with [stop] (an arbitrary condition on the instance) in place
   of [watch]: what [run] and [certain] both call. *)
let run_until ?(variant = Restricted) ?(strategy = Seminaive) ?eval
    ?(datalog_only = false) ?stop ?record ?budget ?max_rounds ?max_elements
    theory base =
  let budget = effective_budget ?budget ?max_rounds ?max_elements () in
  Obs.Metrics.incr m_runs;
  Obs.Metrics.time t_run @@ fun () ->
  Obs.Trace.span "chase.run" @@ fun () ->
  if Obs.Trace.enabled () then begin
    Obs.Trace.attr "strategy" (Obs.Str (strategy_tag strategy));
    Obs.Trace.attr "variant" (Obs.Str (variant_tag variant));
    Obs.Trace.attr "eval"
      (Obs.Str (Eval.engine_tag (Option.value eval ~default:Eval.Compiled)))
  end;
  let inst = Instance.copy base in
  (* the working copy starts a fresh round numbering: stale birth stamps
     (e.g. when re-chasing a previously chased instance) would corrupt
     the delta windows *)
  Instance.reset_fact_births inst;
  let outcome, rounds, per_round, watch_round =
    drive ~variant ~strategy ?eval ~datalog_only ?record ?stop ~budget
      ~from_round:0 theory inst
  in
  if Obs.Trace.enabled () then begin
    Obs.Trace.attr "rounds" (Obs.Int rounds);
    Obs.Trace.attr "outcome" (Obs.Str (outcome_tag outcome))
  end;
  {
    instance = inst;
    rounds;
    outcome;
    base_facts = Instance.facts base;
    new_facts_per_round = per_round;
    watch_round;
  }

let run ?variant ?strategy ?eval ?datalog_only ?watch ?record ?budget
    ?max_rounds ?max_elements theory base =
  let stop =
    Option.map (fun p inst -> Instance.facts_with_pred inst p <> []) watch
  in
  run_until ?variant ?strategy ?eval ?datalog_only ?stop ?record ?budget
    ?max_rounds ?max_elements theory base

(* Resume a chase *in place* on an instance whose committed prefix is
   already saturated up to [from_round] — the engine behind incremental
   maintenance (Maintain).  No copy, no birth reset: the caller has
   staged its update delta at birth [from_round], and rounds are numbered
   from [from_round + 1] so the existing stamps keep driving the
   semi-naive windows.  Restricted variant only: the oblivious chase's
   fired-trigger table does not survive across runs. *)
let resume ?(strategy = Seminaive) ?eval ?record ?budget ?max_rounds
    ?max_elements ~from_round theory inst =
  let budget = effective_budget ?budget ?max_rounds ?max_elements () in
  Obs.Metrics.incr m_runs;
  Obs.Trace.span "chase.resume" @@ fun () ->
  if Obs.Trace.enabled () then begin
    Obs.Trace.attr "strategy" (Obs.Str (strategy_tag strategy));
    Obs.Trace.attr "from_round" (Obs.Int from_round)
  end;
  let outcome, rounds, per_round, _ =
    drive ~variant:Restricted ~strategy ?eval ~datalog_only:false ?record
      ~budget ~from_round theory inst
  in
  {
    instance = inst;
    rounds;
    outcome;
    base_facts = [];
    new_facts_per_round = per_round;
    watch_round = None;
  }

(* Chase^k(D, T): exactly [k] rounds (or fewer if a fixpoint hits).
   With a governor, its element pool governs (historically this forced a
   hardcoded 1M-element local ceiling on top of the caller's budget; now
   the ceiling exists only as the no-governor default, like the other
   entry points).  Element fuel always applies — never unbounded. *)
let run_depth ?(variant = Restricted) ?strategy ?eval ?budget ~depth theory
    base =
  Obs.Trace.span "chase.run_depth" @@ fun () ->
  if Obs.Trace.enabled () then Obs.Trace.attr "depth" (Obs.Int depth);
  match budget with
  | Some _ ->
      run ~variant ?strategy ?eval ?budget ~max_rounds:depth theory base
  | None ->
      run ~variant ?strategy ?eval ~max_rounds:depth ~max_elements:1_000_000
        theory base

(* Datalog saturation: chase with the datalog rules only.  On a finite
   instance this always terminates (no new elements are created) unless
   the governor's deadline trips first. *)
let saturate_datalog ?strategy ?eval ?budget ?(max_rounds = 10_000) theory
    base =
  Obs.Trace.span "chase.saturate_datalog" @@ fun () ->
  run ~datalog_only:true ?strategy ?eval ?budget ~max_rounds theory base

(* Certain answering by chase: does Chase(D, T) |= q, and at which depth?
   The query is [run]'s stop condition, checked before the first round
   and after every round. *)
type certainty =
  | Entailed of int (* least chase depth at which the query held *)
  | Not_entailed (* chase reached a fixpoint without satisfying q *)
  | Unknown of Budget.resource * int
      (* this budget exhausted after that many rounds *)

let certain ?strategy ?eval ?budget ?max_rounds ?max_elements theory base q =
  Obs.Trace.span "chase.certain" @@ fun () ->
  let r =
    run_until ?strategy ?eval ?budget ?max_rounds ?max_elements
      ~stop:(fun inst -> Eval.holds ?engine:eval inst q)
      theory base
  in
  match (r.watch_round, r.outcome) with
  | Some depth, _ -> Entailed depth
  | None, Exhausted res -> Unknown (res, r.rounds)
  | None, (Fixpoint | Watched) -> Not_entailed

(* Exact decision of positive-type inclusion (Definition 3 of the paper).

   ptp_k(A, a) is the set of conjunctive queries Psi(x-bar, y) with
   |x-bar| < k variables (so at most k variables in total, counting the
   distinguished y), over the signature of A — constants allowed, plus
   equality atoms y = c.

   Key observation making this decidable without enumerating queries: a
   query Psi true at (A, a) via an assignment sigma is implied by the
   *canonical query* of the substructure of A induced by image(sigma) and
   the constants — the conjunction of all facts of A whose arguments lie
   in image(sigma) or are constants, with the non-constant elements read
   as variables.  Hence

     ptp_k(A, a) <= ptp_k(B, b)
       iff
     for every set V of non-constant elements of A with |V| <= k and
     (a in V when a is non-constant), the canonical query of
     A |` (V u constants) holds at b in B,

   and when a is a constant, b must be the same-named constant of B
   (the equality atom y = c; Remark 1).

   Complexity: C(|A|, <=k) query evaluations — polynomial for fixed k and
   practical for the small validation structures; the scalable
   approximation lives in Bddfc_ptp.Refine. *)

open Bddfc_logic
open Bddfc_structure

(* The canonical query of A |` (V u constants), as atoms over variables
   v<i> for V-elements and constant names otherwise.  Returns None for
   facts mentioning non-constant elements outside V (excluded). *)
let canonical_atoms a_inst v_set =
  let term_of id =
    match Instance.const_name a_inst id with
    | Some c -> Some (Term.Cst c)
    | None ->
        if Element.Id_set.mem id v_set then
          Some (Term.Var ("v" ^ string_of_int id))
        else None
  in
  List.filter_map
    (fun f ->
      let terms = List.map term_of (Fact.elements f) in
      if List.for_all Option.is_some terms then
        Some (Atom.make (Fact.pred f) (List.map Option.get terms))
      else None)
    (Instance.facts a_inst)

let rec subsets_upto k = function
  | [] -> [ [] ]
  | x :: rest ->
      let without = subsets_upto k rest in
      let with_x =
        List.filter_map
          (fun s -> if List.length s < k then Some (x :: s) else None)
          without
      in
      with_x @ without

(* Does every canonical query of (A, a) with at most [vars] variables hold
   at (B, b)?  [a]/[b] may be [None] for the untyped (Boolean) variant. *)
let ptp_leq ?engine ?(hc = Hc.Interned) ~vars:k a_inst a b_inst b =
  let const_anchor_ok =
    match (a, b) with
    | Some a, Some b -> (
        match Instance.const_name a_inst a with
        | Some c -> (
            (* the query y = c forces b to be the same constant *)
            match Instance.const_opt b_inst c with
            | Some cb -> cb = b
            | None -> false)
        | None -> Instance.is_null b_inst b || Instance.is_const b_inst b)
    | None, None -> true
    | _ -> invalid_arg "Ptypes.ptp_leq: anchor both sides or neither"
  in
  if not const_anchor_ok then false
  else begin
    let nulls =
      List.filter (Instance.is_null a_inst) (Instance.elements a_inst)
    in
    let anchored_null =
      match a with
      | Some a when Instance.is_null a_inst a -> Some a
      | _ -> None
    in
    let pool =
      match anchored_null with
      | Some a0 -> List.filter (fun e -> e <> a0) nulls
      | None -> nulls
    in
    let budget = match anchored_null with Some _ -> k - 1 | None -> k in
    let candidate_sets =
      List.map
        (fun s ->
          match anchored_null with Some a0 -> a0 :: s | None -> s)
        (subsets_upto budget pool)
    in
    List.for_all
      (fun v_list ->
        let v_set = Element.Id_set.of_list v_list in
        let atoms = canonical_atoms a_inst v_set in
        (* ground-constant atoms must hold too: Eval handles them (an
           unknown constant in B simply fails the query, correctly) *)
        match atoms with
        | [] -> true
        | _ ->
            (* the canonical queries of overlapping V-sets repeat across
               anchors and across ptp_leq calls on the same structures:
               exactly the redundancy the interned evaluation memo
               removes *)
            let init =
              match (anchored_null, b) with
              | Some a0, Some b -> [ ("v" ^ string_of_int a0, b) ]
              | _ -> []
            in
            Hc.holds ?engine hc b_inst ~init (Cq.boolean atoms))
      candidate_sets
  end

let ptp_equal ?engine ?hc ~vars a_inst a b_inst b =
  ptp_leq ?engine ?hc ~vars a_inst (Some a) b_inst (Some b)
  && ptp_leq ?engine ?hc ~vars b_inst (Some b) a_inst (Some a)

(* Definition 4: d ~n e within one structure. *)
let equiv ?engine ?hc ~vars inst d e =
  ptp_equal ?engine ?hc ~vars inst d inst e

(* The full equivalence classes of a small structure under ~n. *)
let classes ?engine ?hc ~vars inst =
  let elems = Instance.elements inst in
  let reps = ref [] in
  let cls = Hashtbl.create 16 in
  List.iter
    (fun e ->
      match
        List.find_opt (fun (r, _) -> equiv ?engine ?hc ~vars inst e r) !reps
      with
      | Some (_, id) -> Hashtbl.replace cls e id
      | None ->
          let id = List.length !reps in
          reps := (e, id) :: !reps;
          Hashtbl.replace cls e id)
    elems;
  (Array.init (List.length elems) (fun e -> Hashtbl.find cls e), List.length !reps)

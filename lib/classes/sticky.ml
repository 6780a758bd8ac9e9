(* Sticky Datalog-exists (Cali, Gottlob, Pieris [4]): the marking
   procedure.

   SMark(T): (base) for every rule, mark each body occurrence of every
   variable that does not appear in the head; (propagation) if position
   (p, i) is marked in some rule body, then for every rule with an atom of
   predicate p in the *head*, mark every body occurrence of the variable
   found at position i of that head atom.  Repeat to fixpoint.

   T is sticky iff no marked variable occurs more than once in a rule
   body.  The marking lives in the analyzer, whose fixpoint also records
   the provenance of every mark — so a failure comes with a trace. *)

let is_sticky theory =
  match Bddfc_analysis.Analyzer.sticky_violations theory with
  | [] -> true
  | _ :: _ -> false

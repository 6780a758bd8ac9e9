(* Tests for chase provenance: replay fidelity, derivation trees, depths. *)

open Bddfc_logic
open Bddfc_structure
open Bddfc_chase

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let th src = Parser.parse_theory src
let db src = Instance.of_atoms (Parser.parse_atoms src)

let find_fact inst name args =
  let p = Pred.make name (List.length args) in
  let ids = List.map (fun c -> Option.get (Instance.const_opt inst c)) args in
  Fact.make p (Array.of_list ids)

(* Provenance.run must give Chase.run's instance: same facts, same
   elements, same rounds, under every strategy.  In the second case two
   rules demand the same head instance, so deduplicating triggers per
   rule instead of per head instance would invent a second witness. *)
let test_replay_matches_chase () =
  List.iter
    (fun (name, t, d) ->
      let t = th t and d = db d in
      List.iter
        (fun (sname, strategy) ->
          let direct = Chase.run ~strategy t d in
          let prov = Provenance.run ~strategy t d in
          let label what = Printf.sprintf "%s/%s: %s" name sname what in
          check Alcotest.bool (label "same fixpoint state") true
            prov.Provenance.saturated;
          check Alcotest.int (label "same facts")
            (Instance.num_facts direct.Chase.instance)
            (Instance.num_facts prov.Provenance.instance);
          check Alcotest.int (label "same elements")
            (Instance.num_elements direct.Chase.instance)
            (Instance.num_elements prov.Provenance.instance);
          check Alcotest.int (label "same rounds") direct.Chase.rounds
            prov.Provenance.rounds)
        [ ("naive", Chase.Naive); ("seminaive", Chase.Seminaive) ])
    [ ( "chain",
        "p(X) -> exists Y. e(X,Y). e(X,Y) -> q(Y). q(Y) -> r(Y).",
        "p(a). p(b)." );
      ("same head", "a(X) -> exists Z. e(X,Z). b(X) -> exists Z. e(X,Z).",
       "a(c). b(c).") ]

let test_reasons () =
  let t = th "p(X) -> exists Y. e(X,Y). e(X,Y) -> q(Y)." in
  let d = db "p(a)." in
  let prov = Provenance.run t d in
  let inst = prov.Provenance.instance in
  let given = find_fact inst "p" [ "a" ] in
  (match Provenance.reason_of prov given with
  | Some Provenance.Given -> ()
  | _ -> Alcotest.fail "p(a) is given");
  (* the q fact was derived by the datalog rule from the e fact *)
  let q_fact =
    List.find
      (fun f -> Pred.name (Fact.pred f) = "q")
      (Instance.facts inst)
  in
  match Provenance.reason_of prov q_fact with
  | Some (Provenance.Derived { rule = _; round; body }) ->
      check Alcotest.int "one body fact" 1 (List.length body);
      check Alcotest.bool "derived after round 1" true (round >= 2);
      check Alcotest.string "body is the e fact" "e"
        (Pred.name (Fact.pred (List.hd body)))
  | _ -> Alcotest.fail "q fact must be derived"

let test_explain_tree () =
  let t = th "p(X) -> exists Y. e(X,Y). e(X,Y) -> q(Y)." in
  let prov = Provenance.run t (db "p(a).") in
  let inst = prov.Provenance.instance in
  let q_fact =
    List.find (fun f -> Pred.name (Fact.pred f) = "q") (Instance.facts inst)
  in
  match Provenance.explain prov q_fact with
  | Some (Provenance.Node (_, _, [ Provenance.Node (_, _, [ Provenance.Leaf _ ]) ]))
    ->
      ()
  | Some other ->
      Alcotest.failf "unexpected tree shape: %s"
        (Fmt.to_to_string Provenance.pp_tree other)
  | None -> Alcotest.fail "expected a derivation tree"

let test_depths () =
  let t = th "p(X) -> exists Y. e(X,Y). e(X,Y) -> q(Y). q(Y) -> r(Y)." in
  let prov = Provenance.run t (db "p(a).") in
  let inst = prov.Provenance.instance in
  let depth_of name =
    Provenance.depth prov
      (List.find (fun f -> Pred.name (Fact.pred f) = name) (Instance.facts inst))
  in
  check Alcotest.int "p at 0" 0 (depth_of "p");
  check Alcotest.int "e at 1" 1 (depth_of "e");
  check Alcotest.int "q at 2" 2 (depth_of "q");
  check Alcotest.int "r at 3" 3 (depth_of "r");
  check Alcotest.int "max depth" 3 (Provenance.max_depth prov)

let test_depth_on_infinite_prefix () =
  (* on a chain prefix, the deepest skeleton atom has depth = rounds *)
  let t = th "e(X,Y) -> exists Z. e(Y,Z)." in
  let prov = Provenance.run ~max_rounds:6 t (db "e(a,b).") in
  check Alcotest.bool "not saturated" false prov.Provenance.saturated;
  check Alcotest.int "depth equals rounds" 6 (Provenance.max_depth prov)

let test_bdd_depth_bound () =
  (* the BDD connection: for Example 1's theory, the depth at which a
     query becomes true is bounded — certain answers at bounded depth *)
  let t =
    th
      {| e(X,Y) -> exists Z. e(Y,Z).
         e(X,Y), e(Y,Z), e(Z,X) -> exists T. u(X,T). |}
  in
  let prov = Provenance.run ~max_rounds:8 t (db "e(a,b). e(b,c). e(c,a).") in
  let inst = prov.Provenance.instance in
  let u_fact =
    List.find (fun f -> Pred.name (Fact.pred f) = "u") (Instance.facts inst)
  in
  check Alcotest.int "u derived at depth 1" 1 (Provenance.depth prov u_fact)

let suite =
  ( "provenance",
    [ tc "replay matches the chase" test_replay_matches_chase;
      tc "reasons recorded" test_reasons;
      tc "derivation trees" test_explain_tree;
      tc "derivation depths" test_depths;
      tc "depth on an infinite prefix" test_depth_on_infinite_prefix;
      tc "BDD depth bound (Example 1)" test_bdd_depth_bound;
    ] )

(* Colorings (Definitions 6, 7, 13, 14).

   A color K^l_h is a unary predicate with a *hue* h and a *lightness* l.
   A coloring of C adds exactly one color atom per element.  A *natural*
   coloring additionally satisfies:

     - elements within ancestor-distance m of each other (e' in P_m(e))
       have different hues;
     - two elements share a lightness only if their predecessor
       neighbourhoods C |` (P(e) u C_con) are isomorphic (constants fixed,
       e matched to e').

   [natural] implements this for VTDAGs by a greedy hue assignment along a
   topological order, with lightness interned from canonical neighbourhood
   keys.  [distance] implements the Lemma 13 variant for bounded-degree
   structures: all colors pairwise distinct within each radius-m ball. *)

open Bddfc_budget
open Bddfc_logic
open Bddfc_structure

type t = {
  colored : Instance.t; (* C-bar: a copy of C plus one color atom per elt *)
  hue : int array;
  lightness : int array;
  num_hues : int;
  num_lightnesses : int;
}

let color_pred_name ~hue ~lightness =
  Printf.sprintf "k%d_%d" hue lightness

(* Parse a color predicate name back into (hue, lightness). *)
let parse_color_pred name =
  if String.length name < 2 || name.[0] <> 'k' then None
  else
    match String.split_on_char '_' (String.sub name 1 (String.length name - 1)) with
    | [ h; l ] -> (
        match (int_of_string_opt h, int_of_string_opt l) with
        | Some h, Some l -> Some (h, l)
        | _ -> None)
    | _ -> None

let color_preds inst =
  Pred.Set.filter
    (fun p -> Pred.is_unary p && parse_color_pred (Pred.name p) <> None)
    (Instance.preds inst)

(* Strip color atoms: C-bar |` Sigma. *)
let uncolor inst =
  let keep =
    Pred.Set.filter
      (fun p -> not (Pred.is_unary p && parse_color_pred (Pred.name p) <> None))
      (Instance.preds inst)
  in
  Instance.restrict_preds inst keep

let materialize inst hue lightness =
  let colored = Instance.copy inst in
  let n = Instance.num_elements inst in
  let num_h = ref 0 and num_l = ref 0 in
  for e = 0 to n - 1 do
    num_h := max !num_h (hue.(e) + 1);
    num_l := max !num_l (lightness.(e) + 1);
    let p = Pred.make (color_pred_name ~hue:hue.(e) ~lightness:lightness.(e)) 1 in
    ignore (Instance.add_fact colored (Fact.make p [| e |]))
  done;
  {
    colored;
    hue;
    lightness;
    num_hues = !num_h;
    num_lightnesses = !num_l;
  }

(* ----------------------------------------------------------------- *)
(* Natural colorings of VTDAGs (Definition 14)                        *)
(* ----------------------------------------------------------------- *)

(* Both passes walk every element and can run for seconds on a large
   skeleton, so a budget gets a deadline check every few elements. *)
let natural ?budget ~m inst =
  let tick =
    match budget with
    | None -> fun _ -> ()
    | Some b -> fun i -> if i land 3 = 0 then Budget.check_deadline b
  in
  let g = Bgraph.make inst in
  let n = Instance.num_elements inst in
  let hue = Array.make (max n 1) 0 in
  let lightness = Array.make (max n 1) 0 in
  (* lightness: canonical key of C |` (P(e) u C_con) with root e *)
  let lkeys = Hashtbl.create 64 in
  let lnext = ref 0 in
  let consts = Instance.constants inst in
  for e = 0 to n - 1 do
    tick e;
    let elems =
      Element.Id_set.elements (Bgraph.pred_set g e) @ consts
      |> List.sort_uniq compare
    in
    let key = Canonical.key ~root:e inst elems in
    lightness.(e) <-
      (match Hashtbl.find_opt lkeys key with
      | Some id -> id
      | None ->
          let id = !lnext in
          incr lnext;
          Hashtbl.replace lkeys key id;
          id)
  done;
  (* hue: greedy proper coloring of the "P_m-conflict" relation, walking
     ancestors before descendants when the non-constant part is acyclic *)
  let order =
    match Bgraph.topo_order g with
    | Some topo ->
        List.filter (Instance.is_const inst) (Instance.elements inst) @ topo
    | None -> Instance.elements inst
  in
  List.iteri
    (fun i e ->
      tick i;
      let conflicts = Element.Id_set.remove e (Bgraph.pred_set_k g m e) in
      let used =
        Element.Id_set.fold (fun d acc -> hue.(d) :: acc) conflicts []
      in
      let rec smallest h = if List.mem h used then smallest (h + 1) else h in
      hue.(e) <- smallest 0)
    order;
  materialize inst hue lightness

(* ----------------------------------------------------------------- *)
(* Distance colorings for bounded degree (Lemma 13)                   *)
(* ----------------------------------------------------------------- *)

let distance ~radius inst =
  let g = Bgraph.make inst in
  let n = Instance.num_elements inst in
  let hue = Array.make (max n 1) (-1) in
  for e = 0 to n - 1 do
    let ball = Element.Id_set.remove e (Bgraph.ball g e radius) in
    let used =
      Element.Id_set.fold
        (fun d acc -> if hue.(d) >= 0 then hue.(d) :: acc else acc)
        ball []
    in
    let rec smallest h = if List.mem h used then smallest (h + 1) else h in
    hue.(e) <- smallest 0
  done;
  materialize inst hue (Array.make (max n 1) 0)

(* ----------------------------------------------------------------- *)
(* Validation against Definition 14                                   *)
(* ----------------------------------------------------------------- *)

type violation =
  | Hue_clash of Element.id * Element.id
  | Lightness_clash of Element.id * Element.id

let check_natural ~m inst (c : t) =
  let g = Bgraph.make inst in
  let n = Instance.num_elements inst in
  let violations = ref [] in
  for e = 0 to n - 1 do
    Element.Id_set.iter
      (fun e' ->
        if e' <> e && c.hue.(e) = c.hue.(e') then
          violations := Hue_clash (e, e') :: !violations)
      (Bgraph.pred_set_k g m e)
  done;
  (* same full color implies isomorphic neighbourhoods *)
  let consts = Instance.constants inst in
  let nbhd e =
    Element.Id_set.elements (Bgraph.pred_set g e) @ consts
    |> List.sort_uniq compare
  in
  for e = 0 to n - 1 do
    for e' = e + 1 to n - 1 do
      if c.hue.(e) = c.hue.(e') && c.lightness.(e) = c.lightness.(e') then
        if not (Canonical.iso_with_roots inst (nbhd e) e inst (nbhd e') e')
        then violations := Lightness_clash (e, e') :: !violations
    done
  done;
  !violations

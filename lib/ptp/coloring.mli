(** Colorings (Definitions 6, 7, 13, 14): one color atom K^l_h per
    element, where h is the hue and l the lightness.  Natural colorings
    give different hues to elements within ancestor-distance m and equal
    lightness only to elements with isomorphic predecessor
    neighbourhoods. *)

open Bddfc_budget
open Bddfc_logic
open Bddfc_structure

type t = {
  colored : Instance.t; (** C-bar: a copy of C plus one color atom per elt *)
  hue : int array;
  lightness : int array;
  num_hues : int;
  num_lightnesses : int;
}

val color_pred_name : hue:int -> lightness:int -> string
val parse_color_pred : string -> (int * int) option
val color_preds : Instance.t -> Pred.Set.t

val uncolor : Instance.t -> Instance.t
(** Strip color atoms: [C-bar |` Sigma]. *)

val materialize : Instance.t -> int array -> int array -> t
(** Build a coloring from explicit hue and lightness arrays. *)

val natural : ?budget:Budget.t -> m:int -> Instance.t -> t
(** A natural coloring (Definition 14) for parameter [m], via greedy hue
    assignment over the P_m conflict relation and canonical neighbourhood
    keys for lightness.  Intended for VTDAGs/forests (chase skeletons).
    With a [budget], the deadline is checked every few elements.
    @raise Budget.Exhausted when it passes. *)

val distance : radius:int -> Instance.t -> t
(** The Lemma 13 variant: hues pairwise distinct within each ball. *)

type violation =
  | Hue_clash of Element.id * Element.id
  | Lightness_clash of Element.id * Element.id

val check_natural : m:int -> Instance.t -> t -> violation list
(** Validate Definition 14 on an actual structure. *)

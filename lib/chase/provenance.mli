(** Derivation provenance: the chase run with its [record] hook.  For
    every fact, the first rule application that produced it; derivation
    trees; derivation depth (the quantity the BDD property bounds,
    Section 1.1). *)

open Bddfc_budget
open Bddfc_logic
open Bddfc_structure

type reason =
  | Given
  | Derived of { rule : string; round : int; body : Fact.t list }

type t = {
  instance : Instance.t;
  reasons : reason Fact.Table.t;
  rounds : int;
  saturated : bool;
  tripped : Budget.resource option;
      (** which budget stopped the chase, if any *)
}

val run :
  ?strategy:Chase.strategy -> ?eval:Bddfc_hom.Eval.engine ->
  ?budget:Budget.t -> ?max_rounds:int -> ?max_elements:int ->
  Theory.t -> Instance.t -> t
(** {!Chase.run} with reasons recorded: the same instance, rounds and
    budget trips, under the same arguments and defaults.  Every fact of
    the instance has a reason; the recorded reasons of different
    strategies agree up to tie-breaks between same-round derivations of
    one fact. *)

val record : reason Fact.Table.t -> Instance.t -> Chase.record
(** [record reasons inst] is a {!Chase.record} hook that files the first
    derivation of every fact it is given into [reasons], resolving the
    body against [inst] (the instance being chased).  Facts that already
    have a reason keep it. *)

val reason_of : t -> Fact.t -> reason option

type tree =
  | Leaf of Fact.t
  | Node of Fact.t * string * tree list

val explain : ?fuel:int -> t -> Fact.t -> tree option

val depth : t -> Fact.t -> int
(** 0 for given facts, 1 + max over the recorded body otherwise. *)

val max_depth : t -> int
val pp_tree : tree Fmt.t

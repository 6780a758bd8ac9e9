(** Sticky Datalog-exists (Cali, Gottlob, Pieris [4]): the marking
    procedure.  A theory is sticky iff no marked variable occurs more than
    once in a rule body. *)

open Bddfc_logic

val is_sticky : Theory.t -> bool

(* Finite relational structures ("database instances") over element ids.

   The store is mutable and keeps three indexes:
     - a fact table for O(1) duplicate detection,
     - facts grouped by predicate,
     - facts grouped by (predicate, position, element).

   Constants are interned: asking twice for constant "a" yields the same
   id, and the id remembers its name.  Labelled nulls carry provenance so
   the chase skeleton (Section 3.2 of the paper) can be read back.

   Facts carry a *birth round* (default 0) so the chase can evaluate
   semi-naively: every index list is newest-first, and as long as facts
   arrive with non-decreasing births (the chase adds round r facts during
   round r) each list is sorted by birth descending, making the delta of a
   round a prefix and the committed prefix a suffix of every list — both
   extractable in time proportional to the delta, not the instance.  If a
   caller ever violates the monotone order the instance notices and the
   windowed accessors fall back to a full filter (correct, just slower). *)

open Bddfc_logic

(* An index bucket: the newest-first fact list plus its length, kept
   incrementally so most-constrained-first join scoring reads a
   cardinality in O(1) instead of running [List.length] over a
   materialized window.  [b_births] records each fact's birth in arrival
   order — non-decreasing while the instance is monotone — so windowed
   cardinalities are two binary searches instead of a walk. *)
type bucket = {
  mutable b_facts : Fact.t list;
  mutable b_size : int;
  mutable b_births : int array; (* arrival order; length >= b_size *)
}

let bucket_push b f birth =
  b.b_facts <- f :: b.b_facts;
  let cap = Array.length b.b_births in
  if b.b_size >= cap then begin
    let grown = Array.make (max (2 * cap) 4) 0 in
    Array.blit b.b_births 0 grown 0 cap;
    b.b_births <- grown
  end;
  b.b_births.(b.b_size) <- birth;
  b.b_size <- b.b_size + 1

(* First index in the sorted prefix [0, n) of [a] with [a.(i) >= x]. *)
let lower_bound a n x =
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) >= x then hi := mid else lo := mid + 1
  done;
  !lo

(* Every instance carries a process-unique creation token plus a mutation
   counter: together they give memo layers (Bddfc_hom.Hc) a sound cache
   key for "this exact structure in this exact state" without hashing the
   fact set. *)
let token_supply = Atomic.make 0

type t = {
  token : int; (* process-unique creation stamp *)
  mutable version : int; (* bumped on every element/fact mutation *)
  mutable next_id : int;
  mutable infos : Element.info array; (* id -> info, grown on demand *)
  const_ids : (string, Element.id) Hashtbl.t;
  fact_set : unit Fact.Table.t;
  mutable fact_list : Fact.t list; (* newest first *)
  mutable n_facts : int;
  by_pred : (Pred.t, bucket) Hashtbl.t;
  by_ppe : (Pred.t * int * Element.id, bucket) Hashtbl.t;
  mutable preds : Pred.Set.t;
  fact_birth : int Fact.Table.t; (* absent = born at round 0 *)
  mutable max_fact_birth : int;
  mutable birth_monotone : bool; (* births non-decreasing in add order *)
}

let create ?(capacity = 64) () =
  {
    token = Atomic.fetch_and_add token_supply 1;
    version = 0;
    next_id = 0;
    infos = Array.make (max capacity 1) (Element.Const "");
    const_ids = Hashtbl.create 16;
    fact_set = Fact.Table.create capacity;
    fact_list = [];
    n_facts = 0;
    by_pred = Hashtbl.create 16;
    by_ppe = Hashtbl.create capacity;
    preds = Pred.Set.empty;
    fact_birth = Fact.Table.create capacity;
    max_fact_birth = 0;
    birth_monotone = true;
  }

let ensure_capacity inst id =
  let n = Array.length inst.infos in
  if id >= n then begin
    let infos = Array.make (max (2 * n) (id + 1)) (Element.Const "") in
    Array.blit inst.infos 0 infos 0 n;
    inst.infos <- infos
  end

let token inst = inst.token
let version inst = inst.version

let alloc inst info =
  let id = inst.next_id in
  inst.version <- inst.version + 1;
  inst.next_id <- id + 1;
  ensure_capacity inst id;
  inst.infos.(id) <- info;
  id

let const inst name =
  match Hashtbl.find_opt inst.const_ids name with
  | Some id -> id
  | None ->
      let id = alloc inst (Element.Const name) in
      Hashtbl.replace inst.const_ids name id;
      id

let const_opt inst name = Hashtbl.find_opt inst.const_ids name

let fresh_null inst ~birth ~rule ~parent =
  alloc inst (Element.Null { birth; rule; parent })

let info inst id =
  if id < 0 || id >= inst.next_id then invalid_arg "Instance.info: bad id";
  inst.infos.(id)

let is_const inst id = Element.is_const (info inst id)
let is_null inst id = Element.is_null (info inst id)
let const_name inst id = Element.const_name (info inst id)
let parent inst id = Element.parent (info inst id)
let birth inst id = Element.birth (info inst id)

let num_elements inst = inst.next_id
let num_facts inst = inst.n_facts

let elements inst = List.init inst.next_id (fun i -> i)

let constants inst =
  Hashtbl.fold (fun _ id acc -> id :: acc) inst.const_ids []

let mem_fact inst f = Fact.Table.mem inst.fact_set f

let add_fact ?(birth = 0) inst f =
  if Fact.Table.mem inst.fact_set f then false
  else begin
    Array.iter
      (fun id ->
        if id < 0 || id >= inst.next_id then
          invalid_arg "Instance.add_fact: unknown element id")
      (Fact.args f);
    Fact.Table.replace inst.fact_set f ();
    inst.version <- inst.version + 1;
    inst.fact_list <- f :: inst.fact_list;
    inst.n_facts <- inst.n_facts + 1;
    inst.preds <- Pred.Set.add (Fact.pred f) inst.preds;
    if birth <> 0 then Fact.Table.replace inst.fact_birth f birth;
    if birth < inst.max_fact_birth then inst.birth_monotone <- false
    else inst.max_fact_birth <- birth;
    let push key tbl =
      match Hashtbl.find_opt tbl key with
      | Some b -> bucket_push b f birth
      | None ->
          Hashtbl.replace tbl key
            { b_facts = [ f ]; b_size = 1; b_births = [| birth; 0; 0; 0 |] }
    in
    push (Fact.pred f) inst.by_pred;
    Array.iteri
      (fun pos id -> push (Fact.pred f, pos, id) inst.by_ppe)
      (Fact.args f);
    true
  end

let facts inst = List.rev inst.fact_list

let iter_facts fn inst = List.iter fn inst.fact_list

let fact_birth_tbl inst f =
  match Fact.Table.find_opt inst.fact_birth f with Some b -> b | None -> 0

(* Batch removal, the retraction side of incremental maintenance.  Only
   the buckets a removed fact touches are rebuilt: their newest-first
   lists are filtered in place (preserving arrival order, hence birth
   monotonicity) and their birth arrays recomputed from the survivors.
   Elements are never reclaimed — an orphaned id is harmless, and keeping
   ids stable is what lets callers hold facts across removals.  The
   instance's max birth is left as a (sound) upper bound. *)
let remove_facts inst fs =
  let dead = Fact.Table.create 16 in
  List.iter
    (fun f -> if Fact.Table.mem inst.fact_set f then Fact.Table.replace dead f ())
    fs;
  let removed = Fact.Table.length dead in
  if removed = 0 then 0
  else begin
    inst.version <- inst.version + 1;
    (* collect the touched bucket keys before mutating anything *)
    let pred_keys = Hashtbl.create 8 and ppe_keys = Hashtbl.create 16 in
    Fact.Table.iter
      (fun f () ->
        Hashtbl.replace pred_keys (Fact.pred f) ();
        Array.iteri
          (fun pos id -> Hashtbl.replace ppe_keys (Fact.pred f, pos, id) ())
          (Fact.args f))
      dead;
    let rebuild key tbl =
      match Hashtbl.find_opt tbl key with
      | None -> ()
      | Some b ->
          let kept =
            List.filter (fun f -> not (Fact.Table.mem dead f)) b.b_facts
          in
          let n = List.length kept in
          if n = 0 then Hashtbl.remove tbl key
          else begin
            (* [kept] is newest first; births live in arrival order *)
            let births = Array.make (max n 4) 0 in
            List.iteri
              (fun i f -> births.(n - 1 - i) <- fact_birth_tbl inst f)
              kept;
            b.b_facts <- kept;
            b.b_size <- n;
            b.b_births <- births
          end
    in
    Hashtbl.iter (fun key () -> rebuild key inst.by_pred) pred_keys;
    Hashtbl.iter (fun key () -> rebuild key inst.by_ppe) ppe_keys;
    inst.fact_list <-
      List.filter (fun f -> not (Fact.Table.mem dead f)) inst.fact_list;
    inst.n_facts <- inst.n_facts - removed;
    Fact.Table.iter
      (fun f () ->
        Fact.Table.remove inst.fact_set f;
        Fact.Table.remove inst.fact_birth f)
      dead;
    removed
  end

let fact_birth inst f =
  match Fact.Table.find_opt inst.fact_birth f with Some b -> b | None -> 0

let max_fact_birth inst = inst.max_fact_birth

let reset_fact_births inst =
  Fact.Table.reset inst.fact_birth;
  inst.version <- inst.version + 1;
  inst.max_fact_birth <- 0;
  inst.birth_monotone <- true

(* Restrict a newest-first index list to births in [since, upto).  On a
   monotone instance the list is sorted by birth descending, so the
   window is drop-prefix + take-while; otherwise filter the whole list. *)
let window inst ~since ~upto l =
  let no_upper = match upto with None -> true | Some u -> u > inst.max_fact_birth in
  if since <= 0 && no_upper then l
  else if inst.birth_monotone then begin
    let rec drop = function
      | f :: rest when (match upto with
                        | Some u -> fact_birth inst f >= u
                        | None -> false) ->
          drop rest
      | l -> l
    in
    let l = drop l in
    if since <= 0 then l
    else begin
      let rec take acc = function
        | f :: rest when fact_birth inst f >= since -> take (f :: acc) rest
        | _ -> List.rev acc
      in
      take [] l
    end
  end
  else
    List.filter
      (fun f ->
        let b = fact_birth inst f in
        b >= since && (match upto with None -> true | Some u -> b < u))
      l

let facts_with_pred inst p =
  match Hashtbl.find_opt inst.by_pred p with
  | Some b -> b.b_facts
  | None -> []

let facts_with_arg inst p pos id =
  match Hashtbl.find_opt inst.by_ppe (p, pos, id) with
  | Some b -> b.b_facts
  | None -> []

let card_with_pred inst p =
  match Hashtbl.find_opt inst.by_pred p with Some b -> b.b_size | None -> 0

let card_with_arg inst p pos id =
  match Hashtbl.find_opt inst.by_ppe (p, pos, id) with
  | Some b -> b.b_size
  | None -> 0

(* Exact windowed cardinality (births in [since, upto), with [max_int]
   as "no upper bound"): two binary searches over the bucket's birth
   array.  When the monotone-birth invariant was broken the array is no
   longer sorted, so fall back to the whole-bucket size — an upper
   bound, which is all the join scorer needs. *)
let bucket_card_window inst b ~since ~upto =
  if since <= 0 && upto > inst.max_fact_birth then b.b_size
  else if not inst.birth_monotone then b.b_size
  else
    lower_bound b.b_births b.b_size upto
    - lower_bound b.b_births b.b_size since

let card_with_pred_window inst p ~since ~upto =
  match Hashtbl.find_opt inst.by_pred p with
  | Some b -> bucket_card_window inst b ~since ~upto
  | None -> 0

let card_with_arg_window inst p pos id ~since ~upto =
  match Hashtbl.find_opt inst.by_ppe (p, pos, id) with
  | Some b -> bucket_card_window inst b ~since ~upto
  | None -> 0

let facts_with_pred_window ?(since = 0) ?upto inst p =
  window inst ~since ~upto (facts_with_pred inst p)

let facts_with_arg_window ?(since = 0) ?upto inst p pos id =
  window inst ~since ~upto (facts_with_arg inst p pos id)

(* Iterator form of [window]: same birth restriction and order, but no
   intermediate list — the compiled join engine probes candidates
   straight off the index bucket. *)
let iter_window inst ~since ~upto fn l =
  let no_upper =
    match upto with None -> true | Some u -> u > inst.max_fact_birth
  in
  if since <= 0 && no_upper then List.iter fn l
  else if inst.birth_monotone then begin
    let rec drop = function
      | f :: rest
        when (match upto with
             | Some u -> fact_birth inst f >= u
             | None -> false) ->
          drop rest
      | l -> l
    in
    let l = drop l in
    if since <= 0 then List.iter fn l
    else begin
      let rec take = function
        | f :: rest when fact_birth inst f >= since ->
            fn f;
            take rest
        | _ -> ()
      in
      take l
    end
  end
  else
    List.iter
      (fun f ->
        let b = fact_birth inst f in
        if b >= since && (match upto with None -> true | Some u -> b < u)
        then fn f)
      l

let iter_with_pred_window ?(since = 0) ?upto inst p fn =
  iter_window inst ~since ~upto fn (facts_with_pred inst p)

let iter_with_arg_window ?(since = 0) ?upto inst p pos id fn =
  iter_window inst ~since ~upto fn (facts_with_arg inst p pos id)

let preds inst = inst.preds

let signature inst =
  let consts =
    Hashtbl.fold (fun name _ acc -> name :: acc) inst.const_ids []
  in
  Signature.make ~preds:(Pred.Set.elements inst.preds) ~consts

(* -------------------------------------------------------------- *)
(* Conversions                                                    *)
(* -------------------------------------------------------------- *)

(* Add a ground atom; constants are interned by name.
   @raise Invalid_argument if the atom contains a variable. *)
let add_atom ?(birth = 0) inst atom =
  let ids =
    List.map
      (function
        | Term.Cst c -> const inst c
        | Term.Var x ->
            invalid_arg ("Instance.add_atom: variable " ^ x ^ " in fact"))
      (Atom.args atom)
  in
  add_fact ~birth inst (Fact.make (Atom.pred atom) (Array.of_list ids))

let of_atoms atoms =
  let inst = create () in
  List.iter (fun a -> ignore (add_atom inst a)) atoms;
  inst

(* Render a fact back as a ground atom.  Nulls get printable invented
   names ("_nK"). *)
let atom_of_fact inst f =
  let term_of id =
    match info inst id with
    | Element.Const c -> Term.Cst c
    | Element.Null _ -> Term.Cst ("_n" ^ string_of_int id)
  in
  Atom.make (Fact.pred f) (List.map term_of (Fact.elements f))

let to_atoms inst = List.map (atom_of_fact inst) (facts inst)

(* -------------------------------------------------------------- *)
(* Restriction and copying                                        *)
(* -------------------------------------------------------------- *)

(* A full structural copy sharing nothing with the original.  Facts are
   re-added in insertion order with their birth rounds, so the copy keeps
   the delta-window invariant of the original. *)
let copy inst =
  let c = create ~capacity:(max 64 inst.next_id) () in
  c.next_id <- inst.next_id;
  c.infos <- Array.copy inst.infos;
  ensure_capacity c (max 0 (inst.next_id - 1));
  Hashtbl.iter (fun k v -> Hashtbl.replace c.const_ids k v) inst.const_ids;
  List.iter (fun f -> ignore (add_fact ~birth:(fact_birth inst f) c f))
    (facts inst);
  c

(* C restricted to a predicate set (the paper's C |` Sigma).  Elements are
   kept (with their ids); only facts are filtered. *)
let restrict_preds inst keep =
  let c = create ~capacity:(max 64 inst.next_id) () in
  c.next_id <- inst.next_id;
  c.infos <- Array.copy inst.infos;
  Hashtbl.iter (fun k v -> Hashtbl.replace c.const_ids k v) inst.const_ids;
  List.iter
    (fun f ->
      if Pred.Set.mem (Fact.pred f) keep then
        ignore (add_fact ~birth:(fact_birth inst f) c f))
    (facts inst);
  c

(* C restricted to an element set (the paper's C |` A): facts whose
   arguments all lie in [keep]. *)
let restrict_elements inst keep =
  let c = create ~capacity:(max 64 inst.next_id) () in
  c.next_id <- inst.next_id;
  c.infos <- Array.copy inst.infos;
  Hashtbl.iter (fun k v -> Hashtbl.replace c.const_ids k v) inst.const_ids;
  List.iter
    (fun f ->
      if Array.for_all (fun id -> Element.Id_set.mem id keep) (Fact.args f)
      then ignore (add_fact ~birth:(fact_birth inst f) c f))
    (facts inst);
  c

(* Unary predicates true of an element. *)
let unary_preds_of inst id =
  Pred.Set.fold
    (fun p acc ->
      if Pred.is_unary p && facts_with_arg inst p 0 id <> [] then p :: acc
      else acc)
    inst.preds []

(* Fact-set equality up to constant names.  Constants are matched by name;
   labelled nulls are matched by id, so for structures with nulls this is
   only meaningful when the two instances share an element table (e.g. a
   copy).  For isomorphism of small structures use Canonical. *)
let equal_facts inst1 inst2 =
  let key inst f =
    let render id =
      match const_name inst id with
      | Some c -> "c:" ^ c
      | None -> "n:" ^ string_of_int id
    in
    Pred.name (Fact.pred f)
    ^ "("
    ^ String.concat "," (List.map render (Fact.elements f))
    ^ ")"
  in
  let set inst =
    List.sort_uniq String.compare (List.map (key inst) (facts inst))
  in
  set inst1 = set inst2

let pp ppf inst =
  let pp_fact ppf f = Atom.pp ppf (atom_of_fact inst f) in
  Fmt.pf ppf "@[<v>%a@]" Fmt.(list ~sep:cut pp_fact) (facts inst)

let show = Fmt.to_to_string pp

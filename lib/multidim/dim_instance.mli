(** Dimension instances: members for each category plus the child →
    parent member relation, paralleling the schema's category DAG.

    Members are {!Mdqa_relational.Value.t} symbols.  The top category
    [All] always has the single member [all].  Roll-up between
    arbitrary (not just adjacent) categories is the transitive closure
    of the member links; {!check} builds it once, so {!rollup} is a
    lookup, and {!drilldown} looks up its inverse, built from it on the
    first call.  Each lookup finds a category by a scan of the schema's
    and allocates the list it returns, one cell per member, per call.
    The same top-down pass that builds the closure records where it
    breaks the HM summarizability conditions (Hurtado–Gutierrez–
    Mendelzon, TODS 2005), read back by {!diagnose}. *)

type t

val all_member : Mdqa_relational.Value.t
(** [Sym "all"], the unique member of category [All]. *)

(** A declared member or link that {!check} rejects.  Members are
    numbered from 0 in the order they appear in [~members], group by
    group; links from 0 in the order of [~links].  The member [all] of
    [All] is declared implicitly. *)
type problem =
  | Unknown_category of { member : int; name : string; category : string }
      (** the member's category is not in the schema *)
  | Duplicate_member of { member : int; name : string; first : string }
      (** the member was first declared in category [first] *)
  | Unknown_member of { link : int; name : string }
      (** an endpoint of the link is not a declared member *)
  | Off_schema_link of {
      link : int;
      child : string;
      parent : string;
      child_category : string;
      parent_category : string;
    }
      (** the link does not follow a schema edge *)

val check :
  Dim_schema.t ->
  members:(string * string list) list ->
  links:(string * string) list ->
  (t, problem list) result
(** [check schema ~members ~links]: [members] maps categories to member
    names; [links] are (child member, parent member) pairs between
    members of adjacent categories.  Members of maximal proper
    categories are linked to [all] automatically.  One pass over the
    declaration finds every problem, members first, each in input
    order; the roll-up closure is built only when there is none.  A
    link is not checked against the schema when an endpoint is in an
    unknown category: that member is already reported. *)

val make :
  Dim_schema.t ->
  members:(string * string list) list ->
  links:(string * string) list ->
  t
(** {!check}, for declarations known to be well formed.
    @raise Invalid_argument with the {!message} of the first problem
    when there is one. *)

val message : Dim_schema.t -> problem -> string
(** One line naming the problem and the schema's dimension. *)

val schema : t -> Dim_schema.t

val members : t -> string -> Mdqa_relational.Value.t list
(** Members of a category (sorted). @raise Not_found on unknown. *)

val category_of : t -> Mdqa_relational.Value.t -> string option
(** The category a member belongs to. *)

val member_parents : t -> Mdqa_relational.Value.t -> Mdqa_relational.Value.t list
(** Immediate parents of a member (across all parent categories). *)

val fold_links : t -> child:string -> parent:string ->
  (Mdqa_relational.Value.t -> Mdqa_relational.Value.t -> 'a -> 'a) -> 'a -> 'a
(** [fold_links t ~child ~parent f init] folds [f member parent] over the
    links from category [child] to category [parent], members by name. *)

val rollup :
  t -> Mdqa_relational.Value.t -> to_category:string ->
  Mdqa_relational.Value.t list
(** Ancestors of the member within [to_category] (transitive, sorted).
    Under strictness this is empty or a singleton. *)

val drilldown :
  t -> Mdqa_relational.Value.t -> to_category:string ->
  Mdqa_relational.Value.t list
(** Descendants of the member within [to_category] (sorted). *)

(** Aggregating at a higher category from pre-aggregated results at a
    lower one is correct exactly when the roll-up between the two is
    strict (no double counting) and covering (no lost members). *)
type violation =
  | Non_strict of {
      member : Mdqa_relational.Value.t;
      category : string;
      ancestor_category : string;
      ancestors : Mdqa_relational.Value.t list;
          (** ≥ 2 distinct ancestors *)
    }
  | Non_covering of {
      member : Mdqa_relational.Value.t;
      category : string;
      parent_category : string;  (** no parent there *)
    }

type report = {
  strict : bool;
  homogeneous : bool;
  violations : violation list;
}

val diagnose : t -> report
(** The violations {!check} recorded: categories in
    {!Dim_schema.categories} order, members sorted within each; per
    member, its [Non_strict] ones in {!Dim_schema.ancestors} order, then
    its [Non_covering] ones in {!Dim_schema.parents} order. *)

val summarizable : t -> from_category:string -> to_category:string -> bool
(** Can aggregates at [from_category] be correctly combined into
    aggregates at [to_category]?  True iff the roll-up between the two
    is functional (strict) and total (covering) on the members of
    [from_category]. *)

val pp_violation : Format.formatter -> violation -> unit
val pp_report : Format.formatter -> report -> unit

val pp : Format.formatter -> t -> unit

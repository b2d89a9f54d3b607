(** Terms of the Datalog± language: variables and constants.

    Constants embed {!Mdqa_relational.Value.t}, so labeled nulls
    produced by the chase are constants from the logic's point of view
    (they are elements of the extended domain Γ ∪ Γ_N). *)

type t =
  | Var of string  (** variable, conventionally capitalized *)
  | Const of Mdqa_relational.Value.t

val var : string -> t
val const : Mdqa_relational.Value.t -> t
val sym : string -> t
(** [sym s] is [Const (Sym s)]. *)

val int : int -> t

val is_const : t -> bool

val equal : t -> t -> bool
val compare : t -> t -> int

val pp : Format.formatter -> t -> unit

module Var_set : Stdlib.Set.S with type elt = string
module Var_map : Stdlib.Map.S with type key = string
module Set : Stdlib.Set.S with type elt = t

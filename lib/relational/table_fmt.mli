(** ASCII rendering of relations as the paper's numbered tables.

    Used by the CLI and the benchmark to print query answers and by
    the examples for readable output. *)

val render : ?title:string -> ?numbered:bool -> Relation.t -> string
(** Render a relation as an aligned text table.  With [numbered] (the
    default) rows get a 1-based row-number column, matching the paper's
    presentation.  Rows appear in the relation's deterministic tuple
    order. *)

val render_rows :
  ?title:string -> header:string list -> string list list -> string
(** Lower-level renderer for pre-stringified rows. *)

val print : ?title:string -> ?numbered:bool -> Relation.t -> unit
(** [render] to stdout. *)

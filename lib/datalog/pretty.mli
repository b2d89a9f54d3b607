(** Pretty-printer emitting the surface syntax accepted by {!Parser}.

    [Parser.parse_string (Pretty.program_to_string p)] reconstructs a
    program structurally equal to [p] (rule names aside) — the
    round-trip is property-tested. *)

val term : Format.formatter -> Term.t -> unit
val atom : Format.formatter -> Atom.t -> unit
val tgd : Format.formatter -> Tgd.t -> unit
val egd : Format.formatter -> Egd.t -> unit
val nc : Format.formatter -> Nc.t -> unit
val query : Format.formatter -> Query.t -> unit
val fact : Format.formatter -> string * Mdqa_relational.Tuple.t -> unit
(** [pred(v1, ..., vn).] *)

val program : Format.formatter -> Program.t -> unit

val program_to_string : Program.t -> string
val query_to_string : Query.t -> string

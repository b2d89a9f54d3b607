(** Minimal CSV-style persistence for relations and instances.

    Format: one header line with attribute names, then one line per
    tuple.  Cells are separated by commas; cells containing commas,
    quotes or newlines are double-quoted with ["" ] escaping.  Values
    are parsed back with {!Value.of_string} (so numbers round-trip as
    numbers, nulls as nulls). *)

val cell_of_value : Value.t -> string
val value_of_cell : string -> Value.t

val relation_to_string : Relation.t -> string

type error = {
  row : int;  (** 1-based file line number; the header is line 1 *)
  col : int;  (** 1-based cell index; 0 when the whole row is at fault *)
  message : string;
}

val relation_of_string_result :
  name:string -> string -> (Relation.t, error list) result
(** Parse a relation from CSV text; the schema is all-plain attributes
    named by the header.  [Error] carries {e every} problem (empty
    input, a bad header, each ragged row) with its file line and the
    first offending cell — never raises. *)

val pp_error : Format.formatter -> error -> unit

val save_relation : string -> Relation.t -> unit
(** [save_relation path r] writes [r] to [path]. *)

val load_relation_result :
  name:string -> string -> (Relation.t, error list) result
(** @raise Sys_error on I/O failure only. *)

(** Dimension schemas of the Hurtado–Mendelzon multidimensional model.

    A dimension schema is a directed acyclic graph of {e categories};
    edges point from child category to parent category (the direction
    of roll-up).  The distinguished top category [All] is added
    automatically and every sink category is connected to it, so every
    member can roll all the way up (as in the HM model).

    Example (the paper's Fig. 1):
    {v
      Hospital:  Ward → Unit → Institution → All
      Time:      Day → Month → Year → All
    v} *)

type t

val all : string
(** The name of the top category, ["All"]. *)

val make : name:string -> edges:(string * string) list -> t
(** [make ~name ~edges] with edges [(child, parent)].
    Categories are collected from the edges; sinks are linked to
    [All].
    @raise Invalid_argument if the graph has a directed cycle, an edge
    is a self-loop, or [All] is used as a child. *)

val linear : name:string -> string list -> t
(** [linear ~name [c1; c2; ...; cn]] builds the chain
    [c1 → c2 → ... → cn → All] — the common case. *)

val name : t -> string

val categories : t -> string list
(** All categories including [All], bottom-up by level then name. *)

val mem_category : t -> string -> bool

val parents : t -> string -> string list
(** Immediate parent categories. @raise Not_found on unknown. *)

val children : t -> string -> string list

val ancestors : t -> string -> string list
(** Proper ancestors, transitively (includes [All] except for [All]). *)

val bottoms : t -> string list
(** Categories with no children (base categories). *)

val level : t -> string -> int
(** Length of the longest path from a bottom category (bottoms are 0,
    [All] is maximal). @raise Not_found on unknown. *)

val edges : t -> (string * string) list
(** All (child, parent) edges including those into [All], sorted. *)

val is_ancestor : t -> ancestor:string -> string -> bool
(** [is_ancestor t ~ancestor c]: does [c] roll up to [ancestor]?
    (proper ancestry; a category is not its own ancestor) *)

val paths : t -> source:string -> target:string -> string list list
(** All directed category paths from [source] up to [target], each
    given as the list of visited categories (inclusive). *)

val pp : Format.formatter -> t -> unit
(** Multi-line rendering of the category DAG (used by the Figure 1
    report). *)

val to_dot : t -> string
(** Graphviz rendering of the category DAG (roll-up arrows child →
    parent) as a standalone [digraph]. *)

val dot_cluster : t -> string
(** The same rendering as a [subgraph cluster_...] fragment, for
    embedding into a larger graph ({!Md_schema.to_dot}). *)

(** Metrics registry: counters, gauges, and log2-bucketed histograms.

    Zero dependencies beyond the stdlib.  Instruments are registered by
    name (plus optional labels) and are idempotent: asking twice for the
    same name/labels returns the same instrument; asking with a
    different kind raises [Invalid_argument].

    Snapshots are plain sorted data and merge deterministically:
    counters and histograms add, gauges take the maximum.  This makes a
    snapshot of [merge a b] independent of evaluation order, which the
    property tests rely on. *)

type t
(** A registry. *)

type counter
type gauge
type histogram

val create : unit -> t

val counter :
  t -> ?help:string -> ?labels:(string * string) list -> string -> counter
(** Register (or fetch) a monotonic counter. *)

val gauge :
  t -> ?help:string -> ?labels:(string * string) list -> string -> gauge

val histogram :
  t -> ?help:string -> ?labels:(string * string) list -> string -> histogram
(** Histogram with log2 buckets: an observation [v > 0] lands in the
    bucket indexed by the exponent [e] with [2^(e-1) <= v < 2^e];
    observations [<= 0] land in a single sentinel bucket. *)

val inc : counter -> unit
val add : counter -> int -> unit
(** [add c n] adds [n]; raises [Invalid_argument] if [n < 0]. *)

val counter_value : counter -> int
val set : gauge -> float -> unit
val gauge_value : gauge -> float
val observe : histogram -> float -> unit

(** {1 Snapshots} *)

type histogram_snapshot = {
  hcount : int;
  hsum : float;
  hbuckets : (int * int) list;  (** exponent -> count, sorted *)
}

type snapshot = {
  counters : ((string * (string * string) list) * int) list;
  gauges : ((string * (string * string) list) * float) list;
  histograms : ((string * (string * string) list) * histogram_snapshot) list;
  shelp : (string * string) list;  (** family name -> help text *)
}
(** All lists sorted by key ([name], then sorted labels). *)

val snapshot : t -> snapshot

val merge : snapshot -> snapshot -> snapshot
(** Counters and histogram buckets/counts/sums add; gauges take the
    max; help is left-biased.  Associative and commutative. *)

val bucket_upper : int -> float
(** Upper bound [2^e] of bucket [e]. *)

val to_prometheus : snapshot -> string
(** Prometheus text exposition: [# HELP]/[# TYPE] lines per family,
    counters as integers, histograms as cumulative [_bucket{le=...}]
    series with [_sum] and [_count]. *)

(** {1 Lookup helpers (tests, perfbench)} *)

val find_counter :
  snapshot -> ?labels:(string * string) list -> string -> int option

val counter_total : snapshot -> string -> int
(** Sum of a counter family across all label sets (0 if absent). *)

val find_gauge :
  snapshot -> ?labels:(string * string) list -> string -> float option

val find_histogram :
  snapshot -> ?labels:(string * string) list -> string -> histogram_snapshot option

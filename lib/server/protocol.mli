(** The line-delimited JSON protocol of [mdqa serve].

    One request per line, one reply per line.  Requests:

    {v
    {"kind": "query", "query": "q(X) :- p(X, Y)", "id": 7,
     "engine": "chase", "timeout": 0.5, "max_steps": 10000}
    {"kind": "health", "id": "h1"}
    {"kind": "ready"}
    {"kind": "ping"}
    {"kind": "metrics"}
    {"kind": "spans"}
    {"kind": "repl.status", "acked": 8192}
    {"kind": "repl.fetch", "what": "snapshot", "offset": 0,
     "len": 65536, "epoch": 0}
    {"kind": "promote"}
    v}

    [metrics] returns the server's metrics registry as a Prometheus
    text exposition (in the reply's ["exposition"] field); [spans]
    returns the tracer's buffered spans as a JSON list (["spans"]).

    The [repl.*] requests are the pull-based replication plane a
    standby drives against its primary (see {!Replication}): [status]
    doubles as the heartbeat and ack carrier, [fetch] ships raw
    snapshot-image or journal bytes as hex chunks with a per-chunk
    CRC-32.  [promote] turns a standby into a primary (idempotent on a
    primary).

    Replies always carry a ["status"] of ["complete"], ["degraded"] or
    ["error"] (the wire mirror of the CLI's 0/2/1 exit codes), echo the
    request ["id"] verbatim when one was given, and on degradation or
    error carry a stable diagnostic ["code"] (E024 invalid-request,
    E025 oversized-request, E026 request-timeout, E027 request-crashed,
    W047 overload-shed, W048 breaker-open) plus its mnemonic.

    Parsing is total: a malformed line becomes an [Error] diagnostic
    the server answers with, never an exception. *)

type request =
  | Query of {
      id : Jsonl.t option;
      query : string;  (** surface syntax, e.g. ["q(X) :- p(X, Y)"] *)
      engine : Mdqa_datalog.Answer.engine;
      timeout : float option;  (** per-request deadline, seconds *)
      max_steps : int option;  (** per-request chase-step budget *)
    }
  | Health of { id : Jsonl.t option }
  | Ready of { id : Jsonl.t option }
  | Ping of { id : Jsonl.t option }
  | Metrics of { id : Jsonl.t option }
  | Spans of { id : Jsonl.t option }
  | Profile of { id : Jsonl.t option }
      (** snapshot of the installed cost-attribution profiler *)
  | Repl_status of { id : Jsonl.t option; acked : int option }
      (** standby heartbeat; [acked] reports the journal high-water
          mark the standby has durably applied *)
  | Repl_fetch of {
      id : Jsonl.t option;
      what : [ `Snapshot | `Journal ];
      offset : int;  (** resume point, bytes *)
      len : int;  (** max chunk size, bytes (default 64 KiB) *)
      epoch : int;
          (** the snapshot-image CRC-32 the standby is resuming
              against; [0] starts a fresh ship *)
    }
  | Promote of { id : Jsonl.t option }

val request_id : request -> Jsonl.t option

val request_kind : request -> string
(** The wire name of the request's kind (metric label / span attr). *)

val parse_request : string -> (request, Mdqa_datalog.Diag.t) result
(** Malformed JSON, a non-object, an unknown ["kind"], a missing or
    non-string ["query"], an unknown ["engine"] — all come back as an
    E024 diagnostic whose message says what was wrong. *)

(** {1 Replies} — each renders to one newline-terminated line. *)

val json_of_value : Mdqa_relational.Value.t -> Jsonl.t
(** Symbols and numbers map to JSON strings and numbers; a labeled
    null [⊥k] maps to [{"null": k}] so clients can tell open-world
    placeholders from data. *)

val json_of_tuple : Mdqa_relational.Tuple.t -> Jsonl.t

val complete_reply :
  ?id:Jsonl.t -> ?extra:(string * Jsonl.t) list ->
  answers:Mdqa_relational.Tuple.t list option -> unit -> string
(** [answers = None] omits the field (ping replies). *)

val degraded_reply :
  ?id:Jsonl.t -> ?code:string ->
  reason:string ->
  answers:Mdqa_relational.Tuple.t list option ->
  message:string ->
  unit ->
  string
(** [reason] is machine-readable (["overload"], ["deadline"],
    ["steps"], ...); the wire status is ["degraded"]. *)

val error_reply : ?id:Jsonl.t -> Mdqa_datalog.Diag.t -> string

val obj_reply : ?id:Jsonl.t -> status:string -> (string * Jsonl.t) list -> string
(** Escape hatch for structured replies (health). *)

val exhaustion_reason : Mdqa_datalog.Guard.exhaustion -> string
(** The guard resource as a wire-stable reason token. *)

(** {1 Client-side reading} *)

type reply = {
  id : Jsonl.t option;
  status : string;  (** "complete" | "degraded" | "error" *)
  code : string option;
  reason : string option;
  message : string option;
  answers : string list list option;
      (** each tuple as rendered value strings, when present *)
  json : Jsonl.t;  (** the whole reply, for fields not modeled above *)
}

val parse_reply : string -> (reply, string) result

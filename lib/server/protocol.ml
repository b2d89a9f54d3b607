module Answer = Mdqa_datalog.Answer
module Diag = Mdqa_datalog.Diag
module Guard = Mdqa_datalog.Guard
module Value = Mdqa_relational.Value
module Tuple = Mdqa_relational.Tuple

type request =
  | Query of {
      id : Jsonl.t option;
      query : string;
      engine : Answer.engine;
      timeout : float option;
      max_steps : int option;
    }
  | Health of { id : Jsonl.t option }
  | Ready of { id : Jsonl.t option }
  | Ping of { id : Jsonl.t option }
  | Metrics of { id : Jsonl.t option }
  | Spans of { id : Jsonl.t option }
  | Profile of { id : Jsonl.t option }
  | Repl_status of { id : Jsonl.t option; acked : int option }
      (** a standby's heartbeat: the primary's replication status, and
          (when [acked] is given) the standby reporting the journal
          high-water mark it has durably applied *)
  | Repl_fetch of {
      id : Jsonl.t option;
      what : [ `Snapshot | `Journal ];
      offset : int;
      len : int;
      epoch : int;
          (** the snapshot-image CRC the standby is resuming against;
          [0] starts a fresh ship *)
    }
  | Promote of { id : Jsonl.t option }

let request_id = function
  | Query { id; _ } | Health { id } | Ready { id } | Ping { id }
  | Metrics { id } | Spans { id } | Profile { id } | Repl_status { id; _ }
  | Repl_fetch { id; _ } | Promote { id } ->
    id

let request_kind = function
  | Query _ -> "query"
  | Health _ -> "health"
  | Ready _ -> "ready"
  | Ping _ -> "ping"
  | Metrics _ -> "metrics"
  | Spans _ -> "spans"
  | Profile _ -> "profile"
  | Repl_status _ -> "repl.status"
  | Repl_fetch _ -> "repl.fetch"
  | Promote _ -> "promote"

let bad message = Error (Diag.make Diag.Error ~code:"E024" message)

let parse_request line =
  match Jsonl.parse line with
  | Error msg -> bad (Printf.sprintf "request is not valid JSON: %s" msg)
  | Ok (Jsonl.Obj _ as obj) -> (
    let id = Jsonl.member "id" obj in
    match Jsonl.str_field "kind" obj with
    | None -> bad "request object has no string \"kind\" field"
    | Some "health" -> Ok (Health { id })
    | Some "ready" -> Ok (Ready { id })
    | Some "ping" -> Ok (Ping { id })
    | Some "metrics" -> Ok (Metrics { id })
    | Some "spans" -> Ok (Spans { id })
    | Some "profile" -> Ok (Profile { id })
    | Some "promote" -> Ok (Promote { id })
    | Some "repl.status" ->
      let acked = Option.map int_of_float (Jsonl.num_field "acked" obj) in
      if Option.fold ~none:false ~some:(fun n -> n < 0) acked then
        bad "acked must be non-negative"
      else Ok (Repl_status { id; acked })
    | Some "repl.fetch" -> (
      match Jsonl.str_field "what" obj with
      | Some ("snapshot" | "journal" as w) ->
        let what = if w = "snapshot" then `Snapshot else `Journal in
        let int_field name default =
          match Jsonl.num_field name obj with
          | None -> Ok default
          | Some f ->
            let n = int_of_float f in
            if n < 0 then
              Error
                (Diag.make Diag.Error ~code:"E024"
                   (Printf.sprintf "%s must be non-negative" name))
            else Ok n
        in
        let ( let* ) r f = match r with Error _ as e -> e | Ok v -> f v in
        let* offset = int_field "offset" 0 in
        let* len = int_field "len" (1 lsl 16) in
        let* epoch = int_field "epoch" 0 in
        if len < 1 then bad "len must be at least 1"
        else Ok (Repl_fetch { id; what; offset; len; epoch })
      | Some other ->
        bad
          (Printf.sprintf "unknown repl.fetch target %S (want snapshot or journal)"
             other)
      | None -> bad "repl.fetch has no string \"what\" field")
    | Some "query" -> (
      match Jsonl.str_field "query" obj with
      | None -> bad "query request has no string \"query\" field"
      | Some query -> (
        let engine =
          let name =
            Option.value ~default:"chase" (Jsonl.str_field "engine" obj)
          in
          match List.assoc_opt name Answer.engines with
          | Some engine -> Ok engine
          | None ->
            bad
              (Printf.sprintf
                 "unknown engine %S (want chase, proof or rewrite)" name)
        in
        match engine with
        | Error _ as e -> e
        | Ok engine ->
          let timeout = Jsonl.num_field "timeout" obj in
          let max_steps =
            Option.map int_of_float (Jsonl.num_field "max_steps" obj)
          in
          if Option.fold ~none:false ~some:(fun t -> t <= 0.) timeout then
            bad "timeout must be positive"
          else if Option.fold ~none:false ~some:(fun n -> n < 1) max_steps
          then bad "max_steps must be at least 1"
          else Ok (Query { id; query; engine; timeout; max_steps })))
    | Some other -> bad (Printf.sprintf "unknown request kind %S" other))
  | Ok _ -> bad "request must be a JSON object"

(* --- replies --------------------------------------------------------- *)

(* a labeled null [⊥k] is [{"null": k}], so clients can tell open-world
   placeholders from data *)
let json_of_value = function
  | Value.Sym { name; _ } -> Jsonl.Str name
  | Value.Int i -> Jsonl.Num (float_of_int i)
  | Value.Real r -> Jsonl.Num r
  | Value.Null k -> Jsonl.Obj [ ("null", Jsonl.Num (float_of_int k)) ]

let json_of_tuple t = Jsonl.List (List.map json_of_value (Tuple.to_list t))

let base ?id ~status fields =
  let id_field = match id with None -> [] | Some v -> [ ("id", v) ] in
  let buf = Buffer.create 256 in
  Jsonl.to_buffer buf
    (Jsonl.Obj ((id_field @ [ ("status", Jsonl.Str status) ]) @ fields));
  Buffer.add_char buf '\n';
  Buffer.contents buf

let answers_field = function
  | None -> []
  | Some tuples -> [ ("answers", Jsonl.List (List.map json_of_tuple tuples)) ]

let code_fields = function
  | None -> []
  | Some code -> (
    ("code", Jsonl.Str code)
    ::
    (match Diag.describe code with
     | Some m -> [ ("mnemonic", Jsonl.Str m) ]
     | None -> []))

let complete_reply ?id ?(extra = []) ~answers () =
  base ?id ~status:"complete" (answers_field answers @ extra)

let degraded_reply ?id ?code ~reason ~answers ~message () =
  base ?id ~status:"degraded"
    ([ ("degraded", Jsonl.Str reason) ]
    @ code_fields code
    @ answers_field answers
    @ [ ("message", Jsonl.Str message) ])

let error_reply ?id (d : Diag.t) =
  base ?id ~status:"error"
    (code_fields (Some d.Diag.code) @ [ ("message", Jsonl.Str d.Diag.message) ])

let obj_reply ?id ~status fields = base ?id ~status fields

let exhaustion_reason (e : Guard.exhaustion) =
  match e.Guard.resource with
  | Guard.Steps -> "steps"
  | Guard.Nulls -> "nulls"
  | Guard.Rows -> "rows"
  | Guard.Cqs -> "cqs"
  | Guard.Depth -> "depth"
  | Guard.Repair_branches -> "repair-branches"
  | Guard.Checkpoint_bytes -> "checkpoint-bytes"
  | Guard.Deadline -> "deadline"
  | Guard.Memory -> "memory"
  | Guard.Cancelled -> "cancelled"

(* --- client-side reading --------------------------------------------- *)

type reply = {
  id : Jsonl.t option;
  status : string;
  code : string option;
  reason : string option;
  message : string option;
  answers : string list list option;
  json : Jsonl.t;
}

let value_of_json = function
  | Jsonl.Str s -> s
  | Jsonl.Num f ->
    if Float.is_integer f && Float.abs f < 1e15 then
      string_of_int (int_of_float f)
    else string_of_float f
  | Jsonl.Obj [ ("null", Jsonl.Num k) ] ->
    Printf.sprintf "_:%d" (int_of_float k)
  | v -> Jsonl.to_string v

let parse_reply line =
  match Jsonl.parse line with
  | Error msg -> Error (Printf.sprintf "reply is not valid JSON: %s" msg)
  | Ok (Jsonl.Obj _ as obj) -> (
    match Jsonl.str_field "status" obj with
    | None -> Error "reply has no \"status\" field"
    | Some status ->
      let answers =
        match Jsonl.member "answers" obj with
        | Some (Jsonl.List tuples) ->
          Some
            (List.map
               (fun t ->
                 match t with
                 | Jsonl.List vs -> List.map value_of_json vs
                 | v -> [ value_of_json v ])
               tuples)
        | _ -> None
      in
      Ok
        { id = Jsonl.member "id" obj;
          status;
          code = Jsonl.str_field "code" obj;
          reason = Jsonl.str_field "degraded" obj;
          message = Jsonl.str_field "message" obj;
          answers;
          json = obj })
  | Ok _ -> Error "reply must be a JSON object"

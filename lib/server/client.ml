type t = {
  endpoints : string array;  (** at least one; [current] rotates *)
  policy : Backoff.policy;
  rand : float -> float;
  mutable current : int;
  mutable fd : Unix.file_descr option;
  ibuf : Buffer.t;
  mutable retries : int;
  mutable rotations : int;  (** failovers to another endpoint *)
}

let create ?(policy = Backoff.default_policy) ?(rand = Random.float) ~addr () =
  Fdio.ignore_sigpipe ();
  let parts =
    String.split_on_char ',' addr
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  let parts = if parts = [] then [ addr ] else parts in
  { endpoints = Array.of_list parts;
    policy;
    rand;
    current = 0;
    fd = None;
    ibuf = Buffer.create 256;
    retries = 0;
    rotations = 0 }

let disconnect t =
  (match t.fd with
   | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
   | None -> ());
  t.fd <- None;
  Buffer.clear t.ibuf

let close = disconnect
let retries t = t.retries
let rotations t = t.rotations
let current_addr t = t.endpoints.(t.current)
let endpoints t = Array.to_list t.endpoints

(* Which parsed replies are worth retrying.  An overload shed always
   is (the server said "come back later").  An E029 — the request died
   with its worker — and an H054 — the pool is below min-ready while
   workers restart — are server-side conditions a moment will almost
   surely clear, but re-sending is only safe when the request is
   idempotent; queries are, so the caller says so. *)
let should_retry_reply ~idempotent (r : Protocol.reply) =
  if r.Protocol.status = "degraded" && r.Protocol.reason = Some "overload"
  then Some "server overloaded"
  else if idempotent then
    match r.Protocol.code with
    | Some "E029" -> Some "worker crashed mid-request"
    | Some "H054" -> Some "worker pool below min-ready"
    | _ -> None
  else None

(* The refused/unreachable signature of a dead endpoint.  These happen
   at connect time — before a single request byte is sent — so
   retrying is safe even for non-idempotent requests, and they are the
   failover trigger: rotate to the next endpoint before retrying. *)
let endpoint_down = function
  | Unix.Unix_error
      ( ( Unix.ECONNREFUSED | Unix.EHOSTUNREACH | Unix.ENETUNREACH
        | Unix.ENOENT | Unix.ETIMEDOUT ),
        _, _ ) ->
    true
  | _ -> false

let connect addr =
  let connect_to domain sockaddr =
    let fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
    try
      Unix.connect fd sockaddr;
      fd
    with e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e
  in
  let tcp =
    match String.rindex_opt addr ':' with
    | Some i when i > 0 && not (String.contains addr '/') ->
      Option.map
        (fun port -> (String.sub addr 0 i, port))
        (int_of_string_opt
           (String.sub addr (i + 1) (String.length addr - i - 1)))
    | _ -> None
  in
  match tcp with
  | None -> connect_to Unix.PF_UNIX (Unix.ADDR_UNIX addr)
  | Some (host, port) ->
    let inet =
      try Unix.inet_addr_of_string host
      with _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
    in
    connect_to Unix.PF_INET (Unix.ADDR_INET (inet, port))

let ensure_connected t =
  match t.fd with
  | Some fd -> Ok fd
  | None -> (
    let addr = t.endpoints.(t.current) in
    match connect addr with
    | fd ->
      t.fd <- Some fd;
      Ok fd
    | exception e ->
      if endpoint_down e && Array.length t.endpoints > 1 then begin
        t.current <- (t.current + 1) mod Array.length t.endpoints;
        t.rotations <- t.rotations + 1
      end;
      Error (Printf.sprintf "%s: %s" addr (Printexc.to_string e)))

let read_reply t fd =
  let chunk = Bytes.create 65536 in
  let rec go () =
    let s = Buffer.contents t.ibuf in
    match String.index_opt s '\n' with
    | Some i ->
      let line = String.sub s 0 i in
      let rest = String.length s - i - 1 in
      Buffer.clear t.ibuf;
      Buffer.add_substring t.ibuf s (i + 1) rest;
      Ok line
    | None -> (
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> Error "connection closed by server"
      | n ->
        Buffer.add_subbytes t.ibuf chunk 0 n;
        go ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e))
  in
  go ()

let roundtrip ?(idempotent = true) t line =
  let bo = Backoff.start t.policy in
  (* a transient failure carries the retryable reply that caused it, if
     any: out of retries, the caller gets that structured reply — the
     server's last word — rather than a transport error *)
  let rec attempt () =
    let outcome =
      match ensure_connected t with
      (* connect-stage failure: the request was never sent, so the
         retry is safe regardless of idempotence (and may land on a
         rotated endpoint) *)
      | Error e -> `Transient (e, None)
      | Ok fd -> (
        match Fdio.write_all fd (line ^ "\n") with
        | Error e ->
          disconnect t;
          `Transient (e, None)
        | Ok () -> (
          match read_reply t fd with
          | Error e ->
            disconnect t;
            (* the request reached the server but its reply was lost
               (ECONNRESET, EOF mid-reply): it may have executed, so
               only an idempotent request may be re-sent *)
            if idempotent then `Transient (e, None)
            else `Permanent (Error (Printf.sprintf "reply lost (%s)" e))
          | Ok reply_line -> (
            match Protocol.parse_reply reply_line with
            | Error e -> `Permanent (Error e)
            | Ok r -> (
              match should_retry_reply ~idempotent r with
              | Some why -> `Transient (why, Some r)
              | None -> `Permanent (Ok r)))))
    in
    match outcome with
    | `Permanent r -> r
    | `Transient (why, last) -> (
      match Backoff.next bo ~rand:t.rand with
      | Some d ->
        t.retries <- t.retries + 1;
        Fdio.sleepf d;
        attempt ()
      | None -> (
        match last with
        | Some r -> Ok r
        | None ->
          Error
            (Printf.sprintf "retry budget exhausted after %d attempts (last: %s)"
               (Backoff.attempts bo) why)))
  in
  attempt ()

let ping t = roundtrip t {|{"kind":"ping"}|}

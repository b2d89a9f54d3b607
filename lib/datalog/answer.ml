type engine = Analysis.engine = Chase | Proof | Rewrite

let engine_name = Analysis.engine_name
let engines = List.map (fun e -> (engine_name e, e)) [ Chase; Proof; Rewrite ]

type 'a outcome =
  | Ok of 'a
  | Inconsistent of Chase.failure
  | Degraded of { partial : 'a; exhaustion : Guard.exhaustion }
  | Refused of Diag.t

let of_guarded = function
  | Guard.Complete a -> Ok a
  | Guard.Degraded (partial, exhaustion) -> Degraded { partial; exhaustion }

let of_fixpoint ?guard (r : Chase.result) q =
  let certain guard = Query.evaluate ?guard r.Chase.instance q in
  match r.Chase.outcome with
  | Chase.Failed f -> Inconsistent f
  | Chase.Saturated -> of_guarded (certain guard)
  | Chase.Out_of_budget exhaustion -> (
    (* a trip is sticky: the guard that stopped the chase would stop
       the reading of its partial instance at once *)
    let live =
      match guard with
      | Some g when Guard.exhaustion g = None -> guard
      | _ -> None
    in
    match certain live with
    | Guard.Complete partial -> Degraded { partial; exhaustion }
    | degraded -> of_guarded degraded)

let answer ?guard ?(goal_directed = false) ?max_steps engine program inst
    (q : Query.t) =
  match engine with
  | Chase ->
    let program =
      if goal_directed then
        Program.restrict_to_goals program ~goals:(List.map Atom.pred q.body)
      else program
    in
    of_fixpoint ?guard (Chase.run ?guard program inst) q
  | Proof | Rewrite -> (
    match Analysis.scope (Analysis.analyse program) engine with
    | Error why ->
      Refused
        (Diag.make Diag.Error ~code:"E033"
           (Printf.sprintf "engine %s is out of scope (%s); the chase always \
                            applies"
              (engine_name engine) why))
    | Ok () when engine = Proof ->
      of_guarded (Proof.answer ?guard ?max_steps program inst q).Proof.answers
    | Ok () -> of_guarded (Rewrite.answers ?guard program inst q))

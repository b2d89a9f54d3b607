module Tuple = Mdqa_relational.Tuple

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

exception Undecided of Guard.exhaustion

(* Consistency through the answering engine (arXiv:1312.7373 §III),
   EGDs first as in a chase round.  An NC's witness is the first
   null-free match of its body, else empty.  A proof found before a
   trip counts.  @raise Undecided on a trip with none. *)
let violation ask (program : Program.t) =
  let answers ?cmps head body = ask (Query.make ?cmps ~head body) in
  let first ?cmps head body =
    match answers ?cmps head body with
    | Guard.Degraded ([], e) -> raise (Undecided e)
    | o -> List.nth_opt (Guard.value o) 0
  in
  let clash (egd : Egd.t) =
    let l = egd.Egd.lhs and r = egd.Egd.rhs in
    first ~cmps:[ Atom.Cmp.make Atom.Cmp.Neq l r ] [ l; r ] egd.Egd.body
    |> Option.map (fun t ->
           Chase.Egd_clash { egd; left = Tuple.get t 0; right = Tuple.get t 1 })
  in
  let violated (nc : Nc.t) =
    let vars = Term.Var_set.elements (Nc.body_vars nc) and cmps = nc.Nc.cmps in
    first ~cmps [] nc.Nc.body
    |> Option.map (fun _ ->
           let witness =
             match
               Guard.value (answers ~cmps (List.map Term.var vars) nc.Nc.body)
             with
             | t :: _ ->
               Subst.of_list
                 (List.mapi (fun i v -> (v, Term.Const (Tuple.get t i))) vars)
             | [] -> Subst.empty
           in
           Chase.Nc_violation { nc; witness })
  in
  match List.find_map clash program.Program.egds with
  | None -> List.find_map violated program.Program.ncs
  | failure -> failure

let answer ?guard engine program inst (q : Query.t) =
  match engine with
  | Chase ->
    let goals = List.map Atom.pred q.body in
    of_fixpoint ?guard
      (Chase.run ?guard (Program.restrict_to_goals program ~goals) inst)
      q
  | Proof | Rewrite -> (
    match Analysis.scope (Analysis.analyse program) engine with
    | Error why ->
      Refused
        (Diag.make Diag.Error ~code:"E033"
           (Printf.sprintf "engine %s is out of scope (%s); the chase always \
                            applies"
              (engine_name engine) why))
    | Ok () -> (
      let ask q =
        (if engine = Proof then Proof.answer else Rewrite.answers)
          ?guard program inst q
      in
      match violation ask program with
      | Some f -> Inconsistent f
      | None -> of_guarded (ask q)
      | exception Undecided exhaustion -> Degraded { partial = []; exhaustion }))

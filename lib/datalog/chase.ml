let log_src = Logs.Src.create "mdqa.chase" ~doc:"Datalog± chase engine"

module Log = (val Logs.src_log log_src)

module Instance = Mdqa_relational.Instance
module Relation = Mdqa_relational.Relation
module Tuple = Mdqa_relational.Tuple
module Value = Mdqa_relational.Value
module Metrics = Mdqa_obs.Metrics
module Trace = Mdqa_obs.Trace
module Profile = Mdqa_obs.Profile

type variant = Restricted | Oblivious

type failure =
  | Egd_clash of { egd : Egd.t; left : Value.t; right : Value.t }
  | Nc_violation of { nc : Nc.t; witness : Subst.t }

type outcome =
  | Saturated
  | Out_of_budget of Guard.exhaustion
  | Failed of failure

type stats = {
  rounds : int;
  tgd_fires : int;
  triggers_checked : int;
  nulls_created : int;
  egd_merges : int;
}

type derivation = {
  rule : string;
  premises : (string * Tuple.t) list;
}

type result = {
  instance : Instance.t;
  outcome : outcome;
  stats : stats;
  provenance : ((string * Tuple.t), derivation) Hashtbl.t option;
}

type checkpoint = {
  on_start : Instance.t -> unit;
  on_fact : string -> Tuple.t -> unit;
  on_merge : from_:Value.t -> into:Value.t -> unit;
  on_round :
    instance:Instance.t ->
    frontier:(string * Tuple.t list) list option ->
    stats ->
    unit;
  on_done : instance:Instance.t -> outcome -> stats -> unit;
}

let zero_stats =
  { rounds = 0;
    tgd_fires = 0;
    triggers_checked = 0;
    nulls_created = 0;
    egd_merges = 0 }

exception Stop of outcome

(* Largest null label in the instance, so fresh nulls never collide. *)
let max_null_id inst =
  let m = ref 0 in
  Instance.iter_facts
    (fun _ t ->
      List.iter
        (function Value.Null k -> m := max !m k | _ -> ())
        (Tuple.to_list t))
    inst;
  !m

(* A trigger identity for the oblivious chase: rule name plus the image
   of its body under the match. *)
let trigger_key (tgd : Tgd.t) subst =
  ( tgd.Tgd.name,
    List.map
      (fun a -> Atom.to_tuple (Subst.apply_atom subst a))
      tgd.Tgd.body )

type start =
  | Resume of {
      frontier : (string * Tuple.t) list;
      null_base : int;
      prior_stats : stats;
    }
  | Extend of { prior : result; facts : (string * Tuple.t) list }

(* What one run did to one rule: the only place chase work is counted.
   [stats], the metrics registry and an installed profiler are all
   written from these. *)
type rule_count = {
  mutable fires : int;
  mutable triggers : int;
  mutable matches : int;
  mutable seconds : float;
}

let run ?(variant = Restricted) ?(semi_naive = true) ?(provenance = false)
    ?guard ?checkpoint ?metrics ?start program instance =
  let guard =
    match guard with
    | Some g -> g
    | None -> Guard.create ~max_steps:1_000_000 ~max_nulls:100_000 ()
  in
  let inst = Instance.copy instance in
  (* [seed] becomes the first round's semi-naive delta; without one the
     first round evaluates every rule body in full. *)
  let null_base, prior, seed, prov =
    match start with
    | None -> (0, zero_stats, None, None)
    | Some (Resume { frontier; null_base; prior_stats }) ->
      (* An empty frontier would make the seeded loop stop at once
         whatever the image holds: run a full first round instead
         (always sound, cheap if truly saturated). *)
      let seed = match frontier with [] -> None | l -> Some l in
      (null_base, prior_stats, seed, None)
    | Some (Extend { prior = { outcome = Saturated; provenance; _ }; facts }) ->
      (0, zero_stats, Some facts, Option.map Hashtbl.copy provenance)
    | Some (Extend { prior; facts }) ->
      (* A prior that never saturated has no sound delta: chase it plus
         the new facts from scratch. *)
      List.iter
        (fun (pred, t) -> ignore (Instance.add_tuple inst pred t))
        facts;
      ( 0,
        zero_stats,
        None,
        Option.map (fun _ -> Hashtbl.create 256) prior.provenance )
  in
  let prov : ((string * Tuple.t), derivation) Hashtbl.t option =
    match prov with
    | Some _ -> prov
    | None -> if provenance then Some (Hashtbl.create 256) else None
  in
  Program.declare_predicates program inst;
  List.iter
    (fun f -> ignore (Instance.add_tuple inst (Atom.pred f) (Atom.to_tuple f)))
    program.Program.facts;
  (* Fresh nulls must dodge both the nulls visible in the instance and
     (on resume) every null the prior run ever invented — a persisted
     [null_base] covers nulls that were merged away. *)
  let fresh =
    Value.Fresh.create ~start:(max (max_null_id inst + 1) null_base) ()
  in
  let ck f = match checkpoint with Some c -> f c | None -> () in
  let fired : (string * Tuple.t list, unit) Hashtbl.t = Hashtbl.create 256 in
  let rounds = ref 0 and merges = ref 0 and facts = ref 0 in
  let rule_counts : (string, rule_count) Hashtbl.t = Hashtbl.create 16 in
  let rule_count name =
    match Hashtbl.find_opt rule_counts name with
    | Some c -> c
    | None ->
      let c = { fires = 0; triggers = 0; matches = 0; seconds = 0. } in
      Hashtbl.add rule_counts name c;
      c
  in
  let sum f = Hashtbl.fold (fun _ c acc -> acc + f c) rule_counts 0 in
  let current_stats () =
    { rounds = prior.rounds + !rounds;
      tgd_fires = prior.tgd_fires + sum (fun c -> c.fires);
      triggers_checked = prior.triggers_checked + sum (fun c -> c.triggers);
      nulls_created = prior.nulls_created + Value.Fresh.count fresh;
      egd_merges = prior.egd_merges + !merges }
  in
  (* [prof] is sampled once per run — installing a profiler mid-chase
     attributes from the next run on.  Rule time is only read off its
     clock, so an unprofiled run never reads one. *)
  let prof = Profile.installed () in
  let now =
    match prof with Some p -> fun () -> Profile.now p | None -> fun () -> 0.
  in
  (* Publish this run's counts to the registry and the profiler. *)
  let record () =
    (match metrics with
     | None -> ()
     | Some m ->
       let add name help n = Metrics.add (Metrics.counter m ~help name) n in
       add "mdqa_chase_rounds_total" "chase rounds completed" !rounds;
       add "mdqa_chase_triggers_total" "chase triggers checked"
         (sum (fun c -> c.triggers));
       add "mdqa_chase_tgd_fires_total" "TGD firings that derived a new fact"
         (sum (fun c -> c.fires));
       add "mdqa_chase_nulls_total" "labelled nulls minted"
         (Value.Fresh.count fresh);
       add "mdqa_chase_egd_merges_total" "EGD null merges applied" !merges;
       add "mdqa_chase_facts_total" "facts derived by TGD heads" !facts;
       Hashtbl.iter
         (fun rule c ->
           if c.fires > 0 then
             Metrics.add
               (Metrics.counter m ~help:"TGD firings per rule"
                  ~labels:[ ("rule", rule) ] "mdqa_chase_rule_fires_total")
               c.fires)
         rule_counts);
    match prof with
    | None -> ()
    | Some p ->
      Hashtbl.iter
        (fun rule c ->
          Profile.add_rule p rule
            { Profile.fires = c.fires; triggers = c.triggers;
              matches = c.matches; rule_seconds = c.seconds })
        rule_counts
  in
  (* Per-predicate tuple sets: a round's additions, which become the
     next round's delta, and the images of an EGD pass. *)
  let mem_in tbl pred t =
    match Hashtbl.find_opt tbl pred with
    | Some s -> Tuple.Set.mem t s
    | None -> false
  in
  let tuples_in tbl pred =
    match Hashtbl.find_opt tbl pred with
    | Some s -> Tuple.Set.elements s
    | None -> []
  in
  let set_of tbl pred =
    Option.value ~default:Tuple.Set.empty (Hashtbl.find_opt tbl pred)
  in
  let delta = ref (Hashtbl.create 16) in
  (* Instantiate the head of [tgd] under [subst], inventing fresh nulls
     for existential variables; returns the ground head atoms. *)
  let instantiate_head (tgd : Tgd.t) subst =
    let subst =
      Term.Var_set.fold
        (fun v s ->
          Guard.count_null guard;
          Subst.bind_exn s v (Term.Const (Value.Fresh.next fresh)))
        (Tgd.existential_vars tgd) subst
    in
    List.map (Subst.apply_atom subst) tgd.Tgd.head
  in

  (* Restricted-chase applicability: is there an extension of the match
     sending every head atom into the instance? *)
  let head_satisfied (tgd : Tgd.t) subst =
    Eval.exists ~guard inst (List.map (Subst.apply_atom subst) tgd.Tgd.head)
  in

  let fire_trigger added count (tgd : Tgd.t) subst =
    count.triggers <- count.triggers + 1;
    Guard.count_step guard;
    let proceed =
      match variant with
      | Restricted -> not (head_satisfied tgd subst)
      | Oblivious ->
        let key = trigger_key tgd subst in
        if Hashtbl.mem fired key then false
        else begin
          Hashtbl.add fired key ();
          true
        end
    in
    if proceed then begin
      let head = instantiate_head tgd subst in
      let new_fact = ref false in
      let premises =
        lazy
          (List.map
             (fun a ->
               let ga = Subst.apply_atom subst a in
               (Atom.pred ga, Atom.to_tuple ga))
             tgd.Tgd.body)
      in
      List.iter
        (fun a ->
          let t = Atom.to_tuple a in
          if Instance.add_tuple inst (Atom.pred a) t then begin
            new_fact := true;
            incr facts;
            ck (fun c -> c.on_fact (Atom.pred a) t);
            (match prov with
             | Some tbl ->
               if not (Hashtbl.mem tbl (Atom.pred a, t)) then
                 Hashtbl.replace tbl (Atom.pred a, t)
                   { rule = tgd.Tgd.name; premises = Lazy.force premises }
             | None -> ());
            Hashtbl.replace added (Atom.pred a)
              (Tuple.Set.add t (set_of added (Atom.pred a)))
          end)
        head;
      if !new_fact then count.fires <- count.fires + 1
    end
  in

  (* Enforce EGDs to fixpoint, one pass at a time.  A pass searches
     every EGD body once — in full when [within] is [None] or the chase
     is naive, otherwise for matches touching a tuple of [within] — and
     resolves each violation through a union-find over values: a null
     goes into the other side (lhs into rhs when both are nulls), two
     constant roots clash.  It then rewrites the instance and the
     provenance table once, and replaces in [fresh] the tuples it moved
     by their images.  A violation the rewrite leaves or makes touches
     an image, so the next pass searches only those. *)
  let apply_egds ~full fresh =
    if program.Program.egds <> [] then
      Profile.with_phase "egd" @@ fun () ->
      let rec pass within =
        let parent = Hashtbl.create 16 in
        let rec find v =
          match Hashtbl.find_opt parent v with
          | None -> v
          | Some p ->
            let r = find p in
            Hashtbl.replace parent v r;
            r
        in
        let resolve (egd : Egd.t) s =
          match (Subst.apply_term s egd.Egd.lhs, Subst.apply_term s egd.Egd.rhs) with
          | Term.Const x, Term.Const y ->
            let x = find x and y = find y in
            if not (Value.equal x y) then begin
              let from_, into =
                match (Value.is_null x, Value.is_null y) with
                | true, _ -> (x, y)
                | false, true -> (y, x)
                | false, false ->
                  raise (Stop (Failed (Egd_clash { egd; left = x; right = y })))
              in
              Hashtbl.replace parent from_ into;
              ck (fun c -> c.on_merge ~from_ ~into);
              incr merges;
              Log.debug (fun m ->
                  m "EGD %s merged %a into %a" egd.Egd.name Value.pp from_
                    Value.pp into)
            end
          | _ -> ()
        in
        let rewrite () =
          let sigma =
            Hashtbl.fold
              (fun v _ m -> Value.Map.add v (find v) m)
              parent Value.Map.empty
          in
          let image =
            Tuple.map (fun v ->
                Option.value ~default:v (Value.Map.find_opt v sigma))
          in
          let remap (pred, t) = (pred, image t) in
          Option.iter
            (fun tbl ->
              let entries = List.of_seq (Hashtbl.to_seq tbl) in
              Hashtbl.reset tbl;
              List.iter
                (fun (k, d) ->
                  Hashtbl.replace tbl (remap k)
                    { d with premises = List.map remap d.premises })
                entries)
            prov;
          let images = Instance.substitute inst sigma in
          List.iter
            (fun (pred, moved) ->
              let rel = Instance.get inst pred in
              Hashtbl.replace fresh pred
                (Tuple.Set.union moved
                   (Tuple.Set.filter (Relation.mem rel) (set_of fresh pred))))
            images;
          Hashtbl.of_seq (List.to_seq images)
        in
        let before = !merges in
        (try
           List.iter
             (fun (egd : Egd.t) ->
               List.iter (resolve egd)
                 (match within with
                  | Some d when semi_naive ->
                    Eval.delta_answers ~guard inst ~delta:(mem_in d)
                      ~delta_tuples:(tuples_in d) egd.Egd.body
                  | _ -> Eval.answers ~guard inst egd.Egd.body))
             program.Program.egds
         with e ->
           (* a clash or a trip leaves the instance as journaled *)
           ignore (rewrite ());
           raise e);
        if !merges > before then
          pass
            (Some
               (Trace.with_span "egd.merge"
                  ~attrs:[ ("merges", string_of_int (!merges - before)) ]
                  rewrite))
      in
      pass (if full then None else Some fresh)
  in

  let check_ncs () =
    if program.Program.ncs <> [] then
      Profile.with_phase "nc" @@ fun () ->
      List.iter
        (fun (nc : Nc.t) ->
          match Eval.first ~guard ~cmps:nc.Nc.cmps inst nc.Nc.body with
          | Some witness ->
            Log.info (fun m ->
                m "constraint %s violated under %a" nc.Nc.name Subst.pp
                  witness);
            raise (Stop (Failed (Nc_violation { nc; witness })))
          | None -> ())
        program.Program.ncs
  in

  let outcome =
    Fun.protect ~finally:record @@ fun () ->
    Profile.with_phase "chase" @@ fun () ->
    try
      (* The durable base image: everything below is journaled as a
         delta against the instance at this point. *)
      ck (fun c -> c.on_start inst);
      let first_round = ref true in
      (* Incremental mode: the resumed or added facts seed the delta
         and the chase is semi-naive from its first round on. *)
      let seeded = Hashtbl.create 16 in
      Option.iter
        (List.iter (fun (pred, t) ->
             if Instance.add_tuple inst pred t then
               ck (fun c -> c.on_fact pred t);
             Hashtbl.replace seeded pred (Tuple.Set.add t (set_of seeded pred))))
        seed;
      (* EGDs and NCs must hold of the starting instance too: one full
         search, after which every EGD search is delta-driven. *)
      apply_egds ~full:true seeded;
      check_ncs ();
      if semi_naive && seed <> None then begin
        delta := seeded;
        first_round := false
      end;
      let continue = ref true in
      while !continue do
        Mdqa_obs.Failpoint.hit "chase.round";
        incr rounds;
        let round_no = !rounds in
        Log.debug (fun m ->
            m "round %d (%d facts so far)" round_no
              (Instance.total_tuples inst));
        Trace.with_span "chase.round"
          ~attrs:[ ("round", string_of_int round_no) ]
        @@ fun () ->
        Profile.with_round round_no
        @@ fun () ->
        let added : (string, Tuple.Set.t) Hashtbl.t = Hashtbl.create 16 in
        List.iter
          (fun (tgd : Tgd.t) ->
            let count = rule_count tgd.Tgd.name in
            let t0 = now () in
            let apply () =
              let enumerate () =
                if semi_naive && not !first_round then
                  Eval.delta_answers ~guard inst ~delta:(mem_in !delta)
                    ~delta_tuples:(tuples_in !delta) tgd.Tgd.body
                else Eval.answers ~guard inst tgd.Tgd.body
              in
              (* Atom-level scan/match statistics attribute to this rule
                 only during its own body enumeration — applicability
                 probes and EGD checks stay out of the tables. *)
              let triggers =
                match prof with
                | Some p -> Profile.with_scope p tgd.Tgd.name enumerate
                | None -> enumerate ()
              in
              count.matches <- count.matches + List.length triggers;
              (* For the restricted chase, matches differing only on
                 head-irrelevant body variables are the same trigger;
                 dedup on the frontier to avoid redundant head checks.
                 The oblivious chase fires per full body match. *)
              let key_vars =
                match variant with
                | Restricted -> Tgd.frontier tgd
                | Oblivious -> Tgd.body_vars tgd
              in
              let seen = Hashtbl.create 16 in
              List.iter
                (fun s ->
                  let key =
                    List.filter_map
                      (fun v -> Subst.value_of s v)
                      (Term.Var_set.elements key_vars)
                  in
                  if not (Hashtbl.mem seen key) then begin
                    Hashtbl.add seen key ();
                    fire_trigger added count tgd s
                  end)
                triggers
            in
            (* One span per rule per round, around its enumeration and
               firing: a span per trigger would cost more than the
               tracer's budget on large rounds. *)
            if Trace.active () then
              Trace.with_span "rule.fire"
                ~attrs:[ ("rule", tgd.Tgd.name) ]
                apply
            else apply ();
            count.seconds <- count.seconds +. (now () -. t0))
          program.Program.tgds;
        let before = !merges in
        apply_egds ~full:false added;
        check_ncs ();
        (* Semi-naive survives merges: [added] now holds the images. *)
        let merged = !merges > before in
        delta := added;
        first_round := false;
        continue := Hashtbl.length added > 0;
        (* Round boundary: a durable point.  The frontier is the delta
           just installed; [None] after a merge, so that a resume (whose
           journal replay cannot tell images apart) runs a full round. *)
        ck (fun c ->
            let frontier =
              if merged then None
              else
                Some
                  (Hashtbl.fold
                     (fun pred s acc -> (pred, Tuple.Set.elements s) :: acc)
                     !delta []
                  |> List.sort (fun (a, _) (b, _) -> String.compare a b))
            in
            c.on_round ~instance:inst ~frontier (current_stats ()))
      done;
      Saturated
    with
    | Stop o -> o
    | Guard.Exhausted e -> Out_of_budget e
  in
  let stats = current_stats () in
  ck (fun c -> c.on_done ~instance:inst outcome stats);
  { instance = inst; outcome; provenance = prov; stats }

let pp_outcome ppf = function
  | Saturated -> Format.pp_print_string ppf "saturated"
  | Out_of_budget e ->
    Format.fprintf ppf "out of budget: %a" Guard.pp_exhaustion e
  | Failed (Egd_clash { egd; left; right }) ->
    Format.fprintf ppf "failed: EGD %s equates distinct constants %a and %a"
      egd.Egd.name Value.pp left Value.pp right
  | Failed (Nc_violation { nc; witness }) ->
    Format.fprintf ppf "failed: constraint %s violated under %a" nc.Nc.name
      Subst.pp witness

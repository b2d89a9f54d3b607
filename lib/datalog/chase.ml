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

let add_stats a b =
  { rounds = a.rounds + b.rounds;
    tgd_fires = a.tgd_fires + b.tgd_fires;
    triggers_checked = a.triggers_checked + b.triggers_checked;
    nulls_created = a.nulls_created + b.nulls_created;
    egd_merges = a.egd_merges + b.egd_merges }

exception Stop of outcome

(* Largest null label in the instance, so fresh nulls never collide. *)
let max_null_id inst =
  let m = ref 0 in
  let note = function Value.Null k -> m := max !m k; false | _ -> false in
  Instance.iter_facts (fun _ t -> ignore (Tuple.exists note t)) inst;
  !m

type start =
  | Resume of {
      frontier : (string * Tuple.t) list;
      null_base : int;
      prior_stats : stats;
    }
  | Extend of { prior : result; facts : (string * Tuple.t) list }

(* An argument of an atom over a rule's match: a constant, a body slot
   (see {!Eval.slot_vars}), or the index of an existential variable. *)
type arg = Const of Value.t | Slot of int | Exist of int

(* A TGD compiled once per run, and what the run did with it: the only
   place chase work is counted ([stats], the metrics registry and an
   installed profiler are all written from these; [times], read off the
   profiler's clock only, are enumerate, head probe, insert and the
   rule's total).  [key] are the slots of the frontier variables
   [frontier]; [fired] holds the oblivious chase's fired matches.
   [mark] is the stamp clock when the rule's last enumeration began
   (-1: never), so its delta is every fact stamped since. *)
type rule = {
  tgd : Tgd.t;
  key : int array;
  frontier : string array;
  exist : int;
  heads : (Relation.t * arg array) list;
  body : (string * arg array) list;
  fired : unit Tuple.Tbl.t;
  mutable mark : int;
  mutable fires : int;
  mutable triggers : int;
  mutable matches : int;
  times : float array;
}

(* A predicate's stamp log, newest first, and the stamp of its newest
   seed or EGD image (-1: none): the only entries that may repeat a
   fact or outlive it. *)
type log = { mutable stamps : (int * Tuple.t) list; mutable reused : int }

let slot_of vars v =
  let rec go i = if vars.(i) = v then i else go (i + 1) in
  go 0

let compile inst (tgd : Tgd.t) =
  let vars = Eval.slot_vars tgd.Tgd.body in
  let slot = slot_of vars in
  let exist = Term.Var_set.elements (Tgd.existential_vars tgd) in
  let arg = function
    | Term.Const c -> Const c
    | Term.Var v when Array.mem v vars -> Slot (slot v)
    | Term.Var v -> Exist (List.length (List.filter (fun x -> x < v) exist))
  in
  let atoms =
    List.map (fun (a : Atom.t) -> (Atom.pred a, Array.map arg a.Atom.args))
  in
  let frontier = Array.of_list (Term.Var_set.elements (Tgd.frontier tgd)) in
  { tgd; key = Array.map slot frontier; frontier;
    exist = List.length exist;
    heads =
      List.map (fun (p, a) -> (Instance.get inst p, a)) (atoms tgd.Tgd.head);
    body = atoms tgd.Tgd.body; fired = Tuple.Tbl.create 16; mark = -1;
    fires = 0; triggers = 0; matches = 0; times = Array.make 4 0. }

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
  (* Fresh nulls must dodge both the nulls visible in the instance and
     (on resume) every null the prior run ever invented — a persisted
     [null_base] covers nulls that were merged away. *)
  let fresh =
    Value.Fresh.create ~start:(max (max_null_id inst + 1) null_base) ()
  in
  let ck f = match checkpoint with Some c -> f c | None -> () in
  let rounds = ref 0 and merges = ref 0 and facts = ref 0 in
  let rules = List.map (compile inst) program.Program.tgds in
  (* This run's counts so far, built in one pass over the rules; the
     run's [stats] add them to [prior]'s. *)
  let run_stats () =
    List.fold_left
      (fun s r ->
        { s with
          tgd_fires = s.tgd_fires + r.fires;
          triggers_checked = s.triggers_checked + r.triggers })
      { zero_stats with
        rounds = !rounds;
        nulls_created = Value.Fresh.count fresh;
        egd_merges = !merges }
      rules
  in
  let current_stats () = add_stats prior (run_stats ()) in
  (* [prof] is sampled once per run — installing a profiler mid-chase
     attributes from the next run on.  Rule time is only read off its
     clock, so an unprofiled run never reads one. *)
  let prof = Profile.installed () in
  let now =
    match prof with Some p -> fun () -> Profile.now p | None -> fun () -> 0.
  in
  (* Add the time since [t0] to [r]'s part [i]; the clock reading. *)
  let lap r i t0 =
    match prof with
    | None -> 0.
    | Some _ ->
      let t = now () in
      r.times.(i) <- r.times.(i) +. (t -. t0);
      t
  in
  (* Publish this run's counts to the registry and the profiler: the
     totals once, then each rule's row to both sinks in one pass. *)
  let record () =
    let add ?labels name help n =
      Option.iter
        (fun m -> Metrics.add (Metrics.counter m ~help ?labels name) n)
        metrics
    in
    let d = run_stats () in
    add "mdqa_chase_rounds_total" "chase rounds completed" d.rounds;
    add "mdqa_chase_triggers_total" "chase triggers checked"
      d.triggers_checked;
    add "mdqa_chase_tgd_fires_total" "TGD firings that derived a new fact"
      d.tgd_fires;
    add "mdqa_chase_nulls_total" "labelled nulls minted" d.nulls_created;
    add "mdqa_chase_egd_merges_total" "EGD null merges applied" d.egd_merges;
    add "mdqa_chase_facts_total" "facts derived by TGD heads" !facts;
    List.iter
      (fun r ->
        if r.fires > 0 then
          add ~labels:[ ("rule", r.tgd.Tgd.name) ] "mdqa_chase_rule_fires_total"
            "TGD firings per rule" r.fires;
        Option.iter
          (fun p ->
            Profile.add_rule p r.tgd.Tgd.name
              { Profile.fires = r.fires; triggers = r.triggers;
                matches = r.matches; rule_seconds = r.times.(3);
                enumerate_seconds = r.times.(0); probe_seconds = r.times.(1);
                insert_seconds = r.times.(2) })
          prof)
      rules
  in
  (* The stamp logs: every fact the run adds, seeds and EGD images
     included, each with its stamp from one run-wide [clock]; [added]
     says the stamp is the fact's insertion. *)
  let logs = Hashtbl.create 16 and clock = ref 0 in
  let log_of pred =
    try Hashtbl.find logs pred
    with Not_found -> { stamps = []; reused = -1 }
  in
  let stamp added pred t =
    let l = log_of pred in
    if l.stamps == [] then Hashtbl.add logs pred l;
    l.stamps <- (!clock, t) :: l.stamps;
    if not added then l.reused <- !clock;
    incr clock
  in
  (* The facts of [preds] stamped at or after [mark] and still present
     (an EGD rewrite moves facts away): per predicate, sorted by name,
     in ascending order and each once.  When no stamp since [mark] is a
     seed or an image (a rewrite stamps the image of each fact it
     moves), those stamps inserted distinct facts still present, and as
     many as the relation holds means all of it. *)
  let window mark preds =
    List.filter_map
      (fun pred ->
        let rel = Instance.get inst pred and l = log_of pred in
        let rec since acc = function
          | (s, t) :: rest when s >= mark -> since (t :: acc) rest
          | _ -> acc
        in
        let ts = since [] l.stamps in
        match
          if l.reused < mark && List.length ts = Relation.cardinal rel then
            Relation.to_list rel
          else List.sort_uniq Tuple.compare (List.filter (Relation.mem rel) ts)
        with
        | [] -> None
        | ts -> Some (pred, ts))
      (List.sort_uniq String.compare preds)
  in
  (* Enumerate [body] for an EGD or rule whose last search began at
     [mark]: in full the first time or when the chase is naive,
     otherwise only the matches using a fact stamped since. *)
  let enumerate mark body emit =
    if semi_naive && mark >= 0 then
      let w = window mark (List.map Atom.pred body) in
      Eval.iter_matches ~guard inst
        ~delta:(fun p -> Option.value ~default:[] (List.assoc_opt p w))
        body emit
    else Eval.iter_matches ~guard inst body emit
  in

  (* One run of a rule: enumerate its delta (or its whole body), keeping
     a copy of the slots of each new trigger, then fire the triggers in
     enumeration order against the instance as it grows. *)
  let run_rule r =
    let t0 = now () and mark = r.mark and triggers = ref [] in
    r.mark <- !clock;
    let seen = Tuple.Tbl.create 16 in
    let on_match slots =
      r.matches <- r.matches + 1;
      (* The restricted chase dedups matches differing only off the
         frontier.  The oblivious chase enumerates each body match once;
         [fired] rejects those fired before. *)
      if variant = Oblivious
         ||
         let key = Tuple.unsafe_of_array (Array.map (Array.get slots) r.key) in
         (not (Tuple.Tbl.mem seen key)) && (Tuple.Tbl.add seen key (); true)
      then triggers := Array.copy slots :: !triggers
    in
    (* Atom-level scan/match statistics attribute to this rule only
       during its own body enumeration — head probes and EGD checks
       stay out of the tables. *)
    (match prof with
     | Some p ->
       Profile.with_scope p r.tgd.Tgd.name (fun () ->
           enumerate mark r.tgd.Tgd.body on_match)
     | None -> enumerate mark r.tgd.Tgd.body on_match);
    (* the clock at the end of the last timed part: a trigger's probe
       starts where the previous trigger ended *)
    let last = ref (lap r 0 t0) in
    let head_probe =
      if r.exist = 0 then None
      else Some (Eval.prober ~guard inst ~bound:r.frontier r.tgd.Tgd.head)
    in
    let fire slots =
      r.triggers <- r.triggers + 1;
      Guard.count_step guard;
      let build nulls args =
        Tuple.unsafe_of_array
          (Array.map
             (function
               | Const c -> c | Slot s -> slots.(s) | Exist e -> nulls.(e))
             args)
      in
      (* Restricted-chase applicability: is there an extension of the
         match sending every head atom into the instance?  A ground head
         has just one, so its inserts are the test: a trigger that adds
         nothing counts one row, as a probe that finds the head does. *)
      let proceed =
        match (variant, head_probe) with
        | Oblivious, _ ->
          let key = Tuple.unsafe_of_array slots in
          (not (Tuple.Tbl.mem r.fired key))
          && (Tuple.Tbl.add r.fired key (); true)
        | Restricted, Some probe ->
          not (probe (Array.map (Array.get slots) r.key))
        | Restricted, None -> true
      in
      last := lap r 1 !last;
      if proceed then begin
        let nulls =
          Array.init r.exist (fun _ ->
              Guard.count_null guard;
              Value.Fresh.next fresh)
        in
        let before = !facts in
        List.iter
          (fun (rel, a) ->
            let t = build nulls a in
            if Relation.add rel t then begin
              incr facts;
              let pred = Relation.name rel in
              stamp true pred t;
              ck (fun c -> c.on_fact pred t);
              match prov with
              | Some tbl when not (Hashtbl.mem tbl (pred, t)) ->
                Hashtbl.replace tbl (pred, t)
                  { rule = r.tgd.Tgd.name;
                    premises =
                      List.map (fun (p, a) -> (p, build [||] a)) r.body }
              | _ -> ()
            end)
          r.heads;
        if !facts > before then r.fires <- r.fires + 1
        else if variant = Restricted then Guard.count_row guard;
        last := lap r 2 !last
      end
    in
    List.iter fire (List.rev !triggers);
    ignore (lap r 3 t0)
  in

  (* Enforce EGDs to fixpoint, one pass at a time.  A pass searches
     every EGD body once — in full the first time or when the chase is
     naive, otherwise for matches touching a fact stamped since that
     EGD's last search began — and resolves each violation through a
     union-find over values: a null goes into the other side (lhs into
     rhs when both are nulls), two constant roots clash.  It then
     rewrites the instance and the provenance table once and stamps the
     images of the tuples it moved, so the next pass (and every rule)
     sees them as new: a violation the rewrite leaves or makes touches
     an image. *)
  let egds =
    List.map
      (fun (egd : Egd.t) ->
        let vars = Eval.slot_vars egd.Egd.body in
        let side = function
          | Term.Const c -> Fun.const c
          | Term.Var v ->
            let s = slot_of vars v in
            fun slots -> slots.(s)
        in
        (egd, side egd.Egd.lhs, side egd.Egd.rhs, ref (-1)))
      program.Program.egds
  in
  let apply_egds () =
    if egds <> [] then
      Trace.with_span "egd" @@ fun () ->
      let rec pass () =
        let parent = Hashtbl.create 16 in
        let rec find v =
          match Hashtbl.find_opt parent v with
          | None -> v
          | Some p ->
            let r = find p in
            Hashtbl.replace parent v r;
            r
        in
        let resolve (egd, lhs, rhs, _) slots =
          let x = find (lhs slots) and y = find (rhs slots) in
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
          List.iter
            (fun (pred, moved) ->
              Tuple.Set.iter (stamp false pred) moved)
            (Instance.substitute inst sigma)
        in
        let before = !merges in
        (try
           List.iter
             (fun ((egd : Egd.t), _, _, mark as e) ->
               let m = !mark in
               mark := !clock;
               enumerate m egd.Egd.body (resolve e))
             egds
         with e ->
           (* a clash or a trip leaves the instance as journaled *)
           rewrite ();
           raise e);
        if !merges > before then begin
          Trace.with_span "egd.merge"
            ~attrs:[ ("merges", string_of_int (!merges - before)) ]
            rewrite;
          pass ()
        end
      in
      pass ()
  in

  let check_ncs () =
    if program.Program.ncs <> [] then
      Trace.with_span "nc" @@ fun () ->
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
    Trace.with_span "chase" @@ fun () ->
    try
      (* The durable base image: everything below is journaled as a
         delta against the instance at this point. *)
      ck (fun c -> c.on_start inst);
      (* Incremental mode: the resumed or added facts are stamped first,
         and every rule's first enumeration is their delta. *)
      Option.iter
        (List.iter (fun (pred, t) ->
             let added = Instance.add_tuple inst pred t in
             if added then ck (fun c -> c.on_fact pred t);
             stamp added pred t))
        seed;
      if seed <> None then List.iter (fun r -> r.mark <- 0) rules;
      (* EGDs and NCs must hold of the starting instance too: one full
         search, after which every EGD search is delta-driven. *)
      apply_egds ();
      check_ncs ();
      let continue = ref true in
      while !continue do
        Mdqa_obs.Failpoint.hit "chase.round";
        incr rounds;
        let round_no = !rounds and round_start = !clock in
        Log.debug (fun m ->
            m "round %d (%d facts so far)" round_no
              (Instance.total_tuples inst));
        Trace.with_span "chase.round"
          ~attrs:[ ("round", string_of_int round_no) ]
        @@ fun () ->
        List.iter
          (fun r ->
            (* One scope per rule per round, around its enumeration and
               firing: a scope per trigger would cost more than the
               tracer's budget on large rounds. *)
            if Trace.active () then
              Trace.with_span "rule.fire"
                ~attrs:[ ("rule", r.tgd.Tgd.name) ]
                (fun () -> run_rule r)
            else run_rule r)
          rules;
        let before = !merges in
        apply_egds ();
        check_ncs ();
        let merged = !merges > before in
        continue := !clock > round_start;
        (* Round boundary: a durable point.  The frontier is every fact
           stamped this round, which covers every rule's pending delta;
           [None] after a merge, so that a resume (whose journal replay
           cannot tell images apart) runs a full round. *)
        ck (fun c ->
            let frontier =
              if merged then None
              else
                Some
                  (window round_start
                     (List.of_seq (Hashtbl.to_seq_keys logs)))
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

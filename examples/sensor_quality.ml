(* A second domain: environmental sensor network quality assessment.

   An operations team stores raw sensor [readings].  Quality
   requirement: a reading counts only if the sensor's *station* was
   calibrated on the day of the reading.  The calibration log lives at
   the Station level; whether a *sensor* is calibrated is derived by
   downward dimensional navigation (a full TGD this time — no
   existentials needed because the lower-level schema adds no
   attributes).  Region-level roll-ups are upward-only and therefore
   answerable by first-order rewriting with no chase at all (§IV).

   Run with: dune exec examples/sensor_quality.exe *)

open Mdqa_multidim
open Mdqa_datalog
module Context = Mdqa_context.Context
module Assessment = Mdqa_context.Assessment
module R = Mdqa_relational

let v = Term.var
let c s = Term.Const (R.Value.sym s)
let sym = R.Value.sym
let tuple_syms l = R.Tuple.of_list (List.map sym l)
let section title = Printf.printf "\n=== %s ===\n\n" title

(* --- dimensions ---------------------------------------------------- *)

let location_dim =
  Dim_schema.linear ~name:"Location" [ "Sensor"; "Station"; "Region" ]

let clock_dim = Dim_schema.linear ~name:"Clock" [ "Instant"; "Day" ]

let stations = [ ("st1", "north"); ("st2", "north"); ("st3", "south"); ("st4", "south") ]
let sensors =
  List.concat_map
    (fun (st, _) -> [ (st ^ "a", st); (st ^ "b", st) ])
    stations

let days = [ "d1"; "d2"; "d3" ]

let reading_rows =
  (* (instant, sensor, value); instants are prefixed by their day *)
  [ ("d1-08:00", "st1a", 17.2); ("d1-14:00", "st1b", 18.9);
    ("d1-09:30", "st3a", 21.4); ("d2-08:15", "st2a", 16.8);
    ("d2-16:40", "st4a", 23.0); ("d3-07:50", "st1a", 15.5);
    ("d3-12:05", "st2b", 17.7) ]

let instants = List.map (fun (t, _, _) -> t) reading_rows

let location_instance =
  Dim_instance.make location_dim
    ~members:
      [ ("Sensor", List.map fst sensors);
        ("Station", List.map fst stations);
        ("Region", [ "north"; "south" ]) ]
    ~links:(sensors @ stations)

let clock_instance =
  Dim_instance.make clock_dim
    ~members:[ ("Instant", instants); ("Day", days) ]
    ~links:(List.map (fun t -> (t, String.sub t 0 2)) instants)

(* --- categorical relations ----------------------------------------- *)

let cat = R.Attribute.categorical
let plain = R.Attribute.plain

let calibration_log_schema =
  R.Rel_schema.make "calibration_log"
    [ cat "station" ~dimension:"Location" ~category:"Station";
      cat "day" ~dimension:"Clock" ~category:"Day";
      plain "technician" ]

let sensor_calibrated_schema =
  R.Rel_schema.make "sensor_calibrated"
    [ cat "sensor" ~dimension:"Location" ~category:"Sensor";
      cat "day" ~dimension:"Clock" ~category:"Day" ]

let region_calibrated_schema =
  R.Rel_schema.make "region_calibrated"
    [ cat "region" ~dimension:"Location" ~category:"Region";
      cat "day" ~dimension:"Clock" ~category:"Day" ]

let md_schema =
  Md_schema.make
    ~dimensions:[ location_dim; clock_dim ]
    ~relations:
      [ calibration_log_schema; sensor_calibrated_schema;
        region_calibrated_schema ]

let calibration_log =
  R.Relation.of_tuples calibration_log_schema
    (List.map tuple_syms
       [ [ "st1"; "d1"; "carol" ]; [ "st2"; "d2"; "dave" ];
         [ "st3"; "d1"; "carol" ]; [ "st1"; "d3"; "erin" ] ])

(* --- dimensional rules ---------------------------------------------- *)

(* downward, full: a station calibration covers all its sensors *)
let rule_down =
  Tgd.make ~name:"sensor_calibrated_down"
    ~body:
      [ Atom.make "calibration_log" [ v "ST"; v "D"; v "TECH" ];
        Atom.make "station_sensor" [ v "ST"; v "S" ] ]
    ~head:[ Atom.make "sensor_calibrated" [ v "S"; v "D" ] ]
    ()

(* upward: a region counts as calibrated when one of its stations is *)
let rule_up =
  Tgd.make ~name:"region_calibrated_up"
    ~body:
      [ Atom.make "calibration_log" [ v "ST"; v "D"; v "TECH" ];
        Atom.make "region_station" [ v "R"; v "ST" ] ]
    ~head:[ Atom.make "region_calibrated" [ v "R"; v "D" ] ]
    ()

(* st4 is decommissioned: calibrating it is an integrity violation *)
let nc_decommissioned =
  Nc.make ~name:"nc_st4_decommissioned"
    [ Atom.make "calibration_log" [ c "st4"; v "D"; v "TECH" ] ]

let data () =
  let inst = R.Instance.create () in
  let r = R.Instance.declare inst calibration_log_schema in
  R.Relation.iter (fun t -> ignore (R.Relation.add r t)) calibration_log;
  inst

let ontology () =
  Md_ontology.make ~schema:md_schema
    ~dim_instances:[ location_instance; clock_instance ]
    ~data:(data ()) ~rules:[ rule_down; rule_up ] ~ncs:[ nc_decommissioned ]
    ()

(* --- the instance under assessment and its quality context ---------- *)

let readings_schema = R.Rel_schema.of_names "readings" [ "instant"; "sensor"; "value" ]

let source () =
  let inst = R.Instance.create () in
  let r = R.Instance.declare inst readings_schema in
  List.iter
    (fun (t, s, value) ->
      ignore
        (R.Relation.add r (R.Tuple.of_list [ sym t; sym s; R.Value.real value ])))
    reading_rows;
  inst

let context () =
  Context.make ~ontology:(ontology ())
    ~mappings:[ { Context.source = "readings"; target = "readings_c" } ]
    ~rules:
      [ Tgd.make ~name:"readings_q"
          ~body:
            [ Atom.make "readings_c" [ v "T"; v "S"; v "V" ];
              Atom.make "sensor_calibrated" [ v "S"; v "D" ];
              Atom.make "day_instant" [ v "D"; v "T" ] ]
          ~head:[ Atom.make "readings_q" [ v "T"; v "S"; v "V" ] ]
          () ]
    ~quality_versions:[ ("readings", "readings_q") ]
    ()

let () =
  section "Sensor network: raw readings under assessment";
  R.Table_fmt.print ~title:"readings"
    (R.Instance.get (source ()) "readings");
  print_newline ();
  R.Table_fmt.print ~title:"calibration_log (at Station level)" calibration_log;

  section "Dimensional rules";
  Format.printf "downward (full, no existentials): %a@." Tgd.pp rule_down;
  Format.printf "upward:                           %a@." Tgd.pp rule_up;
  let m = ontology () in
  List.iter
    (fun info -> Format.printf "  analysis: %a@." Dim_rule.pp_info info)
    m.Md_ontology.rule_infos;

  section "Quality assessment";
  let assessment = Context.assess (context ()) ~source:(source ()) in
  Format.printf "chase: %a@."
    Chase.pp_outcome assessment.Context.chase.Chase.outcome;
  (match Context.quality_version assessment "readings" with
   | Some q ->
     print_newline ();
     R.Table_fmt.print ~title:"readings_q (calibrated-sensor readings only)" q;
     Format.printf "@.%a@." Assessment.pp_report (Assessment.report assessment)
   | None -> print_endline "no quality version");

  section "Upward-only fragment: FO rewriting, no chase";
  let up_only =
    Md_ontology.make ~schema:md_schema
      ~dim_instances:[ location_instance; clock_instance ]
      ~data:(data ()) ~rules:[ rule_up ] ()
  in
  Printf.printf "upward-only (syntactic check): %b\n"
    (Md_ontology.is_upward_only up_only);
  let q =
    Query.make ~name:"north_days" ~head:[ v "D" ]
      [ Atom.make "region_calibrated" [ c "north"; v "D" ] ]
  in
  (match Rewrite.rewrite (Md_ontology.program up_only) q with
   | Guard.Complete rw -> Format.printf "%a@." Rewrite.pp_rewriting rw
   | Guard.Degraded (_, e) ->
     Format.printf "rewriting degraded: %a@." Guard.pp_exhaustion e);
  (match
     Answer.answer Answer.Rewrite (Md_ontology.program up_only)
       (Md_ontology.instance up_only) q
   with
   | Answer.Ok answers ->
     Format.printf "days the north region had a calibration: %a@."
       (Format.pp_print_list
          ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
          R.Tuple.pp)
       answers
   | Answer.Degraded { exhaustion; _ } ->
     Format.printf "answers degraded: %a@." Guard.pp_exhaustion exhaustion
   | Answer.Inconsistent _ -> print_endline "ontology inconsistent"
   | Answer.Refused d -> print_endline d.Diag.message);
  Format.print_flush ();

  section "Integrity: the decommissioned station";
  let bad_data = data () in
  ignore
    (R.Instance.add_tuple bad_data "calibration_log"
       (tuple_syms [ "st4"; "d2"; "frank" ]));
  let bad =
    Md_ontology.make ~schema:md_schema
      ~dim_instances:[ location_instance; clock_instance ]
      ~data:bad_data ~rules:[ rule_down ] ~ncs:[ nc_decommissioned ] ()
  in
  let r = Md_ontology.chase bad in
  Format.printf "chasing a log that calibrates st4: %a@." Chase.pp_outcome
    r.Chase.outcome

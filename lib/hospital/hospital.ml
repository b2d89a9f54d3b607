open Mdqa_multidim
open Mdqa_datalog
module R = Mdqa_relational

let v = Term.var
let c s = Term.Const (R.Value.sym s)

let sym = R.Value.sym

let tuple_syms l = R.Tuple.of_list (List.map sym l)

let relation_of schema rows = R.Relation.of_tuples schema rows

(* ------------------------------------------------------------------ *)
(* Dimensions (Fig. 1) *)

let hospital_dim =
  Dim_schema.linear ~name:"Hospital" [ "Ward"; "Unit"; "Institution" ]

let time_dim = Dim_schema.linear ~name:"Time" [ "Time"; "Day"; "Month"; "Year" ]

(* The paper's Thermometer(Ward, Thermometertype; Nurse) lists the type
   before the ";": it is a categorical attribute, so thermometer brands
   form a (one-category) dimension of their own.  This is what makes
   EGD (6) equate only categorical variables — the paper's separability
   criterion. *)
let device_dim = Dim_schema.linear ~name:"Device" [ "Thermometertype" ]

let instants =
  [ "Sep/5-12:10"; "Sep/6-11:50"; "Sep/7-12:15"; "Sep/9-12:00";
    "Sep/6-11:05"; "Sep/5-12:05" ]

let day_of_instant t =
  (* "Sep/5-12:10" -> "Sep/5" *)
  match String.index_opt t '-' with
  | Some i -> String.sub t 0 i
  | None -> t

let days = [ "Sep/5"; "Sep/6"; "Sep/7"; "Sep/9"; "Oct/5" ]

let month_of_day d =
  if String.length d >= 3 && String.sub d 0 3 = "Oct" then "Oct/2005"
  else "Sep/2005"

let hospital_instance =
  Dim_instance.make hospital_dim
    ~members:
      [ ("Ward", [ "W1"; "W2"; "W3"; "W4" ]);
        ("Unit", [ "Standard"; "Intensive"; "Terminal" ]);
        ("Institution", [ "H1"; "H2" ]) ]
    ~links:
      [ ("W1", "Standard"); ("W2", "Standard"); ("W3", "Intensive");
        ("W4", "Terminal"); ("Standard", "H1"); ("Intensive", "H1");
        ("Terminal", "H2") ]

let device_instance =
  Dim_instance.make device_dim
    ~members:[ ("Thermometertype", [ "B1"; "B2" ]) ]
    ~links:[]

let time_instance =
  Dim_instance.make time_dim
    ~members:
      [ ("Time", instants); ("Day", days);
        ("Month", [ "Aug/2005"; "Sep/2005"; "Oct/2005" ]);
        ("Year", [ "2005" ]) ]
    ~links:
      (List.map (fun t -> (t, day_of_instant t)) instants
      @ List.map (fun d -> (d, month_of_day d)) days
      @ [ ("Aug/2005", "2005"); ("Sep/2005", "2005"); ("Oct/2005", "2005") ])

(* ------------------------------------------------------------------ *)
(* Categorical relation schemas (SM's R) *)

let cat name ~dimension ~category = R.Attribute.categorical name ~dimension ~category
let plain = R.Attribute.plain

let patient_ward_schema =
  R.Rel_schema.make "patient_ward"
    [ cat "ward" ~dimension:"Hospital" ~category:"Ward";
      cat "day" ~dimension:"Time" ~category:"Day";
      plain "patient" ]

let patient_unit_schema =
  R.Rel_schema.make "patient_unit"
    [ cat "unit" ~dimension:"Hospital" ~category:"Unit";
      cat "day" ~dimension:"Time" ~category:"Day";
      plain "patient" ]

let working_schedules_schema =
  R.Rel_schema.make "working_schedules"
    [ cat "unit" ~dimension:"Hospital" ~category:"Unit";
      cat "day" ~dimension:"Time" ~category:"Day";
      plain "nurse"; plain "type" ]

let shifts_schema =
  R.Rel_schema.make "shifts"
    [ cat "ward" ~dimension:"Hospital" ~category:"Ward";
      cat "day" ~dimension:"Time" ~category:"Day";
      plain "nurse"; plain "shift" ]

let discharge_patients_schema =
  R.Rel_schema.make "discharge_patients"
    [ cat "institution" ~dimension:"Hospital" ~category:"Institution";
      cat "day" ~dimension:"Time" ~category:"Day";
      plain "patient" ]

let thermometer_schema =
  R.Rel_schema.make "thermometer"
    [ cat "ward" ~dimension:"Hospital" ~category:"Ward";
      cat "thermtype" ~dimension:"Device" ~category:"Thermometertype";
      plain "nurse" ]

let md_schema =
  Md_schema.make
    ~dimensions:[ hospital_dim; time_dim; device_dim ]
    ~relations:
      [ patient_ward_schema; patient_unit_schema; working_schedules_schema;
        shifts_schema; discharge_patients_schema; thermometer_schema ]

(* ------------------------------------------------------------------ *)
(* Data (Tables I–V) *)

let measurements_schema =
  R.Rel_schema.of_names "measurements" [ "time"; "patient"; "value" ]

let measurement t p value =
  R.Tuple.of_list [ sym t; sym p; R.Value.real value ]

(* Table I *)
let measurements =
  relation_of measurements_schema
    [ measurement "Sep/5-12:10" "Tom Waits" 38.2;
      measurement "Sep/6-11:50" "Tom Waits" 37.1;
      measurement "Sep/7-12:15" "Tom Waits" 37.7;
      measurement "Sep/9-12:00" "Tom Waits" 37.0;
      measurement "Sep/6-11:05" "Lou Reed" 37.5;
      measurement "Sep/5-12:05" "Lou Reed" 38.0 ]

(* Table II: the expected quality version *)
let expected_measurements_q =
  relation_of
    (R.Rel_schema.of_names "measurements_q" [ "time"; "patient"; "value" ])
    [ measurement "Sep/5-12:10" "Tom Waits" 38.2;
      measurement "Sep/6-11:50" "Tom Waits" 37.1 ]

let patient_ward_rows =
  [ [ "W1"; "Sep/5"; "Tom Waits" ];
    [ "W2"; "Sep/6"; "Tom Waits" ];
    [ "W4"; "Sep/9"; "Tom Waits" ];
    [ "W4"; "Sep/5"; "Lou Reed" ];
    [ "W4"; "Sep/6"; "Lou Reed" ] ]

let patient_ward =
  relation_of patient_ward_schema (List.map tuple_syms patient_ward_rows)

let patient_ward_raw =
  relation_of patient_ward_schema
    (List.map tuple_syms
       (patient_ward_rows @ [ [ "W3"; "Sep/7"; "Tom Waits" ] ]))

(* Table III *)
let working_schedules =
  relation_of working_schedules_schema
    (List.map tuple_syms
       [ [ "Intensive"; "Sep/5"; "Cathy"; "cert." ];
         [ "Standard"; "Sep/5"; "Helen"; "cert." ];
         [ "Standard"; "Sep/6"; "Helen"; "cert." ];
         [ "Terminal"; "Sep/5"; "Susan"; "non-c." ];
         [ "Standard"; "Sep/9"; "Mark"; "non-c." ] ])

(* Table IV *)
let shifts =
  relation_of shifts_schema
    (List.map tuple_syms
       [ [ "W4"; "Sep/5"; "Cathy"; "night" ];
         [ "W1"; "Sep/6"; "Helen"; "morning" ];
         [ "W4"; "Sep/5"; "Susan"; "evening" ] ])

(* Table V *)
let discharge_patients =
  relation_of discharge_patients_schema
    (List.map tuple_syms
       [ [ "H1"; "Sep/9"; "Tom Waits" ];
         [ "H1"; "Sep/6"; "Lou Reed" ];
         [ "H2"; "Oct/5"; "Elvis Costello" ] ])

let thermometer =
  relation_of thermometer_schema
    (List.map tuple_syms
       [ [ "W1"; "B1"; "Helen" ];
         [ "W2"; "B1"; "Cathy" ];
         [ "W4"; "B2"; "Susan" ] ])

(* ------------------------------------------------------------------ *)
(* Rules and constraints (ΣM) *)

let rule7 =
  Tgd.make ~name:"rule7_patient_unit"
    ~body:
      [ Atom.make "patient_ward" [ v "W"; v "D"; v "P" ];
        Atom.make "unit_ward" [ v "U"; v "W" ] ]
    ~head:[ Atom.make "patient_unit" [ v "U"; v "D"; v "P" ] ]
    ()

let rule8 =
  Tgd.make ~name:"rule8_shifts"
    ~body:
      [ Atom.make "working_schedules" [ v "U"; v "D"; v "N"; v "T" ];
        Atom.make "unit_ward" [ v "U"; v "W" ] ]
    ~head:[ Atom.make "shifts" [ v "W"; v "D"; v "N"; v "Z" ] ]
    ()

let rule9 =
  Tgd.make ~name:"rule9_discharge"
    ~body:[ Atom.make "discharge_patients" [ v "I"; v "D"; v "P" ] ]
    ~head:
      [ Atom.make "institution_unit" [ v "I"; v "U" ];
        Atom.make "patient_unit" [ v "U"; v "D"; v "P" ] ]
    ()

let egd_thermometer =
  Egd.make ~name:"egd_thermometer"
    ~body:
      [ Atom.make "thermometer" [ v "W1"; v "T1"; v "N1" ];
        Atom.make "thermometer" [ v "W2"; v "T2"; v "N2" ];
        Atom.make "unit_ward" [ v "U"; v "W1" ];
        Atom.make "unit_ward" [ v "U"; v "W2" ] ]
    (v "T1") (v "T2")

(* "No patient was in the intensive care unit after August 2005": one
   constraint per later month in the Time instance. *)
let ncs_intensive_closed =
  List.map
    (fun month ->
      Nc.make
        ~name:("nc_intensive_closed_" ^ month)
        [ Atom.make "patient_ward" [ v "W"; v "D"; v "P" ];
          Atom.make "unit_ward" [ c "Intensive"; v "W" ];
          Atom.make "month_day" [ c month; v "D" ] ])
    [ "Sep/2005"; "Oct/2005" ]

(* ------------------------------------------------------------------ *)
(* Ontology *)

let data_instance ~raw_patient_ward ~include_rule9 =
  R.Instance.of_relations
    (List.map R.Relation.copy
       ((if raw_patient_ward then patient_ward_raw else patient_ward)
       :: working_schedules :: shifts :: thermometer
       :: (if include_rule9 then [ discharge_patients ] else [])))

let ontology ?(raw_patient_ward = false) ?(include_rule9 = true) () =
  Md_ontology.make ~schema:md_schema
    ~dim_instances:[ hospital_instance; time_instance; device_instance ]
    ~data:(data_instance ~raw_patient_ward ~include_rule9)
    ~rules:(if include_rule9 then [ rule7; rule8; rule9 ] else [ rule7; rule8 ])
    ~egds:[ egd_thermometer ] ~ncs:ncs_intensive_closed ()

let upward_ontology () =
  let inst = R.Instance.of_relations [ R.Relation.copy patient_ward ] in
  Md_ontology.make ~schema:md_schema
    ~dim_instances:[ hospital_instance; time_instance; device_instance ]
    ~data:inst ~rules:[ rule7 ] ()

let source () = R.Instance.of_relations [ R.Relation.copy measurements ]

(* ------------------------------------------------------------------ *)
(* The quality context (§V, Example 7) *)

let context_rules =
  [ Tgd.make ~name:"taken_by_nurse"
      ~body:
        [ Atom.make "working_schedules" [ v "U"; v "D"; v "N"; v "Y" ];
          Atom.make "day_time" [ v "D"; v "T" ];
          Atom.make "patient_unit" [ v "U"; v "D"; v "P" ] ]
      ~head:[ Atom.make "taken_by_nurse" [ v "T"; v "P"; v "N"; v "Y" ] ]
      ();
    (* the §V guideline: standard-unit measurements use brand B1 *)
    Tgd.make ~name:"taken_with_therm"
      ~body:
        [ Atom.make "patient_unit" [ c "Standard"; v "D"; v "P" ];
          Atom.make "day_time" [ v "D"; v "T" ] ]
      ~head:[ Atom.make "taken_with_therm" [ v "T"; v "P"; c "B1" ] ]
      ();
    Tgd.make ~name:"measurements_ext"
      ~body:
        [ Atom.make "measurements_c" [ v "T"; v "P"; v "V" ];
          Atom.make "taken_by_nurse" [ v "T"; v "P"; v "N"; v "Y" ];
          Atom.make "taken_with_therm" [ v "T"; v "P"; v "B" ] ]
      ~head:[ Atom.make "measurements_ext" [ v "T"; v "P"; v "V"; v "Y"; v "B" ] ]
      ();
    Tgd.make ~name:"measurements_q"
      ~body:
        [ Atom.make "measurements_ext" [ v "T"; v "P"; v "V"; c "cert."; c "B1" ] ]
      ~head:[ Atom.make "measurements_q" [ v "T"; v "P"; v "V" ] ]
      () ]

let context ?raw_patient_ward () =
  Mdqa_context.Context.make
    ~ontology:(ontology ?raw_patient_ward ())
    ~mappings:[ { Mdqa_context.Context.source = "measurements"; target = "measurements_c" } ]
    ~rules:context_rules
    ~quality_versions:[ ("measurements", "measurements_q") ]
    ()

let doctor_query =
  Query.make ~name:"doctor"
    ~cmps:
      [ Atom.Cmp.make Atom.Cmp.Eq (v "P") (c "Tom Waits");
        Atom.Cmp.make Atom.Cmp.Ge (v "T") (c "Sep/5-11:45");
        Atom.Cmp.make Atom.Cmp.Le (v "T") (c "Sep/5-12:15") ]
    ~head:[ v "T"; v "P"; v "V" ]
    [ Atom.make "measurements" [ v "T"; v "P"; v "V" ] ]

let example5_query =
  Query.make ~name:"q_example5" ~head:[ v "D" ]
    [ Atom.make "shifts" [ c "W1"; v "D"; c "Mark"; v "S" ] ]

(* ------------------------------------------------------------------ *)
(* Synthetic scaled instances *)

module Gen = struct
  type params = {
    institutions : int;
    units_per_institution : int;
    wards_per_unit : int;
    patients : int;
    days : int;
    measurements_per_patient_day : int;
  }

  let default =
    { institutions = 1;
      units_per_institution = 3;
      wards_per_unit = 2;
      patients = 20;
      days = 10;
      measurements_per_patient_day = 1 }

  let scale n =
    { default with
      patients = n;
      days = max 3 (n / 4);
      wards_per_unit = max 2 (n / 25) }

  (* Sortable, fixed-width names. *)
  let inst_name i = Printf.sprintf "I%02d" i
  let unit_name i u = Printf.sprintf "U%02d_%02d" i u
  let ward_name i u w = Printf.sprintf "W%02d_%02d_%02d" i u w
  let day_name d = Printf.sprintf "D%03d" d
  let month_name m = Printf.sprintf "M%02d" m
  let patient_name p = Printf.sprintf "P%04d" p
  let nurse_name i u = Printf.sprintf "N%02d_%02d" i u
  let instant_name d p m = Printf.sprintf "%s-%s-%02d" (day_name d) (patient_name p) m

  let month_of_day_idx d = (d - 1) / 30

  (* Deterministic ward assignment: patient p lives in one ward. *)
  let ward_of p g =
    let total = g.institutions * g.units_per_institution * g.wards_per_unit in
    let k = p mod total in
    let i = k / (g.units_per_institution * g.wards_per_unit) in
    let r = k mod (g.units_per_institution * g.wards_per_unit) in
    let u = r / g.wards_per_unit in
    let w = r mod g.wards_per_unit in
    (i + 1, u + 1, w + 1)

  let dim_instances g =
    let insts = List.init g.institutions (fun i -> inst_name (i + 1)) in
    let units =
      List.concat
        (List.init g.institutions (fun i ->
             List.init g.units_per_institution (fun u ->
                 unit_name (i + 1) (u + 1))))
    in
    let wards =
      List.concat
        (List.init g.institutions (fun i ->
             List.concat
               (List.init g.units_per_institution (fun u ->
                    List.init g.wards_per_unit (fun w ->
                        ward_name (i + 1) (u + 1) (w + 1))))))
    in
    let ward_links =
      List.concat
        (List.init g.institutions (fun i ->
             List.concat
               (List.init g.units_per_institution (fun u ->
                    List.init g.wards_per_unit (fun w ->
                        ( ward_name (i + 1) (u + 1) (w + 1),
                          unit_name (i + 1) (u + 1) ))))))
    in
    let unit_links =
      List.concat
        (List.init g.institutions (fun i ->
             List.init g.units_per_institution (fun u ->
                 (unit_name (i + 1) (u + 1), inst_name (i + 1)))))
    in
    let hosp =
      Dim_instance.make hospital_dim
        ~members:[ ("Ward", wards); ("Unit", units); ("Institution", insts) ]
        ~links:(ward_links @ unit_links)
    in
    let day_list = List.init g.days (fun d -> day_name (d + 1)) in
    let months =
      List.sort_uniq compare
        (List.init g.days (fun d -> month_name (month_of_day_idx (d + 1))))
    in
    let instants =
      List.concat
        (List.init g.days (fun d ->
             List.concat
               (List.init g.patients (fun p ->
                    List.init g.measurements_per_patient_day (fun m ->
                        instant_name (d + 1) (p + 1) (m + 1))))))
    in
    let time =
      Dim_instance.make time_dim
        ~members:
          [ ("Time", instants); ("Day", day_list); ("Month", months);
            ("Year", [ "Y1" ]) ]
        ~links:
          (List.map (fun t -> (t, String.sub t 0 4)) instants
          @ List.map
              (fun d -> (d, month_name (month_of_day_idx (int_of_string (String.sub d 1 3)))))
              day_list
          @ List.map (fun m -> (m, "Y1")) months)
    in
    (hosp, time)

  let data g =
    let inst = R.Instance.create () in
    let pw = R.Instance.declare inst patient_ward_schema in
    let ws = R.Instance.declare inst working_schedules_schema in
    let sh = R.Instance.declare inst shifts_schema in
    (* Some extensional shifts already recorded (odd days, first ward
       of each unit): the restricted chase skips the triggers they
       satisfy, the oblivious chase fires anyway — the ablation the
       benchmark harness measures. *)
    for i = 1 to g.institutions do
      for u = 1 to g.units_per_institution do
        for d = 1 to g.days do
          if d mod 2 = 1 then
            ignore
              (R.Relation.add sh
                 (tuple_syms
                    [ ward_name i u 1; day_name d; nurse_name i u; "morning" ]))
        done
      done
    done;
    for p = 1 to g.patients do
      let i, u, w = ward_of p g in
      for d = 1 to g.days do
        ignore
          (R.Relation.add pw
             (tuple_syms [ ward_name i u w; day_name d; patient_name p ]))
      done
    done;
    for i = 1 to g.institutions do
      for u = 1 to g.units_per_institution do
        for d = 1 to g.days do
          (* nurses in unit 1 are certified, elsewhere alternating *)
          let typ = if u = 1 || (u + d) mod 2 = 0 then "cert." else "non-c." in
          ignore
            (R.Relation.add ws
               (tuple_syms [ unit_name i u; day_name d; nurse_name i u; typ ]))
        done
      done
    done;
    inst

  let ontology g =
    let hosp, time = dim_instances g in
    Md_ontology.make ~schema:md_schema ~dim_instances:[ hosp; time; device_instance ]
      ~data:(data g) ~rules:[ rule7; rule8 ] ()

  let source g =
    let inst = R.Instance.create () in
    let m = R.Instance.declare inst measurements_schema in
    for p = 1 to g.patients do
      for d = 1 to g.days do
        for k = 1 to g.measurements_per_patient_day do
          let value = 36.0 +. float_of_int (((p * 31) + (d * 7) + k) mod 40) /. 10. in
          ignore
            (R.Relation.add m
               (R.Tuple.of_list
                  [ sym (instant_name d p k); sym (patient_name p);
                    R.Value.real value ]))
        done
      done
    done;
    inst

  let std_units g =
    let schema = R.Rel_schema.of_names "std_unit" [ "unit" ] in
    relation_of schema
      (List.init g.institutions (fun i -> tuple_syms [ unit_name (i + 1) 1 ]))

  (* One fused quality rule: at scale, materializing the paper's
     intermediate predicates would pair every patient of a unit with
     every instant of a day; anchoring the rule on measurements_c keeps
     the derivation linear in the number of measurements. *)
  let gen_context_rules =
    [ Tgd.make ~name:"measurements_q_gen"
        ~body:
          [ Atom.make "measurements_c" [ v "T"; v "P"; v "V" ];
            Atom.make "day_time" [ v "D"; v "T" ];
            Atom.make "patient_unit" [ v "U"; v "D"; v "P" ];
            Atom.make "std_unit" [ v "U" ];
            Atom.make "working_schedules" [ v "U"; v "D"; v "N"; c "cert." ] ]
        ~head:[ Atom.make "measurements_q" [ v "T"; v "P"; v "V" ] ]
        () ]

  let context g =
    Mdqa_context.Context.make ~ontology:(ontology g)
      ~mappings:
        [ { Mdqa_context.Context.source = "measurements";
            target = "measurements_c" } ]
      ~rules:gen_context_rules
      ~externals:[ std_units g ]
      ~quality_versions:[ ("measurements", "measurements_q") ]
      ()

  let doctor_query g =
    ignore g;
    Query.make ~name:"doctor_gen"
      ~cmps:
        [ Atom.Cmp.make Atom.Cmp.Eq (v "P") (c (patient_name 1));
          Atom.Cmp.make Atom.Cmp.Ge (v "T") (c (day_name 1));
          Atom.Cmp.make Atom.Cmp.Le (v "T") (c (day_name 1 ^ "~")) ]
      ~head:[ v "T"; v "P"; v "V" ]
      [ Atom.make "measurements" [ v "T"; v "P"; v "V" ] ]
end

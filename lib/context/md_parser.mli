(** Textual format for complete multidimensional quality contexts
    (conventionally [.mdq] files).

    The format extends the Datalog± surface syntax of
    {!Mdqa_datalog.Parser} with declarations:

    {v
    % dimensions: categories (child -> parent) and members
    dimension Hospital {
      category Ward -> Unit.
      category Unit -> Institution.
      member "W1" in Ward -> "Standard".
      member "Standard" in Unit -> "H1".
      member "H1" in Institution.
    }

    % categorical relations: attributes typed by Dimension.Category
    relation patient_ward(ward in Hospital.Ward, day in Time.Day, patient).

    % the schema of a relation under assessment (the instance D)
    source measurements(time, patient, value).

    % a closed external source (Fig. 2's E_i)
    external certified_nurses(nurse).

    % context wiring: D-relation -> contextual copy / quality version
    map measurements -> measurements_c.
    quality measurements -> measurements_q.

    % plus ordinary statements: facts, rules, constraints, queries
    patient_ward("W1", "Sep/5", "Tom Waits").
    patient_unit(U, D, P) :- patient_ward(W, D, P), unit_ward(U, W).
    ! :- patient_ward(W, D, P), unit_ward("Intensive", W).
    ?q(U) :- patient_unit(U, "Sep/5", "Tom Waits").
    v}

    Statement classification:
    - facts over [relation]-declared predicates populate the ontology's
      data; facts over [source]-declared predicates populate the
      instance under assessment; facts over [external]-declared
      predicates populate closed external sources injected into the
      context; other facts are errors;
    - TGDs whose predicates are all known to the MD schema must pass
      {!Mdqa_multidim.Dim_rule.analyze} and become dimensional rules;
      TGDs mentioning any other predicate become contextual rules;
    - EGDs and negative constraints must be dimensional (all predicates
      known to the MD schema);
    - parent-child predicates are referred to by their generated names
      ([unit_ward], [day_time], ...; see
      {!Mdqa_multidim.Md_schema.parent_child_pred}).

    Keywords ([dimension], [category], [member], [in], [relation],
    [source], [map], [quality]) are only reserved in declaration
    position; [->] must be surrounded by spaces. *)

type parsed = {
  ontology : Mdqa_multidim.Md_ontology.t;
  context : Context.t;
  source : Mdqa_relational.Instance.t;
  queries : Mdqa_datalog.Query.t list;
}

type checked = {
  parsed : parsed option;
      (** [Some] iff no error-severity diagnostic was produced *)
  diags : Mdqa_datalog.Diag.t list;  (** in source order *)
}

val check_string : ?file:string -> string -> checked
(** Validate a whole [.mdq] input in one pass, never raising: the
    parser recovers at statement boundaries (and inside dimension
    bodies), so every lexical/syntax error is reported, and the
    semantic pass then accumulates every declaration-level problem —
    duplicate declarations ([E010]), arity clashes ([E011], in the
    arity table {!Mdqa_datalog.Parser.check_arities} seeded with the
    MD schema's predicates and the declarations), unknown
    predicates in rule/query bodies ([E012]), facts over undeclared
    predicates ([E013]), ill-formed dimensions ([E014]–[E017]),
    ill-formed relations ([E018]), invalid dimensional rules ([E019]),
    non-dimensional constraints ([E020]) and dangling [map]/[quality]
    wiring ([E021]) — each at the source line of the declaration at
    fault.  On error-free inputs the advisory analyses also run:
    hierarchy quality ([W043]/[W044]), closed-world referential
    violations ([W045]), empty quality versions ([W042]), unused
    mapped copies ([H051]) and the weak-stickiness certificate
    ([W041]/[H050]).  Its four passes are profiler phases and trace
    spans: [md_parser.collect], [md_parser.validate],
    [md_parser.build] and [md_parser.advisory]; the dimension checks
    inside [validate] are one more, [md_parser.dimensions].

    Facts never become statement ASTs: [collect] reads each ground
    fact straight into a tuple in one {!Mdqa_datalog.Parser.Facts}
    buffer, [validate] checks them once per predicate ([E013],
    [E011]), [build] inserts the buffered tuples into their relations
    and [W045] locates a fact through a table keyed on the buffered
    tuples, built on the first violation.  The buffer is garbage once
    the check returns: [parsed] holds only relations. *)

val check_file : string -> checked
(** @raise Sys_error on I/O failure only. *)

val parse_string : string -> parsed
(** Fail-fast wrapper over {!check_string}
    ({!Mdqa_datalog.Parser.fail_fast}): returns the parsed context or
    raises {!Mdqa_datalog.Parser.Error} with the {e first} error
    diagnostic, located at its real source line and column.
    @raise Mdqa_datalog.Parser.Error on syntax errors, unknown
    categories/dimensions, invalid dimensional rules, or facts over
    undeclared predicates. *)

val parse_file : string -> parsed
(** @raise Sys_error on I/O failure; {!Mdqa_datalog.Parser.Error} as
    {!parse_string}. *)

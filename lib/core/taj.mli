(** TAJ: the end-to-end taint analysis pipeline.

    {!load} performs all configuration-independent work: parse the
    application and add it to a copy of the model-JDK image
    ({!Models.Jdklib.image}), synthesize framework entrypoints from the
    deployment descriptor (§4.2.2), convert to SSA, apply the reflection
    (§4.2.3) and exception (§4.1.2) rewrites. {!run} executes pointer
    analysis, dependence-graph construction, slicing and reporting under
    one {!Config.t}; a loaded program can be reanalyzed under many
    configurations. *)

type input = {
  name : string;
  app_sources : string list;        (** MJava source texts *)
  descriptor : string;              (** deployment descriptor, may be "" *)
}

type loaded = {
  input : input;
  program : Jir.Program.t;
  reflection_stats : Models.Reflection.stats;
  synthesized_sources : int;        (** getMessage sources from catches *)
  skipped_units : (int * string) list;
      (** units dropped by the lenient frontend (index, error) *)
  frontend_seconds : float;
}

type phase_times = {
  t_frontend : float;               (** parse/SSA/rewrites, from {!load} *)
  t_pointer : float;
  t_sdg : float;
  t_taint : float;
  t_total : float;                  (** frontend + analysis wall clock *)
}

type completed = {
  report : Report.t;
  outcome : Engine.outcome;
  andersen : Pointer.Andersen.t;
  builder : Sdg.Builder.t;
  heapgraph : Pointer.Heapgraph.t;
  cg_nodes : int;
  cg_edges : int;
  times : phase_times;
  diagnostics : Diagnostics.degradation list;
      (** degradations recorded during this run (also in the report) *)
}

type result =
  | Completed of completed
  | Did_not_complete of string
      (** a pointer-analysis or slicing budget was exceeded — the fate of
          the CS configuration on large applications (Table 3) *)

type analysis = {
  loaded : loaded;
  config : Config.t;
  rules : Rules.rule list;
  result : result;
}

(** Raised on malformed input with a human-readable location. *)
exception Load_error of string

(** With [lenient] (the supervisor's mode), a unit that fails to lex/parse
    is skipped and recorded in [skipped_units] instead of failing the
    whole load. [cache] supplies the incremental-cache hooks
    ({!Cache_iface.none} when absent): per-unit parses and the
    whole-program frontend product may then be satisfied from cached
    entries instead of recomputed. *)
val load : ?lenient:bool -> ?cache:Cache_iface.t -> input -> loaded

(** [budget] supplies the wall-clock deadline / cancellation token, polled
    cooperatively in every long-running loop; an expiry mid-phase yields a
    [Partial] report with whatever flows were already found. A phase that
    raises becomes [Did_not_complete] with a recorded [Phase_fault]. New
    degradations are appended to [diagnostics] (shareable across
    supervisor attempts). [cache] threads the incremental-cache hooks into the SDG
    builder (per-method def/use summaries). *)
val run :
  ?rules:Rules.rule list ->
  ?budget:Budget.t ->
  ?diagnostics:Diagnostics.t ->
  ?cache:Cache_iface.t ->
  loaded -> Config.t -> analysis

(** Run the flow-insensitive type-qualifier triage over a loaded program
    under the given rule set — the analysis behind both the SDG
    pre-filter and rung zero of the degradation ladder. Needs no pointer
    analysis and no budget; [tick] is the fault-injection hook
    ({!Fault.site_triage_infer}), called once per method per fixpoint
    sweep. Exceptions (injected faults) escape to the caller. *)
val triage :
  ?tick:(unit -> unit) ->
  rules:Rules.rule list ->
  loaded -> Triage.verdict

(** [load] + [run]. *)
val analyze :
  ?rules:Rules.rule list ->
  ?config:Config.t ->
  ?cache:Cache_iface.t ->
  input -> analysis

(** The incremental analysis cache: content-hash-keyed reuse of pipeline
    products across runs, persisted per application via {!Store}.

    Four tiers, each keyed by a digest of exactly the inputs that
    determine it, so validity is decided by key lookup alone — there is
    no mtime, no generation counter, nothing to invalidate eagerly:

    - {b ast}: one parsed compilation unit, keyed by its source text (plus
      a frontend version salt). An edited unit simply misses.
    - {b front}: the whole-program lower/SSA/rewrite product, keyed by the
      digests of the parsed unit ASTs plus the deployment descriptor.
      The entry holds only the application's part ({!Jir.Program.delta}
      over {!Models.Jdklib.image}); a hit re-links it to the image.
      A comment or whitespace edit changes the source digest but not the
      AST digest, so everything below the parser still hits — the paper's
      "one-line edit" case.
    - {b defuse}: per-method SDG def/use summaries from
      {!Sdg.Builder}, keyed by the method body.
    - {b strings}: per-method string-template summaries from
      {!Strings.Summary} (the sanitization judge's interprocedural
      walk), keyed by the method body exactly like [defuse] — a summary
      is a pure function of the body.

    A fifth entry kind, {b result}, memoizes the fully rendered report of
    a clean, complete run under a digest of the entire request (sources,
    descriptor, configuration, rules): a warm re-run of an unchanged
    input — including after a [taj serve] restart — returns it without
    analyzing at all. The tier is content-addressed: each result key
    maps to the digest of its report, and the report is stored once,
    under that digest, however many keys name it. {!finish} alone
    decides what a run stores there.

    Counters: [cache.hit] / [cache.miss], plus per-tier variants
    ([cache.<tier>.hit], ...). Store I/O runs under a
    [phase.cache] telemetry span. A corrupt store file surfaces as a
    {!Core.Diagnostics.Cache_corrupt} diagnostic and a cold run. *)

(** A cache handle: the store directory plus the stores it keeps in
    memory. A store stays resident only while reads want it: a
    successful {!commit} hands a store that no {!lookup_result} has hit
    to its file and drops it, while a store that result lookups hit
    stays; a load that takes the resident stores past a constant 64 MiB
    of keys and payloads evicts the least recently started ones, hit or
    not. An evicted store reloads from its file at its next {!start}. *)
type t

(** Open (creating the directory if needed) a cache rooted at [dir]. *)
val create : dir:string -> t

val dir : t -> string

(** One run's view of one application's store. *)
type session

(** Open [app]'s store (loading its file under a [phase.cache] span
    unless it is resident). *)
val start : t -> app:string -> session

(** The [Cache_corrupt] diagnostic to report, when the store file had to
    be discarded at load. *)
val corruption : session -> Core.Diagnostics.degradation option

(** Pipeline hooks (ast / front / defuse / strings tiers) backed by this
    session,
    for {!Core.Supervisor.options} or {!Core.Taj.load}/[run]. *)
val hooks : session -> Core.Cache_iface.t

(** The input's part of the raw result-tier key: a digest of each source
    text, and the descriptor. It depends on the input alone, so a caller
    that sees one input again may keep it instead of the sources. *)
type input_digest

val input_digest : Core.Taj.input -> input_digest

(** The raw result-tier key for a request: the input's digest with the
    configuration and rule set. Computable before any parsing — the key
    a service consults on admission. *)
val raw_key :
  rules:Core.Rules.rule list -> config:Core.Config.t -> input_digest ->
  string

(** [raw_key] of [input_digest input]. *)
val result_key :
  rules:Core.Rules.rule list -> config:Core.Config.t -> Core.Taj.input ->
  string

(** The semantic result-tier key: parsed-unit AST digests in place of
    source digests, so an edit the parser discards (comments, whitespace)
    maps to the same entry. Only available after this session's hooks
    have seen the frontend (i.e. after a load through {!hooks}), and only
    when the load skipped no units; [None] otherwise. *)
val ast_result_key :
  rules:Core.Rules.rule list -> config:Core.Config.t ->
  loaded:Core.Taj.loaded -> session -> string option

type cached_result = {
  cr_report : string;       (** the rendered report, byte-identical *)
  cr_issues : int;
  cr_flows : int;
}

(** Result-tier lookup; bumps [cache.result.hit]/[.miss]. A hit keeps
    the session's store resident across later commits. *)
val lookup_result : session -> key:string -> cached_result option

(** End the session: store each [(key, report)] of [results] (the
    report once, under its digest) and persist the store. Pass results
    only for a clean, complete, undegraded run; {!finish} applies that
    rule. With [results] absent this is safe after any run: the
    content-keyed tiers it filled are valid regardless and still get
    persisted. A successful save drops the store from memory unless a
    result lookup has hit it; a failed one keeps it resident, so a full
    disk costs no warmth. [analysis] is accepted and ignored, only
    because the frozen benchmark ([perfbench/]) still passes it; the
    next change to the benchmark removes it. *)
val commit :
  ?results:(string * cached_result) list ->
  ?analysis:Core.Taj.completed ->
  session -> unit

(** Render a report exactly as the result tier stores it. *)
val render_report : Sdg.Builder.t -> Core.Report.t -> string

(** End the session after a supervised run under [rules] and [config]
    that was looked up by the raw key [key] (its input's {!raw_key}). A
    clean run (completed, complete report, no supervisor diagnostics)
    stores its rendered report under [key] and, when the load defined
    one, its AST key; every other run stores no result. Either way the
    store is persisted ({!commit}). *)
val finish :
  session -> rules:Core.Rules.rule list -> config:Core.Config.t ->
  key:string -> Core.Supervisor.outcome -> unit

type outcome = {
  i_report : string;          (** rendered report ("" if none) *)
  i_issues : int;
  i_flows : int;
  i_partial : bool;           (** degraded, partial, or failed *)
  i_from_cache : bool;        (** satisfied by the result tier *)
  i_supervisor : Core.Supervisor.outcome option;
      (** [None] exactly when [i_from_cache] *)
  i_diags : Core.Diagnostics.degradation list;
      (** cache-layer diagnostics ({!Core.Diagnostics.Cache_corrupt}) *)
}

(** Supervised analysis through the cache: result-tier lookup, else a
    {!Core.Supervisor.run} with the tier hooks threaded in, then
    {!finish}. With [cache = None] this is exactly a supervised run (the
    uncached baseline the metamorphic tests compare against). *)
val analyze :
  ?cache:t ->
  ?rules:Core.Rules.rule list ->
  ?options:Core.Supervisor.options ->
  ?config:Core.Config.t ->
  Core.Taj.input ->
  outcome

(** One application's persisted cache store: a mutable [(tier, key) ->
    payload] table mirrored to a single versioned file.

    File layout: a header frame carrying the format version and the
    compiler version (Marshal streams are not portable across compiler
    versions), then one frame per entry. Loading validates everything up
    front; {e any} anomaly — torn write, bit flip, header from another
    version — discards the whole file and starts cold, recording the
    reason in {!corruption}. Saving goes through an atomic
    temp-file-and-rename, so a crash mid-save leaves the previous store
    intact. Both directions pass through the {!Core.Fault} sites
    [cache:read] / [cache:write] for chaos testing.

    All entry operations are serialized on an internal mutex: the parse
    and def/use tiers are consulted from worker domains. *)

type t

(** Bumped whenever the entry encoding changes; part of the header. *)
val version : int

(** The exact header frame payload a loadable store must carry. *)
val header : string

(** File path this store mirrors. *)
val path : t -> string

(** Why the on-disk file was discarded at load, if it was. [None] also
    when no file existed (a missing store is cold, not corrupt). *)
val corruption : t -> string option

(** Load the store at [path]; never raises. A missing file yields an
    empty store; an unreadable or invalid one yields an empty store with
    {!corruption} set. *)
val load : string -> t

(** Persist every entry. Returns [false] (dropping the persist, keeping
    the previous file) if the write fails or the [cache:write] fault site
    fires; a failed save only costs warmth. A successful save clears
    {!corruption}: the discarded file has been replaced. *)
val save : t -> bool

val find : t -> tier:string -> key:string -> string option
val put : t -> tier:string -> key:string -> string -> unit
val remove : t -> tier:string -> key:string -> unit

(** All [(key, payload)] entries of one tier, sorted by key. *)
val bindings : t -> tier:string -> (string * string) list

val entry_count : t -> int

(** The key plus payload lengths of every entry: what the store holds in
    memory, up to table overhead. *)
val bytes : t -> int

(** Fixed-size Domain worker pool with a deterministic, index-ordered
    merge, for fan-out across independent analysis runs (the bench
    harness's per-app rows). A single analysis run never uses it: every
    run is sequential.

    [map ~jobs f xs] behaves exactly like [List.map f xs] but runs tasks
    on up to [jobs] domains. Results come back in input order no matter
    which domain computed them. Exceptions are captured per task; once
    every worker has joined, the exception of the lowest-index failed
    task is re-raised with its original backtrace (the other tasks still
    ran to completion). With [jobs <= 1], or an empty/singleton input, no
    domain is spawned and the call is literally [List.map]. *)
val map : jobs:int -> ('a -> 'b) -> 'a list -> 'b list

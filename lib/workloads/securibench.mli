(** A micro-benchmark suite in the spirit of Stanford SecuriBench Micro
    (cited by the paper; its Refl1 case inspired the Figure 1 program).
    Each case is a tiny servlet with a known number of vulnerable sinks and
    the number of issues a thin-slicing analysis is expected to report —
    deviations (control-dependence blind spot, flow-insensitive-heap false
    positives) are explicit in the data. *)

type case = {
  sb_name : string;
  sb_description : string;
  sb_source : string;
  sb_expected : int;      (** issues under Hybrid_unbounded *)
  sb_vulnerable : int;    (** semantically vulnerable sinks *)
}

val cases : case list

(** Analyze one case; returns the number of reported issues (-1 when the
    analysis does not complete). *)
val run_case : ?algorithm:Core.Config.algorithm -> case -> int

(* [Obs.Json] under its old name, kept only because the benchmark's
   [perfbench/serve_load.ml] names [Serve.Json]; it goes with
   [Service.run_socket] at the next change to the benchmark. *)
include Obs.Json

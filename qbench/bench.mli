(** One benchmark run: timed passes through the service, the output
    check, the traced re-execution, and the metrics of both. *)

val env_overrides : string list
(** Environment variables [Qspr.Config.default] reads.  Any of them set
    would silently change [m], the budgets or the routing stack. *)

type metric = { name : string; unit_ : string; value : float }

type result = {
  attempted : int;
  failed : int;
  end_to_end : metric list;
  per_layer : metric list;
  context : (string * Ion_util.Json.t) list;
      (** what the numbers depend on: host, toolchain, commit, seed, pass
          counts, the percentile behind [job_ms_tail], [error_rate] *)
}

val run :
  Gen.workload -> seed:int -> seconds:float -> trace_out:string option -> result
(** Set up fresh services, run timed passes for about [seconds], then
    trace one pass.  Failed checks are printed to stderr with the job id. *)

(** Descriptive statistics over float samples.

    Experiment reports (Table 1 sensitivity sweeps, ablations) aggregate
    latencies over random seeds with these helpers. *)

val mean : float list -> float
(** Arithmetic mean; 0 on the empty list. *)

val variance : float list -> float
(** Population variance; 0 on lists shorter than 2. *)

val min_max : float list -> float * float
(** @raise Invalid_argument on the empty list. *)

val median : float list -> float
(** @raise Invalid_argument on the empty list. *)

val percentile : float -> float list -> float
(** [percentile p xs] with [p] in [0,100], linear interpolation.
    @raise Invalid_argument on the empty list. *)

val sum : float list -> float

val geometric_mean : float list -> float
(** Geometric mean of positive samples; used for aggregate improvement
    factors across benchmark circuits. *)

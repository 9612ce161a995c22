(** Configuration analysis (pass ["config"]): parameter combinations that
    are legal but waste work or quietly change the experiment.

    - [invalid] (error): {!Qspr.Config.validate} rejects the record;
    - [prescreen-ineffective] (warning): [prescreen_k >= m] routes every
      candidate anyway, paying the estimator for nothing;
    - [prescreen-trusts-estimator] (hint): [prescreen_k < 3] lets the
      routing-free estimator pick the near-final winner — its ranking error
      can drop the true best placement;
    - [turn-cheaper-than-move] (warning): [t_turn < t_move] inverts the
      cost model the turn-aware router exists for;
    - [gate2-faster-than-gate1] (hint): unusual technology, worth a look;
    - [capacity-unusual] (hint): channel capacity beyond the paper's
      ion-multiplexing assumption of 2.

    No finding reads the host: the same config gets the same findings on
    every machine, at any [jobs]. *)

val check : Qspr.Config.t -> Finding.t list
(** All findings, errors first. *)

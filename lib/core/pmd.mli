(** Physical Machine Description (PMD) files.

    Figure 1 of the paper feeds the mapper a "PMD" — the technology file
    describing the quantum circuit fabric.  This module defines a simple
    key/value format bundling everything machine-specific so a whole
    machine can be swapped with one file:

    {v
      # ion-trap PMD
      name          = quale-45x85
      t_move_us     = 1
      t_turn_us     = 10
      t_gate1_us    = 10
      t_gate2_us    = 100
      channel_capacity  = 2
      junction_capacity = 2
      fabric        = grid          # grid | linear | inline
      width  = 85    height = 45    # grid parameters
      pitch_x = 8    pitch_y = 7
      margin = 2     traps_per_channel = 1
    v}

    [fabric = linear] takes [traps = N]; [fabric = inline] is followed by a
    line [--- fabric ---] and an ASCII fabric (J/C/T) to the end of file.
    Unknown keys are rejected (typos should not silently become defaults). *)

type t = {
  name : string;
  timing : Router.Timing.t;
  channel_capacity : int;
  junction_capacity : int;
  layout : Fabric.Layout.t;
}

val parse : string -> (t, string) result
(** Parses PMD text.  Missing keys default to the paper's setup; errors
    carry line numbers. *)

val parse_file : string -> (t, string) result
(** Reads and parses the file; an unreadable file is an error naming the path. *)

val paper : t
(** The paper's experimental setup as a PMD value. *)

val to_string : t -> string
(** Renders a PMD (with inline fabric) that {!parse} accepts. *)

val config : t -> Config.t
(** A mapper {!Config.t} carrying this PMD's timing and capacities (QSPR
    policy capacities; the QUALE policy keeps capacity 1 per the paper). *)

(** The shared diagnostic currency, re-exported.

    The concrete type lives in the standalone [analysis_finding] library so
    low-level producers ({!Fabric.Lint}) can return findings without
    depending on this library; everything above — the passes here, the
    CLI, the tests — spells it [Analysis.Finding]. *)

include module type of struct
  include Analysis_finding
end

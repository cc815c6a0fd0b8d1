(** Target metrics.

    A metric is "any quantifiable measure" (§3.1, footnote 1): throughput,
    latency, memory usage, image size or a composite score.  Search
    algorithms always maximise the metric's {!score}; minimised metrics are
    negated. *)

type t = { metric_name : string; unit_name : string; maximize : bool }

val make : ?maximize:bool -> name:string -> unit_name:string -> unit -> t
val throughput : t
val memory_mb : t
val composite_score : t
(** The §4.4 throughput–memory score of eq. (4). *)

val of_app : Wayfinder_simos.App.t -> t

val score : t -> float -> float
(** Higher-is-better view of a raw value. *)

val better : t -> float -> float -> bool
(** [better t a b] is true when raw value [a] beats raw value [b]. *)

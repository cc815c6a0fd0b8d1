(** Runtime configuration-space inference (the heuristic of §3.4).

    Linux exposes runtime options as writable pseudo-files under
    [/proc/sys] and [/sys].  The paper's heuristic discovers their types
    and value ranges by (1) listing writable files, (2) reading each file's
    default, (3) inferring bool for defaults of 0/1 and int otherwise, and
    (4) estimating the valid range by repeatedly scaling the default by a
    factor of 10 in both directions and attempting the write.  Non-numeric
    files are skipped (left to manual exploration).

    The pseudo-filesystem is abstracted as an {!iface} so the heuristic
    runs identically against {!Wayfinder_simos}'s simulated sysctl tree
    (or, outside this reproduction, a real one). *)

type write_result = Accepted | Rejected | Crash

type iface = {
  list_files : unit -> string list;  (** Writable pseudo-files, e.g. ["net.core.somaxconn"]. *)
  read : string -> string option;  (** Current (default) value. *)
  write : string -> string -> write_result;
      (** Attempt to set a value; [Crash] models a VM that died on the
          write (the probe then treats the value as out of range). *)
}

type report = {
  probed : Param.t list;  (** Discovered runtime parameters, in listing order. *)
  skipped : string list;  (** Non-numeric files left to manual exploration. *)
  crashes : int;  (** Writes that crashed the probe VM. *)
}

val probe : ?scale_steps:int -> iface -> report
(** [scale_steps] bounds how many ×10 scalings are attempted per direction
    (default 4, i.e. up to default·10⁴ and default/10⁴). *)

(** Hardware descriptions for the simulated testbeds.

    §4's experiments run on a dual-socket Xeon E5-2697 v2 restricted to one
    NUMA node; §4.4's memory experiment boots RISC-V images under QEMU
    emulation.  The performance models scale with these descriptions, so a
    change of machine changes absolute numbers but not orderings — matching
    the artifact appendix's reproducibility expectations. *)

type isa = X86_64 | Riscv64

type t = {
  hw_name : string;
  isa : isa;
  cores : int;
  ghz : float;
  ram_mb : int;
  numa_nodes : int;
  emulated : bool;  (** QEMU TCG emulation (slow, but memory-faithful). *)
}

val xeon_e5_2697v2_one_node : t
(** Single-node view used by the §4.1 experiments. *)

val cozart_testbed : t
(** The 4-core setup of the Cozart comparison (Table 4 caption). *)

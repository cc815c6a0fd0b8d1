type isa = X86_64 | Riscv64

type t = {
  hw_name : string;
  isa : isa;
  cores : int;
  ghz : float;
  ram_mb : int;
  numa_nodes : int;
  emulated : bool;
}

let xeon_e5_2697v2 =
  { hw_name = "2x Intel Xeon E5-2697 v2"; isa = X86_64; cores = 48; ghz = 2.70; ram_mb = 131072;
    numa_nodes = 2; emulated = false }

let xeon_e5_2697v2_one_node =
  { xeon_e5_2697v2 with hw_name = "Xeon E5-2697 v2 (one NUMA node)"; cores = 24; ram_mb = 65536;
    numa_nodes = 1 }

let cozart_testbed =
  { hw_name = "Cozart testbed (4 cores)"; isa = X86_64; cores = 4; ghz = 2.60; ram_mb = 16384;
    numa_nodes = 1; emulated = false }

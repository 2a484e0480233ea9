// Package perfmodel prices simulated work in wall-clock seconds on the
// paper's hardware (Table II: 50 nodes × 8 GeForce GTX Titan X, PCIe 32 GB/s
// bidirectional per GPU, FDR InfiniBand 15 GB/s bidirectional per node).
//
// A Hardware profile exposes three primitives: α–β (latency–bandwidth)
// LinkCost values for the collectives' ring hops, gathers and broadcasts;
// ComputeSeconds, an achieved-FLOPs compute model; and MemorySeconds, a
// memory-bandwidth model for the embedding scatter-add update. The
// collective layer and cluster.Device charge the virtual clocks through
// them as a run executes, and the paper-scale tables in
// internal/experiments price their closed-form steps through the same
// calls. Absolute times depend on a small number of calibration constants
// anchored to the paper's own measurements (§V-A: 2.44 TFLOP/s achieved for
// word LM; §V-B: 3.95 TFLOP/s for char LM; the 8-GPU epoch hours of Tables
// III and IV); the *scaling behaviour* across GPU counts comes entirely
// from the measured volumes.
package perfmodel

// Hardware describes one GPU cluster profile.
type Hardware struct {
	// Name for reports.
	Name string
	// PeakFLOPS is per-GPU single-precision peak.
	PeakFLOPS float64
	// MemBytes is per-GPU memory capacity.
	MemBytes int64
	// IntraBW is effective per-GPU unidirectional bandwidth for ring
	// traffic inside one node (PCIe), bytes/s.
	IntraBW float64
	// InterBW is effective per-GPU unidirectional bandwidth once the ring
	// spans nodes (InfiniBand boundary links), bytes/s.
	InterBW float64
	// MemBW is effective device-memory bandwidth for the embedding
	// update's scatter-add traffic, bytes/s.
	MemBW float64
	// GPUsPerNode sets where rings start crossing the interconnect.
	GPUsPerNode int
	// HopLatency is the per-collective-step latency α, seconds.
	HopLatency float64
}

// TitanX returns the Table II cluster profile. Effective bandwidths are
// derated well below the quoted link peaks (32 GB/s PCIe bidirectional,
// 15 GB/s FDR bidirectional) to the throughput a TF-1.4 cuda-aware-MPI
// stack actually sustained on many medium-sized tensors — the derating is
// part of the calibration documented in EXPERIMENTS.md.
func TitanX() Hardware {
	return Hardware{
		Name:        "TitanX-FDR",
		PeakFLOPS:   6.1e12,
		MemBytes:    12 << 30,
		IntraBW:     8e9,
		InterBW:     3e9,
		MemBW:       150e9,
		GPUsPerNode: 8,
		HopLatency:  20e-6,
	}
}

// V100 returns the §V-D comparison profile ([21]: 128 Volta GPUs, 125
// TFLOP/s tensor peak, 16 GB, NVLink).
func V100() Hardware {
	return Hardware{
		Name:        "V100-NVLink",
		PeakFLOPS:   125e12,
		MemBytes:    16 << 30,
		IntraBW:     130e9,
		InterBW:     22e9,
		MemBW:       900e9,
		GPUsPerNode: 8,
		HopLatency:  10e-6,
	}
}

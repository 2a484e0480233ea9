package perfmodel

import (
	"math"
	"testing"
)

func TestTitanXMatchesTableII(t *testing.T) {
	h := TitanX()
	if h.PeakFLOPS != 6.1e12 {
		t.Error("Titan X peak must be 6.1 TFLOP/s")
	}
	if h.MemBytes != 12<<30 {
		t.Error("Titan X memory must be 12 GB")
	}
	if h.GPUsPerNode != 8 {
		t.Error("8 GPUs per node per Table II")
	}
}

func TestRingBWCrossesNodeBoundary(t *testing.T) {
	h := TitanX()
	if h.RingLink(8).BytesPerSec != h.IntraBW {
		t.Error("8-rank ring must stay on PCIe")
	}
	if h.RingLink(16).BytesPerSec != h.InterBW {
		t.Error("16-rank ring must hit the InfiniBand boundary")
	}
	if h.InterBW >= h.IntraBW {
		t.Error("inter-node bandwidth must be below intra-node")
	}
}

func TestStepTimeComputeOnly(t *testing.T) {
	h := TitanX()
	// §V-A: 136 GFLOP/iter at 40% of peak = 2.44 TFLOP/s → 55.7 ms.
	got := h.ComputeSeconds(136e9, 0.40)
	want := 136e9 / 2.44e12
	if math.Abs(got-want)/want > 1e-9 {
		t.Errorf("compute time = %v, want %v", got, want)
	}
}

func TestSingleRankSkipsComm(t *testing.T) {
	l := TitanX().RingLink(1)
	if l.RingAllReduceSeconds(1, 1<<28, 4) != 0 ||
		l.RingAllReduceSecondsBytes(1, 1<<30) != 0 ||
		l.RingAllGatherSeconds(1, 1<<30) != 0 ||
		l.TreeBroadcastSeconds(1, 1<<30) != 0 {
		t.Error("single rank must not pay communication")
	}
}

func TestV100FasterThanTitanX(t *testing.T) {
	// §V-D: "41X less powerful infrastructure" (16 PFLOP/s vs 0.39
	// PFLOP/s for the whole clusters) — per GPU, 125/6.1 ≈ 20×.
	ratio := V100().PeakFLOPS / TitanX().PeakFLOPS
	if ratio < 19 || ratio > 22 {
		t.Errorf("V100/TitanX peak ratio = %v", ratio)
	}
}

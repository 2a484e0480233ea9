// Command perfbench is zipflm's benchmark: one command that runs a
// training or serving workload against the library's public API, checks
// the outputs, and prints its metrics by name with units. See README.md
// for the workloads, the metrics and what each layer metric should move.
//
//	perfbench --workload train-word --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the run is untraced and reports the end-to-end metrics;
// with --trace 1 it runs the workload again with timing wrappers and the
// tracer installed and reports the per-layer metrics. The last line of
// standard output is the JSON result; the line before it records the
// build and host the numbers came from. A failed correctness check exits
// with status 1 after printing the result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"zipflm/internal/telemetry"
)

// setupRepeats is how many times set-up runs in an untraced run; setup_s is
// the median.
const setupRepeats = 3

const heapSampleEvery = 5 * time.Millisecond

type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is a run's result line plus the reasons any check failed.
type outcome struct {
	attempted, failed int64
	metrics           map[string]metric
	problems          []string
}

func newOutcome() *outcome { return &outcome{metrics: map[string]metric{}} }

func (o *outcome) put(name string, v float64, unit string) {
	o.metrics[name] = metric{v, unit}
}

func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

type workload struct {
	run, traced func(options) (*outcome, error)
}

var workloads = map[string]workload{
	"train-word":   {trainWord.runTrain, trainWord.runTrainTraced},
	"train-char":   {trainChar.runTrain, trainChar.runTrainTraced},
	"serve-zipf":   {serveZipf.runServe, serveZipf.runServeTraced},
	"serve-unique": {serveUnique.runServe, serveUnique.runServeTraced},
}

// endToEndMetrics is the untraced run's metric set, with units.
var endToEndMetrics = map[string]string{
	"setup_s": "s", "peak_heap_mb": "MiB", "tok_per_cpu_s": "tok/cpu-s", "valid_loss": "nats",
}

// perLayerMetrics is the full per-layer set with units. A traced run
// reports every one; a layer the workload does not exercise reads 0.
var perLayerMetrics = func() map[string]string {
	m := map[string]string{
		"tensor.kernel_ms": "ms", "tensor.gflop_s": "GFLOP/s", "tensor.gbyte_s": "GB/s",
		"tensor.flops_per_step": "FLOP", "model.other.ms": "ms",
		"sampling.sample_ms": "ms", "core.exchange_ms": "ms", "core.unique_global": "count",
		"core.unique_ratio": "ratio", "collective.bytes_per_step": "B",
		"collective.calls_per_step": "count", "collective.allreduce_ms": "ms",
		"collective.allgather_ms": "ms", "collective.broadcast_ms": "ms",
		"vclock.compute_ms": "ms", "vclock.sync_ms": "ms", "vclock.wire_ms": "ms",
		"vclock.sync_wait_ms": "ms", "vclock.sim_step_ms": "ms", "cluster.peak_dev_mb": "MiB",
		"trainer.compute_ms": "ms", "trainer.sync_ms": "ms", "trainer.straggler_ms": "ms",
		"optim.step_ms": "ms", "ckpt.capture_ms": "ms",
		"go.alloc_kb_per_step": "KiB", "go.gc_cpu_frac": "ratio",
		"serve.queue_ms_p50": "ms", "serve.queue_ms_p95": "ms", "serve.prefill_ms_p50": "ms",
		"serve.decode_ms_per_token": "ms", "serve.mean_batch": "count",
		"serve.result_hit_rate": "ratio", "serve.prefix_hit_rate": "ratio",
		"serve.slo_ok_frac": "ratio", "serve.failed_frac": "ratio",
		"model.step_cells_us": "us", "model.logits_us": "us", "sampling.decode_sample_us": "us",
		"loadgen.lag_ms_p95": "ms", "trace.overhead_frac": "ratio",
		"train.tok_s": "tok/s", "train.step_ms_p50": "ms", "train.step_ms_p90": "ms",
		"serve.tok_s": "tok/s", "serve.latency_ms_p50": "ms", "serve.latency_ms_p95": "ms",
	}
	for _, k := range kernelNames {
		m["tensor."+k+".ms"] = "ms"
	}
	for _, l := range layerNames {
		m["model."+l+".ms"] = "ms"
	}
	return m
}()

func main() {
	os.Exit(run())
}

func run() int {
	var (
		o       options
		seconds int
		trace   int
	)
	flag.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.IntVar(&seconds, "seconds", 10, "measurement window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.Parse()
	w, ok := workloads[o.workload]
	if !ok || seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds ≥ 1 and --trace 0 or 1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	o.seconds = time.Duration(seconds) * time.Second
	o.trace = trace == 1

	// Marshal cannot fail on these plain values.
	stamp, _ := json.Marshal(map[string]any{
		"workload": o.workload, "seed": o.seed, "seconds": seconds, "trace": trace,
		"build": telemetry.CollectBuildInfo(), "nproc": runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0), "cpu": cpuModel(),
	})
	fmt.Println(string(stamp))

	runFn := w.run
	if o.trace {
		runFn = w.traced
	}
	out, err := runFn(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		return 2
	}
	want := endToEndMetrics
	if o.trace {
		want = perLayerMetrics
	}
	for name, m := range out.metrics {
		if _, ok := want[name]; !ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s: also measured %s = %v %s\n", o.workload, name, m.Value, m.Unit)
			delete(out.metrics, name)
		}
	}
	for name, unit := range want {
		if _, ok := out.metrics[name]; !ok {
			if !o.trace {
				out.fail("metric %s was not measured", name)
			}
			out.put(name, 0, unit)
		}
	}
	for name, m := range out.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			out.fail("metric %s is %v", name, m.Value)
			out.metrics[name] = metric{-1, m.Unit}
		}
	}
	for _, p := range out.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", o.workload, p)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(out.problems) == 0, out.attempted, out.failed, out.metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Println(string(line))
	if len(out.problems) > 0 {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// writeTrace writes the run's trace where zipflm-trace can read it.
func writeTrace(tr *telemetry.Tracer, o options) (string, error) {
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It drives the system only through its public entry points
// (datagen and workload for inputs, harness.Ring / core.Engine and the
// NavBFS baseline for the query log, the ringrpq Service over HTTP,
// OpenDurable for live updates), checks every answer, and prints each
// metric by name and unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage (from the repository root; run.sh builds and calls this):
//
//	bash perfbench/run.sh --workload log-c2v --seed 1 --seconds 10 --trace 0
//
// See README.md in this directory for the workloads, the metric map and
// the traced run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(*run) error{
	"log-c2v":      runLogC2V,
	"log-v2v":      runLogV2V,
	"service-mix":  runServiceMix,
	"live-updates": runLiveUpdates,
}

// run is the state of one benchmark invocation.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	outDir   string

	tr      *tracer       // nil unless traced
	wrapper *traceWrapper // service-mix's handler wrapper when traced
	rep     *report
	config  map[string]any // workload sizes, echoed with the environment
}

func main() {
	var (
		workload = flag.String("workload", "", "workload name: log-c2v, log-v2v, service-mix or live-updates")
		seed     = flag.Int64("seed", 1, "seed for the generated inputs")
		seconds  = flag.Int("seconds", 10, "measurement time per run in seconds")
		trace    = flag.Int("trace", 0, "1 records spans and reports the per-layer metrics; 0 reports the end-to-end metrics")
		outDir   = flag.String("out", ".bench_build", "directory for the span dump and temporary WAL directories")
	)
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	r := &run{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		outDir:   *outDir,
		rep:      &report{},
		config:   map[string]any{},
	}
	if r.traced {
		r.tr = newTracer()
	}
	if err := fn(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", r.workload, err)
		os.Exit(1)
	}
	env := benchEnv(r)
	envJSON, _ := json.Marshal(env)
	fmt.Printf("env %s\n", envJSON)
	if r.traced {
		path := filepath.Join(r.outDir, fmt.Sprintf("trace-%s-seed%d.json", r.workload, r.seed))
		if err := r.tr.dump(path, env); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		r.tr.printSelfTimes()
		fmt.Printf("spans written to %s\n", path)
	}
	r.rep.print(r.traced)
}

// reportHeap adds live_heap_mb: the Go heap in use after a forced
// collection, taken at the end of the run while the workload's state
// (passed as keep) is still reachable.
func (r *run) reportHeap(keep ...any) {
	runtime.GC()
	debug.FreeOSMemory()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.rep.addE2E("live_heap_mb", float64(ms.HeapAlloc)/(1<<20), "MB")
	runtime.KeepAlive(keep)
}

// metric is one named measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects the metrics of one run. e2e holds the end-to-end
// metrics listed in BENCHMARK.json, layer the per-layer ones listed
// there. extra holds the metrics that print by name and unit but stay
// out of the final JSON line: the ones only some workloads have, and
// the absolute throughput and latency figures, whose run-to-run spread
// on a noisy 2-core host exceeds the largest bound a gated metric may
// have (see README.md).
type report struct {
	e2e, layer, extra map[string]metric
	order             []string
	attempted, failed int
	mismatches        int
	// side marks a side comparison whose operations are checked but
	// not counted in attempted/failed.
	side bool
}

func (p *report) put(m *map[string]metric, name string, v float64, unit string) {
	if *m == nil {
		*m = map[string]metric{}
	}
	if _, dup := (*m)[name]; !dup {
		p.order = append(p.order, name)
	}
	(*m)[name] = metric{Value: v, Unit: unit}
}

func (p *report) addE2E(name string, v float64, unit string)   { p.put(&p.e2e, name, v, unit) }
func (p *report) addLayer(name string, v float64, unit string) { p.put(&p.layer, name, v, unit) }
func (p *report) addExtra(name string, v float64, unit string) { p.put(&p.extra, name, v, unit) }

// attempt records one operation's outcome for failed_frac.
func (p *report) attempt(failed bool) {
	if p.side {
		return
	}
	p.attempted++
	if failed {
		p.failed++
	}
}

// mismatch prints and counts one wrong answer; it is also a failure.
func (p *report) mismatch(format string, args ...any) {
	p.mismatches++
	fmt.Printf("MISMATCH "+format+"\n", args...)
}

// print writes every metric as a "name value unit" line, then the final
// JSON line with the end-to-end (untraced) or per-layer (traced) set.
func (p *report) print(traced bool) {
	frac := 0.0
	if p.attempted > 0 {
		frac = float64(p.failed) / float64(p.attempted)
	}
	p.addExtra("failed_frac", frac, "ratio")
	p.addExtra("mismatches", float64(p.mismatches), "count")
	for _, name := range p.order {
		for _, m := range []map[string]metric{p.e2e, p.layer, p.extra} {
			if v, ok := m[name]; ok {
				fmt.Printf("metric %-34s %14.6g %s\n", name, v.Value, v.Unit)
			}
		}
	}
	out := p.e2e
	if traced {
		out = p.layer
	}
	final := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{p.mismatches == 0, p.attempted, p.failed, out}
	b, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"repro/internal/harness"
	"repro/internal/sysinfo"
)

// flushPolicy is the durability every latency in the report is measured
// under: these are this machine's fsync costs, not a device's.
const flushPolicy = "one fsync per record on the local journal and on worker spools; " +
	"collector shard journals group-commit with a 2ms window (one fsync per window)"

// report writes the human-readable account that precedes the JSON line.
type report struct {
	w io.Writer
}

func newReport(w io.Writer, cfg config, why string) *report {
	r := &report{w: w}
	mode := "end-to-end (untraced)"
	if cfg.trace {
		mode = "traced per-layer breakdown"
	}
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%g mode=%s\n", cfg.workload, cfg.seed, cfg.seconds, mode)
	fmt.Fprintf(w, "why: %s\n", why)
	r.environment()
	return r
}

// environment records the machine and software the numbers belong to.
func (r *report) environment() {
	hw, sw, _ := sysinfo.Capture() // best effort by contract; never fails
	if kb := memTotalKB(); kb > 0 {
		hw.RAMBytes = kb << 10
	}
	if rel, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		sw.Kernel = strings.TrimSpace(string(rel))
	}
	fmt.Fprintf(r.w, "environment:\n")
	for _, line := range strings.Split(hw.Report(sysinfo.Right)+"\n"+sw.Report(), "\n") {
		if line = strings.TrimSpace(line); line != "" {
			fmt.Fprintf(r.w, "  %s\n", line)
		}
	}
	fmt.Fprintf(r.w, "  nproc=%d GOMAXPROCS=%d go=%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	if missing := hw.MissingFields(); len(missing) > 0 {
		fmt.Fprintf(r.w, "  not captured: %s\n", strings.Join(missing, ", "))
	}
	fmt.Fprintf(r.w, "flush policy: %s\n", flushPolicy)
}

func memTotalKB() int64 {
	data, err := os.ReadFile("/proc/meminfo")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "MemTotal:" {
			kb, _ := strconv.ParseInt(f[1], 10, 64)
			return kb
		}
	}
	return 0
}

func (r *report) endToEnd(vals map[string]float64, counts, names map[string]string, f figures) {
	t := harness.NewTable().Header("metric", "value", "unit", "samples", "here it is")
	for _, d := range endToEnd {
		t.Row(d.name, fmt.Sprintf("%.6g", vals[d.name]), d.unit, counts[d.name], names[d.name])
	}
	fmt.Fprint(r.w, t.String())
	// The p99 does not repeat within a tenth from run to run on this
	// shared machine, so it is printed for reading but not gated.
	fmt.Fprintf(r.w, "latency_p99_ms=%.6g (n=%d, %d beyond; reported, not a gated metric)\n",
		quantile(f.lat, 0.99), len(f.lat), beyond(len(f.lat), 0.99))
	fmt.Fprintf(r.w, "failed_frac=%g (%d failed or refused of %d attempted)\n",
		ratio(float64(f.failed), float64(f.attempted)), f.failed, f.attempted)
}

func (r *report) layers(st selfTimes, vals map[string]float64, bases map[string]string, untraced, traced figures) {
	fmt.Fprintf(r.w, "traced phase: wall %.3fs, spans cover %.3fs (unaccounted %.2f%%, tolerance %.0f%%)\n",
		st.wall, st.covered, 100*st.unaccounted(), 100*traceTolerance)
	fmt.Fprintf(r.w, "trace overhead: %.0f ops in %.3fs untraced vs %.0f in %.3fs traced -> overhead_frac %.4f\n",
		untraced.ops, untraced.opsTime.Seconds(), traced.ops, traced.opsTime.Seconds(), vals["trace.overhead_frac"])
	names := make([]string, 0, len(st.count))
	layers := map[string]bool{}
	for n := range st.count {
		names = append(names, n)
		layers[layerOf(n)] = true
	}
	sort.Strings(names)
	t := harness.NewTable().Header("layer", "spans", "busy_s", "self_s", "self/wall")
	for _, l := range []string{"bench", "harness", "sched", "runstore", "client", "collector", "warehouse"} {
		if !layers[l] {
			continue
		}
		var spans int
		var busy float64
		for _, n := range names {
			if layerOf(n) == l {
				spans += st.count[n]
				busy += st.busy[n]
			}
		}
		self := st.layerSelf(l)
		t.Row(l, strconv.Itoa(spans), fmt.Sprintf("%.4f", busy), fmt.Sprintf("%.4f", self),
			fmt.Sprintf("%.4f of %.3fs", ratio(self, st.wall), st.wall))
	}
	t.Row("(none)", "", "", fmt.Sprintf("%.4f", st.wall-st.covered),
		fmt.Sprintf("%.4f of %.3fs", st.unaccounted(), st.wall))
	fmt.Fprint(r.w, t.String())
	t = harness.NewTable().Header("span", "count", "busy_s", "self_s", "self/wall")
	for _, n := range names {
		t.Row(n, strconv.Itoa(st.count[n]), fmt.Sprintf("%.4f", st.busy[n]),
			fmt.Sprintf("%.4f", st.self[n]), fmt.Sprintf("%.4f of %.3fs", ratio(st.self[n], st.wall), st.wall))
	}
	fmt.Fprint(r.w, t.String())
	t = harness.NewTable().Header("metric", "value", "unit", "base")
	for _, d := range perLayer {
		t.Row(d.name, fmt.Sprintf("%.6g", vals[d.name]), d.unit, bases[d.name])
	}
	fmt.Fprint(r.w, t.String())
}

func (r *report) checks(lines []string) {
	for _, l := range lines {
		fmt.Fprintf(r.w, "check ok: %s\n", l)
	}
}

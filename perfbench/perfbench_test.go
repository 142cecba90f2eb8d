package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"

	"f4t/internal/sim"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]metric(nil), endToEndMetrics...), perLayerMetrics...) {
		if !metricName.MatchString(m.name) {
			t.Errorf("metric name %q does not match %s", m.name, metricName)
		}
		if seen[m.name] {
			t.Errorf("metric name %q used twice", m.name)
		}
		seen[m.name] = true
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the metrics and workloads
// the program prints.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit, Better, Why string }
	var b struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []entry, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if g := got[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, g, m)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEndMetrics)
	same("per_layer", b.PerLayer, perLayerMetrics)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if g := b.Workloads[i]; g.Name != w.name || g.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program %q: %q", i, g, w.name, w.why)
		}
	}
}

func TestTailQuantileNeedsTenBeyond(t *testing.T) {
	var h sim.Histogram
	for i := 0; i < 5_000; i++ {
		h.Observe(int64(i))
	}
	if _, err := tailQuantile(&h, 0.999); err == nil {
		t.Error("p99.9 of 5,000 samples (5 beyond it) accepted")
	}
	for i := 5_000; i < 10_000; i++ {
		h.Observe(int64(i))
	}
	v, err := tailQuantile(&h, 0.999)
	if err != nil {
		t.Fatalf("p99.9 of 10,000 samples refused: %v", err)
	}
	if beyond := 9_999 - v; beyond < minTail {
		t.Errorf("p99.9 of 0..9999 = %d: only %d samples beyond it", v, beyond)
	}
}

// TestTracingKeepsStepping: the markers must leave the kernel's
// skipping, and so every simulated outcome, exactly as untraced.
func TestTracingKeepsStepping(t *testing.T) {
	w, _ := findWorkload("nginx-64")
	cycles := w.windowCycles(0.2)
	plain := measure(w, 7, cycles, 1, nil)
	traced := measure(w, 7, cycles, 1, newTracer())
	p, q := plain.perLayer()["sim.stepped_frac"], traced.perLayer()["sim.stepped_frac"]
	if p != q || p >= 0.5 {
		t.Errorf("sim.stepped_frac untraced %v, traced %v: want equal and mostly skipped", p, q)
	}
	if plain.digest() != traced.digest() {
		t.Error("traced digest differs from untraced")
	}
	if again := measure(w, 7, cycles, 1, nil); again.digest() != plain.digest() {
		t.Error("two untraced runs of one seed differ")
	}
}

// TestSmoke runs every workload traced on a short window and checks
// that it passes its checks and emits every metric.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every workload (~1 min)")
	}
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			var out bytes.Buffer
			res := execute(w, 3, w.windowCycles(1), true, &out)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
			}
			if len(res.Metrics) != len(perLayerMetrics) {
				t.Errorf("%d per-layer metrics, want %d", len(res.Metrics), len(perLayerMetrics))
			}
			for _, m := range perLayerMetrics {
				if v, ok := res.Metrics[m.name]; !ok || v.Unit != m.unit {
					t.Errorf("per-layer metric %s missing or mislabelled: %+v", m.name, v)
				}
			}
			for _, m := range endToEndMetrics {
				if !strings.Contains(out.String(), "  "+m.name+" ") {
					t.Errorf("end-to-end metric %s missing from the report", m.name)
				}
			}
		})
	}
}

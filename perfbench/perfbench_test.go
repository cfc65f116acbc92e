package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"

	"mood/internal/core"
)

// benchmarkFile is the part of BENCHMARK.json the tests check the
// output against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func tinyConfig(t *testing.T, workload string, traced bool) config {
	return config{workload: workload, seed: 3, seconds: 3, trace: traced, size: tinySize, dir: t.TempDir()}
}

// TestTinyWorkloads runs every workload at a tiny size, untraced and
// traced, and checks that the output check passes and that every
// metric is printed under its name and unit in BENCHMARK.json, which
// lists only known workloads.
func TestTinyWorkloads(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) == 0 {
		t.Fatal("BENCHMARK.json lists no workloads")
	}
	for _, wl := range bf.Workloads {
		if !slices.Contains(workloadNames, wl.Name) {
			t.Errorf("BENCHMARK.json lists unknown workload %q", wl.Name)
		}
	}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			res, lines, err := bench(tinyConfig(t, name, traced))
			if err != nil {
				t.Fatalf("%s trace=%t: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%t: correct=%t attempted=%d failed=%d\n%v",
					name, traced, res.Correct, res.Attempted, res.Failed, lines)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, BENCHMARK.json declares %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%t: metric %s = %+v, want unit %s", name, traced, m.Name, got, m.Unit)
				}
			}
			if !traced && res.Metrics["complete_s"].Value <= 0 {
				t.Errorf("%s: complete_s = %v", name, res.Metrics["complete_s"].Value)
			}
		}
	}
}

// TestMetricTablesMatchBenchmarkFile keeps the code's metric tables
// and BENCHMARK.json in step.
func TestMetricTablesMatchBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d/%d metrics, the code %d/%d",
			len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range endToEnd {
		if bf.EndToEnd[i].Name != m.name || bf.EndToEnd[i].Unit != m.unit {
			t.Errorf("end_to_end[%d] = %+v, code has %+v", i, bf.EndToEnd[i], m)
		}
	}
	for i, m := range perLayer {
		if bf.PerLayer[i].Name != m.name || bf.PerLayer[i].Unit != m.unit {
			t.Errorf("per_layer[%d] = %+v, code has %+v", i, bf.PerLayer[i], m)
		}
	}
}

// dropPiece removes the last published piece of a result.
func dropPiece(r *core.Result) {
	if len(r.Pieces) > 0 {
		r.Pieces = r.Pieces[:len(r.Pieces)-1]
	}
}

// flipRecord flips the lowest latitude bit of the first published
// record.
func flipRecord(r *core.Result) {
	if len(r.Pieces) == 0 || r.Pieces[0].Trace.Len() == 0 {
		return
	}
	recs := append([]core.Piece(nil), r.Pieces...)
	tr := recs[0].Trace.WithUser(recs[0].Trace.User)
	tr.Records = append(tr.Records[:0:0], tr.Records...)
	tr.Records[0].Lat += 1e-9
	recs[0].Trace = tr
	r.Pieces = recs
}

// TestOutputCheckCatchesCorruption wraps the engine so that it drops a
// piece or moves a record, and requires the output check to fail.
func TestOutputCheckCatchesCorruption(t *testing.T) {
	cases := []struct {
		workload string
		mutate   func(*core.Result)
	}{
		{"ingest", dropPiece},
		{"routed", dropPiece},
		{"drift-retrain", dropPiece},
		{"release", flipRecord},
		{"release", dropPiece},
	}
	for _, c := range cases {
		cfg := tinyConfig(t, c.workload, false)
		cfg.mutate = c.mutate
		res, lines, err := bench(cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.workload, err)
		}
		if res.Correct {
			t.Errorf("%s: corrupted output passed the check\n%v", c.workload, lines)
		}
	}
}

// TestQuantileCountsFailuresAsLate: a percentile that reaches into the
// failed requests, which count as infinitely late, reads +Inf and not
// the last success.
func TestQuantileCountsFailuresAsLate(t *testing.T) {
	var lat []float64
	for i := 0; i < 356; i++ {
		lat = append(lat, float64(i))
	}
	for i := 0; i < 4; i++ { // 1.1% failed
		lat = append(lat, math.Inf(1))
	}
	if got := quantile(lat, 0.99); !math.IsInf(got, 1) {
		t.Errorf("p99 with 1.1%% failures = %v, want +Inf", got)
	}
	if got := quantile(lat, 0.5); got != 179.5 {
		t.Errorf("p50 = %v, want 179.5", got)
	}
}

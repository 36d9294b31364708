package obs

import (
	"os"
	"path/filepath"
	"testing"
)

func benchSet(throughput float64) []BenchResult {
	return []BenchResult{
		{Name: "BenchmarkParallelSessions/workers_4", Iterations: 5,
			Metrics: map[string]float64{"schedules/s": throughput, "allocs/schedule": 19.5}},
		{Name: "BenchmarkPooledSchedule/pooled", Iterations: 100,
			Metrics: map[string]float64{"ns/op": 1000, "allocs/op": 11}},
	}
}

func TestReadBenchJSONRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(f, benchSet(3800)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, err := ReadBenchJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Metrics["schedules/s"] != 3800 {
		t.Fatalf("round trip lost data: %+v", got)
	}

	// The current shape: a snapshot stamped with its machine.
	snapPath := filepath.Join(t.TempDir(), "snap.json")
	f, err = os.Create(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	m := MachineStamp()
	if err := WriteJSON(f, BenchSnapshot{Machine: m, Results: benchSet(4100)}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, err = ReadBenchJSON(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Metrics["schedules/s"] != 4100 {
		t.Fatalf("snapshot round trip lost data: %+v", got)
	}
	if m.GOMAXPROCS < 1 || m.NumCPU < 1 || m.GoVersion == "" || m.CPUModel == "" || m.Commit == "" {
		t.Fatalf("incomplete machine stamp: %+v", m)
	}
	if _, err := ReadBenchJSON(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file read without error")
	}
}

func TestCompareBench(t *testing.T) {
	// Within tolerance: a 5% drop passes a 10% gate.
	cmps, err := CompareBench(benchSet(4000), benchSet(3800), "schedules/s", 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if len(cmps) != 1 || cmps[0].Regressed {
		t.Fatalf("5%% drop flagged as regression: %+v", cmps)
	}
	if cmps[0].Name != "BenchmarkParallelSessions/workers_4" {
		t.Fatalf("compared the wrong benchmark: %+v", cmps[0])
	}

	// Beyond tolerance: a 20% drop fails it.
	cmps, err = CompareBench(benchSet(4000), benchSet(3200), "schedules/s", 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if !cmps[0].Regressed {
		t.Fatalf("20%% drop not flagged: %+v", cmps[0])
	}
	if cmps[0].Delta > -0.19 || cmps[0].Delta < -0.21 {
		t.Fatalf("delta = %v, want about -0.20", cmps[0].Delta)
	}

	// Improvements never regress.
	cmps, err = CompareBench(benchSet(4000), benchSet(9000), "schedules/s", 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if cmps[0].Regressed {
		t.Fatalf("improvement flagged as regression: %+v", cmps[0])
	}

	// No shared benchmark carrying the metric: an error, not a free pass.
	if _, err := CompareBench(benchSet(4000), benchSet(3800), "widgets/s", 0.10); err == nil {
		t.Fatal("absent metric compared without error")
	}
}

func TestBenchHistoryAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_history.jsonl")
	for i, tp := range []float64{4000, 4100} {
		rec := BenchRecord{Time: []string{"2026-08-08T10:00:00Z", "2026-08-08T11:00:00Z"}[i],
			Results: benchSet(tp)}
		if err := AppendBenchRecord(path, rec); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := ReadBenchHistory(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("history holds %d records, want 2", len(recs))
	}
	if recs[0].Time >= recs[1].Time {
		t.Fatalf("records out of append order: %q then %q", recs[0].Time, recs[1].Time)
	}
	if recs[1].Results[0].Metrics["schedules/s"] != 4100 {
		t.Fatalf("latest record lost its results: %+v", recs[1])
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"surw/internal/campaign"
	"surw/internal/core"
	"surw/internal/remote"
	"surw/internal/runner"
	"surw/internal/sched"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		q    float64
		ok   bool
		want float64
	}{
		{99, 0.9, false, 0},
		{100, 0.9, true, 90},
		{1000, 0.9, true, 900},
		{19, 0.5, false, 0},
		{20, 0.5, true, 10},
		{0, 0.5, false, 0},
	} {
		v, ok := percentile(seq(tc.n), tc.q)
		if ok != tc.ok || (ok && v != tc.want) {
			t.Errorf("percentile(n=%d, q=%v) = %v, %v; want %v, %v", tc.n, tc.q, v, ok, tc.want, tc.ok)
		}
	}
}

func TestAuditFailsOnZeroOrNonFinite(t *testing.T) {
	declared := map[string]string{"a": "ms", "b": "ms", "c": "ms", "d": "ms"}
	r := &report{workload: "w", metrics: map[string]float64{"a": 1, "b": 0, "c": math.NaN(), "d": math.Inf(1)}}
	printed := e2eUnits
	defer func() { e2eUnits = printed }()
	e2eUnits = declared
	got := r.audit(declared)
	if len(got) != 3 {
		t.Fatalf("audit found %d problems, want 3 (b, c, d): %q", len(got), got)
	}
	for i, name := range []string{"b", "c", "d"} {
		if !strings.Contains(got[i], "metric "+name+" is") {
			t.Errorf("problem %d = %q, want one about %s", i, got[i], name)
		}
	}
}

// digestsAt runs n units of the workload over the given number of slots
// through run and returns each unit's digest.
func digestsAt(t *testing.T, w *workload, n, slots int, run sessionFunc) map[unit]uint32 {
	t.Helper()
	var mu sync.Mutex
	got := make(map[unit]uint32)
	f := newFeeder(w, 7, n, false, func() bool { return true })
	p := dispatchLocal(w, f, slots, func(u unit) (*runner.Session, error) {
		s, err := run(u)
		if err == nil {
			mu.Lock()
			got[u] = sessionDigest(s)
			mu.Unlock()
		}
		return s, err
	})
	if p.failed() != 0 {
		t.Fatalf("%d of %d sessions failed: %v", p.failed(), p.attempted(), p.firstError())
	}
	if len(got) != n {
		t.Fatalf("ran %d units, want %d", len(got), n)
	}
	return got
}

func TestDigestIndependentOfDispatchWidth(t *testing.T) {
	w := committed(t, "sct-first-bug")
	one := digestsAt(t, w, 80, 1, w.runSession)
	wide := digestsAt(t, w, 80, max(runtime.NumCPU(), 2), w.runSession)
	if !reflect.DeepEqual(one, wide) {
		t.Fatal("digests differ between dispatch widths 1 and nproc")
	}
}

func TestMirrorReproducesRunSession(t *testing.T) {
	for _, name := range []string{"sct-first-bug", "racebench-distinct", "surwsync-pool"} {
		w := committed(t, name)
		n := len(w.cells)
		if name == "sct-first-bug" {
			n = 60
		}
		var log traceLog
		// digestsAt fails on any session whose digest differs from the
		// committed table, for the mirror exactly as for RunSession.
		digestsAt(t, w, n, 2, log.mirror(w))
	}
}

// fakeAlg is a minimal algorithm; the wrappers below add optional
// interfaces to it in every combination.
type fakeAlg struct{}

func (fakeAlg) Name() string                                     { return "fake" }
func (fakeAlg) Begin(*sched.ProgramInfo, *rand.Rand)             {}
func (fakeAlg) Next(st *sched.State) sched.ThreadID              { return st.Enabled()[0] }
func (fakeAlg) Observe(sched.Event, *sched.State)                {}
func (fakeAlg) ObserveSpawn(_, _ sched.ThreadID, _ *sched.State) {}
func (fakeAlg) NextIndex(int) int                                { return 0 }
func (fakeAlg) BeginSource(rand.Source)                          {}

type algBase interface {
	Name() string
	Begin(*sched.ProgramInfo, *rand.Rand)
	Next(*sched.State) sched.ThreadID
	Observe(sched.Event, *sched.State)
}

type (
	fS struct {
		algBase
		sched.SpawnObserver
	}
	fI struct {
		algBase
		sched.IndexChooser
	}
	fR struct {
		algBase
		sched.SourceChooser
	}
	fSI struct {
		algBase
		sched.SpawnObserver
		sched.IndexChooser
	}
	fSR struct {
		algBase
		sched.SpawnObserver
		sched.SourceChooser
	}
	fIR struct {
		algBase
		sched.IndexChooser
		sched.SourceChooser
	}
	fSIR struct {
		algBase
		sched.SpawnObserver
		sched.IndexChooser
		sched.SourceChooser
	}
)

func interfaces(a sched.Algorithm) [3]bool {
	_, s := a.(sched.SpawnObserver)
	_, i := a.(sched.IndexChooser)
	_, r := a.(sched.SourceChooser)
	return [3]bool{s, i, r}
}

func TestWrapForwardsExactlyTheOptionalInterfaces(t *testing.T) {
	f := fakeAlg{}
	algs := map[string]sched.Algorithm{
		"none": struct{ algBase }{f},
		"S":    fS{f, f}, "I": fI{f, f}, "R": fR{f, f},
		"SI": fSI{f, f, f}, "SR": fSR{f, f, f}, "IR": fIR{f, f, f},
		"SIR": fSIR{f, f, f, f},
	}
	names := append(core.AllNames(), "URW", "RAPOS", "PCT", "DB-2")
	for _, n := range names {
		a, err := core.New(n)
		if err != nil {
			t.Fatal(err)
		}
		algs[n] = a
	}
	for name, a := range algs {
		w, _ := wrap(a)
		if got, want := interfaces(w), interfaces(a); got != want {
			t.Errorf("%s: wrapped interfaces %v, want %v", name, got, want)
		}
		if w.Name() != a.Name() {
			t.Errorf("%s: wrapped name %q, want %q", name, w.Name(), a.Name())
		}
	}
}

func TestTimedStorePassesThrough(t *testing.T) {
	plain, err := campaign.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	inner, err := campaign.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer inner.Close()
	ts := &timedStore{inner: inner}
	w := committed(t, "sct-first-bug")
	for i := 0; i < 5; i++ {
		c := &w.cells[i]
		s, err := runner.RunSession(bgCtx, c.tgt, c.alg, c.cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		k := c.key(0)
		if _, ok := ts.Lookup(k); ok {
			t.Fatal("lookup hit before store")
		}
		want, err1 := plain.Store(k, s)
		got, err2 := ts.Store(k, s)
		if err1 != nil || err2 != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("Store through the decorator = %+v, %v; want %+v, %v", got, err2, want, err1)
		}
		back, ok := ts.Lookup(k)
		direct, _ := inner.Lookup(k)
		if !ok || !reflect.DeepEqual(back, direct) {
			t.Fatalf("Lookup through the decorator = %+v, %v; want %+v", back, ok, direct)
		}
	}
	if len(ts.stores) != 5 || len(ts.lookups) != 10 {
		t.Fatalf("timed %d stores and %d lookups, want 5 and 10", len(ts.stores), len(ts.lookups))
	}
}

func TestRPCTransportPassesThrough(t *testing.T) {
	lease := remote.LeaseResponse{Lease: &remote.Lease{ID: "L1", Target: "T", Algorithm: "RW", Limit: 3, Sessions: []int{4}}}
	leaseBody, _ := json.Marshal(lease)
	resultBody := []byte(`{"accepted":1,"duplicates":0}`)
	var mu sync.Mutex
	received := make(map[string][]byte)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		mu.Lock()
		received[r.URL.Path] = b
		mu.Unlock()
		switch r.URL.Path {
		case remote.PathLease:
			w.Write(leaseBody)
		case remote.PathResult:
			w.Write(resultBody)
		}
	}))
	defer srv.Close()
	log := newRPCLog()
	client := &http.Client{Transport: &rpcTransport{base: http.DefaultTransport, log: log}}
	post := func(path string, body []byte) []byte {
		resp, err := client.Post(srv.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	leaseReq := []byte(`{"worker":"w"}`)
	if got := post(remote.PathLease, leaseReq); !bytes.Equal(got, leaseBody) {
		t.Fatalf("lease response %s, want %s", got, leaseBody)
	}
	resultReq := []byte(`{"worker":"w","lease_id":"L1","busy_ms":2,"records":[]}`)
	if got := post(remote.PathResult, resultReq); !bytes.Equal(got, resultBody) {
		t.Fatalf("result response %s, want %s", got, resultBody)
	}
	if !bytes.Equal(received[remote.PathLease], leaseReq) || !bytes.Equal(received[remote.PathResult], resultReq) {
		t.Fatalf("server received %q", received)
	}
	if len(log.accepted) != 1 || log.accepted[0].lease.ID != "L1" || log.sessions != 1 {
		t.Fatalf("accepted %+v, sessions %d; want lease L1 with one session", log.accepted, log.sessions)
	}
	if log.attempts != 2 || log.failures != 0 {
		t.Fatalf("attempts %d failures %d, want 2 and 0", log.attempts, log.failures)
	}
}

// committed loads a workload with its committed digests.
func committed(t *testing.T, name string) *workload {
	t.Helper()
	table, err := parseDigests(digestsFile)
	if err != nil {
		t.Fatal(err)
	}
	w, err := loadWorkload(name, table)
	if err != nil {
		t.Fatal(err)
	}
	return w
}
